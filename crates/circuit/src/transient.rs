//! Transient (time-domain) simulation of the bit-line discharge.
//!
//! This is the *golden reference*: the bit-line node equation
//! `C_BL · dV_BLB/dt = −I_cell(V_WL, V_BLB)` is integrated with a fine-grained
//! Runge–Kutta scheme, exactly the kind of differential-equation solving the
//! paper describes as accurate but slow.  The OPTIMA behavioural models in
//! `optima-core` are calibrated against and evaluated against the waveforms
//! produced here, and the paper's speed-up claim is measured as the runtime
//! ratio between this simulator and the fitted models.
//!
//! The reference is lane-batched and allocation-free.  Within one transient
//! the word line, V_th and β are fixed, so each cell's gate-only terms are
//! computed once ([`SramCell::at_word_line`]) rather than per RK stage.  A
//! Monte-Carlo batch ([`TransientSimulator::discharge_waveforms`]) advances
//! [`TransientSimulator::LANES`] mismatch instances of one stimulus in
//! lock-step through the same [`ode::rk4`] loop a single waveform
//! uses: they share the time grid, each lane runs exactly the one-lane
//! arithmetic (so every waveform is bit-identical to a lone integration),
//! and the divide latency of one lane's chain overlaps the others.  The
//! trajectory buffers are reused from lane group to lane group, so a step
//! allocates nothing and a batch streams its waveforms out group by group.

use crate::bitline::BitLine;
use crate::energy::EnergyReport;
use crate::error::CircuitError;
use crate::montecarlo::MismatchSample;
use crate::pvt::PvtConditions;
use crate::sram::{BiasedCell, SramCell};
use crate::technology::Technology;
use crate::waveform::Waveform;
use optima_math::ode::{self, OdeSolution};
use optima_math::units::{Seconds, Volts};
use std::fmt;

/// Stimulus description for a single-cell discharge experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DischargeStimulus {
    /// Analog word-line voltage applied during the discharge phase.
    pub word_line_voltage: Volts,
    /// Data bit stored in the accessed cell ('1' discharges BLB).
    pub stored_bit: bool,
    /// Duration of the discharge phase.
    pub duration: Seconds,
    /// Number of cells attached to the bit-line (sets its capacitance).
    pub cells_on_bitline: usize,
    /// Number of integration steps of the fixed-step reference solver.
    pub time_steps: usize,
}

impl Default for DischargeStimulus {
    fn default() -> Self {
        DischargeStimulus {
            word_line_voltage: Volts(1.0),
            stored_bit: true,
            duration: Seconds(2e-9),
            cells_on_bitline: 16,
            time_steps: 400,
        }
    }
}

/// Failure of one instance of a lane-batched Monte-Carlo integration
/// ([`TransientSimulator::discharge_waveforms`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchError {
    /// Position of the failing instance in the batch's mismatch slice.  A
    /// stimulus that is invalid for every instance fails at index 0.
    pub index: usize,
    /// What went wrong.
    pub source: CircuitError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mismatch instance {} failed: {}",
            self.index, self.source
        )
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The golden-reference transient simulator.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_circuit::CircuitError> {
/// use optima_circuit::prelude::*;
///
/// let tech = Technology::tsmc65_like();
/// let sim = TransientSimulator::new(tech.clone());
/// let pvt = PvtConditions::nominal(&tech);
/// let wf = sim.discharge_waveform(&DischargeStimulus::default(), &pvt, &MismatchSample::none())?;
/// assert!(wf.final_value() < wf.initial_value());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSimulator {
    technology: Technology,
}

impl TransientSimulator {
    /// Creates a simulator for the given technology.
    pub fn new(technology: Technology) -> Self {
        TransientSimulator { technology }
    }

    /// The technology the simulator was built for.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Number of mismatch instances a Monte-Carlo batch integrates in
    /// lock-step (see the [module docs](self)).
    pub const LANES: usize = 4;

    /// Simulates the BLB voltage over time for one discharge operation.
    ///
    /// This is a one-lane call of the kernel
    /// [`TransientSimulator::discharge_waveforms`] runs.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidOperatingPoint`] for non-physical
    /// stimulus parameters (non-positive duration, zero steps, V_WL outside
    /// `[0, 1.5·VDD]`) or a non-finite mismatch sample, and propagates
    /// numeric failures of the integrator.
    pub fn discharge_waveform(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Result<Waveform, CircuitError> {
        self.validate(stimulus, pvt)?;
        check_mismatch(mismatch)?;
        let cell = self.biased_cell(stimulus, pvt, mismatch);
        let mut solution = OdeSolution::default();
        self.integrate([cell], stimulus, pvt, &mut solution)?;
        let (times, values) = solution.into_parts();
        Waveform::from_samples(times, values)
    }

    /// Simulates one discharge per mismatch instance of the same stimulus
    /// and hands each waveform to `visit` with its index in `mismatches`,
    /// in order.
    ///
    /// The instances are integrated [`TransientSimulator::LANES`] at a time
    /// in lock-step, and every waveform is bit-identical to
    /// [`TransientSimulator::discharge_waveform`] of the same instance.  Only
    /// one lane group is held at a time: the waveform `visit` sees is
    /// overwritten by the next instance, so copy out what must outlive the
    /// call.
    ///
    /// # Errors
    ///
    /// Returns a [`BatchError`] naming the failing instance: the errors of
    /// [`TransientSimulator::discharge_waveform`] (an invalid stimulus fails
    /// at index 0) or the first error `visit` returns.
    pub fn discharge_waveforms<F>(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatches: &[MismatchSample],
        mut visit: F,
    ) -> Result<(), BatchError>
    where
        F: FnMut(usize, &Waveform) -> Result<(), CircuitError>,
    {
        let at = |index: usize| move |source: CircuitError| BatchError { index, source };
        self.validate(stimulus, pvt).map_err(at(0))?;
        let mut solution = OdeSolution::<{ Self::LANES }>::default();
        let mut waveform: Option<Waveform> = None;
        for (group_index, group) in mismatches.chunks(Self::LANES).enumerate() {
            let base = group_index * Self::LANES;
            for (lane, mismatch) in group.iter().enumerate() {
                check_mismatch(mismatch).map_err(at(base + lane))?;
            }
            // A partial last group repeats its last instance in the spare
            // lanes, whose results are never read.
            let cells: [BiasedCell; Self::LANES] = std::array::from_fn(|lane| {
                self.biased_cell(stimulus, pvt, &group[lane.min(group.len() - 1)])
            });
            self.integrate(cells, stimulus, pvt, &mut solution)
                .map_err(at(base))?;
            for lane in 0..group.len() {
                let index = base + lane;
                let values = solution.component(lane);
                let current = match waveform.as_mut() {
                    // Every group shares the time grid validated for the first.
                    Some(current) => {
                        current.overwrite_values(values).map_err(at(index))?;
                        current
                    }
                    None => waveform.insert(
                        Waveform::from_samples(solution.times().to_vec(), values.collect())
                            .map_err(at(index))?,
                    ),
                };
                visit(index, current).map_err(at(index))?;
            }
        }
        Ok(())
    }

    /// The cell of one mismatch instance under `stimulus`, with its word
    /// line bias hoisted.
    fn biased_cell(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> BiasedCell {
        SramCell::new(stimulus.stored_bit, &self.technology, pvt, mismatch)
            .at_word_line(stimulus.word_line_voltage)
    }

    /// The RK kernel: integrates `C_BL · dV/dt = −I_cell(V)` for `N` cells
    /// in lock-step from the supply voltage, one lane per cell.
    fn integrate<const N: usize>(
        &self,
        cells: [BiasedCell; N],
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        solution: &mut OdeSolution<N>,
    ) -> Result<(), CircuitError> {
        let capacitance = self
            .technology
            .bitline_capacitance(stimulus.cells_on_bitline)
            .0;
        // optima-lint: hot
        ode::rk4(
            |_t, state: &[f64; N], derivative: &mut [f64; N]| {
                for lane in 0..N {
                    let v_blb = Volts(state[lane].max(0.0));
                    let current = cells[lane].discharge_current(v_blb).0;
                    derivative[lane] = -current / capacitance;
                }
            },
            [pvt.vdd.0; N],
            0.0,
            stimulus.duration.0,
            stimulus.time_steps,
            solution,
        )?;
        // optima-lint: end-hot
        Ok(())
    }

    /// Convenience wrapper returning only the discharge `ΔV_BL` observed at
    /// the end of the stimulus (initial voltage − final voltage).
    ///
    /// # Errors
    ///
    /// Same as [`TransientSimulator::discharge_waveform`].
    pub fn discharge_delta(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Result<Volts, CircuitError> {
        let waveform = self.discharge_waveform(stimulus, pvt, mismatch)?;
        Ok(Volts(waveform.initial_value() - waveform.final_value()))
    }

    /// Simulates one full operation (write + pre-charge + discharge) and
    /// returns its energy breakdown.
    ///
    /// # Errors
    ///
    /// Same as [`TransientSimulator::discharge_waveform`].
    pub fn operation_energy(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Result<EnergyReport, CircuitError> {
        let waveform = self.discharge_waveform(stimulus, pvt, mismatch)?;
        let mut bitline = BitLine::for_column(&self.technology, stimulus.cells_on_bitline, pvt.vdd);
        bitline.set_voltage(Volts(waveform.final_value()));
        let precharge = bitline.precharge(pvt.vdd);
        Ok(EnergyReport::for_operation(
            &self.technology,
            pvt,
            stimulus.cells_on_bitline,
            precharge,
        ))
    }

    fn validate(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
    ) -> Result<(), CircuitError> {
        if stimulus.duration.0 <= 0.0 || !stimulus.duration.0.is_finite() {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!(
                    "discharge duration must be positive, got {}",
                    stimulus.duration.0
                ),
            });
        }
        if stimulus.time_steps == 0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "time_steps must be non-zero".to_string(),
            });
        }
        if stimulus.cells_on_bitline == 0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "a bit-line needs at least one attached cell".to_string(),
            });
        }
        let v_wl = stimulus.word_line_voltage.0;
        if v_wl < 0.0 || v_wl > 1.5 * pvt.vdd.0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!("word-line voltage {v_wl} outside [0, {}]", 1.5 * pvt.vdd.0),
            });
        }
        if pvt.vdd.0 <= 0.0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "supply voltage must be positive".to_string(),
            });
        }
        Ok(())
    }
}

/// Rejects a mismatch sample whose deviations are not finite (they would
/// integrate to a NaN waveform).
fn check_mismatch(mismatch: &MismatchSample) -> Result<(), CircuitError> {
    if mismatch.delta_vth.0.is_finite() && mismatch.delta_beta_rel.is_finite() {
        return Ok(());
    }
    Err(CircuitError::InvalidOperatingPoint {
        context: format!(
            "mismatch sample is not finite (delta Vth {} V, delta beta {})",
            mismatch.delta_vth.0, mismatch.delta_beta_rel
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::ProcessCorner;
    use optima_math::units::Celsius;

    fn sim() -> (TransientSimulator, PvtConditions) {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        (TransientSimulator::new(tech), pvt)
    }

    #[test]
    fn stored_zero_keeps_bitline_at_vdd() {
        let (sim, pvt) = sim();
        let stimulus = DischargeStimulus {
            stored_bit: false,
            ..DischargeStimulus::default()
        };
        let wf = sim
            .discharge_waveform(&stimulus, &pvt, &MismatchSample::none())
            .unwrap();
        assert!(wf.swing() < 1e-9, "a '0' cell must not discharge BLB");
    }

    #[test]
    fn discharge_grows_with_word_line_voltage() {
        // The monotone V_WL dependency of Fig. 4b.
        let (sim, pvt) = sim();
        let mut previous = 0.0;
        for v_wl in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
            let stimulus = DischargeStimulus {
                word_line_voltage: Volts(v_wl),
                duration: Seconds(0.5e-9),
                ..DischargeStimulus::default()
            };
            let delta = sim
                .discharge_delta(&stimulus, &pvt, &MismatchSample::none())
                .unwrap()
                .0;
            assert!(delta > previous, "ΔV must grow with V_WL");
            previous = delta;
        }
    }

    #[test]
    fn discharge_is_nonlinear_in_word_line_voltage() {
        // Quadratic device current ⇒ doubling the overdrive should much more
        // than double the discharge (Section III-1).
        let (sim, pvt) = sim();
        let delta = |v_wl: f64| {
            sim.discharge_delta(
                &DischargeStimulus {
                    word_line_voltage: Volts(v_wl),
                    duration: Seconds(0.4e-9),
                    ..DischargeStimulus::default()
                },
                &pvt,
                &MismatchSample::none(),
            )
            .unwrap()
            .0
        };
        let low = delta(0.65); // overdrive 0.2
        let high = delta(0.85); // overdrive 0.4
        assert!(high > 2.5 * low, "nonlinearity missing: {low} vs {high}");
    }

    #[test]
    fn sub_threshold_word_line_produces_small_discharge() {
        let (sim, pvt) = sim();
        let stimulus = DischargeStimulus {
            word_line_voltage: Volts(0.3),
            ..DischargeStimulus::default()
        };
        let delta = sim
            .discharge_delta(&stimulus, &pvt, &MismatchSample::none())
            .unwrap()
            .0;
        assert!(delta > 0.0, "subthreshold leakage discharge expected");
        assert!(delta < 0.05, "subthreshold discharge must stay small");
    }

    #[test]
    fn discharge_saturates_towards_linear_region() {
        // Over a long window the discharge rate slows once V_BLB < V_WL − Vth
        // (Fig. 4a dotted saturation curves).
        let (sim, pvt) = sim();
        let stimulus = DischargeStimulus {
            word_line_voltage: Volts(1.0),
            duration: Seconds(4e-9),
            time_steps: 800,
            ..DischargeStimulus::default()
        };
        let wf = sim
            .discharge_waveform(&stimulus, &pvt, &MismatchSample::none())
            .unwrap();
        let early_rate = wf.values()[0] - wf.sample_at(Seconds(0.5e-9)).unwrap().0;
        let late_start = wf.sample_at(Seconds(3.0e-9)).unwrap().0;
        let late_rate = late_start - wf.sample_at(Seconds(3.5e-9)).unwrap().0;
        assert!(
            late_rate < early_rate * 0.8,
            "discharge should slow down late: early {early_rate}, late {late_rate}"
        );
    }

    #[test]
    fn supply_voltage_shifts_the_whole_curve() {
        let (sim, _) = sim();
        let tech = Technology::tsmc65_like();
        let wf_low = sim
            .discharge_waveform(
                &DischargeStimulus::default(),
                &PvtConditions::nominal(&tech).with_vdd(Volts(0.9)),
                &MismatchSample::none(),
            )
            .unwrap();
        let wf_high = sim
            .discharge_waveform(
                &DischargeStimulus::default(),
                &PvtConditions::nominal(&tech).with_vdd(Volts(1.1)),
                &MismatchSample::none(),
            )
            .unwrap();
        assert!((wf_low.initial_value() - 0.9).abs() < 1e-9);
        assert!((wf_high.initial_value() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn process_corners_order_the_discharge() {
        let (sim, pvt) = sim();
        let delta_for = |corner| {
            sim.discharge_delta(
                &DischargeStimulus {
                    word_line_voltage: Volts(0.8),
                    duration: Seconds(0.5e-9),
                    ..DischargeStimulus::default()
                },
                &pvt.with_corner(corner),
                &MismatchSample::none(),
            )
            .unwrap()
            .0
        };
        let fast = delta_for(ProcessCorner::FastFast);
        let typical = delta_for(ProcessCorner::TypicalTypical);
        let slow = delta_for(ProcessCorner::SlowSlow);
        assert!(fast > typical && typical > slow);
    }

    #[test]
    fn temperature_effect_is_minor_compared_to_vdd_effect() {
        // Fig. 5: temperature barely moves the discharge, supply voltage moves it a lot.
        let (sim, pvt) = sim();
        let stim = DischargeStimulus {
            word_line_voltage: Volts(0.8),
            duration: Seconds(0.5e-9),
            ..DischargeStimulus::default()
        };
        let nominal = sim
            .discharge_waveform(&stim, &pvt, &MismatchSample::none())
            .unwrap();
        let hot = sim
            .discharge_waveform(
                &stim,
                &pvt.with_temperature(Celsius(125.0)),
                &MismatchSample::none(),
            )
            .unwrap();
        let high_vdd = sim
            .discharge_waveform(&stim, &pvt.with_vdd(Volts(1.1)), &MismatchSample::none())
            .unwrap();
        // The supply shift moves the entire V_BL(t) curve (Fig. 5a), while the
        // temperature shift only perturbs it slightly (Fig. 5b).
        let temp_shift = (hot.final_value() - nominal.final_value()).abs();
        let vdd_shift = (high_vdd.final_value() - nominal.final_value()).abs();
        assert!(
            temp_shift < nominal.swing() * 0.25,
            "temperature effect too large: {temp_shift}"
        );
        assert!(
            vdd_shift > temp_shift,
            "VDD must matter more than temperature"
        );
    }

    #[test]
    fn mismatch_changes_the_discharge() {
        let (sim, pvt) = sim();
        let stim = DischargeStimulus {
            word_line_voltage: Volts(0.8),
            duration: Seconds(0.5e-9),
            ..DischargeStimulus::default()
        };
        let nominal = sim
            .discharge_delta(&stim, &pvt, &MismatchSample::none())
            .unwrap()
            .0;
        let slow_device = sim
            .discharge_delta(
                &stim,
                &pvt,
                &MismatchSample {
                    delta_vth: Volts(0.02),
                    delta_beta_rel: -0.04,
                },
            )
            .unwrap()
            .0;
        assert!(slow_device < nominal);
    }

    #[test]
    fn invalid_stimuli_are_rejected() {
        let (sim, pvt) = sim();
        let bad_duration = DischargeStimulus {
            duration: Seconds(0.0),
            ..DischargeStimulus::default()
        };
        assert!(sim
            .discharge_waveform(&bad_duration, &pvt, &MismatchSample::none())
            .is_err());
        let bad_steps = DischargeStimulus {
            time_steps: 0,
            ..DischargeStimulus::default()
        };
        assert!(sim
            .discharge_waveform(&bad_steps, &pvt, &MismatchSample::none())
            .is_err());
        let bad_vwl = DischargeStimulus {
            word_line_voltage: Volts(2.0),
            ..DischargeStimulus::default()
        };
        assert!(sim
            .discharge_waveform(&bad_vwl, &pvt, &MismatchSample::none())
            .is_err());
        let bad_cells = DischargeStimulus {
            cells_on_bitline: 0,
            ..DischargeStimulus::default()
        };
        assert!(sim
            .discharge_waveform(&bad_cells, &pvt, &MismatchSample::none())
            .is_err());
    }

    #[test]
    fn operation_energy_is_positive_and_scales_with_discharge() {
        let (sim, pvt) = sim();
        let small = sim
            .operation_energy(
                &DischargeStimulus {
                    word_line_voltage: Volts(0.55),
                    ..DischargeStimulus::default()
                },
                &pvt,
                &MismatchSample::none(),
            )
            .unwrap();
        let large = sim
            .operation_energy(
                &DischargeStimulus {
                    word_line_voltage: Volts(1.0),
                    ..DischargeStimulus::default()
                },
                &pvt,
                &MismatchSample::none(),
            )
            .unwrap();
        assert!(small.total().0 > 0.0);
        assert!(large.discharge.0 > small.discharge.0);
    }
}
