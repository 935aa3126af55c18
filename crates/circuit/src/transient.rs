//! Transient (time-domain) simulation of the bit-line discharge.
//!
//! This is the *golden reference*: the bit-line node equation
//! `C_BL · dV_BLB/dt = −I_cell(V_WL, V_BLB)` is integrated with a fine-grained
//! Runge–Kutta scheme, exactly the kind of differential-equation solving the
//! paper describes as accurate but slow.  The OPTIMA behavioural models in
//! `optima-core` are calibrated against and evaluated against the waveforms
//! produced here, and the paper's speed-up claim is measured as the runtime
//! ratio between this simulator and the fitted models.

use crate::bitline::BitLine;
use crate::energy::EnergyReport;
use crate::error::CircuitError;
use crate::montecarlo::MismatchSample;
use crate::pvt::PvtConditions;
use crate::sram::SramCell;
use crate::technology::Technology;
use crate::waveform::Waveform;
use optima_math::ode;
use optima_math::units::{Seconds, Volts};

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

    /// Simulates the BLB voltage over time for one discharge operation.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidOperatingPoint`] for non-physical
    /// stimulus parameters (non-positive duration, zero steps, V_WL outside
    /// `[0, 1.5·VDD]`) and propagates numeric failures of the integrator.
    pub fn discharge_waveform(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Result<Waveform, CircuitError> {
        self.validate(stimulus, pvt)?;
        let cell = SramCell::new(stimulus.stored_bit, &self.technology, pvt, mismatch);
        let capacitance = self
            .technology
            .bitline_capacitance(stimulus.cells_on_bitline)
            .0;
        let v_wl = stimulus.word_line_voltage;

        let solution = ode::rk4(
            |_t, state, derivative| {
                let v_blb = Volts(state[0].max(0.0));
                let current = cell.discharge_current(v_wl, v_blb).0;
                derivative[0] = -current / capacitance;
            },
            &[pvt.vdd.0],
            0.0,
            stimulus.duration.0,
            stimulus.time_steps,
        )?;

        let times = solution.times();
        let values = solution.component(0);
        Waveform::from_samples(times, values)
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
