//! Event-based discrete-time simulation of discharge-based in-SRAM operations.
//!
//! The paper incorporates its behavioural models "into a versatile
//! discrete-time simulation framework written in SystemVerilog".  This module
//! is the Rust equivalent: operations on an SRAM column group (pre-charge,
//! write, word-line pulses, sampling) are described as timestamped events;
//! the simulator processes them in order and uses the fitted [`ModelSuite`]
//! to compute analog voltages and energies — no differential equations are
//! solved, which is where the speed-up over circuit simulation comes from.

use crate::error::ModelError;
use crate::model::suite::ModelSuite;
use optima_math::units::{Celsius, FemtoJoules, Seconds, Volts};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// What happens at an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Pre-charge the bit-line of `column` back to the supply level.
    Precharge {
        /// Column index.
        column: usize,
    },
    /// Write `bit` into the accessed cell of `column`.
    Write {
        /// Column index.
        column: usize,
        /// New cell content.
        bit: bool,
    },
    /// Drive all word-lines of the column group to `voltage` (starts a discharge).
    DriveWordLine {
        /// Analog word-line voltage.
        voltage: Volts,
    },
    /// Release the word-lines (stops the ongoing discharge).
    ReleaseWordLine,
    /// Sample the bit-line voltage of `column` (an ADC sample-and-hold).
    SampleBitline {
        /// Column index.
        column: usize,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When the event happens (simulation time).
    pub time: Seconds,
    /// What happens.
    pub kind: EventKind,
}

impl Event {
    /// Convenience constructor.
    pub fn new(time: Seconds, kind: EventKind) -> Self {
        Event { time, kind }
    }
}

/// One recorded bit-line sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitlineSample {
    /// Sampling time.
    pub time: Seconds,
    /// Sampled column.
    pub column: usize,
    /// Sampled bit-line voltage.
    pub voltage: Volts,
    /// Discharge relative to the pre-charge level.
    pub discharge: Volts,
}

/// Output of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimulationTrace {
    /// All recorded bit-line samples, in event order.
    pub samples: Vec<BitlineSample>,
    /// Total energy of all writes.
    pub write_energy: FemtoJoules,
    /// Total energy of all discharges (accounted at the following pre-charge
    /// or at the end of the run).
    pub discharge_energy: FemtoJoules,
    /// Number of events processed.
    pub events_processed: usize,
}

impl SimulationTrace {
    /// Total energy of the run.
    pub fn total_energy(&self) -> FemtoJoules {
        FemtoJoules(self.write_energy.0 + self.discharge_energy.0)
    }

    /// The samples of one column, in time order.
    ///
    /// Returns a lazy iterator — this is called inside sweep loops, and the
    /// previous `Vec<&BitlineSample>` return type allocated on every call.
    pub fn samples_for_column(&self, column: usize) -> impl Iterator<Item = &BitlineSample> + '_ {
        self.samples.iter().filter(move |s| s.column == column)
    }
}

/// Per-column analog state tracked by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ColumnState {
    stored_bit: bool,
    /// Discharge accumulated from completed word-line pulses.
    accumulated_discharge: f64,
    /// Whether the column has discharged since its last pre-charge (for
    /// energy accounting).
    pending_discharge: f64,
}

impl ColumnState {
    fn new() -> Self {
        ColumnState {
            stored_bit: false,
            accumulated_discharge: 0.0,
            pending_discharge: 0.0,
        }
    }
}

/// The event-driven behavioural simulator.
///
/// # Example
///
/// Build a single-column discharge schedule and read back the sampled voltage:
///
/// ```rust,no_run
/// # fn main() -> Result<(), optima_core::ModelError> {
/// # use optima_circuit::prelude::*;
/// # use optima_core::calibration::{CalibrationConfig, Calibrator};
/// use optima_core::simulator::{Event, EventKind, EventSimulator};
/// use optima_math::units::{Seconds, Volts};
///
/// # let technology = Technology::tsmc65_like();
/// # let models = Calibrator::new(technology, CalibrationConfig::fast()).run()?.into_models();
/// let mut sim = EventSimulator::new(models, 1);
/// let trace = sim.run(&[
///     Event::new(Seconds(0.0), EventKind::Write { column: 0, bit: true }),
///     Event::new(Seconds(1e-10), EventKind::Precharge { column: 0 }),
///     Event::new(Seconds(2e-10), EventKind::DriveWordLine { voltage: Volts(0.8) }),
///     Event::new(Seconds(1.2e-9), EventKind::SampleBitline { column: 0 }),
///     Event::new(Seconds(1.3e-9), EventKind::ReleaseWordLine),
/// ])?;
/// assert_eq!(trace.samples.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EventSimulator {
    models: ModelSuite,
    columns: Vec<ColumnState>,
    vdd: Volts,
    temperature: Celsius,
    mismatch_rng: Option<ChaCha8Rng>,
    wordline: Option<(Volts, f64)>,
}

impl EventSimulator {
    /// Creates a simulator for `columns` bit-line columns using the fitted models.
    pub fn new(models: ModelSuite, columns: usize) -> Self {
        let vdd = models.vdd_nominal();
        let temperature = models.temperature_nominal();
        EventSimulator {
            models,
            columns: vec![ColumnState::new(); columns.max(1)],
            vdd,
            temperature,
            mismatch_rng: None,
            wordline: None,
        }
    }

    /// Sets the supply voltage of the run (builder style).
    pub fn with_supply(mut self, vdd: Volts) -> Self {
        self.vdd = vdd;
        self
    }

    /// Sets the junction temperature of the run (builder style).
    pub fn with_temperature(mut self, temperature: Celsius) -> Self {
        self.temperature = temperature;
        self
    }

    /// Enables per-discharge mismatch sampling with the given seed (builder style).
    pub fn with_mismatch_seed(mut self, seed: u64) -> Self {
        self.mismatch_rng = Some(ChaCha8Rng::seed_from_u64(seed));
        self
    }

    /// Number of columns being simulated.
    pub fn columns(&self) -> usize {
        self.columns.len()
    }

    /// The model suite driving the simulation.
    pub fn models(&self) -> &ModelSuite {
        &self.models
    }

    /// Runs a schedule of events (must be sorted by time) and returns the trace.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidSchedule`] for unsorted events, invalid column
    ///   indices or a second `DriveWordLine` while one is already active.
    /// * [`ModelError::OutOfCalibrationRange`] when a discharge interval falls
    ///   outside the calibrated model domain.
    pub fn run(&mut self, events: &[Event]) -> Result<SimulationTrace, ModelError> {
        let mut trace = SimulationTrace::default();
        let mut last_time = f64::NEG_INFINITY;

        for event in events {
            let now = event.time.0;
            if now < last_time {
                return Err(ModelError::InvalidSchedule {
                    context: format!("event at t = {now} s arrives after t = {last_time} s"),
                });
            }
            last_time = now;
            self.process(event, now, &mut trace)?;
            trace.events_processed += 1;
        }

        // Account the energy of discharges that were never followed by a
        // pre-charge inside the schedule.
        for column in &mut self.columns {
            if column.pending_discharge > 0.0 {
                trace.discharge_energy.0 += self
                    .models
                    .discharge_energy(Volts(column.pending_discharge), self.vdd, self.temperature)
                    .0;
                column.pending_discharge = 0.0;
            }
        }
        Ok(trace)
    }

    fn process(
        &mut self,
        event: &Event,
        now: f64,
        trace: &mut SimulationTrace,
    ) -> Result<(), ModelError> {
        match event.kind {
            EventKind::Precharge { column } => {
                let state = self.column_mut(column)?;
                let pending = state.pending_discharge;
                state.accumulated_discharge = 0.0;
                state.pending_discharge = 0.0;
                if pending > 0.0 {
                    trace.discharge_energy.0 += self
                        .models
                        .discharge_energy(Volts(pending), self.vdd, self.temperature)
                        .0;
                }
            }
            EventKind::Write { column, bit } => {
                self.column_mut(column)?.stored_bit = bit;
                trace.write_energy.0 += self.models.write_energy(self.vdd, self.temperature).0;
            }
            EventKind::DriveWordLine { voltage } => {
                if self.wordline.is_some() {
                    return Err(ModelError::InvalidSchedule {
                        context: "word-line driven while already active".to_string(),
                    });
                }
                self.wordline = Some((voltage, now));
            }
            EventKind::ReleaseWordLine => {
                let (voltage, since) = self.wordline.take().ok_or(ModelError::InvalidSchedule {
                    context: "word-line released while not active".to_string(),
                })?;
                let elapsed = Seconds(now - since);
                if elapsed.0 > 0.0 {
                    for column in 0..self.columns.len() {
                        let delta = self.column_discharge(column, voltage, elapsed)?;
                        let state = &mut self.columns[column];
                        state.accumulated_discharge += delta;
                        state.pending_discharge += delta;
                    }
                }
            }
            EventKind::SampleBitline { column } => {
                let ongoing = match self.wordline {
                    Some((voltage, since)) if now > since => {
                        self.column_discharge(column, voltage, Seconds(now - since))?
                    }
                    _ => 0.0,
                };
                let state = self.column(column)?;
                let precharge = self.models.precharge_level(self.vdd);
                let discharge = state.accumulated_discharge + ongoing;
                trace.samples.push(BitlineSample {
                    time: event.time,
                    column,
                    voltage: Volts((precharge.0 - discharge).max(0.0)),
                    discharge: Volts(discharge),
                });
            }
        }
        Ok(())
    }

    /// Discharge contribution of one word-line pulse of length `elapsed` for `column`.
    fn column_discharge(
        &mut self,
        column: usize,
        voltage: Volts,
        elapsed: Seconds,
    ) -> Result<f64, ModelError> {
        let stored_bit = self.column(column)?.stored_bit;
        match &mut self.mismatch_rng {
            Some(rng) => Ok(self
                .models
                .discharge_with_mismatch(
                    rng,
                    elapsed,
                    voltage,
                    stored_bit,
                    self.vdd,
                    self.temperature,
                )?
                .0),
            None => Ok(self
                .models
                .discharge(elapsed, voltage, stored_bit, self.vdd, self.temperature)?
                .0),
        }
    }

    fn column(&self, column: usize) -> Result<&ColumnState, ModelError> {
        self.columns.get(column).ok_or(ModelError::InvalidSchedule {
            context: format!(
                "column {column} out of range ({} columns)",
                self.columns.len()
            ),
        })
    }

    fn column_mut(&mut self, column: usize) -> Result<&mut ColumnState, ModelError> {
        let count = self.columns.len();
        self.columns
            .get_mut(column)
            .ok_or(ModelError::InvalidSchedule {
                context: format!("column {column} out of range ({count} columns)"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::discharge::DischargeModel;
    use crate::model::energy::{DischargeEnergyModel, WriteEnergyModel};
    use crate::model::mismatch::MismatchSigmaModel;
    use crate::model::supply::SupplyModel;
    use crate::model::temperature::TemperatureModel;
    use optima_math::Polynomial;

    /// Linear toy models: ΔV = 0.3 · V_od · t[ns].
    fn toy_suite() -> ModelSuite {
        ModelSuite::new(
            DischargeModel::new(
                Volts(1.0),
                Volts(0.45),
                Polynomial::new(vec![0.0, -0.3]),
                Polynomial::new(vec![0.0, 1.0]),
                (0.0, 5.0),
                (0.0, 1.1),
            ),
            SupplyModel::identity(Volts(1.0)),
            TemperatureModel::identity(Celsius(25.0)),
            MismatchSigmaModel::new(
                Polynomial::new(vec![0.0, 1e-3]),
                Polynomial::new(vec![0.0, 1.0]),
            ),
            WriteEnergyModel::new(Polynomial::new(vec![20.0]), Polynomial::new(vec![1.0])),
            DischargeEnergyModel::new(
                Polynomial::new(vec![1.0]),
                Polynomial::new(vec![0.0, 100.0]),
                Polynomial::new(vec![1.0]),
            ),
        )
    }

    fn simple_schedule(bit: bool, v_wl: f64, sample_at_ns: f64) -> Vec<Event> {
        vec![
            Event::new(Seconds(0.0), EventKind::Write { column: 0, bit }),
            Event::new(Seconds(0.05e-9), EventKind::Precharge { column: 0 }),
            Event::new(
                Seconds(0.1e-9),
                EventKind::DriveWordLine {
                    voltage: Volts(v_wl),
                },
            ),
            Event::new(
                Seconds(0.1e-9 + sample_at_ns * 1e-9),
                EventKind::SampleBitline { column: 0 },
            ),
            Event::new(
                Seconds(0.2e-9 + sample_at_ns * 1e-9),
                EventKind::ReleaseWordLine,
            ),
        ]
    }

    #[test]
    fn stored_one_discharges_stored_zero_does_not() {
        let mut sim = EventSimulator::new(toy_suite(), 1);
        let trace = sim.run(&simple_schedule(true, 0.85, 1.0)).unwrap();
        let sample = trace.samples[0];
        assert!((sample.discharge.0 - 0.3 * 0.4).abs() < 1e-9);
        assert!((sample.voltage.0 - (1.0 - 0.12)).abs() < 1e-9);

        let mut sim = EventSimulator::new(toy_suite(), 1);
        let trace = sim.run(&simple_schedule(false, 0.85, 1.0)).unwrap();
        assert_eq!(trace.samples[0].discharge.0, 0.0);
        assert_eq!(trace.samples[0].voltage.0, 1.0);
    }

    #[test]
    fn longer_pulses_discharge_more() {
        let mut sim = EventSimulator::new(toy_suite(), 1);
        let short = sim.run(&simple_schedule(true, 0.85, 0.5)).unwrap().samples[0].discharge;
        let mut sim = EventSimulator::new(toy_suite(), 1);
        let long = sim.run(&simple_schedule(true, 0.85, 2.0)).unwrap().samples[0].discharge;
        assert!(long.0 > short.0);
    }

    #[test]
    fn energies_are_accumulated() {
        let mut sim = EventSimulator::new(toy_suite(), 1);
        let trace = sim.run(&simple_schedule(true, 0.85, 1.0)).unwrap();
        assert!((trace.write_energy.0 - 20.0).abs() < 1e-9);
        // The word line is active from 0.1 ns to 1.2 ns, so the discharge is
        // 0.3 · 0.4 · 1.1 ns = 0.132 V ⇒ 13.2 fJ with the toy 100 fJ/V model.
        assert!((trace.discharge_energy.0 - 13.2).abs() < 1e-6);
        assert!((trace.total_energy().0 - 33.2).abs() < 1e-6);
        assert_eq!(trace.events_processed, 5);
    }

    #[test]
    fn multi_column_schedule_with_different_sample_times() {
        // Two columns storing '1', sampled at different times ⇒ bit weighting.
        let mut sim = EventSimulator::new(toy_suite(), 2);
        let events = vec![
            Event::new(
                Seconds(0.0),
                EventKind::Write {
                    column: 0,
                    bit: true,
                },
            ),
            Event::new(
                Seconds(0.0),
                EventKind::Write {
                    column: 1,
                    bit: true,
                },
            ),
            Event::new(Seconds(0.05e-9), EventKind::Precharge { column: 0 }),
            Event::new(Seconds(0.05e-9), EventKind::Precharge { column: 1 }),
            Event::new(
                Seconds(0.1e-9),
                EventKind::DriveWordLine {
                    voltage: Volts(0.95),
                },
            ),
            Event::new(Seconds(0.6e-9), EventKind::SampleBitline { column: 0 }),
            Event::new(Seconds(1.1e-9), EventKind::SampleBitline { column: 1 }),
            Event::new(Seconds(1.2e-9), EventKind::ReleaseWordLine),
        ];
        let trace = sim.run(&events).unwrap();
        let col0: Vec<_> = trace.samples_for_column(0).collect();
        let col1: Vec<_> = trace.samples_for_column(1).collect();
        assert_eq!(col0.len(), 1);
        assert_eq!(col1.len(), 1);
        // Column 1 was sampled twice as late ⇒ about twice the discharge.
        let ratio = col1[0].discharge.0 / col0[0].discharge.0;
        assert!((ratio - 2.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let mut sim = EventSimulator::new(toy_suite(), 1);
        // Out-of-order events.
        let err = sim
            .run(&[
                Event::new(Seconds(1e-9), EventKind::Precharge { column: 0 }),
                Event::new(Seconds(0.5e-9), EventKind::Precharge { column: 0 }),
            ])
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidSchedule { .. }));

        // Unknown column.
        let mut sim = EventSimulator::new(toy_suite(), 1);
        assert!(sim
            .run(&[Event::new(Seconds(0.0), EventKind::Precharge { column: 3 })])
            .is_err());

        // Double word-line drive.
        let mut sim = EventSimulator::new(toy_suite(), 1);
        assert!(sim
            .run(&[
                Event::new(
                    Seconds(0.0),
                    EventKind::DriveWordLine {
                        voltage: Volts(0.8)
                    }
                ),
                Event::new(
                    Seconds(1e-10),
                    EventKind::DriveWordLine {
                        voltage: Volts(0.9)
                    }
                ),
            ])
            .is_err());

        // Release without drive.
        let mut sim = EventSimulator::new(toy_suite(), 1);
        assert!(sim
            .run(&[Event::new(Seconds(0.0), EventKind::ReleaseWordLine)])
            .is_err());
    }

    #[test]
    fn mismatch_seed_makes_runs_reproducible_but_noisy() {
        let schedule = simple_schedule(true, 0.9, 1.5);
        let mut sim_a = EventSimulator::new(toy_suite(), 1).with_mismatch_seed(11);
        let mut sim_b = EventSimulator::new(toy_suite(), 1).with_mismatch_seed(11);
        let mut sim_c = EventSimulator::new(toy_suite(), 1);
        let a = sim_a.run(&schedule).unwrap().samples[0].discharge.0;
        let b = sim_b.run(&schedule).unwrap().samples[0].discharge.0;
        let c = sim_c.run(&schedule).unwrap().samples[0].discharge.0;
        assert_eq!(a, b, "equal seeds must reproduce");
        assert!(
            (a - c).abs() > 0.0,
            "mismatch must perturb the nominal value"
        );
    }

    #[test]
    fn supply_and_temperature_builders_are_applied() {
        let mut sim = EventSimulator::new(toy_suite(), 1)
            .with_supply(Volts(1.05))
            .with_temperature(Celsius(75.0));
        assert_eq!(sim.columns(), 1);
        let trace = sim.run(&simple_schedule(true, 0.85, 1.0)).unwrap();
        // The toy supply model is the identity, so the value matches nominal;
        // the point is that the run still works at a non-nominal operating point.
        assert!(trace.samples[0].discharge.0 > 0.0);
        assert!(sim.models().vdd_nominal().0 > 0.0);
    }
}
