//! Sense amplifier and the conventional SRAM read path.
//!
//! Discharge-based computing reuses the normal read mechanism of the 6T cell
//! (Section II-A of the paper): both bit-lines are pre-charged, the word-line
//! is asserted, one bit-line discharges and a sense amplifier resolves the
//! differential signal once it exceeds its offset.  This module provides that
//! baseline read path — it is what an in-SRAM computing macro falls back to
//! when it is used as a plain memory.

use crate::error::CircuitError;
use crate::montecarlo::MismatchSample;
use crate::pvt::PvtConditions;
use crate::technology::Technology;
use crate::transient::{DischargeStimulus, TransientSimulator};
use optima_math::units::{Seconds, Volts};

/// A latch-type differential sense amplifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseAmplifier {
    /// Input-referred offset voltage (positive values favour reading '1').
    pub offset: Volts,
    /// Minimum differential input required for a reliable decision.
    pub sensitivity: Volts,
}

impl SenseAmplifier {
    /// An ideal sense amplifier (no offset, 1 mV sensitivity).
    pub fn ideal() -> Self {
        SenseAmplifier {
            offset: Volts(0.0),
            sensitivity: Volts(1e-3),
        }
    }

    /// Creates a sense amplifier with the given offset and sensitivity.
    ///
    /// # Panics
    ///
    /// Panics if `sensitivity` is not positive.
    pub fn new(offset: Volts, sensitivity: Volts) -> Self {
        assert!(sensitivity.0 > 0.0, "sensitivity must be positive");
        SenseAmplifier {
            offset,
            sensitivity,
        }
    }

    /// Resolves the differential input `V_BL − V_BLB`.
    ///
    /// Returns `Some(bit)` when the (offset-corrected) differential exceeds
    /// the sensitivity, `None` when the decision is still metastable.
    pub fn resolve(&self, bitline: Volts, bitline_bar: Volts) -> Option<bool> {
        let differential = bitline.0 - bitline_bar.0 + self.offset.0;
        if differential.abs() < self.sensitivity.0 {
            None
        } else {
            Some(differential > 0.0)
        }
    }
}

/// Outcome of a conventional read operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// The value resolved by the sense amplifier.
    pub value: bool,
    /// The differential bit-line swing at the moment of sensing.
    pub differential: Volts,
    /// The time at which the sense amplifier fired.
    pub sense_time: Seconds,
}

/// Performs a conventional SRAM read of a cell storing `stored_bit` and
/// reports when the sense amplifier can fire.
///
/// The word-line is driven to the full supply voltage; the read is simulated
/// with the same transient engine used for in-SRAM computing, so PVT and
/// mismatch affect the read exactly like they affect computation.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidOperatingPoint`] when the discharge never
/// exceeds the sense-amplifier sensitivity within `max_time`, or propagates
/// transient-simulation errors.
pub fn read_cell(
    technology: &Technology,
    pvt: &PvtConditions,
    mismatch: &MismatchSample,
    sense_amplifier: &SenseAmplifier,
    stored_bit: bool,
    max_time: Seconds,
) -> Result<ReadOutcome, CircuitError> {
    let simulator = TransientSimulator::new(technology.clone());
    // During a read the accessed cell pulls BLB low when it stores '1' and BL
    // low when it stores '0'; simulate the discharging line and keep the
    // complementary line at the pre-charge level.
    let stimulus = DischargeStimulus {
        word_line_voltage: Volts(pvt.vdd.0),
        stored_bit: true,
        duration: max_time,
        ..DischargeStimulus::default()
    };
    let waveform = simulator.discharge_waveform(&stimulus, pvt, mismatch)?;
    let static_line = pvt.vdd;

    // Find the earliest sample at which the SA can resolve the differential.
    for (index, &time) in waveform.times().iter().enumerate() {
        let discharging = Volts(waveform.values()[index]);
        let (bitline, bitline_bar) = if stored_bit {
            (static_line, discharging)
        } else {
            (discharging, static_line)
        };
        if let Some(value) = sense_amplifier.resolve(bitline, bitline_bar) {
            return Ok(ReadOutcome {
                value,
                differential: Volts((bitline.0 - bitline_bar.0).abs()),
                sense_time: Seconds(time),
            });
        }
    }
    Err(CircuitError::InvalidOperatingPoint {
        context: format!(
            "differential swing never exceeded the sense sensitivity of {} V within {} s",
            sense_amplifier.sensitivity.0, max_time.0
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sense_amplifier_resolves_clear_differentials() {
        let sa = SenseAmplifier::ideal();
        assert_eq!(sa.resolve(Volts(1.0), Volts(0.9)), Some(true));
        assert_eq!(sa.resolve(Volts(0.9), Volts(1.0)), Some(false));
        assert_eq!(sa.resolve(Volts(1.0), Volts(1.0)), None);
    }

    #[test]
    fn offset_biases_the_decision() {
        let sa = SenseAmplifier::new(Volts(0.02), Volts(1e-3));
        // A true differential of -10 mV is overridden by the +20 mV offset.
        assert_eq!(sa.resolve(Volts(0.99), Volts(1.0)), Some(true));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_sensitivity_panics() {
        let _ = SenseAmplifier::new(Volts(0.0), Volts(0.0));
    }

    #[test]
    fn read_returns_the_stored_value_for_both_polarities() {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        let sa = SenseAmplifier::new(Volts(0.0), Volts(0.05));
        for stored in [true, false] {
            let outcome = read_cell(
                &tech,
                &pvt,
                &MismatchSample::none(),
                &sa,
                stored,
                Seconds(2e-9),
            )
            .expect("read resolves");
            assert_eq!(outcome.value, stored);
            assert!(outcome.differential.0 >= 0.05);
            assert!(outcome.sense_time.0 > 0.0 && outcome.sense_time.0 <= 2e-9);
        }
    }

    #[test]
    fn slow_corner_reads_later_than_fast_corner() {
        use crate::technology::ProcessCorner;
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        let sa = SenseAmplifier::new(Volts(0.0), Volts(0.08));
        let fast = read_cell(
            &tech,
            &pvt.with_corner(ProcessCorner::FastFast),
            &MismatchSample::none(),
            &sa,
            true,
            Seconds(2e-9),
        )
        .unwrap();
        let slow = read_cell(
            &tech,
            &pvt.with_corner(ProcessCorner::SlowSlow),
            &MismatchSample::none(),
            &sa,
            true,
            Seconds(2e-9),
        )
        .unwrap();
        assert!(slow.sense_time.0 > fast.sense_time.0);
    }

    #[test]
    fn insufficient_swing_is_reported_as_an_error() {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        // Demand an impossible differential within a very short window.
        let sa = SenseAmplifier::new(Volts(0.0), Volts(0.9));
        let result = read_cell(
            &tech,
            &pvt,
            &MismatchSample::none(),
            &sa,
            true,
            Seconds(0.2e-9),
        );
        assert!(result.is_err());
    }
}
