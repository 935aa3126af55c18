//! Bit-line analog-to-digital converter (ADC).
//!
//! After the weighted discharge phases the combined bit-line voltage is
//! sampled and converted to a digital result.  The error metric of the design
//! space exploration (ϵ_mul) is expressed in LSBs of this converter, so its
//! quantisation behaviour directly defines the multiplier accuracy.

use crate::error::CircuitError;
use optima_math::units::Volts;

/// A behavioural successive-approximation ADC.
///
/// The converter digitises the *discharge* `ΔV = V_precharge − V_BL`
/// over the range `[0, full_scale]` into `2^bits` codes.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_circuit::CircuitError> {
/// use optima_circuit::adc::Adc;
/// use optima_math::units::Volts;
///
/// let adc = Adc::new(8, Volts(0.6))?;
/// assert_eq!(adc.quantize(Volts(0.0))?, 0);
/// assert_eq!(adc.quantize(Volts(0.6))?, 255);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    bits: u8,
    full_scale: Volts,
    /// Relative supply-voltage sensitivity of the conversion thresholds.
    supply_sensitivity: f64,
}

impl Adc {
    /// Creates an ADC with the given resolution and full-scale discharge range.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConverterConfig`] for a zero or >16-bit
    /// resolution or a non-positive full-scale range.
    pub fn new(bits: u8, full_scale: Volts) -> Result<Self, CircuitError> {
        if bits == 0 || bits > 16 {
            return Err(CircuitError::InvalidConverterConfig {
                context: format!("adc resolution {bits} bits outside supported range 1..=16"),
            });
        }
        if full_scale.0 <= 0.0 || !full_scale.0.is_finite() {
            return Err(CircuitError::InvalidConverterConfig {
                context: format!("adc full scale must be positive, got {}", full_scale.0),
            });
        }
        Ok(Adc {
            bits,
            full_scale,
            supply_sensitivity: 0.3,
        })
    }

    /// Sets the relative supply-voltage sensitivity (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `sensitivity` is outside `[0, 1]`.
    pub fn with_supply_sensitivity(mut self, sensitivity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sensitivity),
            "supply sensitivity must be within [0, 1]"
        );
        self.supply_sensitivity = sensitivity;
        self
    }

    /// ADC resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Full-scale discharge range.
    pub fn full_scale(&self) -> Volts {
        self.full_scale
    }

    /// Largest output code.
    pub fn max_code(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Voltage of one least-significant bit.
    pub fn lsb(&self) -> Volts {
        Volts(self.full_scale.0 / (self.max_code() as f64 + 1.0))
    }

    /// Quantises a discharge voltage into a digital code (round-to-nearest,
    /// clamped to the code range).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidOperatingPoint`] for a non-finite input.
    pub fn quantize(&self, discharge: Volts) -> Result<u32, CircuitError> {
        if !discharge.0.is_finite() {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "adc input voltage must be finite".to_string(),
            });
        }
        let normalized = (discharge.0 / self.full_scale.0).clamp(0.0, 1.0);
        let code = (normalized * self.max_code() as f64).round() as u32;
        Ok(code.min(self.max_code()))
    }

    /// Quantises under a non-nominal supply voltage: the conversion reference
    /// tracks the supply with the configured sensitivity, scaling the
    /// effective full-scale range.
    ///
    /// # Errors
    ///
    /// Same as [`Adc::quantize`].
    pub fn quantize_with_supply(
        &self,
        discharge: Volts,
        vdd: Volts,
        vdd_nominal: Volts,
    ) -> Result<u32, CircuitError> {
        let relative_error = (vdd.0 - vdd_nominal.0) / vdd_nominal.0;
        let effective_full_scale =
            self.full_scale.0 * (1.0 + self.supply_sensitivity * relative_error);
        if !discharge.0.is_finite() {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "adc input voltage must be finite".to_string(),
            });
        }
        let normalized = (discharge.0 / effective_full_scale).clamp(0.0, 1.0);
        let code = (normalized * self.max_code() as f64).round() as u32;
        Ok(code.min(self.max_code()))
    }

    /// Converts a voltage into fractional LSBs (no rounding), useful for
    /// expressing analog error levels in LSB units as the paper does.
    pub fn voltage_to_lsb(&self, voltage: Volts) -> f64 {
        voltage.0 / self.lsb().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(Adc::new(0, Volts(0.5)).is_err());
        assert!(Adc::new(17, Volts(0.5)).is_err());
        assert!(Adc::new(8, Volts(0.0)).is_err());
        assert!(Adc::new(8, Volts(-0.5)).is_err());
        assert!(Adc::new(8, Volts(f64::NAN)).is_err());
    }

    #[test]
    fn quantization_endpoints_and_clamping() {
        let adc = Adc::new(4, Volts(0.5)).unwrap();
        assert_eq!(adc.quantize(Volts(0.0)).unwrap(), 0);
        assert_eq!(adc.quantize(Volts(0.5)).unwrap(), 15);
        assert_eq!(adc.quantize(Volts(1.5)).unwrap(), 15);
        assert_eq!(adc.quantize(Volts(-0.2)).unwrap(), 0);
        assert!(adc.quantize(Volts(f64::NAN)).is_err());
    }

    #[test]
    fn lsb_size_matches_full_scale_over_levels() {
        let adc = Adc::new(8, Volts(0.64)).unwrap();
        assert!((adc.lsb().0 - 0.64 / 256.0).abs() < 1e-12);
        assert!((adc.voltage_to_lsb(Volts(0.01)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn quantization_is_monotone() {
        let adc = Adc::new(6, Volts(0.6)).unwrap();
        let mut last = 0;
        for i in 0..=60 {
            let v = Volts(0.01 * i as f64);
            let code = adc.quantize(v).unwrap();
            assert!(code >= last, "codes must be non-decreasing");
            last = code;
        }
        assert_eq!(last, adc.max_code());
    }

    #[test]
    fn supply_variation_shifts_codes() {
        let adc = Adc::new(8, Volts(0.5)).unwrap();
        let nominal = adc
            .quantize_with_supply(Volts(0.25), Volts(1.0), Volts(1.0))
            .unwrap();
        let high_vdd = adc
            .quantize_with_supply(Volts(0.25), Volts(1.1), Volts(1.0))
            .unwrap();
        // Larger reference at high supply ⇒ same voltage maps to a smaller code.
        assert!(high_vdd <= nominal);
        assert!(nominal - high_vdd < 10);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_supply_sensitivity_panics() {
        let _ = Adc::new(8, Volts(0.5))
            .unwrap()
            .with_supply_sensitivity(2.0);
    }
}
