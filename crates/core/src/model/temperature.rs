//! Temperature extension of the discharge model (paper Eq. 5).
//!
//! Temperature has only a minor effect on the discharge (Fig. 5b), so it is
//! modeled as an additive error term
//! `V_BL(t, V_WL, V_DD, T) = V_BL(t, V_WL, V_DD) + t · (T − T_nom) · p3(V_WL)`.

use crate::model::to_nanoseconds;
use optima_math::units::{Celsius, Seconds, Volts};
use optima_math::Polynomial;

/// Additive temperature correction term.
///
/// # Example
///
/// ```rust
/// use optima_core::model::temperature::TemperatureModel;
/// use optima_math::Polynomial;
/// use optima_math::units::{Celsius, Seconds, Volts};
///
/// let model = TemperatureModel::new(
///     Celsius(25.0),
///     Polynomial::new(vec![1e-4]),
///     (-40.0, 125.0),
/// );
/// let term = model.term(Seconds(1e-9), Volts(0.8), Celsius(75.0));
/// assert!((term.0 - 1.0 * 50.0 * 1e-4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureModel {
    temperature_nominal: Celsius,
    /// `p3(V_WL)` — sensitivity polynomial in the word-line voltage
    /// (volts per nanosecond per degree Celsius).
    sensitivity: Polynomial,
    /// Calibrated temperature range (°C).
    temperature_range: (f64, f64),
}

impl TemperatureModel {
    /// Builds the temperature model from its fitted polynomial.
    pub fn new(
        temperature_nominal: Celsius,
        sensitivity: Polynomial,
        temperature_range: (f64, f64),
    ) -> Self {
        TemperatureModel {
            temperature_nominal,
            sensitivity,
            temperature_range,
        }
    }

    /// A model that ignores temperature entirely.
    pub fn identity(temperature_nominal: Celsius) -> Self {
        TemperatureModel {
            temperature_nominal,
            sensitivity: Polynomial::zero(),
            temperature_range: (temperature_nominal.0, temperature_nominal.0),
        }
    }

    /// Nominal temperature.
    pub fn temperature_nominal(&self) -> Celsius {
        self.temperature_nominal
    }

    /// The fitted sensitivity polynomial `p3(V_WL)`.
    pub fn sensitivity(&self) -> &Polynomial {
        &self.sensitivity
    }

    /// Calibrated temperature range.
    pub fn temperature_range(&self) -> (f64, f64) {
        self.temperature_range
    }

    /// Additive correction `t · (T − T_nom) · p3(V_WL)` in volts.
    pub fn term(&self, time: Seconds, word_line: Volts, temperature: Celsius) -> Volts {
        let t_ns = to_nanoseconds(time.0);
        let delta_t = temperature.0 - self.temperature_nominal.0;
        Volts(t_ns * delta_t * self.sensitivity.eval(word_line.0))
    }

    /// Applies the correction to an already supply-corrected bit-line voltage.
    pub fn apply(
        &self,
        bitline_voltage: f64,
        time: Seconds,
        word_line: Volts,
        temperature: Celsius,
    ) -> f64 {
        (bitline_voltage + self.term(time, word_line, temperature).0).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_temperature_is_a_no_op() {
        let model = TemperatureModel::new(
            Celsius(25.0),
            Polynomial::new(vec![2e-4, -1e-4]),
            (-40.0, 125.0),
        );
        assert_eq!(model.term(Seconds(1e-9), Volts(0.8), Celsius(25.0)).0, 0.0);
        assert_eq!(
            model.apply(0.7, Seconds(1e-9), Volts(0.8), Celsius(25.0)),
            0.7
        );
    }

    #[test]
    fn term_scales_with_time_and_delta_t() {
        let model =
            TemperatureModel::new(Celsius(25.0), Polynomial::new(vec![1e-4]), (-40.0, 125.0));
        let base = model.term(Seconds(0.5e-9), Volts(0.8), Celsius(75.0)).0;
        let double_time = model.term(Seconds(1.0e-9), Volts(0.8), Celsius(75.0)).0;
        let double_dt = model.term(Seconds(0.5e-9), Volts(0.8), Celsius(125.0)).0;
        assert!((double_time - 2.0 * base).abs() < 1e-12);
        assert!((double_dt - 2.0 * base).abs() < 1e-12);
    }

    #[test]
    fn term_sign_follows_delta_t() {
        let model =
            TemperatureModel::new(Celsius(25.0), Polynomial::new(vec![1e-4]), (-40.0, 125.0));
        assert!(model.term(Seconds(1e-9), Volts(0.8), Celsius(125.0)).0 > 0.0);
        assert!(model.term(Seconds(1e-9), Volts(0.8), Celsius(-40.0)).0 < 0.0);
    }

    #[test]
    fn identity_model_has_zero_sensitivity() {
        let model = TemperatureModel::identity(Celsius(25.0));
        assert_eq!(model.term(Seconds(2e-9), Volts(1.0), Celsius(125.0)).0, 0.0);
        assert!(model.sensitivity().is_zero());
        assert_eq!(model.temperature_nominal(), Celsius(25.0));
    }

    #[test]
    fn apply_clamps_at_zero() {
        let model =
            TemperatureModel::new(Celsius(25.0), Polynomial::new(vec![-1.0]), (-40.0, 125.0));
        assert_eq!(
            model.apply(0.1, Seconds(2e-9), Volts(0.8), Celsius(125.0)),
            0.0
        );
    }
}
