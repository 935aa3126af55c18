//! Supply-voltage extension of the discharge model (paper Eq. 4).
//!
//! `V_BL(t, V_WL, V_DD) = V_BL(t, V_WL) · p2(ΔV_DD)` with
//! `ΔV_DD = V_DD − V_DD,nom`.

use optima_math::units::Volts;
use optima_math::Polynomial;

/// Multiplicative supply-voltage correction factor.
///
/// # Example
///
/// ```rust
/// use optima_core::model::supply::SupplyModel;
/// use optima_math::Polynomial;
/// use optima_math::units::Volts;
///
/// // factor = 1 + ΔVDD (a crude but valid shape)
/// let model = SupplyModel::new(Volts(1.0), Polynomial::new(vec![1.0, 1.0]), (0.9, 1.1));
/// assert!((model.factor(Volts(1.1)) - 1.1).abs() < 1e-12);
/// assert!((model.apply(0.8, Volts(0.9)) - 0.72).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SupplyModel {
    vdd_nominal: Volts,
    /// `p2(ΔV_DD)` — correction polynomial in the supply deviation.
    correction: Polynomial,
    /// Calibrated supply-voltage range (volts).
    vdd_range: (f64, f64),
}

impl SupplyModel {
    /// Builds the supply model from its fitted polynomial.
    pub fn new(vdd_nominal: Volts, correction: Polynomial, vdd_range: (f64, f64)) -> Self {
        SupplyModel {
            vdd_nominal,
            correction,
            vdd_range,
        }
    }

    /// The identity model (factor 1 regardless of supply): used before
    /// calibration and in ablations that disable the supply correction.
    pub fn identity(vdd_nominal: Volts) -> Self {
        SupplyModel {
            vdd_nominal,
            correction: Polynomial::constant(1.0),
            vdd_range: (vdd_nominal.0, vdd_nominal.0),
        }
    }

    /// Nominal supply voltage.
    pub fn vdd_nominal(&self) -> Volts {
        self.vdd_nominal
    }

    /// The fitted correction polynomial.
    pub fn correction(&self) -> &Polynomial {
        &self.correction
    }

    /// Calibrated supply range.
    pub fn vdd_range(&self) -> (f64, f64) {
        self.vdd_range
    }

    /// Correction factor `p2(ΔV_DD)` for the given supply voltage.
    pub fn factor(&self, vdd: Volts) -> f64 {
        self.correction.eval(vdd.0 - self.vdd_nominal.0)
    }

    /// Applies the correction to a nominal-supply bit-line voltage.
    pub fn apply(&self, bitline_voltage: f64, vdd: Volts) -> f64 {
        (bitline_voltage * self.factor(vdd)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_model_is_a_no_op() {
        let model = SupplyModel::identity(Volts(1.0));
        assert_eq!(model.factor(Volts(0.9)), 1.0);
        assert_eq!(model.apply(0.73, Volts(1.1)), 0.73);
    }

    #[test]
    fn nominal_supply_gives_factor_from_constant_term() {
        let model = SupplyModel::new(
            Volts(1.0),
            Polynomial::new(vec![1.0, 0.5, -0.2]),
            (0.9, 1.1),
        );
        assert!((model.factor(Volts(1.0)) - 1.0).abs() < 1e-12);
        assert!(model.factor(Volts(1.1)) > 1.0);
        assert!(model.factor(Volts(0.9)) < 1.0);
    }

    #[test]
    fn apply_never_returns_negative_voltage() {
        let model = SupplyModel::new(Volts(1.0), Polynomial::new(vec![-2.0]), (0.9, 1.1));
        assert_eq!(model.apply(0.5, Volts(1.0)), 0.0);
    }

    #[test]
    fn accessors() {
        let model = SupplyModel::new(Volts(1.0), Polynomial::constant(1.0), (0.9, 1.1));
        assert_eq!(model.vdd_nominal(), Volts(1.0));
        assert_eq!(model.vdd_range(), (0.9, 1.1));
        assert_eq!(model.correction().degree(), 0);
    }
}
