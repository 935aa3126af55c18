//! Energy models (paper Eqs. 7–8).
//!
//! * Write energy (Eq. 7) is data-independent:
//!   `E_wr(V_DD, T) = p2(V_DD) · p1(T)`.
//! * Discharge energy (Eq. 8) depends on the achieved bit-line discharge:
//!   `E_dc(d, V_DD, V_WL, T) = p1(V_DD) · p3(ΔV_BL) · p1(T)`, where `ΔV_BL`
//!   itself comes from the discharge models of Eqs. 3–5.
//!
//! Both models work in femtojoules internally (the natural scale of the data,
//! which keeps the least-squares fits well conditioned).

use optima_math::units::{Celsius, FemtoJoules, Volts};
use optima_math::Polynomial;

/// The Eq. 7 write-energy model.
///
/// # Example
///
/// ```rust
/// use optima_core::model::energy::WriteEnergyModel;
/// use optima_math::Polynomial;
/// use optima_math::units::{Celsius, Volts};
///
/// // E = 20 fJ · VDD² (temperature-independent toy model)
/// let model = WriteEnergyModel::new(
///     Polynomial::new(vec![0.0, 0.0, 20.0]),
///     Polynomial::new(vec![1.0]),
/// );
/// assert!((model.energy(Volts(1.0), Celsius(25.0)).0 - 20.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WriteEnergyModel {
    /// `p2(V_DD)` in femtojoules.
    factor_vdd: Polynomial,
    /// `p1(T)` dimensionless factor.
    factor_temperature: Polynomial,
}

impl WriteEnergyModel {
    /// Builds the model from its fitted factors.
    pub fn new(factor_vdd: Polynomial, factor_temperature: Polynomial) -> Self {
        WriteEnergyModel {
            factor_vdd,
            factor_temperature,
        }
    }

    /// The fitted supply-voltage factor.
    pub fn factor_vdd(&self) -> &Polynomial {
        &self.factor_vdd
    }

    /// The fitted temperature factor.
    pub fn factor_temperature(&self) -> &Polynomial {
        &self.factor_temperature
    }

    /// Write energy at the given operating point (clamped at zero).
    pub fn energy(&self, vdd: Volts, temperature: Celsius) -> FemtoJoules {
        let e = self.factor_vdd.eval(vdd.0) * self.factor_temperature.eval(temperature.0);
        FemtoJoules(e.max(0.0))
    }
}

/// The Eq. 8 discharge-energy model.
///
/// # Example
///
/// ```rust
/// use optima_core::model::energy::DischargeEnergyModel;
/// use optima_math::Polynomial;
/// use optima_math::units::{Celsius, Volts};
///
/// // E = 100 fJ/V · ΔV (supply- and temperature-independent toy model)
/// let model = DischargeEnergyModel::new(
///     Polynomial::new(vec![1.0]),
///     Polynomial::new(vec![0.0, 100.0]),
///     Polynomial::new(vec![1.0]),
/// );
/// let e = model.energy(Volts(0.2), Volts(1.0), Celsius(25.0));
/// assert!((e.0 - 20.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DischargeEnergyModel {
    /// `p1(V_DD)` dimensionless factor.
    factor_vdd: Polynomial,
    /// `p3(ΔV_BL)` in femtojoules.
    factor_discharge: Polynomial,
    /// `p1(T)` dimensionless factor.
    factor_temperature: Polynomial,
}

impl DischargeEnergyModel {
    /// Builds the model from its fitted factors.
    pub fn new(
        factor_vdd: Polynomial,
        factor_discharge: Polynomial,
        factor_temperature: Polynomial,
    ) -> Self {
        DischargeEnergyModel {
            factor_vdd,
            factor_discharge,
            factor_temperature,
        }
    }

    /// The fitted supply-voltage factor.
    pub fn factor_vdd(&self) -> &Polynomial {
        &self.factor_vdd
    }

    /// The fitted discharge factor.
    pub fn factor_discharge(&self) -> &Polynomial {
        &self.factor_discharge
    }

    /// The fitted temperature factor.
    pub fn factor_temperature(&self) -> &Polynomial {
        &self.factor_temperature
    }

    /// Discharge energy for an achieved bit-line discharge `delta_v` at the
    /// given operating point (clamped at zero).
    pub fn energy(&self, delta_v: Volts, vdd: Volts, temperature: Celsius) -> FemtoJoules {
        let e = self.factor_vdd.eval(vdd.0)
            * self.factor_discharge.eval(delta_v.0.max(0.0))
            * self.factor_temperature.eval(temperature.0);
        FemtoJoules(e.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_energy_scales_with_vdd_factor() {
        let model = WriteEnergyModel::new(
            Polynomial::new(vec![0.0, 0.0, 30.0]),
            Polynomial::new(vec![1.0, 0.001]),
        );
        let nominal = model.energy(Volts(1.0), Celsius(25.0)).0;
        let high = model.energy(Volts(1.1), Celsius(25.0)).0;
        assert!((high / nominal - 1.21).abs() < 1e-9);
        let hot = model.energy(Volts(1.0), Celsius(125.0)).0;
        assert!(hot > nominal);
    }

    #[test]
    fn write_energy_is_clamped_at_zero() {
        let model = WriteEnergyModel::new(Polynomial::new(vec![-5.0]), Polynomial::new(vec![1.0]));
        assert_eq!(model.energy(Volts(1.0), Celsius(25.0)).0, 0.0);
    }

    #[test]
    fn discharge_energy_grows_with_delta_v() {
        let model = DischargeEnergyModel::new(
            Polynomial::new(vec![1.0]),
            Polynomial::new(vec![0.0, 50.0, 10.0]),
            Polynomial::new(vec![1.0]),
        );
        let small = model.energy(Volts(0.1), Volts(1.0), Celsius(25.0)).0;
        let large = model.energy(Volts(0.4), Volts(1.0), Celsius(25.0)).0;
        assert!(large > small);
        // Negative discharges are treated as zero discharge.
        assert_eq!(
            model.energy(Volts(-0.3), Volts(1.0), Celsius(25.0)).0,
            model.energy(Volts(0.0), Volts(1.0), Celsius(25.0)).0
        );
    }

    #[test]
    fn accessors_expose_factors() {
        let model = DischargeEnergyModel::new(
            Polynomial::new(vec![1.0, 0.5]),
            Polynomial::new(vec![0.0, 1.0, 2.0, 3.0]),
            Polynomial::new(vec![1.0, 0.0]),
        );
        assert_eq!(model.factor_vdd().degree(), 1);
        assert_eq!(model.factor_discharge().degree(), 3);
        assert_eq!(model.factor_temperature().degree(), 0);
        let write = WriteEnergyModel::new(Polynomial::constant(1.0), Polynomial::constant(1.0));
        assert_eq!(write.factor_vdd().degree(), 0);
        assert_eq!(write.factor_temperature().degree(), 0);
    }
}
