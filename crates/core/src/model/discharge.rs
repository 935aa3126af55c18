//! Basic bit-line discharge model (paper Eq. 3).
//!
//! `V_BL(t, V_WL) = V_DD,nom + p4(V_od) · p2(t)` with the overdrive voltage
//! `V_od = V_WL − Vth`.  The product term is negative for any discharge, so
//! the fitted `p4 · p2` surface is the (negative) voltage drop.

use crate::error::ModelError;
use crate::model::to_nanoseconds;
use optima_math::units::{Seconds, Volts};
use optima_math::Polynomial;

/// The Eq. 3 discharge model.
///
/// # Example
///
/// ```rust
/// use optima_core::model::discharge::DischargeModel;
/// use optima_math::Polynomial;
/// use optima_math::units::{Seconds, Volts};
///
/// // A hand-built model: ΔV = 0.2 V/ns · V_od · t
/// let model = DischargeModel::new(
///     Volts(1.0),
///     Volts(0.45),
///     Polynomial::new(vec![0.0, -0.2]),
///     Polynomial::new(vec![0.0, 1.0]),
///     (0.0, 2.0),
///     (0.0, 1.0),
/// );
/// let v = model.bitline_voltage(Seconds(1e-9), Volts(0.95)).unwrap();
/// assert!((v.0 - (1.0 - 0.2 * 0.5)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DischargeModel {
    vdd_nominal: Volts,
    threshold: Volts,
    /// `p4(V_od)` — polynomial in the overdrive voltage.
    factor_overdrive: Polynomial,
    /// `p2(t)` — polynomial in time (nanoseconds).
    factor_time: Polynomial,
    /// Valid time range (nanoseconds) the model was calibrated over.
    time_range_ns: (f64, f64),
    /// Valid word-line voltage range (volts) the model was calibrated over.
    vwl_range: (f64, f64),
}

impl DischargeModel {
    /// Builds a discharge model from its fitted parts.
    pub fn new(
        vdd_nominal: Volts,
        threshold: Volts,
        factor_overdrive: Polynomial,
        factor_time: Polynomial,
        time_range_ns: (f64, f64),
        vwl_range: (f64, f64),
    ) -> Self {
        DischargeModel {
            vdd_nominal,
            threshold,
            factor_overdrive,
            factor_time,
            time_range_ns,
            vwl_range,
        }
    }

    /// Nominal supply voltage the model is referenced to.
    pub fn vdd_nominal(&self) -> Volts {
        self.vdd_nominal
    }

    /// Threshold voltage used to compute the overdrive.
    pub fn threshold(&self) -> Volts {
        self.threshold
    }

    /// The fitted `p4(V_od)` factor.
    pub fn factor_overdrive(&self) -> &Polynomial {
        &self.factor_overdrive
    }

    /// The fitted `p2(t)` factor.
    pub fn factor_time(&self) -> &Polynomial {
        &self.factor_time
    }

    /// Calibrated word-line voltage range (volts).
    pub fn vwl_range(&self) -> (f64, f64) {
        self.vwl_range
    }

    /// Calibrated time range (nanoseconds).
    pub fn time_range_ns(&self) -> (f64, f64) {
        self.time_range_ns
    }

    /// Validates that `(t, v_wl)` is inside (or marginally outside) the
    /// calibrated domain.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfCalibrationRange`] when either coordinate
    /// lies more than 10 % outside the calibrated interval.
    pub fn check_domain(&self, time: Seconds, word_line: Volts) -> Result<(), ModelError> {
        let t_ns = to_nanoseconds(time.0);
        let (t_lo, t_hi) = self.time_range_ns;
        let t_margin = 0.1 * (t_hi - t_lo).max(f64::EPSILON);
        if t_ns < t_lo - t_margin || t_ns > t_hi + t_margin {
            return Err(ModelError::OutOfCalibrationRange {
                quantity: "time [ns]".to_string(),
                value: t_ns,
                lo: t_lo,
                hi: t_hi,
            });
        }
        let (v_lo, v_hi) = self.vwl_range;
        let v_margin = 0.1 * (v_hi - v_lo).max(f64::EPSILON);
        if word_line.0 < v_lo - v_margin || word_line.0 > v_hi + v_margin {
            return Err(ModelError::OutOfCalibrationRange {
                quantity: "word-line voltage [V]".to_string(),
                value: word_line.0,
                lo: v_lo,
                hi: v_hi,
            });
        }
        Ok(())
    }

    /// Bit-line voltage at time `time` for word-line voltage `word_line`
    /// under nominal supply and temperature (Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfCalibrationRange`] outside the calibrated domain.
    pub fn bitline_voltage(&self, time: Seconds, word_line: Volts) -> Result<Volts, ModelError> {
        self.check_domain(time, word_line)?;
        Ok(Volts(self.bitline_voltage_unchecked(time, word_line)))
    }

    /// Same as [`DischargeModel::bitline_voltage`] without domain validation
    /// (used in the inner loops of the event simulator after a single
    /// up-front check).
    pub fn bitline_voltage_unchecked(&self, time: Seconds, word_line: Volts) -> f64 {
        let overdrive = word_line.0 - self.threshold.0;
        let t_ns = to_nanoseconds(time.0);
        let drop = self.factor_overdrive.eval(overdrive) * self.factor_time.eval(t_ns);
        // The fitted product is negative for a discharge; clamp so the model
        // never predicts a bit-line above VDD or below ground.
        (self.vdd_nominal.0 + drop).clamp(0.0, self.vdd_nominal.0)
    }

    /// Fills `out[i]` with the bit-line voltage at `times[i]`, batched and
    /// without domain validation.
    ///
    /// The overdrive factor `p4(V_od)` is evaluated once and the time factor
    /// `p2(t)` runs through the blocked Horner kernel
    /// ([`Polynomial::eval_many_in_place`]); every point performs the same
    /// floating-point operations in the same order as
    /// [`DischargeModel::bitline_voltage_unchecked`], so the fill is
    /// bit-identical to the scalar path.
    ///
    /// # Panics
    ///
    /// Panics when `times` and `out` have different lengths.
    pub fn fill_bitline_voltages_unchecked(
        &self,
        times: &[Seconds],
        word_line: Volts,
        out: &mut [f64],
    ) {
        assert_eq!(
            times.len(),
            out.len(),
            "fill_bitline_voltages_unchecked needs one output slot per time"
        );
        let overdrive_factor = self.factor_overdrive.eval(word_line.0 - self.threshold.0);
        for (o, t) in out.iter_mut().zip(times) {
            *o = to_nanoseconds(t.0);
        }
        self.factor_time.eval_many_in_place(out);
        for o in out.iter_mut() {
            *o = (self.vdd_nominal.0 + overdrive_factor * *o).clamp(0.0, self.vdd_nominal.0);
        }
    }

    /// Discharge `ΔV_BL = V_DD,nom − V_BL` (always non-negative).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfCalibrationRange`] outside the calibrated domain.
    pub fn discharge(&self, time: Seconds, word_line: Volts) -> Result<Volts, ModelError> {
        let v = self.bitline_voltage(time, word_line)?;
        Ok(Volts((self.vdd_nominal.0 - v.0).max(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> DischargeModel {
        // ΔV = 0.3 · V_od · t_ns  (negative drop in the fitted convention)
        DischargeModel::new(
            Volts(1.0),
            Volts(0.45),
            Polynomial::new(vec![0.0, -0.3]),
            Polynomial::new(vec![0.0, 1.0]),
            (0.0, 2.0),
            (0.3, 1.0),
        )
    }

    #[test]
    fn voltage_and_discharge_are_consistent() {
        let model = toy_model();
        let t = Seconds(1e-9);
        let v_wl = Volts(0.85);
        let v = model.bitline_voltage(t, v_wl).unwrap().0;
        let d = model.discharge(t, v_wl).unwrap().0;
        assert!((v + d - 1.0).abs() < 1e-12);
        assert!((d - 0.3 * 0.4).abs() < 1e-12);
    }

    #[test]
    fn discharge_grows_with_time_and_word_line() {
        let model = toy_model();
        let d_early = model.discharge(Seconds(0.2e-9), Volts(0.8)).unwrap().0;
        let d_late = model.discharge(Seconds(1.5e-9), Volts(0.8)).unwrap().0;
        assert!(d_late > d_early);
        let d_low = model.discharge(Seconds(1.0e-9), Volts(0.6)).unwrap().0;
        let d_high = model.discharge(Seconds(1.0e-9), Volts(1.0)).unwrap().0;
        assert!(d_high > d_low);
    }

    #[test]
    fn voltage_is_clamped_to_physical_range() {
        // Huge fitted slope would predict a negative bit-line voltage.
        let model = DischargeModel::new(
            Volts(1.0),
            Volts(0.45),
            Polynomial::new(vec![0.0, -10.0]),
            Polynomial::new(vec![0.0, 1.0]),
            (0.0, 2.0),
            (0.3, 1.0),
        );
        let v = model.bitline_voltage(Seconds(2e-9), Volts(1.0)).unwrap().0;
        assert_eq!(v, 0.0);
        assert_eq!(model.discharge(Seconds(2e-9), Volts(1.0)).unwrap().0, 1.0);
    }

    #[test]
    fn domain_validation_rejects_far_out_of_range_queries() {
        let model = toy_model();
        assert!(model.bitline_voltage(Seconds(5e-9), Volts(0.8)).is_err());
        assert!(model.bitline_voltage(Seconds(1e-9), Volts(1.4)).is_err());
        assert!(model.bitline_voltage(Seconds(1e-9), Volts(0.1)).is_err());
        // Slightly outside (within the 10 % margin) is accepted.
        assert!(model.bitline_voltage(Seconds(2.1e-9), Volts(0.8)).is_ok());
    }

    #[test]
    fn batched_fill_is_bit_identical_to_scalar_path() {
        let model = toy_model();
        let times: Vec<Seconds> = (0..13)
            .map(|i| Seconds(0.1e-9 + 0.14e-9 * i as f64))
            .collect();
        let mut batched = vec![0.0; times.len()];
        model.fill_bitline_voltages_unchecked(&times, Volts(0.85), &mut batched);
        for (t, v) in times.iter().zip(&batched) {
            let scalar = model.bitline_voltage_unchecked(*t, Volts(0.85));
            assert_eq!(scalar.to_bits(), v.to_bits(), "t = {} s", t.0);
        }
    }

    #[test]
    fn accessors_expose_fitted_parts() {
        let model = toy_model();
        assert_eq!(model.vdd_nominal(), Volts(1.0));
        assert_eq!(model.threshold(), Volts(0.45));
        assert_eq!(model.vwl_range(), (0.3, 1.0));
        assert_eq!(model.time_range_ns(), (0.0, 2.0));
        assert_eq!(model.factor_time().degree(), 1);
        assert_eq!(model.factor_overdrive().degree(), 1);
    }
}
