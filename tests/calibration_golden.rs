//! Golden digests of the fast-profile calibration and its held-out report.
//!
//! Calibration is the one place where every golden-reference transient
//! (deterministic grids and the Eq. 6 mismatch Monte Carlo) feeds a fitted
//! number.  These digests hash the IEEE-754 bits of every fitted polynomial
//! coefficient, every model range and every `CalibrationReport` field at 16
//! and 64 cells per bit-line, plus every field of
//! `ModelEvaluator::rms_errors(4, 20)`.  A change to the RK integrator, the
//! device equations or the waveform sampling that moves a single bit of a
//! transient shows up here.

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, CalibrationOutcome, Calibrator};
use optima_suite::optima_core::evaluation::ModelEvaluator;
use optima_suite::optima_math::Polynomial;

/// FNV-1a over the little-endian bytes of every pushed value.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn push_f64s(&mut self, values: &[f64]) {
        self.push_bytes(&(values.len() as u64).to_le_bytes());
        for value in values {
            self.push_bytes(&value.to_bits().to_le_bytes());
        }
    }

    fn push_poly(&mut self, poly: &Polynomial) {
        self.push_f64s(poly.coeffs());
    }
}

fn calibrate(cells_on_bitline: usize) -> CalibrationOutcome {
    let config = CalibrationConfig {
        cells_on_bitline,
        ..CalibrationConfig::fast()
    };
    Calibrator::new(Technology::tsmc65_like(), config)
        .run()
        .expect("calibration succeeds")
}

fn outcome_digest(outcome: &CalibrationOutcome) -> u64 {
    let models = outcome.models();
    let mut digest = Digest::new();

    let discharge = models.discharge_model();
    digest.push_f64s(&[discharge.vdd_nominal().0, discharge.threshold().0]);
    digest.push_poly(discharge.factor_overdrive());
    digest.push_poly(discharge.factor_time());
    let (t_lo, t_hi) = discharge.time_range_ns();
    let (v_lo, v_hi) = discharge.vwl_range();
    digest.push_f64s(&[t_lo, t_hi, v_lo, v_hi]);

    let supply = models.supply_model();
    digest.push_f64s(&[supply.vdd_nominal().0]);
    digest.push_poly(supply.correction());
    let (vdd_lo, vdd_hi) = supply.vdd_range();
    digest.push_f64s(&[vdd_lo, vdd_hi]);

    let temperature = models.temperature_model();
    digest.push_f64s(&[temperature.temperature_nominal().0]);
    digest.push_poly(temperature.sensitivity());
    let (temp_lo, temp_hi) = temperature.temperature_range();
    digest.push_f64s(&[temp_lo, temp_hi]);

    let mismatch = models.mismatch_model();
    digest.push_poly(mismatch.factor_time());
    digest.push_poly(mismatch.factor_wordline());

    let write = models.write_energy_model();
    digest.push_poly(write.factor_vdd());
    digest.push_poly(write.factor_temperature());

    let discharge_energy = models.discharge_energy_model();
    digest.push_poly(discharge_energy.factor_vdd());
    digest.push_poly(discharge_energy.factor_discharge());
    digest.push_poly(discharge_energy.factor_temperature());

    let report = outcome.report();
    digest.push_f64s(&[
        report.basic_discharge_rms_mv,
        report.supply_rms_mv,
        report.temperature_rms_mv,
        report.mismatch_sigma_rms_mv,
        report.write_energy_rms_fj,
        report.discharge_energy_rms_fj,
    ]);
    digest.push_bytes(&(report.circuit_simulations as u64).to_le_bytes());
    digest.push_bytes(&(report.training_samples as u64).to_le_bytes());
    digest.0
}

#[test]
fn fast_calibration_at_16_cells_matches_its_golden_digest() {
    let outcome = calibrate(16);
    let digest = outcome_digest(&outcome);
    assert_eq!(
        digest,
        0x7bc7_ea11_acb4_92be,
        "16-cell calibration digest changed: {digest:#018x} ({:?})",
        outcome.report()
    );
}

#[test]
fn fast_calibration_at_64_cells_matches_its_golden_digest() {
    let outcome = calibrate(64);
    let digest = outcome_digest(&outcome);
    assert_eq!(
        digest,
        0x3773_64ff_680e_c0ea,
        "64-cell calibration digest changed: {digest:#018x} ({:?})",
        outcome.report()
    );
}

#[test]
fn held_out_rms_errors_match_their_golden_digest() {
    let technology = Technology::tsmc65_like();
    let models = calibrate(16).into_models();
    let report = ModelEvaluator::new(technology, models)
        .rms_errors(4, 20)
        .expect("held-out evaluation succeeds");
    let mut digest = Digest::new();
    digest.push_f64s(&[
        report.basic_discharge_mv,
        report.supply_mv,
        report.temperature_mv,
        report.mismatch_sigma_mv,
        report.write_energy_fj,
        report.discharge_energy_fj,
    ]);
    let digest = digest.0;
    assert_eq!(
        digest, 0x4ab5_b557_c5c9_387f,
        "rms_errors(4, 20) digest changed: {digest:#018x} ({report:?})"
    );
}
