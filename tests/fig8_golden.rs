//! Golden digest of the Fig. 8 PVT and mismatch analysis.
//!
//! Hashes every field of [`PvtAnalysis`] — the binned result profile, both
//! operating-condition sweeps, every Monte-Carlo per-sample error and its
//! statistics — for the paper's *fom* corner on fast-calibrated models.  Any
//! change to a reported bit, including the mismatch Monte Carlo's draw
//! order, fails the test.

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierConfig};
use optima_suite::optima_imc::pvt_analysis::{PvtAnalysis, PvtAnalysisConfig};

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
}

fn digest(analysis: &PvtAnalysis) -> u64 {
    let mut digest = Digest::new();
    let profile = &analysis.result_profile;
    digest.push_bytes(&(profile.expected_results.len() as u64).to_le_bytes());
    for expected in &profile.expected_results {
        digest.push_bytes(&expected.to_le_bytes());
    }
    digest.push_f64s(&profile.average_error_lsb);
    digest.push_f64s(&profile.analog_sigma);
    for sweep in [&analysis.supply_sweep, &analysis.temperature_sweep] {
        digest.push_f64s(&sweep.condition_values);
        digest.push_f64s(&sweep.average_error_lsb);
    }
    let mc = &analysis.mismatch_monte_carlo;
    digest.push_f64s(&mc.per_sample_error_lsb);
    digest.push_f64s(&[
        mc.mean_error_lsb,
        mc.std_error_lsb,
        mc.worst_error_lsb,
        analysis.worst_case_sigma,
        analysis.nominal_epsilon_mul,
    ]);
    digest.0
}

#[test]
fn fig8_fom_corner_analysis_matches_its_golden_digest() {
    let models = Calibrator::new(Technology::tsmc65_like(), CalibrationConfig::fast())
        .run()
        .expect("calibration succeeds")
        .into_models();
    let multiplier = InSramMultiplier::new(models, MultiplierConfig::paper_fom_corner())
        .expect("corner configuration is valid");
    let analysis =
        PvtAnalysis::run(&multiplier, &PvtAnalysisConfig::fast()).expect("analysis succeeds");
    assert_eq!(
        analysis.mismatch_monte_carlo.per_sample_error_lsb.len(),
        PvtAnalysisConfig::fast().mismatch_samples
    );
    let digest = digest(&analysis);
    assert_eq!(
        digest, 0x988b_500d_2f65_f8ed,
        "Fig. 8 analysis digest changed: {digest:#018x} (mc mean {:e}, nominal eps {:e})",
        analysis.mismatch_monte_carlo.mean_error_lsb, analysis.nominal_epsilon_mul
    );
}
