//! Golden digests of the Fig. 8 PVT and mismatch analysis.
//!
//! The analysis of the paper's *fom* corner on fast-calibrated models is
//! pinned by two digests:
//!
//! * the **deterministic** digest hashes the binned result profile, both
//!   operating-condition sweeps, the worst-case analog σ and the nominal
//!   ε_mul — everything the input-space readout computes without random
//!   draws;
//! * the **Monte-Carlo** digest hashes every per-die error of the mismatch
//!   Monte Carlo and its statistics.
//!
//! Keeping them apart lets a change to the mismatch model re-record the
//! second digest while the first proves the deterministic readout did not
//! move.

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierConfig};
use optima_suite::optima_imc::pvt_analysis::{PvtAnalysis, PvtAnalysisConfig};
use std::sync::OnceLock;

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

/// The fom-corner analysis, computed once and shared by both tests.
fn analysis() -> &'static PvtAnalysis {
    static ANALYSIS: OnceLock<PvtAnalysis> = OnceLock::new();
    ANALYSIS.get_or_init(|| {
        let models = Calibrator::new(Technology::tsmc65_like(), CalibrationConfig::fast())
            .run()
            .expect("calibration succeeds")
            .into_models();
        let multiplier = InSramMultiplier::new(models, MultiplierConfig::paper_fom_corner())
            .expect("corner configuration is valid");
        PvtAnalysis::run(&multiplier, &PvtAnalysisConfig::fast()).expect("analysis succeeds")
    })
}

fn deterministic_digest(analysis: &PvtAnalysis) -> u64 {
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
    digest.push_f64s(&[analysis.worst_case_sigma, analysis.nominal_epsilon_mul]);
    digest.0
}

fn monte_carlo_digest(analysis: &PvtAnalysis) -> u64 {
    let mut digest = Digest::new();
    let mc = &analysis.mismatch_monte_carlo;
    digest.push_f64s(&mc.per_sample_error_lsb);
    digest.push_f64s(&[mc.mean_error_lsb, mc.std_error_lsb, mc.worst_error_lsb]);
    digest.0
}

#[test]
fn fig8_fom_corner_analysis_matches_its_golden_digest() {
    let analysis = analysis();
    let digest = deterministic_digest(analysis);
    assert_eq!(
        digest, 0x1a87_2994_e6c8_e230,
        "Fig. 8 deterministic digest changed: {digest:#018x} (nominal eps {:e}, worst sigma {:e})",
        analysis.nominal_epsilon_mul, analysis.worst_case_sigma
    );
}

#[test]
fn fig8_fom_corner_monte_carlo_matches_its_golden_digest() {
    let analysis = analysis();
    assert_eq!(
        analysis.mismatch_monte_carlo.per_sample_error_lsb.len(),
        PvtAnalysisConfig::fast().mismatch_samples
    );
    let digest = monte_carlo_digest(analysis);
    assert_eq!(
        digest,
        0x726c_2a28_2950_39b7,
        "Fig. 8 Monte-Carlo digest changed: {digest:#018x} (mean {:e}, std {:e}, worst {:e})",
        analysis.mismatch_monte_carlo.mean_error_lsb,
        analysis.mismatch_monte_carlo.std_error_lsb,
        analysis.mismatch_monte_carlo.worst_error_lsb
    );
}
