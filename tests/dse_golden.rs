//! Golden digests of the design-space exploration, the corner tables and
//! the INT8 PVT analysis on fast-calibrated models.
//!
//! Every number the input-space readout produces for the DSE flow is pinned
//! by its IEEE-754 bits:
//!
//! * every [`MultiplierMetrics`] field of the paper's 48-corner sweep, at
//!   the paper's INT4 geometry and at the composed INT8 geometry;
//! * the three INT8 corner tables (every result plus both average
//!   energies);
//! * the INT8 fom corner's [`PvtAnalysis`]: result profile, both condition
//!   sweeps, worst σ, nominal ε_mul and every per-die error.
//!
//! A change to how the readout kernel combines its tables that moves a
//! single bit of any of them shows up here.

use optima_suite::optima_circuit::array::ArrayConfig;
use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_suite::optima_core::model::suite::ModelSuite;
use optima_suite::optima_imc::dse::{DesignPointResult, DesignSpace, DesignSpaceExplorer};
use optima_suite::optima_imc::fom::select_corners;
use optima_suite::optima_imc::metrics::MultiplierMetrics;
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierTable};
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

    fn push_metrics(&mut self, metrics: &MultiplierMetrics) {
        self.push_f64s(&[
            metrics.epsilon_mul,
            metrics.rms_error_lsb,
            metrics.max_error_lsb,
            metrics.energy_per_multiply.0,
            metrics.energy_per_operation.0,
            metrics.sigma_at_max_discharge.0,
            metrics.worst_case_sigma.0,
        ]);
    }
}

fn models() -> &'static ModelSuite {
    static MODELS: OnceLock<ModelSuite> = OnceLock::new();
    MODELS.get_or_init(|| {
        Calibrator::new(Technology::tsmc65_like(), CalibrationConfig::fast())
            .run()
            .expect("calibration succeeds")
            .into_models()
    })
}

/// The paper's 48-corner sweep on `array`.
fn explore(array: ArrayConfig) -> Vec<DesignPointResult> {
    let results = DesignSpaceExplorer::new(models().clone())
        .with_threads(2)
        .explore(&DesignSpace::paper_sweep().with_arrays(vec![array]))
        .expect("exploration succeeds");
    assert_eq!(results.len(), 48);
    results
}

fn int8_exploration() -> &'static [DesignPointResult] {
    static RESULTS: OnceLock<Vec<DesignPointResult>> = OnceLock::new();
    RESULTS.get_or_init(|| explore(ArrayConfig::int8()))
}

fn int8_multiplier(corner: &DesignPointResult) -> InSramMultiplier {
    InSramMultiplier::new(models().clone(), corner.point.to_config())
        .expect("corner configuration is valid")
}

fn exploration_digest(results: &[DesignPointResult]) -> u64 {
    let mut digest = Digest::new();
    for result in results {
        digest.push_metrics(&result.metrics);
    }
    digest.0
}

#[test]
fn int4_exploration_matches_its_golden_digest() {
    let digest = exploration_digest(&explore(ArrayConfig::paper()));
    assert_eq!(
        digest, 0xaeda_8b02_3fb9_3649,
        "INT4 exploration digest changed: {digest:#018x}"
    );
}

#[test]
fn int8_exploration_matches_its_golden_digest() {
    let digest = exploration_digest(int8_exploration());
    assert_eq!(
        digest, 0x1cec_a8e1_bf3e_ae27,
        "INT8 exploration digest changed: {digest:#018x}"
    );
}

#[test]
fn int8_corner_tables_match_their_golden_digest() {
    let corners = select_corners(int8_exploration()).expect("selection succeeds");
    let mut digest = Digest::new();
    for corner in [corners.fom, corners.power, corners.variation] {
        let multiplier = int8_multiplier(&corner);
        let table =
            MultiplierTable::from_multiplier(&multiplier, multiplier.nominal_operating_point())
                .expect("table builds");
        let max = table.operand_max();
        for a in 0..=max {
            for d in 0..=max {
                digest.push_bytes(&table.lookup(a, d).to_le_bytes());
            }
        }
        digest.push_f64s(&[
            table.average_multiply_energy().0,
            table.average_total_energy().0,
        ]);
    }
    let digest = digest.0;
    assert_eq!(
        digest, 0xc6b8_f242_c554_8116,
        "INT8 corner table digest changed: {digest:#018x}"
    );
}

#[test]
fn int8_fom_pvt_analysis_matches_its_golden_digest() {
    let corners = select_corners(int8_exploration()).expect("selection succeeds");
    let analysis = PvtAnalysis::run(&int8_multiplier(&corners.fom), &PvtAnalysisConfig::fast())
        .expect("analysis succeeds");
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
    digest.push_f64s(&analysis.mismatch_monte_carlo.per_sample_error_lsb);
    let digest = digest.0;
    assert_eq!(
        digest, 0x3682_8f83_6962_2de7,
        "INT8 fom PVT digest changed: {digest:#018x} (nominal eps {:e}, worst sigma {:e})",
        analysis.nominal_epsilon_mul, analysis.worst_case_sigma
    );
}
