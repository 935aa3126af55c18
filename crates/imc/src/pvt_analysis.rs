//! PVT and mismatch analysis of selected multiplier corners (paper Fig. 8).
//!
//! For each selected corner the paper reports:
//!
//! * the average multiplication result deviation and the analog standard
//!   deviation as a function of the expected result (Fig. 8 left),
//! * the influence of supply-voltage and temperature variations on the error
//!   level (Fig. 8 right), and
//! * the mismatch Monte-Carlo error distribution (the 28.1×-accelerated
//!   sweep of Section V).
//!
//! All three sweeps run on the error-strict parallel engine of
//! [`optima_core::sweep`]: a failing condition aborts the analysis with
//! [`ImcError::CornerFailed`] naming it, and every reported number —
//! including the Monte-Carlo statistics, which draw one split-seed RNG
//! stream per sample — is bit-identical for any thread count.  Inside each
//! swept condition the full input space of the geometry (16×16 pairs at
//! INT4, 256×256 at INT8) is evaluated through the batched analog path
//! ([`InSramMultiplier::outcome_grid`]); the Monte-Carlo samples share one
//! precomputed [`crate::multiplier::MismatchGrid`] and only draw their
//! deviations.  Both are bit-identical to the scalar per-pair loops they
//! replaced.

use crate::error::ImcError;
use crate::multiplier::{InSramMultiplier, OperatingPoint};
use optima_circuit::pvt::linspace;
use optima_core::sweep::{par_map_sweep, stream_seed};
use optima_math::stats;
use optima_math::units::{Celsius, Volts};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::convert::Infallible;

/// Configuration of the PVT analysis sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct PvtAnalysisConfig {
    /// Supply voltages of the voltage sweep (volts).
    pub supply_voltages: Vec<f64>,
    /// Temperatures of the temperature sweep (°C).
    pub temperatures: Vec<f64>,
    /// Number of mismatch Monte Carlo instances (each covers the full
    /// input space of the analysed geometry).
    pub mismatch_samples: usize,
    /// Base RNG seed of the Monte Carlo sampling; every sample derives its
    /// own independent stream from it (see
    /// [`optima_core::sweep::stream_seed`]).
    pub seed: u64,
    /// Worker threads of the sweeps (`0` = automatic, see
    /// [`optima_core::sweep::default_threads`]).
    pub threads: usize,
}

impl Default for PvtAnalysisConfig {
    fn default() -> Self {
        PvtAnalysisConfig {
            supply_voltages: linspace(0.9, 1.1, 5),
            temperatures: linspace(0.0, 60.0, 4),
            mismatch_samples: 50,
            seed: 0xf188,
            threads: 0,
        }
    }
}

impl PvtAnalysisConfig {
    /// A reduced configuration for tests.
    pub fn fast() -> Self {
        PvtAnalysisConfig {
            supply_voltages: vec![0.95, 1.0, 1.05],
            temperatures: vec![0.0, 25.0, 60.0],
            mismatch_samples: 12,
            ..PvtAnalysisConfig::default()
        }
    }
}

/// Error statistics binned by the expected multiplication result (Fig. 8 left).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultProfile {
    /// Expected results (0..=product_max) that occur in the input space, ascending.
    pub expected_results: Vec<u16>,
    /// Average signed error (result − expected) per expected result, in LSBs.
    pub average_error_lsb: Vec<f64>,
    /// Average analog mismatch standard deviation per expected result, in volts.
    pub analog_sigma: Vec<f64>,
}

/// Average error as a function of one varied operating-condition axis (Fig. 8 right).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConditionSweep {
    /// The swept condition values (volts or °C).
    pub condition_values: Vec<f64>,
    /// Average absolute error over the input space at each condition, in LSBs.
    pub average_error_lsb: Vec<f64>,
}

/// Mismatch Monte-Carlo error statistics over the full input space.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MismatchMonteCarlo {
    /// Average absolute error of each Monte-Carlo instance, in LSBs, in
    /// sample order (sample `i` uses the RNG stream derived for index `i`).
    pub per_sample_error_lsb: Vec<f64>,
    /// Mean of the per-sample average errors, in LSBs.
    pub mean_error_lsb: f64,
    /// Standard deviation of the per-sample average errors, in LSBs.
    pub std_error_lsb: f64,
    /// Worst per-sample average error, in LSBs.
    pub worst_error_lsb: f64,
}

/// Full Fig. 8 analysis result for one corner.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PvtAnalysis {
    /// Error/σ versus expected result at nominal conditions.
    pub result_profile: ResultProfile,
    /// Error versus supply voltage.
    pub supply_sweep: ConditionSweep,
    /// Error versus temperature.
    pub temperature_sweep: ConditionSweep,
    /// Mismatch Monte-Carlo error statistics at nominal conditions.
    pub mismatch_monte_carlo: MismatchMonteCarlo,
    /// Worst-case analog standard deviation observed (volts).
    pub worst_case_sigma: f64,
    /// Average error over the whole input space at nominal conditions (LSBs).
    pub nominal_epsilon_mul: f64,
}

impl PvtAnalysis {
    /// Runs the full analysis for one multiplier corner.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::CornerFailed`] naming the first failing sweep
    /// condition; no partial analysis is ever returned.
    pub fn run(
        multiplier: &InSramMultiplier,
        config: &PvtAnalysisConfig,
    ) -> Result<Self, ImcError> {
        let nominal = multiplier.nominal_operating_point();
        let product_max = multiplier.array().product_max();
        let input_space = multiplier.array().input_space();

        // ---- Fig. 8 left: error and sigma binned by expected result ----
        // The whole input space is evaluated in one batched analog-grid
        // pass ([`InSramMultiplier::outcome_grid`]); outcomes come back in
        // operand-major order, so binning sees samples in the same (a, d)
        // order as the historical serial double loop — and the grid itself is
        // bit-identical to that loop.
        let outcomes =
            multiplier
                .outcome_grid(nominal)
                .map_err(|source| ImcError::CornerFailed {
                    index: 0,
                    corner: "nominal input-space grid".to_string(),
                    source: Box::new(source),
                })?;
        let sigmas = multiplier
            .analog_sigma_grid()
            .map_err(|source| ImcError::CornerFailed {
                index: 0,
                corner: "nominal input-space sigma grid".to_string(),
                source: Box::new(source),
            })?;

        let mut per_expected_error: Vec<Vec<f64>> = vec![Vec::new(); product_max as usize + 1];
        let mut per_expected_sigma: Vec<Vec<f64>> = vec![Vec::new(); product_max as usize + 1];
        let mut abs_errors = Vec::with_capacity(input_space);
        let mut worst_sigma: f64 = 0.0;
        for (outcome, sigma) in outcomes.iter().zip(&sigmas) {
            let error_lsb = outcome.error_lsb();
            per_expected_error[outcome.expected as usize].push(error_lsb);
            per_expected_sigma[outcome.expected as usize].push(sigma.0);
            abs_errors.push(error_lsb.abs());
            worst_sigma = worst_sigma.max(sigma.0);
        }

        let mut result_profile = ResultProfile::default();
        for expected in 0..=product_max as usize {
            if per_expected_error[expected].is_empty() {
                continue;
            }
            result_profile.expected_results.push(expected as u16);
            result_profile
                .average_error_lsb
                .push(stats::mean(&per_expected_error[expected]));
            result_profile
                .analog_sigma
                .push(stats::mean(&per_expected_sigma[expected]));
        }

        // ---- Fig. 8 right: error vs supply voltage and temperature ----
        let supply_errors = par_map_sweep(&config.supply_voltages, config.threads, |_, &vdd| {
            average_error_at(
                multiplier,
                OperatingPoint {
                    vdd: Volts(vdd),
                    temperature: nominal.temperature,
                },
            )
        })
        .map_err(|err| {
            let vdd = config.supply_voltages[err.index];
            ImcError::from_sweep(err, format!("supply sweep V_DD = {vdd} V"))
        })?;
        let supply_sweep = ConditionSweep {
            condition_values: config.supply_voltages.clone(),
            average_error_lsb: supply_errors,
        };

        let temperature_errors = par_map_sweep(&config.temperatures, config.threads, |_, &temp| {
            average_error_at(
                multiplier,
                OperatingPoint {
                    vdd: nominal.vdd,
                    temperature: Celsius(temp),
                },
            )
        })
        .map_err(|err| {
            let temp = config.temperatures[err.index];
            ImcError::from_sweep(err, format!("temperature sweep T = {temp} degC"))
        })?;
        let temperature_sweep = ConditionSweep {
            condition_values: config.temperatures.clone(),
            average_error_lsb: temperature_errors,
        };

        // ---- Mismatch Monte Carlo: one split-seed RNG stream per sample ----
        // The nominal ΔV and σ of every (slice operand, column) are computed
        // once and shared read-only by the samples; each sample only draws
        // its deviations ([`InSramMultiplier::mismatch_error_sample`],
        // bit-identical to the scalar `multiply_with_mismatch` loop).
        let grid = multiplier
            .mismatch_grid(nominal)
            .map_err(|source| ImcError::CornerFailed {
                index: 0,
                corner: "nominal mismatch Monte-Carlo grid".to_string(),
                source: Box::new(source),
            })?;
        let sample_indices: Vec<u64> = (0..config.mismatch_samples as u64).collect();
        let per_sample_error_lsb = par_map_sweep(&sample_indices, config.threads, |_, &sample| {
            let rng = ChaCha8Rng::seed_from_u64(stream_seed(config.seed, sample));
            Ok::<_, Infallible>(multiplier.mismatch_error_sample(&grid, rng))
        })
        .unwrap_or_else(|err| match err.source {});
        let mismatch_monte_carlo = MismatchMonteCarlo {
            mean_error_lsb: stats::mean(&per_sample_error_lsb),
            std_error_lsb: stats::std_dev(&per_sample_error_lsb),
            worst_error_lsb: per_sample_error_lsb.iter().cloned().fold(0.0, f64::max),
            per_sample_error_lsb,
        };

        Ok(PvtAnalysis {
            result_profile,
            supply_sweep,
            temperature_sweep,
            mismatch_monte_carlo,
            worst_case_sigma: worst_sigma,
            nominal_epsilon_mul: stats::mean(&abs_errors),
        })
    }
}

/// Average absolute error over the full input space at one operating point,
/// evaluated through the batched analog grid (bit-identical to the scalar
/// per-pair loop it replaced).
fn average_error_at(multiplier: &InSramMultiplier, at: OperatingPoint) -> Result<f64, ImcError> {
    let errors: Vec<f64> = multiplier
        .outcome_grid(at)?
        .iter()
        .map(|outcome| outcome.error_lsb().abs())
        .collect();
    Ok(stats::mean(&errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::{MultiplierConfig, PRODUCT_MAX};
    use crate::reliability::FaultState;
    use crate::testsupport::{linear_suite, linear_suite_with_mismatch, pvt_sensitive_suite};
    use optima_circuit::array::ArrayConfig;
    use optima_circuit::defects::{
        BitLineFault, CellDefect, DefectMap, DefectModel, LifetimeTrajectory,
    };
    use optima_core::model::mismatch::MismatchSigmaModel;
    use optima_math::units::Seconds;
    use optima_math::Polynomial;

    fn multiplier(suite_sensitive: bool) -> InSramMultiplier {
        let suite = if suite_sensitive {
            pvt_sensitive_suite()
        } else {
            linear_suite()
        };
        InSramMultiplier::new(
            suite,
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0)),
        )
        .unwrap()
    }

    fn analysis(suite_sensitive: bool) -> PvtAnalysis {
        PvtAnalysis::run(&multiplier(suite_sensitive), &PvtAnalysisConfig::fast()).unwrap()
    }

    #[test]
    fn result_profile_covers_the_product_range() {
        let analysis = analysis(false);
        let profile = &analysis.result_profile;
        assert_eq!(profile.expected_results[0], 0);
        assert_eq!(*profile.expected_results.last().unwrap(), PRODUCT_MAX);
        assert_eq!(
            profile.expected_results.len(),
            profile.average_error_lsb.len()
        );
        assert_eq!(profile.expected_results.len(), profile.analog_sigma.len());
        // Expected results of a 4x4-bit multiplier: not every integer occurs
        // (e.g. 211 is prime and > 15), so the list is shorter than 226.
        assert!(profile.expected_results.len() < PRODUCT_MAX as usize + 1);
    }

    #[test]
    fn analog_sigma_grows_with_expected_result() {
        let analysis = analysis(false);
        let profile = &analysis.result_profile;
        let first_nonzero = profile.analog_sigma.iter().position(|&s| s > 0.0).unwrap();
        assert!(profile.analog_sigma.last().unwrap() > &profile.analog_sigma[first_nonzero]);
    }

    #[test]
    fn off_nominal_supply_increases_error_for_sensitive_models() {
        let analysis = analysis(true);
        let sweep = &analysis.supply_sweep;
        let nominal_index = sweep
            .condition_values
            .iter()
            .position(|&v| (v - 1.0).abs() < 1e-9)
            .unwrap();
        let nominal_error = sweep.average_error_lsb[nominal_index];
        let worst = sweep
            .average_error_lsb
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max);
        assert!(worst >= nominal_error);
        assert!(
            worst > nominal_error + 0.5,
            "supply sweep should visibly degrade the error"
        );
    }

    #[test]
    fn temperature_sweep_is_present_and_mild() {
        let analysis = analysis(true);
        assert_eq!(
            analysis.temperature_sweep.condition_values.len(),
            analysis.temperature_sweep.average_error_lsb.len()
        );
        // Temperature influence exists but stays well below the supply influence.
        let temp_spread = analysis
            .temperature_sweep
            .average_error_lsb
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max)
            - analysis
                .temperature_sweep
                .average_error_lsb
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
        let supply_spread = analysis
            .supply_sweep
            .average_error_lsb
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max)
            - analysis
                .supply_sweep
                .average_error_lsb
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
        assert!(temp_spread <= supply_spread);
    }

    #[test]
    fn nominal_epsilon_and_worst_sigma_are_populated() {
        let analysis = analysis(false);
        assert!(analysis.nominal_epsilon_mul < 1.0);
        assert!(analysis.worst_case_sigma > 0.0);
    }

    #[test]
    fn monte_carlo_statistics_are_populated() {
        let analysis = analysis(false);
        let mc = &analysis.mismatch_monte_carlo;
        assert_eq!(
            mc.per_sample_error_lsb.len(),
            PvtAnalysisConfig::fast().mismatch_samples
        );
        assert!(mc.mean_error_lsb.is_finite());
        assert!(mc.worst_error_lsb >= mc.mean_error_lsb);
        assert!(mc.std_error_lsb >= 0.0);
    }

    #[test]
    fn analysis_follows_the_array_geometry() {
        // A composed INT8 corner runs the same analysis end-to-end: bins
        // cover the widened product range and the Monte Carlo still resolves.
        let multiplier = InSramMultiplier::new(
            linear_suite(),
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0))
                .with_array(ArrayConfig::int8()),
        )
        .unwrap();
        let config = PvtAnalysisConfig {
            mismatch_samples: 2,
            supply_voltages: vec![1.0],
            temperatures: vec![25.0],
            ..PvtAnalysisConfig::fast()
        };
        let analysis = PvtAnalysis::run(&multiplier, &config).unwrap();
        let profile = &analysis.result_profile;
        assert_eq!(profile.expected_results[0], 0);
        assert_eq!(*profile.expected_results.last().unwrap(), 65025);
        assert!(analysis.nominal_epsilon_mul.is_finite());
        assert_eq!(analysis.mismatch_monte_carlo.per_sample_error_lsb.len(), 2);
    }

    #[test]
    fn analysis_is_bit_identical_at_any_thread_count() {
        // The full analysis — including the Monte-Carlo sweep, whose samples
        // draw independent split-seed RNG streams — must not depend on how
        // work is distributed over threads.
        let multiplier = multiplier(true);
        let serial = PvtAnalysis::run(
            &multiplier,
            &PvtAnalysisConfig {
                threads: 1,
                ..PvtAnalysisConfig::fast()
            },
        )
        .unwrap();
        for threads in [2, 8] {
            let parallel = PvtAnalysis::run(
                &multiplier,
                &PvtAnalysisConfig {
                    threads,
                    ..PvtAnalysisConfig::fast()
                },
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    /// The scalar reference of the Monte Carlo: every pair of every sample
    /// through [`InSramMultiplier::multiply_with_mismatch`] on the sample's
    /// split-seed stream, averaged with [`stats::mean`].
    fn scalar_monte_carlo(multiplier: &InSramMultiplier, config: &PvtAnalysisConfig) -> Vec<f64> {
        let nominal = multiplier.nominal_operating_point();
        let max = multiplier.array().operand_max();
        (0..config.mismatch_samples as u64)
            .map(|sample| {
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(config.seed, sample));
                let mut errors = Vec::with_capacity(multiplier.array().input_space());
                for a in 0..=max {
                    for d in 0..=max {
                        let outcome = multiplier
                            .multiply_with_mismatch(&mut rng, a, d, nominal)
                            .unwrap();
                        errors.push(outcome.error_lsb().abs());
                    }
                }
                stats::mean(&errors)
            })
            .collect()
    }

    /// Asserts that the grid Monte Carlo of [`PvtAnalysis::run`] reproduces
    /// the scalar reference bit for bit at 1, 2 and 8 threads.
    fn assert_monte_carlo_matches_scalar(multiplier: &InSramMultiplier, samples: usize) {
        let config = PvtAnalysisConfig {
            mismatch_samples: samples,
            supply_voltages: vec![1.0],
            temperatures: vec![25.0],
            ..PvtAnalysisConfig::fast()
        };
        let reference = scalar_monte_carlo(multiplier, &config);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mean = stats::mean(&reference);
        let std = stats::std_dev(&reference);
        let worst = reference.iter().cloned().fold(0.0, f64::max);
        for threads in [1, 2, 8] {
            let mc = PvtAnalysis::run(
                multiplier,
                &PvtAnalysisConfig {
                    threads,
                    ..config.clone()
                },
            )
            .unwrap()
            .mismatch_monte_carlo;
            assert_eq!(
                bits(&mc.per_sample_error_lsb),
                bits(&reference),
                "per-sample errors, threads = {threads}"
            );
            assert_eq!(
                mc.mean_error_lsb.to_bits(),
                mean.to_bits(),
                "threads = {threads}"
            );
            assert_eq!(
                mc.std_error_lsb.to_bits(),
                std.to_bits(),
                "threads = {threads}"
            );
            assert_eq!(
                mc.worst_error_lsb.to_bits(),
                worst.to_bits(),
                "threads = {threads}"
            );
        }
    }

    /// The first defect map (by seed) for `array` whose stored-operand row 0
    /// satisfies `accept`.
    fn find_map(
        array: &ArrayConfig,
        model: impl Fn(u64) -> DefectModel,
        accept: impl Fn(&DefectMap) -> bool,
    ) -> DefectMap {
        (0..10_000u64)
            .map(|seed| DefectMap::sample(array, &model(seed)).unwrap())
            .find(|map| accept(map))
            .expect("no defect map with the requested faults")
    }

    /// A pristine multiplier plus two faulted ones on `base` with two spare
    /// columns: an unmitigated map with a stuck cell, an open and a shorted
    /// bit-line among the word's columns, and a redundancy-remapped map;
    /// both carry retention drift and accumulated V_th aging.  The pristine
    /// DAC starts at 0 V, so slice operand 0 has a zero σ and draws nothing.
    /// (A short saturates the single INT4 pass whatever the draws, so only
    /// the composed INT8 passes make a shorted column's skipped draw
    /// observable.)
    fn oracle_multipliers(base: ArrayConfig) -> Vec<InSramMultiplier> {
        let config = MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0));
        let zero_sigma = MultiplierConfig::new(Seconds(0.16e-9), Volts(0.0), Volts(1.0));
        let array = base.with_spares(2);
        let word = 0..array.operand_bits as u16;
        let aged = LifetimeTrajectory::nbti_like().at(3);
        let faulty = DefectModel {
            stuck_at_zero_rate: 0.1,
            stuck_at_one_rate: 0.1,
            open_bitline_rate: 0.15,
            short_bitline_rate: 0.15,
            retention_sigma: 0.05,
            ..DefectModel::pristine(0)
        };
        let unmitigated = find_map(
            &array,
            |seed| DefectModel { seed, ..faulty },
            |map| {
                let has = |fault| word.clone().any(|c| map.bitline_unchecked(c) == fault);
                has(BitLineFault::Open)
                    && has(BitLineFault::Shorted)
                    && word.clone().any(|c| {
                        map.bitline_unchecked(c) == BitLineFault::Healthy
                            && map.cell_unchecked(0, c) != CellDefect::Healthy
                    })
            },
        );
        let repairable = find_map(
            &array,
            |seed| DefectModel {
                seed,
                ..DefectModel::uniform(0.2, 0)
            },
            |map| {
                FaultState::with_redundancy(&array, map.clone(), 0)
                    .is_ok_and(|state| state.remap().remapped() >= 1)
            },
        );
        let pristine = InSramMultiplier::new(linear_suite(), zero_sigma.with_array(base)).unwrap();
        let spared = InSramMultiplier::new(linear_suite(), config.with_array(array)).unwrap();
        let states = [
            FaultState::unmitigated(&array, unmitigated, 0).unwrap(),
            FaultState::with_redundancy(&array, repairable, 0).unwrap(),
        ];
        let mut multipliers = vec![pristine];
        for state in states {
            let state = state.with_lifetime(&aged);
            multipliers.push(spared.clone().with_faults(state).unwrap());
        }
        multipliers
    }

    #[test]
    fn grid_monte_carlo_is_bit_identical_to_scalar_multiplication_int4() {
        for multiplier in oracle_multipliers(ArrayConfig::paper()) {
            assert_monte_carlo_matches_scalar(&multiplier, 6);
        }
    }

    #[test]
    fn grid_monte_carlo_is_bit_identical_to_scalar_multiplication_int8() {
        for multiplier in oracle_multipliers(ArrayConfig::int8()) {
            assert_monte_carlo_matches_scalar(&multiplier, 2);
        }
    }

    #[test]
    fn non_finite_mismatch_sigma_is_a_typed_error() {
        // σ = (2e154 · t[ns]) · (1e154 · V_WL) overflows to +inf only for
        // the MSB column (1.28 ns) at word lines above ~0.70 V, i.e. from
        // slice operand 7 of the 0.45–1.0 V DAC on.
        let suite = linear_suite_with_mismatch(MismatchSigmaModel::new(
            Polynomial::new(vec![0.0, 2e154]),
            Polynomial::new(vec![0.0, 1e154]),
        ));
        let multiplier = InSramMultiplier::new(
            suite,
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0)),
        )
        .unwrap();
        let err = PvtAnalysis::run(&multiplier, &PvtAnalysisConfig::fast()).unwrap_err();
        let ImcError::CornerFailed { corner, source, .. } = &err else {
            panic!("expected a failed corner, got {err}");
        };
        assert_eq!(corner, "nominal mismatch Monte-Carlo grid");
        assert!(
            matches!(
                source.as_ref(),
                ImcError::CornerFailed { index: 31, corner, source }
                    if corner == "mismatch grid a_slice = 7, bit = 3"
                        && matches!(source.as_ref(), ImcError::InvalidConfiguration { .. })
            ),
            "{err}"
        );
        assert!(
            err.to_string()
                .contains("mismatch sigma is not finite (inf V)"),
            "{err}"
        );
    }
}
