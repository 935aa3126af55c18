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
//! stream per die — is bit-identical for any thread count.
//!
//! Inside each swept condition the full input space of the geometry (16×16
//! pairs at INT4, 256×256 at INT8) is read out of one
//! [`InSramMultiplier::readout_kernel`] a stored-operand row at a time,
//! bit-identical to the scalar per-pair path: the error sums are exact
//! integer sums (every `f64` partial sum of the per-pair path is an integer
//! below 2^53), each result-profile bin sums its σ in operand-major order,
//! and the worst σ is the max over the kernel's σ table.
//!
//! Mismatch is modelled as a property of the fabricated die, not as noise
//! on every operation: a die is one standard-normal offset `z` per physical
//! column, and a column reading slice operand `a` at bit `bit` discharges
//! `ΔV + σ(a, bit) · z`, with Eq. 6's σ (see
//! [`InSramMultiplier::sample_die`]).  A slow column is therefore slow for
//! every product that reads it, and a redundancy-remapped column carries its
//! spare's offset.  The dies share one precomputed
//! [`crate::multiplier::MismatchGrid`]; each die rebuilds only its ADC code
//! table and reads the input space out of it with no random draws.

use crate::error::ImcError;
use crate::multiplier::{InSramMultiplier, OperatingPoint};
use optima_circuit::pvt::linspace;
use optima_core::sweep::{par_map_sweep, stream_seed};
use optima_math::stats;
use optima_math::units::{Celsius, Volts};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the PVT analysis sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct PvtAnalysisConfig {
    /// Supply voltages of the voltage sweep (volts).
    pub supply_voltages: Vec<f64>,
    /// Temperatures of the temperature sweep (°C).
    pub temperatures: Vec<f64>,
    /// Number of mismatch Monte Carlo dies.  Each die draws one offset per
    /// physical column and is read out over the full input space of the
    /// analysed geometry.
    pub mismatch_samples: usize,
    /// Base RNG seed of the Monte Carlo sampling; every die derives its own
    /// independent stream from it (see
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

/// Mismatch Monte-Carlo error statistics over the full input space, one
/// sample per die (one offset per physical column, see
/// [`InSramMultiplier::sample_die`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MismatchMonteCarlo {
    /// Average absolute error of each die over the input space, in LSBs, in
    /// die order (die `i` uses the RNG stream derived for index `i`).
    pub per_sample_error_lsb: Vec<f64>,
    /// Mean of the per-die average errors, in LSBs.
    pub mean_error_lsb: f64,
    /// Standard deviation of the per-die average errors, in LSBs.
    pub std_error_lsb: f64,
    /// Worst per-die average error, in LSBs.
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
        // The whole input space streams out of one readout kernel, a row at
        // a time.  Every bin sums its σ in operand-major (a, d) order, like
        // the scalar reference; the error sums are exact integer sums.
        let kernel =
            multiplier
                .readout_kernel(nominal)
                .map_err(|source| ImcError::CornerFailed {
                    index: 0,
                    corner: "nominal input-space grid".to_string(),
                    source: Box::new(source),
                })?;
        // (signed error sum, sigma sum, pairs) per expected result.
        let mut bins = vec![(0i64, 0.0, 0u32); product_max as usize + 1];
        let mut abs_sum = 0u64;
        kernel.sweep_input_space(|a, results, sigmas| {
            for (d, (&result, &sigma)) in results.iter().zip(sigmas).enumerate() {
                let expected = u32::from(a) * d as u32;
                let error_lsb = i64::from(result) - i64::from(expected);
                let bin = &mut bins[expected as usize];
                bin.0 += error_lsb;
                bin.1 += sigma;
                bin.2 += 1;
                abs_sum += error_lsb.unsigned_abs();
            }
        });

        let mut result_profile = ResultProfile::default();
        for (expected, &(error_sum, sigma_sum, pairs)) in bins.iter().enumerate() {
            if pairs == 0 {
                continue;
            }
            result_profile.expected_results.push(expected as u16);
            result_profile
                .average_error_lsb
                .push(error_sum as f64 / pairs as f64);
            result_profile.analog_sigma.push(sigma_sum / pairs as f64);
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

        // ---- Mismatch Monte Carlo: one die per split-seed RNG stream ----
        // The nominal ΔV and σ of every (slice operand, column) are computed
        // once and shared read-only by the dies; each die draws one offset
        // per physical column and rebuilds only its ADC code table
        // ([`InSramMultiplier::mismatch_die_error`]).
        let grid = multiplier
            .mismatch_grid(nominal)
            .map_err(|source| ImcError::CornerFailed {
                index: 0,
                corner: "nominal mismatch Monte-Carlo grid".to_string(),
                source: Box::new(source),
            })?;
        let dies: Vec<u64> = (0..config.mismatch_samples as u64).collect();
        let per_sample_error_lsb = par_map_sweep(&dies, config.threads, |_, &die| {
            let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(config.seed, die));
            multiplier.mismatch_die_error(&grid, &multiplier.sample_die(&mut rng))
        })
        .map_err(|err| {
            let die = err.index;
            ImcError::from_sweep(err, format!("mismatch die {die}"))
        })?;
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
            worst_case_sigma: kernel.worst_sigma().0,
            nominal_epsilon_mul: abs_sum as f64 / input_space as f64,
        })
    }
}

/// Average absolute error over the full input space at one operating point,
/// read out of the multiplier's readout kernel (bit-identical to the scalar
/// per-pair loop).
fn average_error_at(multiplier: &InSramMultiplier, at: OperatingPoint) -> Result<f64, ImcError> {
    Ok(multiplier.readout_kernel(at)?.mean_abs_error())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate_multiplier_at, evaluate_multiplier_at_scalar};
    use crate::multiplier::{MultiplierConfig, MultiplierTable, PRODUCT_MAX};
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

    /// The test-side per-pair reference of the Monte Carlo: every die drawn
    /// from its split-seed stream, every pair through the scalar
    /// [`InSramMultiplier::multiply_on_die`], averaged with [`stats::mean`].
    fn scalar_monte_carlo(multiplier: &InSramMultiplier, config: &PvtAnalysisConfig) -> Vec<f64> {
        let nominal = multiplier.nominal_operating_point();
        let max = multiplier.array().operand_max();
        (0..config.mismatch_samples as u64)
            .map(|sample| {
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(config.seed, sample));
                let die = multiplier.sample_die(&mut rng);
                let mut errors = Vec::with_capacity(multiplier.array().input_space());
                for a in 0..=max {
                    for d in 0..=max {
                        let outcome = multiplier.multiply_on_die(a, d, nominal, &die).unwrap();
                        errors.push(outcome.error_lsb().abs());
                    }
                }
                stats::mean(&errors)
            })
            .collect()
    }

    /// The scalar reference of the result profile: the pairs of the scalar
    /// table binned by expected result in operand-major order.
    fn scalar_profile(multiplier: &InSramMultiplier, table: &MultiplierTable) -> ResultProfile {
        let max = multiplier.array().operand_max();
        let mut errors = vec![Vec::new(); multiplier.array().product_max() as usize + 1];
        let mut sigmas = vec![Vec::new(); errors.len()];
        for a in 0..=max {
            for d in 0..=max {
                errors[(a * d) as usize].push(table.lookup(a, d) as f64 - (a * d) as f64);
                sigmas[(a * d) as usize].push(multiplier.analog_sigma(a, d).unwrap().0);
            }
        }
        let mut profile = ResultProfile::default();
        for (expected, (errors, sigmas)) in errors.iter().zip(&sigmas).enumerate() {
            if !errors.is_empty() {
                profile.expected_results.push(expected as u16);
                profile.average_error_lsb.push(stats::mean(errors));
                profile.analog_sigma.push(stats::mean(sigmas));
            }
        }
        profile
    }

    /// Asserts that every kernel-backed number — `evaluate_multiplier_at`,
    /// `MultiplierTable::from_multiplier`, the PVT result profile and
    /// condition sweeps — equals its scalar reference bit for bit, and that
    /// the per-die Monte Carlo equals the scalar per-pair reference, at 1, 2
    /// and 8 threads.
    fn assert_kernel_matches_scalar(multiplier: &InSramMultiplier, dies: usize) {
        let nominal = multiplier.nominal_operating_point();
        let config = PvtAnalysisConfig {
            mismatch_samples: dies,
            supply_voltages: vec![1.05],
            temperatures: vec![60.0],
            ..PvtAnalysisConfig::fast()
        };
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let conditions = [
            nominal,
            OperatingPoint {
                vdd: Volts(1.05),
                temperature: nominal.temperature,
            },
            OperatingPoint {
                vdd: nominal.vdd,
                temperature: Celsius(60.0),
            },
        ];
        let mut scalar_epsilons = Vec::new();
        let mut nominal_table = None;
        for at in conditions {
            let scalar = evaluate_multiplier_at_scalar(multiplier, at).unwrap();
            assert_eq!(evaluate_multiplier_at(multiplier, at).unwrap(), scalar);
            let table = MultiplierTable::from_multiplier_scalar(multiplier, at).unwrap();
            assert_eq!(
                MultiplierTable::from_multiplier(multiplier, at).unwrap(),
                table
            );
            scalar_epsilons.push(scalar);
            nominal_table.get_or_insert(table);
        }
        let profile = scalar_profile(multiplier, &nominal_table.unwrap());
        let monte_carlo = scalar_monte_carlo(multiplier, &config);
        for threads in [1, 2, 8] {
            let analysis = PvtAnalysis::run(
                multiplier,
                &PvtAnalysisConfig {
                    threads,
                    ..config.clone()
                },
            )
            .unwrap();
            assert_eq!(analysis.result_profile, profile, "threads = {threads}");
            assert_eq!(
                analysis.nominal_epsilon_mul.to_bits(),
                scalar_epsilons[0].epsilon_mul.to_bits()
            );
            assert_eq!(
                analysis.worst_case_sigma.to_bits(),
                scalar_epsilons[0].worst_case_sigma.0.to_bits()
            );
            assert_eq!(
                bits(&analysis.supply_sweep.average_error_lsb),
                bits(&[scalar_epsilons[1].epsilon_mul]),
                "supply sweep, threads = {threads}"
            );
            assert_eq!(
                bits(&analysis.temperature_sweep.average_error_lsb),
                bits(&[scalar_epsilons[2].epsilon_mul]),
                "temperature sweep, threads = {threads}"
            );
            let mc = &analysis.mismatch_monte_carlo;
            assert_eq!(
                bits(&mc.per_sample_error_lsb),
                bits(&monte_carlo),
                "per-die errors, threads = {threads}"
            );
            assert_eq!(
                mc.mean_error_lsb.to_bits(),
                stats::mean(&monte_carlo).to_bits(),
                "threads = {threads}"
            );
            assert_eq!(
                mc.std_error_lsb.to_bits(),
                stats::std_dev(&monte_carlo).to_bits(),
                "threads = {threads}"
            );
            assert_eq!(
                mc.worst_error_lsb.to_bits(),
                monte_carlo.iter().cloned().fold(0.0, f64::max).to_bits(),
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
    fn kernel_is_bit_identical_to_the_scalar_references_int4() {
        for multiplier in oracle_multipliers(ArrayConfig::paper()) {
            assert_kernel_matches_scalar(&multiplier, 6);
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_the_scalar_references_int8() {
        for multiplier in oracle_multipliers(ArrayConfig::int8()) {
            assert_kernel_matches_scalar(&multiplier, 2);
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_the_scalar_references_beyond_two_slices() {
        // Three and more slices (runs of 4^2, 2^2 … 2^5 d values per
        // d-slice entry) and 1-bit slices.  (8-bit operands on 2-bit slices
        // are checked pair by pair in the multiplier's own tests.)
        for (operand_bits, slice_bits) in [(6, 2), (6, 1)] {
            let base = ArrayConfig {
                operand_bits,
                slice_bits,
                columns: operand_bits as u16,
                ..ArrayConfig::paper()
            };
            for multiplier in oracle_multipliers(base) {
                assert_kernel_matches_scalar(&multiplier, 1);
            }
        }
    }

    #[test]
    fn zero_sigma_dies_reproduce_the_nominal_error() {
        // With σ = 0 every die offset vanishes whatever its draws, so every
        // die's error is the nominal ε_mul bit for bit — pristine or faulted,
        // single-pass or composed.
        let zero = MismatchSigmaModel::new(Polynomial::new(vec![0.0]), Polynomial::new(vec![0.0]));
        for base in [ArrayConfig::paper(), ArrayConfig::int8()] {
            for multiplier in oracle_multipliers(base) {
                let config = *multiplier.config();
                let mut zero_sigma =
                    InSramMultiplier::new(linear_suite_with_mismatch(zero.clone()), config)
                        .unwrap();
                if let Some(faults) = multiplier.faults() {
                    zero_sigma = zero_sigma.with_faults(faults.clone()).unwrap();
                }
                let analysis = PvtAnalysis::run(
                    &zero_sigma,
                    &PvtAnalysisConfig {
                        mismatch_samples: 3,
                        supply_voltages: vec![1.0],
                        temperatures: vec![25.0],
                        ..PvtAnalysisConfig::fast()
                    },
                )
                .unwrap();
                for error in &analysis.mismatch_monte_carlo.per_sample_error_lsb {
                    assert_eq!(
                        error.to_bits(),
                        analysis.nominal_epsilon_mul.to_bits(),
                        "{}",
                        config.array.describe()
                    );
                }
            }
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
