//! The set-up every workload shares: a cold calibration of the paper's
//! 16-row macro, a snapshot save and load of it in a private directory, and
//! the Section V comparison of the golden and fitted backends on one grid.

use crate::trace::Tracer;
use crate::BoxError;
use optima_circuit::array::ArrayConfig;
use optima_circuit::pvt::PvtConditions;
use optima_circuit::technology::Technology;
use optima_circuit::transient::DischargeStimulus;
use optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_core::evaluation::ModelEvaluator;
use optima_core::snapshot;
use optima_core::ModelSuite;
use optima_math::units::{Seconds, Volts};
use std::path::{Path, PathBuf};

/// Word-line voltages × sampling instants of the backend comparison grid.
const GRID_WORDLINES: usize = 8;
const GRID_TIMES: usize = 32;
/// The fitted backend answers the grid in microseconds, so it is timed over
/// this many repetitions to rise well above clock resolution.
const FITTED_REPEATS: usize = 200;

/// Calibrated models of the paper's macro, ready for the workloads.
pub struct Bringup {
    pub technology: Technology,
    pub models: ModelSuite,
}

/// Calibration settings for a bit-line of `rows` cells: the full default
/// grids, with sweeps on `threads` workers.
pub fn calibration_config(rows: u16, threads: usize) -> CalibrationConfig {
    CalibrationConfig {
        cells_on_bitline: rows as usize,
        threads,
        ..CalibrationConfig::default()
    }
}

/// Directory for this process's calibration snapshots, inside the working
/// directory and never shared with the workspace's own snapshot cache.
fn snapshot_dir() -> PathBuf {
    Path::new("target")
        .join("perfbench")
        .join(format!("snapshots-{}", std::process::id()))
}

/// Runs the shared set-up.  A snapshot that does not load back bit-exactly
/// is an error, not a slow path.
pub fn bring_up(threads: usize, t: &mut Tracer) -> Result<Bringup, BoxError> {
    let technology = Technology::tsmc65_like();
    let array = ArrayConfig::paper();
    let config = calibration_config(array.rows, threads);
    let (outcome, _) = t.span("core.calibrate", |_| {
        Calibrator::new(technology.clone(), config.clone()).run()
    });
    let outcome = outcome?;
    t.count(
        "core.circuit_simulations",
        outcome.report().circuit_simulations as f64,
    );

    let dir = snapshot_dir();
    let path = dir.join("calibration.snap");
    let (saved, _) = t.span("core.snapshot_save", |_| {
        snapshot::save(&path, &outcome, &technology, &config, &array)
    });
    saved?;
    let (loaded, _) = t.span("core.snapshot_load", |_| {
        snapshot::load(&path, &technology, &config, &array)
    });
    std::fs::remove_dir_all(&dir)?;
    if loaded? != outcome {
        return Err("calibration snapshot did not load back bit-exactly".into());
    }

    let models = outcome.into_models();
    compare_backends(&technology, &models, threads, t)?;
    Ok(Bringup { technology, models })
}

/// Answers one `DischargeBackend::bitline_voltages` grid with the golden RK
/// simulator and with the fitted models, and checks they agree to within
/// the fitted models' known error.
fn compare_backends(
    technology: &Technology,
    models: &ModelSuite,
    threads: usize,
    t: &mut Tracer,
) -> Result<(), BoxError> {
    let evaluator = ModelEvaluator::new(technology.clone(), models.clone()).with_threads(threads);
    let nominal = PvtConditions::nominal(technology);
    let times: Vec<Seconds> = (0..GRID_TIMES)
        .map(|i| Seconds(0.2e-9 + 1.7e-9 * i as f64 / (GRID_TIMES - 1) as f64))
        .collect();
    let stimuli: Vec<DischargeStimulus> = (0..GRID_WORDLINES)
        .map(|i| DischargeStimulus {
            word_line_voltage: Volts(0.5 + 0.5 * i as f64 / (GRID_WORDLINES - 1) as f64),
            stored_bit: true,
            duration: Seconds(2e-9),
            cells_on_bitline: 16,
            time_steps: 400,
        })
        .collect();
    let evaluations = (GRID_WORDLINES * GRID_TIMES) as f64;

    let (golden, _) = t.span("circuit.golden_grid", |_| {
        stimuli
            .iter()
            .map(|s| {
                evaluator
                    .reference_backend()
                    .bitline_voltages(s, &nominal, &times)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let golden = golden?;
    t.count("circuit.golden_evals", evaluations);

    let (fitted, _) = t.span("core.fitted_grid", |_| {
        let mut last = Vec::new();
        for _ in 0..FITTED_REPEATS {
            last = stimuli
                .iter()
                .map(|s| {
                    evaluator
                        .fitted_backend()
                        .bitline_voltages(s, &nominal, &times)
                })
                .collect::<Result<Vec<_>, _>>()?;
        }
        Ok::<_, optima_core::ModelError>(last)
    });
    let fitted = fitted?;
    t.count("core.fitted_evals", evaluations * FITTED_REPEATS as f64);

    // The held-out worst error of today's fits is ~13 mV; 100 mV apart (or
    // a NaN) means one backend answered a different question.
    let off = golden
        .iter()
        .flatten()
        .zip(fitted.iter().flatten())
        .filter(|&(g, f)| {
            let gap = (g - f).abs();
            gap.is_nan() || gap > 0.1
        })
        .count();
    if off > 0 {
        return Err(format!("{off} fitted grid points are over 0.1 V off the golden ones").into());
    }
    Ok(())
}
