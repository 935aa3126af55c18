//! Fig. 5 — influence of PVT variations on the BLB discharge.
//!
//! (a) supply voltage, (b) temperature, (c) process corners,
//! (d) transistor mismatch (Monte Carlo).
//!
//! All four sweeps run on the error-strict parallel engine of
//! [`optima_core::sweep`]; a failing condition aborts the run naming the
//! condition instead of silently thinning the tables.  The deterministic
//! waveform tables (a–c) query the golden simulator through the unified
//! [`DischargeBackend`] interface — the same interface the fitted models
//! implement — while the mismatch panel (d) uses the simulator's
//! Monte-Carlo entry point, which deliberately sits below the interface.

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_circuit::montecarlo::MismatchModel;
use optima_circuit::prelude::*;
use optima_core::backend::DischargeBackend;
use optima_core::sweep::{par_map_mismatch, par_map_sweep};
use optima_core::ModelError;
use optima_math::stats;

/// Offset from the context's base seed to the mismatch-sampling stream
/// (base seed 42 reproduces the historical seed 51).
const MISMATCH_SEED_OFFSET: u64 = 9;

fn stimulus(v_wl: f64, steps: usize) -> DischargeStimulus {
    DischargeStimulus {
        word_line_voltage: Volts(v_wl),
        duration: Seconds(2e-9),
        time_steps: steps,
        ..DischargeStimulus::default()
    }
}

pub struct Fig5Pvt;

impl Experiment for Fig5Pvt {
    fn name(&self) -> &'static str {
        "fig5_pvt"
    }

    fn description(&self) -> &'static str {
        "PVT and mismatch influence on the BLB discharge (supply, temperature, corners, MC)"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 5"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let tech = Technology::tsmc65_like();
        let sim = TransientSimulator::new(tech.clone());
        let nominal = PvtConditions::nominal(&tech);
        let steps = if ctx.is_fast() { 100 } else { 400 };
        let mc_samples = if ctx.is_fast() { 100 } else { 1000 };
        let threads = ctx.threads();
        let v_wl = 0.85;
        let sample_times = [
            Seconds(0.5e-9),
            Seconds(1.0e-9),
            Seconds(1.5e-9),
            Seconds(2.0e-9),
        ];
        let mut report = Report::new();
        report.note(format!(
            "(sweep engine: {} worker threads, results deterministic at any count; \
             waveforms via the '{}' discharge backend)",
            ctx.effective_threads(),
            sim.backend_name()
        ));

        let waveform_table = |rows: &[Vec<f64>], columns: Vec<Column>| {
            let mut table = Table::new(columns);
            for (i, &t) in sample_times.iter().enumerate() {
                let mut row = vec![Scalar::Float(t.0 * 1e9, 1)];
                for column in rows {
                    row.push(Scalar::Float(column[i], 4));
                }
                table.push_row(row);
            }
            table
        };

        report
            .blank()
            .heading(
                1,
                format!("Fig. 5a — supply voltage (V_BL [V] at V_WL = {v_wl} V)"),
            )
            .blank();
        let supply_points = [0.9, 1.0, 1.1];
        let supply_rows = par_map_sweep(&supply_points, threads, |_, &vdd| {
            sim.bitline_voltages(
                &stimulus(v_wl, steps),
                &nominal.with_vdd(Volts(vdd)),
                &sample_times,
            )
        })
        .map_err(|err| ModelError::from_sweep(err, "Fig. 5a supply sweep"))?;
        report.table(waveform_table(
            &supply_rows,
            vec![
                Column::unit("t", "ns"),
                Column::plain("VDD=0.9 V"),
                Column::plain("VDD=1.0 V"),
                Column::plain("VDD=1.1 V"),
            ],
        ));

        report.blank().heading(1, "Fig. 5b — temperature").blank();
        let temp_points = [-40.0, 25.0, 125.0];
        let temp_rows = par_map_sweep(&temp_points, threads, |_, &temp| {
            sim.bitline_voltages(
                &stimulus(v_wl, steps),
                &nominal.with_temperature(Celsius(temp)),
                &sample_times,
            )
        })
        .map_err(|err| ModelError::from_sweep(err, "Fig. 5b temperature sweep"))?;
        report.table(waveform_table(
            &temp_rows,
            vec![
                Column::unit("t", "ns"),
                Column::plain("-40 degC"),
                Column::plain("25 degC"),
                Column::plain("125 degC"),
            ],
        ));

        report
            .blank()
            .heading(1, "Fig. 5c — process corners")
            .blank();
        let corner_points = [
            ProcessCorner::FastFast,
            ProcessCorner::TypicalTypical,
            ProcessCorner::SlowSlow,
        ];
        let corner_rows = par_map_sweep(&corner_points, threads, |_, &corner| {
            sim.bitline_voltages(
                &stimulus(v_wl, steps),
                &nominal.with_corner(corner),
                &sample_times,
            )
        })
        .map_err(|err| ModelError::from_sweep(err, "Fig. 5c process-corner sweep"))?;
        report.table(waveform_table(
            &corner_rows,
            vec![
                Column::unit("t", "ns"),
                Column::plain("fast (FF)"),
                Column::plain("nominal (TT)"),
                Column::plain("slow (SS)"),
            ],
        ));

        report
            .blank()
            .heading(
                1,
                format!("Fig. 5d — transistor mismatch ({mc_samples} samples)"),
            )
            .blank();
        let mut table = Table::new(vec![
            Column::unit("V_WL", "V"),
            Column::unit("mean V_BL(2 ns)", "V"),
            Column::unit("sigma", "mV"),
            Column::unit("min", "V"),
            Column::unit("max", "V"),
        ]);
        let mismatch_model = MismatchModel::from_technology(&tech);
        let mismatch_seed = ctx.seed().wrapping_add(MISMATCH_SEED_OFFSET);
        for &v_wl in &[0.6, 0.8, 1.0] {
            let samples = mismatch_model.sample_n(mc_samples, mismatch_seed);
            // One transient per mismatch instance, integrated in lock-step
            // lanes and reassembled in sample order, so the statistics are
            // bit-identical at any thread count.
            let voltages: Vec<f64> = par_map_mismatch(
                &sim,
                &stimulus(v_wl, steps),
                &nominal,
                &samples,
                threads,
                |waveform| Ok(waveform.final_value()),
            )
            .map_err(|err| ModelError::from_sweep(err, "Fig. 5d mismatch Monte-Carlo sweep"))?;
            table.push_row(vec![
                Scalar::Float(v_wl, 1),
                Scalar::Float(stats::mean(&voltages), 4),
                Scalar::Float(stats::std_dev(&voltages) * 1e3, 2),
                Scalar::Float(stats::min(&voltages), 4),
                Scalar::Float(stats::max(&voltages), 4),
            ]);
        }
        report.table(table);
        report
            .blank()
            .note("As in the paper: supply voltage and process corners move the curves strongly,")
            .note("temperature only slightly, and the mismatch-induced spread grows with V_WL.");
        Ok(report)
    }
}
