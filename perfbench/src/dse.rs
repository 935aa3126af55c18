//! `dse_int4` / `dse_int8`: the paper's design flow, one array geometry per
//! operation, at 4- or 8-bit operands.
//!
//! Each operation calibrates cold for its row count, explores the paper's
//! 48-corner sweep, selects the Table I corners and the Pareto front, runs
//! the PVT and mismatch Monte Carlo analysis on the fom corner and builds the
//! three corners' product tables.  The 16-row operation also validates the
//! fitted models against the golden reference, which is fixed at 16 cells.

use crate::bringup::{bring_up, calibration_config, Bringup};
use crate::stats::KindRates;
use crate::trace::{Took, Tracer};
use crate::{BoxError, Checks, Metric, Workload};
use optima_circuit::array::ArrayConfig;
use optima_core::calibration::Calibrator;
use optima_core::evaluation::ModelEvaluator;
use optima_core::sweep::stream_seed;
use optima_imc::dse::{DesignPointResult, DesignSpace, DesignSpaceExplorer};
use optima_imc::fom::select_corners;
use optima_imc::multiplier::{InSramMultiplier, MultiplierTable};
use optima_imc::pareto::pareto_front;
use optima_imc::pvt_analysis::{PvtAnalysis, PvtAnalysisConfig};
use optima_imc::ImcError;

/// Row counts the operations cycle through; the seed picks the first.
const ROWS: [u16; 4] = [8, 16, 32, 64];

/// Result digests of every geometry, recorded on the code this benchmark was
/// introduced with: `(operand bits, rows, digest)`.  A geometry whose digest
/// differs counts as a failed operation.
const EXPECTED_DIGESTS: [(u8, u16, u64); 8] = [
    (4, 8, 0xab3a_5832_bf5f_08be),
    (4, 16, 0xe32e_b019_f536_7f25),
    (4, 32, 0x6738_30a0_a7ca_ed87),
    (4, 64, 0x063c_957a_0cda_e830),
    (8, 8, 0xd210_fd2c_3ef3_08a7),
    (8, 16, 0xc806_ee48_e024_8c69),
    (8, 32, 0x2097_6205_52b0_3c14),
    (8, 64, 0x839d_b1cd_6bf8_7fcf),
];

pub struct Dse {
    base: ArrayConfig,
    seed: u64,
    threads: usize,
    bringup: Option<Bringup>,
    /// Design points per wall and per CPU second, per row count.
    wall: KindRates,
    cpu: KindRates,
    model_rms_mv: Option<f64>,
}

impl Dse {
    pub fn new(base: ArrayConfig, seed: u64, threads: usize) -> Self {
        Dse {
            base,
            seed,
            threads,
            bringup: None,
            wall: KindRates::default(),
            cpu: KindRates::default(),
            model_rms_mv: None,
        }
    }
}

impl Workload for Dse {
    fn set_up(&mut self, t: &mut Tracer) -> Result<(), BoxError> {
        self.bringup = Some(bring_up(self.threads, t)?);
        Ok(())
    }

    fn operate(&mut self, index: u64, t: &mut Tracer) -> Result<Checks, BoxError> {
        let technology = self
            .bringup
            .as_ref()
            .ok_or("operation before set-up")?
            .technology
            .clone();
        let threads = self.threads;
        let rows = ROWS[(self.seed.wrapping_add(index) % ROWS.len() as u64) as usize];
        let array = ArrayConfig { rows, ..self.base };
        let mut busy = Took::default();
        let mut digest = Digest::new();

        let config = calibration_config(rows, threads);
        let (outcome, took) = t.span("core.calibrate", |_| {
            Calibrator::new(technology.clone(), config).run()
        });
        busy += took;
        let outcome = outcome?;
        t.count(
            "core.circuit_simulations",
            outcome.report().circuit_simulations as f64,
        );
        let models = outcome.into_models();

        if rows == 16 {
            let evaluator =
                ModelEvaluator::new(technology.clone(), models.clone()).with_threads(threads);
            let (rms, took) = t.span("core.validate", |_| evaluator.rms_errors(8, 100));
            busy += took;
            let rms_mv = rms?.worst_voltage_error_mv();
            self.model_rms_mv = Some(rms_mv);
            digest.push(rms_mv);
        }

        let space = DesignSpace::paper_sweep().with_arrays(vec![array]);
        let explorer = DesignSpaceExplorer::new(models.clone()).with_threads(threads);
        let (results, took) = t.span("imc.explore", |_| explorer.explore(&space));
        busy += took;
        let results = results?;
        t.count("imc.points", results.len() as f64);

        let (selected, took) = t.span("imc.select", |_| {
            select_corners(&results).map(|corners| (corners, pareto_front(&results)))
        });
        busy += took;
        let (corners, front) = selected?;
        let corner_list: [DesignPointResult; 3] = [corners.fom, corners.power, corners.variation];

        let pvt_config = PvtAnalysisConfig {
            seed: stream_seed(self.seed, index),
            threads,
            ..PvtAnalysisConfig::default()
        };
        let (pvt, took) = t.span("imc.pvt", |_| {
            let fom = InSramMultiplier::new(models.clone(), corners.fom.point.to_config())?;
            PvtAnalysis::run(&fom, &pvt_config)
        });
        busy += took;
        let pvt = pvt?;

        let (tables, took) = t.span("imc.table_build", |_| {
            corner_list
                .iter()
                .map(|corner| {
                    let multiplier =
                        InSramMultiplier::new(models.clone(), corner.point.to_config())?;
                    MultiplierTable::from_multiplier(
                        &multiplier,
                        multiplier.nominal_operating_point(),
                    )
                })
                .collect::<Result<Vec<_>, ImcError>>()
        });
        busy += took;
        let tables = tables?;

        let points = results.len() as f64;
        self.wall.record(u64::from(rows), points, busy.wall_s);
        self.cpu.record(u64::from(rows), points, busy.cpu_s);

        for corner in &corner_list {
            digest.push(corner.metrics.epsilon_mul);
            digest.push(corner.metrics.energy_per_multiply.0);
            digest.push(corner.metrics.sigma_at_max_discharge.0);
        }
        let digest = digest.0;
        let expected = EXPECTED_DIGESTS
            .iter()
            .find(|&&(bits, r, _)| bits == array.operand_bits && r == rows)
            .map(|&(_, _, d)| d);
        // The nominal PVT point re-evaluates the fom corner, the tables
        // cover the full input space, and the front is never empty: any
        // miss is a broken layer, not noise.
        let consistent = pvt.nominal_epsilon_mul.to_bits()
            == corners.fom.metrics.epsilon_mul.to_bits()
            && tables
                .iter()
                .all(|t| t.operand_bits() == array.operand_bits)
            && !front.is_empty();
        let ok = consistent && expected == Some(digest);
        if !ok {
            eprintln!(
                "dse: INT{} rows={rows} failed its check (digest {digest:#018x}, \
                 expected {expected:?}, consistent {consistent})",
                array.operand_bits
            );
        }
        Ok(Checks {
            attempted: 1,
            failed: u64::from(!ok),
        })
    }

    fn throughput_per_cpu_s(&self) -> f64 {
        self.cpu.rate()
    }

    fn named_metrics(&self) -> Vec<Metric> {
        let mut metrics = vec![("dse_points_per_s", self.wall.rate(), "1/s")];
        if let Some(rms_mv) = self.model_rms_mv {
            metrics.push(("model_rms_mv", rms_mv, "mV"));
        }
        metrics
    }
}

/// FNV-1a over the bit patterns of a sequence of `f64`s.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, value: f64) {
        for byte in value.to_bits().to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
