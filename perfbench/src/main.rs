//! The OPTIMA benchmark: four workloads driven through the crates' public
//! APIs, end-to-end metrics by default and per-layer metrics with
//! `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dse_int4 --seed 42 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `dse_int4`, `dse_int8`, `paper_tables`, `serve_saturation`.
//! Each sets up five times (the median is `setup_s`), then repeats its
//! operation until `--seconds` have passed.  Human-readable lines — the
//! machine stamp, the workload's own named metrics and the check counts —
//! precede the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! With `--trace 1` every operation runs twice on the same inputs, once
//! traced and once not; the per-layer metrics come from the traced runs,
//! the tracing overhead from the pairs, and the spans are written as a
//! Chrome trace-event file under `target/perfbench/`.

mod bringup;
mod dse;
mod serving;
mod stats;
mod tables;
mod trace;

use optima_bench::json::Json;
use optima_circuit::array::ArrayConfig;
use optima_core::sweep::default_threads;
use stats::median;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

pub type BoxError = Box<dyn std::error::Error>;

/// A named metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

const SETUP_REPEATS: usize = 5;

/// Outputs the operations checked, and how many of them were wrong.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Checks {
    fn add_assign(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Builds everything the operations need; runs before any operation,
    /// [`SETUP_REPEATS`] times.
    fn set_up(&mut self, t: &mut Tracer) -> Result<(), BoxError>;
    /// Runs operation `index`; the same index always gets the same inputs.
    fn operate(&mut self, index: u64, t: &mut Tracer) -> Result<Checks, BoxError>;
    /// The workload's primary items per CPU second of the work that makes
    /// them; the wall-clock rate is among its named metrics.
    fn throughput_per_cpu_s(&self) -> f64;
    /// The workload's own metrics, printed by name with their units.
    fn named_metrics(&self) -> Vec<Metric>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed > 0.0 && parsed.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(42),
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), BoxError> {
    let threads = default_threads();
    let shards = 2.min(threads);
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "dse_int4" => Box::new(dse::Dse::new(ArrayConfig::paper(), args.seed, threads)),
        "dse_int8" => Box::new(dse::Dse::new(ArrayConfig::int8(), args.seed, threads)),
        "paper_tables" => Box::new(tables::PaperTables::new(args.seed, threads)),
        "serve_saturation" => Box::new(serving::Serving::new(args.seed, threads, shards)),
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    let stamp = machine_stamp(threads, shards);
    println!("stamp {}", render_line(&stamp));

    let mut t = Tracer::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    for repeat in 0..SETUP_REPEATS {
        t.set_enabled(args.trace && repeat == 0);
        let (done, took) = t.span("bench.setup", |t| workload.set_up(t));
        done?;
        setup_s.push(took.cpu_s);
    }

    let mut checks = Checks::default();
    let mut overhead = Vec::new();
    let start = t.elapsed_s();
    let mut index = 0u64;
    loop {
        if args.trace {
            // Alternate which run of the pair goes first, so warm-up and
            // drift do not land on one side.
            let mut seconds = [0.0; 2];
            let traced_first = index.is_multiple_of(2);
            for traced in [traced_first, !traced_first] {
                t.set_enabled(traced);
                let (done, took) = t.span("bench.op", |t| workload.operate(index, t));
                checks += done?;
                seconds[usize::from(traced)] = took.cpu_s;
            }
            overhead.push(100.0 * (seconds[1] - seconds[0]) / seconds[0]);
        } else {
            let (done, _) = t.span("bench.op", |t| workload.operate(index, t));
            checks += done?;
        }
        index += 1;
        if t.elapsed_s() - start >= args.seconds {
            break;
        }
    }

    println!(
        "workload {} seed {} operations {index}{}",
        args.workload,
        args.seed,
        if args.trace {
            " (each run traced and untraced)"
        } else {
            ""
        }
    );
    for (name, value, unit) in workload.named_metrics() {
        println!("metric {name} {value} {unit}");
    }
    println!("ops_attempted {}", checks.attempted);
    println!("ops_failed {}", checks.failed);

    let metrics = if args.trace {
        let path = write_trace(&t, stamp, &args.workload, args.seed)?;
        println!("trace_file {}", path.display());
        per_layer(&t, median(&overhead))
    } else {
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            (
                "throughput_per_cpu_s",
                workload.throughput_per_cpu_s(),
                "1/s",
            ),
        ]
    };
    for &(name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value} {unit})").into());
        }
    }
    let result = Json::object(vec![
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Int(checks.attempted as i64)),
        ("failed", Json::Int(checks.failed as i64)),
        (
            "metrics",
            Json::Object(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::object(vec![
                                ("value", Json::Float(value)),
                                ("unit", Json::str(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", render_line(&result));
    Ok(())
}

/// The per-layer metrics of a traced run.  A layer the workload never calls
/// reports 0.
fn per_layer(t: &Tracer, overhead_pct: f64) -> Vec<Metric> {
    let golden = t.rate("circuit.golden_evals", "circuit.golden_grid");
    let fitted = t.rate("core.fitted_evals", "core.fitted_grid");
    let per_call = |counter: &str, span: &str| t.counter(counter) / t.calls(span).max(1) as f64;
    let train_s = t.total_s("dnn.train") + t.total_s("dnn.head_train");
    let self_s = t.self_seconds();
    let layer_self = |layer: &str| self_s.get(layer).copied().unwrap_or(0.0);
    vec![
        ("circuit.golden_evals_per_s", golden, "1/s"),
        ("circuit.self_s", layer_self("circuit"), "s"),
        ("core.calibrate_s", t.median_s("core.calibrate"), "s"),
        (
            "core.circuit_simulations",
            per_call("core.circuit_simulations", "core.calibrate"),
            "count",
        ),
        ("core.validate_s", t.median_s("core.validate"), "s"),
        ("core.fitted_evals_per_s", fitted, "1/s"),
        (
            "core.fitted_speedup_x",
            if golden > 0.0 { fitted / golden } else { 0.0 },
            "x",
        ),
        (
            "core.snapshot_save_s",
            t.median_s("core.snapshot_save"),
            "s",
        ),
        (
            "core.snapshot_load_s",
            t.median_s("core.snapshot_load"),
            "s",
        ),
        ("core.self_s", layer_self("core"), "s"),
        ("imc.explore_s", t.median_s("imc.explore"), "s"),
        ("imc.points", per_call("imc.points", "imc.explore"), "count"),
        ("imc.select_s", t.median_s("imc.select"), "s"),
        ("imc.pvt_s", t.median_s("imc.pvt"), "s"),
        ("imc.table_build_s", t.median_s("imc.table_build"), "s"),
        ("imc.self_s", layer_self("imc"), "s"),
        ("dnn.dataset_s", t.median_s("dnn.dataset"), "s"),
        ("dnn.train_s", t.median_s("dnn.train"), "s"),
        ("dnn.head_train_s", t.median_s("dnn.head_train"), "s"),
        (
            "dnn.train_gflops_per_s",
            if train_s > 0.0 {
                t.counter("dnn.train_flops") / train_s * 1.0e-9
            } else {
                0.0
            },
            "GFLOP/s",
        ),
        ("dnn.quantize_s", t.median_s("dnn.quantize"), "s"),
        ("dnn.eval_float_s", t.median_s("dnn.eval_float"), "s"),
        ("dnn.eval_quant_s", t.median_s("dnn.eval_quant"), "s"),
        (
            "dnn.lut_gathers_per_s",
            t.rate("dnn.lut_gathers", "dnn.eval_quant"),
            "1/s",
        ),
        ("dnn.self_s", layer_self("dnn"), "s"),
        ("serve.plan_s", t.median_s("serve.plan"), "s"),
        ("serve.execute_s", t.median_s("serve.execute"), "s"),
        (
            "serve.busy_share",
            t.sample_median("serve.busy_share"),
            "ratio",
        ),
        (
            "serve.per_request_us",
            t.sample_median("serve.per_request_us"),
            "us",
        ),
        (
            "serve.mean_batch",
            t.sample_median("serve.mean_batch"),
            "count",
        ),
        ("serve.batches", t.sample_median("serve.batches"), "count"),
        ("serve.rejected", t.sample_median("serve.rejected"), "count"),
        (
            "serve.queue_wait_p99_us",
            t.sample_median("serve.queue_wait_p99_us"),
            "us",
        ),
        ("serve.self_s", layer_self("serve"), "s"),
        ("bench.self_s", layer_self("bench"), "s"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// CPU, thread counts, SIMD arm, build profile and source revision.
fn machine_stamp(threads: usize, shards: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|name| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    #[cfg(target_arch = "x86_64")]
    let simd = if std::arch::is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "portable"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let simd = "portable";
    Json::object(vec![
        ("cpu", Json::str(cpu)),
        ("nproc", Json::Int(nproc as i64)),
        ("sweep_threads", Json::Int(threads as i64)),
        ("shards", Json::Int(shards as i64)),
        ("simd", Json::str(simd)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("revision", Json::str(git_revision())),
    ])
}

/// The checked-out commit, read from `.git` without running git; a source
/// tree that is not a git checkout reports `unknown`.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find(|line| line.ends_with(reference))
                    .and_then(|line| line.split_whitespace().next())
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process image, from `/proc/self/status`.
/// (`getrusage`'s `ru_maxrss` would also count the launcher the process was
/// forked from before `exec`.)
fn peak_rss_mb() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no VmHWM line in /proc/self/status")?
        .parse()?;
    Ok(kib / 1024.0)
}

/// Writes the traced spans as a Chrome trace-event file.
fn write_trace(t: &Tracer, stamp: Json, workload: &str, seed: u64) -> Result<PathBuf, BoxError> {
    let dir = PathBuf::from("target").join("perfbench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    std::fs::write(&path, t.chrome_trace(stamp).render())?;
    Ok(path)
}

/// A JSON document on one line.
fn render_line(json: &Json) -> String {
    json.render().lines().map(str::trim).collect()
}
