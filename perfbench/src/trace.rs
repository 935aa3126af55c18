//! Wall-clock spans around every call the benchmark makes into a layer.
//!
//! This is the benchmark's only clock.  Every layer call goes through
//! [`Tracer::span`], which always measures the call's wall and process CPU
//! time (the end-to-end metrics are built from those) and, when tracing is
//! on, also keeps the span — name, start, end and parent — in memory.  At the end of a traced
//! run the spans yield the per-layer metrics and a Chrome trace-event file.
//!
//! A span's layer is the part of its name before the first `.`:
//! `circuit`, `core`, `imc`, `dnn` and `serve` name the crates called;
//! `bench` names the harness's own spans (set-up and operations), whose self
//! time is the benchmark's work outside any layer call.

use crate::stats::median;
use optima_bench::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Wall and process CPU seconds of one measured call.
///
/// CPU time sums every thread of the process and, on a guest with steal
/// accounting, leaves out the time the host ran other tenants, so it is the
/// steadier measure of the program's own cost on a shared machine.
#[derive(Debug, Default, Clone, Copy)]
pub struct Took {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl std::ops::AddAssign for Took {
    fn add_assign(&mut self, other: Took) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// One recorded span; times are microseconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Span recorder plus per-layer counters and samples of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer whose recording starts switched off.
    pub fn new() -> Self {
        Tracer {
            // optima-lint: allow(R2) -- the benchmark's single wall-clock origin
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Switches span, counter and sample recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1.0e6
    }

    /// Seconds since the tracer was created.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` as span `name` and returns its result with its wall and CPU
    /// seconds.  Spans opened inside `f` through the tracer it receives
    /// become the span's children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Took) {
        let start_cpu = cpu_seconds();
        let start_us = self.now_us();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let result = f(self);
        let end_us = self.now_us();
        let took = Took {
            wall_s: (end_us - start_us) * 1.0e-6,
            cpu_s: cpu_seconds() - start_cpu,
        };
        if let Some(index) = index {
            self.spans[index].end_us = end_us;
            self.open.pop();
        }
        (result, took)
    }

    /// Adds `value` to counter `name` (recorded only while tracing).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += value;
        }
    }

    /// Records one sample of gauge `name` (recorded only while tracing).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) * 1.0e-6)
            .collect()
    }

    /// Median wall seconds of the spans named `name` (0 when none ran).
    pub fn median_s(&self, name: &str) -> f64 {
        median(&self.durations_s(name))
    }

    /// Total wall seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Value of counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Median of the samples of gauge `name` (0 when never sampled).
    pub fn sample_median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Counter `name` per second of the spans named `span` (0 when the
    /// spans took no time).
    pub fn rate(&self, counter: &str, span: &str) -> f64 {
        let seconds = self.total_s(span);
        if seconds > 0.0 {
            self.counter(counter) / seconds
        } else {
            0.0
        }
    }

    /// Self seconds per layer: each span's duration minus the part of it
    /// its children cover.  Spans run on the benchmark's one thread and
    /// children nest inside their parent, so child time is a plain sum.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.end_us - span.start_us;
            }
        }
        let mut per_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_us) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *per_layer.entry(layer).or_insert(0.0) +=
                (span.end_us - span.start_us - children) * 1.0e-6;
        }
        per_layer
    }

    /// The recorded spans as a Chrome trace-event document (complete `X`
    /// events on one thread; `args` carry the span id and its parent's).
    pub fn chrome_trace(&self, stamp: Json) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let layer = span.name.split('.').next().unwrap_or(span.name);
                Json::object(vec![
                    ("name", Json::str(span.name)),
                    ("cat", Json::str(layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Fixed(span.start_us, 3)),
                    ("dur", Json::Fixed(span.end_us - span.start_us, 3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::object(vec![
                            ("id", Json::Int(id as i64)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object(vec![
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("otherData", stamp),
        ])
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time and memory the 64-bit Linux way");

/// Linux's `struct rusage` on 64-bit targets: user and system `timeval`s,
/// then fourteen `long` counters.
#[repr(C)]
struct RUsage {
    user: [i64; 2],
    system: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU seconds, user plus system, used so far by every thread of this
/// process, including threads that have exited.
pub fn cpu_seconds() -> f64 {
    let mut usage = RUsage {
        user: [0; 2],
        system: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` for 64-bit Linux, and getrusage writes only into it.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1.0e-6;
    seconds(usage.user) + seconds(usage.system)
}
