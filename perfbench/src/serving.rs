//! `serve_saturation`: the serving engine's capacity and its latency at a
//! fixed share of that capacity.
//!
//! The served model is an untrained VGG16-style network quantized through
//! the fom-corner INT4 table, on 16×16×3 images, with 2 shards and the
//! (8, 200 µs) batch policy.  Each operation runs two phases:
//!
//! * saturation — every request arrives at once and the queue admits them
//!   all, so the shards never idle: served requests per second of execution
//!   is the capacity;
//! * open loop at [`OPEN_RATE_PER_S`] — latency from the engine's wall replay
//!   (the plan's virtual arrivals with the measured batch durations).
//!
//! Every served request's logits are compared with a lone `forward_with`
//! call on its image; a request that differs or is rejected fails.

use crate::bringup::bring_up;
use crate::stats::median;
use crate::trace::{Took, Tracer};
use crate::{BoxError, Checks, Metric, Workload};
use optima_core::sweep::stream_seed;
use optima_dnn::models::{build_model, ModelKind};
use optima_dnn::multiplier::InMemoryProducts;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::Tensor;
use optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
use optima_serve::{
    BatchPolicy, LatencyHistogram, LoadPattern, Plan, ServeConfig, ServiceModel, ShardPool,
};
use std::sync::Arc;

const IMAGES: usize = 64;
const CLASSES: usize = 16;
const SATURATION_REQUESTS: usize = 4_000;
const OPEN_REQUESTS: usize = 4_000;
/// Admitted-but-incomplete requests the open-loop queue holds: eight full
/// batches, far above what 5 000 req/s keeps waiting.
const OPEN_QUEUE_CAPACITY: usize = 64;
/// About 45% of the capacity measured on a 2-core x86-64 host, where p99
/// stays under the limit; at twice the rate the tail grows several-fold.
pub const OPEN_RATE_PER_S: f64 = 5_000.0;
/// An arrival every microsecond: far above capacity, so the saturation
/// phase's queue is never empty until the last request is admitted.
const SATURATION_RATE_PER_S: f64 = 1.0e6;
const P99_LIMIT_US: f64 = 2_000.0;
const POLICY: BatchPolicy = BatchPolicy {
    max_batch: 8,
    max_delay_us: 200,
};

pub struct Serving {
    seed: u64,
    threads: usize,
    shards: usize,
    state: Option<State>,
    capacity: Vec<f64>,
    served_per_cpu_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
}

struct State {
    model: QuantizedNetwork,
    images: Vec<Tensor>,
    expected: Vec<Tensor>,
    pool: ShardPool,
}

impl Serving {
    pub fn new(seed: u64, threads: usize, shards: usize) -> Self {
        Serving {
            seed,
            threads,
            shards,
            state: None,
            capacity: Vec::new(),
            served_per_cpu_s: Vec::new(),
            p50_us: Vec::new(),
            p99_us: Vec::new(),
        }
    }

    fn config(&self, queue_capacity: usize) -> ServeConfig {
        ServeConfig {
            policy: POLICY,
            shards: self.shards,
            queue_capacity,
            service: ServiceModel::default(),
        }
    }
}

impl Workload for Serving {
    fn set_up(&mut self, t: &mut Tracer) -> Result<(), BoxError> {
        let bringup = bring_up(self.threads, t)?;
        let (table, _) = t.span("imc.table_build", |_| {
            let multiplier = InSramMultiplier::new(
                bringup.models.clone(),
                MultiplierConfig::paper_fom_corner(),
            )?;
            MultiplierTable::from_multiplier(&multiplier, multiplier.nominal_operating_point())
        });
        let products = Arc::new(InMemoryProducts::new(table?, "fom"));
        let network = build_model(
            ModelKind::Vgg16Style,
            3,
            16,
            CLASSES,
            stream_seed(self.seed, 1),
        );
        let (model, _) = t.span("dnn.quantize", |_| {
            QuantizedNetwork::from_network(&network, products)
        });
        let model = model?;

        let images = (0..IMAGES as u64)
            .map(|i| {
                let base = stream_seed(self.seed, 100 + i);
                let pixels = (0..3 * 16 * 16)
                    .map(|p| unit(stream_seed(base, p)) * 2.0 - 1.0)
                    .collect();
                Tensor::from_vec(&[3, 16, 16], pixels)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut scratch = KernelScratch::new();
        let expected = images
            .iter()
            .map(|image| Ok(model.forward_with(image, &mut scratch)?.clone()))
            .collect::<Result<Vec<_>, BoxError>>()?;
        self.state = Some(State {
            model,
            images,
            expected,
            pool: ShardPool::new(self.shards)?,
        });
        Ok(())
    }

    fn operate(&mut self, index: u64, t: &mut Tracer) -> Result<Checks, BoxError> {
        let mut state = self.state.take().ok_or("operation before set-up")?;
        let result = self.phases(&mut state, index, t);
        self.state = Some(state);
        result
    }

    fn throughput_per_cpu_s(&self) -> f64 {
        median(&self.served_per_cpu_s)
    }

    fn named_metrics(&self) -> Vec<Metric> {
        let p99 = median(&self.p99_us);
        vec![
            ("serve_capacity_rps", median(&self.capacity), "1/s"),
            ("serve_p50_us", median(&self.p50_us), "us"),
            ("serve_p99_us", p99, "us"),
            ("serve_p99_limit_us", P99_LIMIT_US, "us"),
            (
                "serve_p99_within_limit",
                f64::from(u8::from(p99 <= P99_LIMIT_US)),
                "bool",
            ),
        ]
    }
}

impl Serving {
    fn phases(
        &mut self,
        state: &mut State,
        index: u64,
        t: &mut Tracer,
    ) -> Result<Checks, BoxError> {
        let mut checks = Checks::default();

        let saturation = LoadPattern::OpenLoop {
            rate_per_sec: SATURATION_RATE_PER_S,
            requests: SATURATION_REQUESTS,
        };
        let config = self.config(SATURATION_REQUESTS);
        let (plan, execute) = serve(
            state,
            &config,
            &saturation,
            stream_seed(self.seed, 2 * index),
            t,
        )?;
        checks += check(state, &plan);
        let stats = state.pool.wall_stats(&plan);
        self.capacity.push(plan.served() as f64 / execute.wall_s);
        self.served_per_cpu_s
            .push(plan.served() as f64 / execute.cpu_s);
        t.sample(
            "serve.busy_share",
            stats.busy_seconds / (self.shards as f64 * execute.wall_s),
        );
        t.sample(
            "serve.per_request_us",
            stats.busy_seconds * 1.0e6 / plan.served().max(1) as f64,
        );

        let open = LoadPattern::OpenLoop {
            rate_per_sec: OPEN_RATE_PER_S,
            requests: OPEN_REQUESTS,
        };
        let config = self.config(OPEN_QUEUE_CAPACITY);
        let (plan, _) = serve(
            state,
            &config,
            &open,
            stream_seed(self.seed, 2 * index + 1),
            t,
        )?;
        checks += check(state, &plan);
        let stats = state.pool.wall_stats(&plan);
        self.p50_us.push(stats.latency.p50() as f64);
        self.p99_us.push(stats.latency.p99() as f64);
        let mut waits = LatencyHistogram::new();
        for request in plan.requests() {
            if let Some(batch) = request.batch {
                waits.record(plan.batches()[batch].start_us - request.arrival_us);
            }
        }
        t.sample("serve.queue_wait_p99_us", waits.p99() as f64);
        t.sample("serve.mean_batch", plan.mean_batch());
        t.sample("serve.batches", plan.batches().len() as f64);
        t.sample("serve.rejected", plan.rejected() as f64);
        Ok(checks)
    }
}

/// Plans `pattern` (admission and coalescing) and executes it on the shard
/// pool; returns the plan and the execution's wall and CPU seconds.
fn serve(
    state: &mut State,
    config: &ServeConfig,
    pattern: &LoadPattern,
    seed: u64,
    t: &mut Tracer,
) -> Result<(Plan, Took), BoxError> {
    let (plan, _) = t.span("serve.plan", |_| {
        Plan::build(config, pattern, seed, state.images.len())
    });
    let plan = plan?;
    let (executed, took) = t.span("serve.execute", |_| {
        state.pool.execute(&plan, &state.images, &state.model)
    });
    executed?;
    Ok((plan, took))
}

/// Counts every request of `plan`: a rejected one, or one whose logits
/// differ from the lone single-request call on its image, fails.
fn check(state: &State, plan: &Plan) -> Checks {
    let mut checks = Checks::default();
    for (request, planned) in plan.requests().iter().enumerate() {
        checks.attempted += 1;
        let same = state
            .pool
            .logits(plan, request)
            .is_some_and(|served| served == &state.expected[planned.image]);
        checks.failed += u64::from(!same);
    }
    checks
}

/// A uniform draw in [0, 1) from a 64-bit stream word.
fn unit(word: u64) -> f32 {
    ((word >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
}
