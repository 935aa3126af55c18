//! `paper_tables`: the Table II/III pipeline on the synthetic stand-ins.
//!
//! Each operation trains a VGG16-style and a ResNet50-style backbone on the
//! ImageNet stand-in, evaluates it in FLOAT32 and through the INT4 and the
//! three corner product tables (Table II), then moves it to a new CIFAR head,
//! retrains the head and evaluates again (Table III).  Every fourth fom-corner
//! eval image of Table II is re-run through the dyn-dispatch reference path;
//! an image whose logits differ fails.

use crate::bringup::bring_up;
use crate::stats::KindRates;
use crate::trace::Tracer;
use crate::{BoxError, Checks, Metric, Workload};
use optima_bench::{paper_corners, DynDispatchProducts};
use optima_core::sweep::stream_seed;
use optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_dnn::eval::evaluate_batched;
use optima_dnn::models::{build_model, ModelKind};
use optima_dnn::multiplier::{ExactInt4Products, InMemoryProducts, ProductTable};
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::training::{Trainer, TrainingConfig};
use optima_dnn::transfer::transfer_to_new_head;
use optima_imc::multiplier::{InSramMultiplier, MultiplierTable};
use std::sync::Arc;

const MODELS: [ModelKind; 2] = [ModelKind::Vgg16Style, ModelKind::ResNet50Style];
const EPOCHS: usize = 3;
const HEAD_SEED: u64 = 0x4ead;
/// The reference path costs about four LUT evals of the whole test split, so
/// every fourth image is checked: the check stays a fifth of an operation.
const CHECK_STRIDE: usize = 4;
/// Floating-point operations per MAC of one training sample: the forward
/// product plus the input- and weight-gradient products of the backward pass.
const TRAIN_FLOPS_PER_MAC: f64 = 6.0;

type NamedTables = Vec<(&'static str, Arc<dyn ProductTable>)>;

pub struct PaperTables {
    seed: u64,
    threads: usize,
    state: Option<State>,
    /// Training samples per wall and per CPU second, per (model, phase).
    train_wall: KindRates,
    train_cpu: KindRates,
    eval_images: f64,
    eval_s: f64,
    fom_top1: Vec<f64>,
}

struct State {
    tables: NamedTables,
    imagenet: Dataset,
    cifar: Dataset,
}

impl PaperTables {
    pub fn new(seed: u64, threads: usize) -> Self {
        PaperTables {
            seed,
            threads,
            state: None,
            train_wall: KindRates::default(),
            train_cpu: KindRates::default(),
            eval_images: 0.0,
            eval_s: 0.0,
            fom_top1: Vec::new(),
        }
    }
}

impl Workload for PaperTables {
    fn set_up(&mut self, t: &mut Tracer) -> Result<(), BoxError> {
        let bringup = bring_up(self.threads, t)?;
        let (corners, _) = t.span("imc.table_build", |_| {
            paper_corners()
                .into_iter()
                .map(|(name, config)| {
                    let multiplier = InSramMultiplier::new(bringup.models.clone(), config)?;
                    let table = MultiplierTable::from_multiplier(
                        &multiplier,
                        multiplier.nominal_operating_point(),
                    )?;
                    Ok((name, table))
                })
                .collect::<Result<Vec<_>, BoxError>>()
        });
        let mut tables: NamedTables = vec![("INT4", Arc::new(ExactInt4Products))];
        for (name, table) in corners? {
            tables.push((name, Arc::new(InMemoryProducts::new(table, name))));
        }
        let seed = self.seed;
        let ((imagenet, cifar), _) = t.span("dnn.dataset", |_| {
            (
                Dataset::synthetic(SyntheticImageConfig {
                    seed: stream_seed(seed, 1),
                    ..SyntheticImageConfig::imagenet_like()
                }),
                Dataset::synthetic(SyntheticImageConfig {
                    seed: stream_seed(seed, 2),
                    ..SyntheticImageConfig::cifar_like()
                }),
            )
        });
        self.state = Some(State {
            tables,
            imagenet,
            cifar,
        });
        Ok(())
    }

    fn operate(&mut self, index: u64, t: &mut Tracer) -> Result<Checks, BoxError> {
        let state = self.state.take().ok_or("operation before set-up")?;
        let result = self.pipeline(&state, index, t);
        self.state = Some(state);
        result
    }

    fn throughput_per_cpu_s(&self) -> f64 {
        self.train_cpu.rate()
    }

    fn named_metrics(&self) -> Vec<Metric> {
        vec![
            ("train_samples_per_s", self.train_wall.rate(), "1/s"),
            ("eval_images_per_s", self.eval_images / self.eval_s, "1/s"),
            (
                "fom_top1_pct",
                self.fom_top1.iter().sum::<f64>() / self.fom_top1.len().max(1) as f64,
                "%",
            ),
        ]
    }
}

impl PaperTables {
    fn pipeline(&mut self, state: &State, index: u64, t: &mut Tracer) -> Result<Checks, BoxError> {
        let trainer = Trainer::new(TrainingConfig {
            epochs: EPOCHS,
            learning_rate: 0.02,
            learning_rate_decay: 0.9,
        });
        let (imagenet, cifar) = (&state.imagenet, &state.cifar);
        let shape = imagenet.image_shape().to_vec();
        let mut checks = Checks::default();
        for (model, kind) in (0u64..).zip(MODELS) {
            let mut network = build_model(
                kind,
                shape[0],
                shape[1],
                imagenet.classes(),
                stream_seed(self.seed, index),
            );
            let macs = network.multiplications(&shape)? as f64;
            let samples = (EPOCHS * imagenet.train_len()) as f64;
            let (trained, took) = t.span("dnn.train", |_| trainer.train(&mut network, imagenet));
            trained?;
            self.train_wall.record(2 * model, samples, took.wall_s);
            self.train_cpu.record(2 * model, samples, took.cpu_s);
            t.count("dnn.train_flops", TRAIN_FLOPS_PER_MAC * macs * samples);

            let fom_top1 =
                self.evaluate(&network, imagenet, &state.tables, true, t, &mut checks)?;
            self.fom_top1.push(fom_top1);

            transfer_to_new_head(&mut network, cifar.classes(), HEAD_SEED)?;
            let samples = (EPOCHS * cifar.train_len()) as f64;
            let (trained, took) = t.span("dnn.head_train", |_| {
                trainer.train_head_only(&mut network, cifar)
            });
            trained?;
            self.train_wall.record(2 * model + 1, samples, took.wall_s);
            self.train_cpu.record(2 * model + 1, samples, took.cpu_s);
            t.count("dnn.train_flops", TRAIN_FLOPS_PER_MAC * macs * samples);
            self.evaluate(&network, cifar, &state.tables, false, t, &mut checks)?;
        }
        Ok(checks)
    }

    /// Evaluates `network` in FLOAT32 and through every product table, and
    /// returns the fom table's top-1 accuracy in percent.  With `check`,
    /// part of the fom eval is re-run through the reference path.
    fn evaluate(
        &mut self,
        network: &Network,
        dataset: &Dataset,
        tables: &NamedTables,
        check: bool,
        t: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<f64, BoxError> {
        let threads = self.threads;
        let images = dataset.test_len() as f64;
        let (report, took) = t.span("dnn.eval_float", |_| {
            evaluate_batched(network, dataset, threads)
        });
        report?;
        self.eval_images += images;
        self.eval_s += took.wall_s;

        let macs = network.multiplications(dataset.image_shape())? as f64;
        let mut fom_top1 = 0.0;
        for (name, products) in tables {
            let (quantized, _) = t.span("dnn.quantize", |_| {
                QuantizedNetwork::from_network(network, products.clone())
            });
            let quantized = quantized?;
            let (report, took) = t.span("dnn.eval_quant", |_| {
                evaluate_batched(&quantized, dataset, threads)
            });
            let report = report?;
            self.eval_images += images;
            self.eval_s += took.wall_s;
            t.count("dnn.lut_gathers", macs * images);
            if *name == "fom" {
                fom_top1 = report.top1_percent();
                if check {
                    let (checked, _) = t.span("bench.check", |_| {
                        check_against_reference(network, &quantized, products, dataset)
                    });
                    *checks += checked?;
                }
            }
        }
        Ok(fom_top1)
    }
}

/// Compares the LUT logits of every [`CHECK_STRIDE`]-th test image with the
/// dyn-dispatch reference path; an image whose logits differ fails.
fn check_against_reference(
    network: &Network,
    quantized: &QuantizedNetwork,
    products: &Arc<dyn ProductTable>,
    dataset: &Dataset,
) -> Result<Checks, BoxError> {
    let reference =
        QuantizedNetwork::from_network(network, Arc::new(DynDispatchProducts(products.clone())))?;
    let mut scratch = KernelScratch::new();
    let mut checks = Checks::default();
    for (image, _) in dataset.test_iter().step_by(CHECK_STRIDE) {
        let expected = reference.forward(image)?;
        let actual = quantized.forward_with(image, &mut scratch)?;
        let same = actual
            .data()
            .iter()
            .map(|v| v.to_bits())
            .eq(expected.data().iter().map(|v| v.to_bits()));
        checks.attempted += 1;
        checks.failed += u64::from(!same);
    }
    Ok(checks)
}
