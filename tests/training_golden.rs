//! Golden digest of the Table II/III training trajectory.
//!
//! Hashes the bits of every [`TrainingHistory`] and every test-set logit for
//! the VGG16-style and ResNet50-style models through the whole transfer
//! pipeline: full training, [`transfer_to_new_head`], head-only retraining
//! and noise-aware fine-tuning against a quantized product table.  The
//! images are 16×16×3, so every convolution runs at the shapes of the
//! paper-table workloads.  Any change to a trained weight, loss, accuracy or
//! logit bit — including the SGD visit order — fails the test.

use optima_suite::optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_suite::optima_dnn::models::{build_model, ModelKind};
use optima_suite::optima_dnn::multiplier::{ExactInt4Products, ProductTable};
use optima_suite::optima_dnn::network::Network;
use optima_suite::optima_dnn::training::{Trainer, TrainingConfig, TrainingHistory};
use optima_suite::optima_dnn::transfer::transfer_to_new_head;
use std::sync::Arc;

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

    fn push_history(&mut self, history: &TrainingHistory) {
        self.push_bytes(&(history.epoch_losses.len() as u64).to_le_bytes());
        for loss in &history.epoch_losses {
            self.push_bytes(&loss.to_bits().to_le_bytes());
        }
        for accuracy in &history.epoch_accuracies {
            self.push_bytes(&accuracy.to_bits().to_le_bytes());
        }
    }

    fn push_test_logits(&mut self, network: &Network, dataset: &Dataset) {
        for (image, _) in dataset.test_iter() {
            let logits = network.infer(image).expect("inference succeeds");
            for value in logits.data() {
                self.push_bytes(&value.to_bits().to_le_bytes());
            }
        }
    }
}

fn dataset(classes: usize, seed: u64) -> Dataset {
    Dataset::synthetic(SyntheticImageConfig {
        classes,
        image_size: 16,
        channels: 3,
        train_per_class: 4,
        test_per_class: 2,
        noise_level: 0.2,
        seed,
    })
}

fn pipeline_digest(kind: ModelKind) -> u64 {
    let source = dataset(4, 2024);
    let target = dataset(3, 10);
    let trainer = Trainer::new(TrainingConfig {
        epochs: 2,
        learning_rate: 0.02,
        learning_rate_decay: 0.9,
    });
    let mut network = build_model(kind, 3, 16, source.classes(), 7);
    let mut digest = Digest::new();

    let history = trainer.train(&mut network, &source).expect("training");
    digest.push_history(&history);
    digest.push_test_logits(&network, &source);

    transfer_to_new_head(&mut network, target.classes(), 11).expect("head swap");
    let history = trainer
        .train_head_only(&mut network, &target)
        .expect("head training");
    digest.push_history(&history);
    digest.push_test_logits(&network, &target);

    let products: Arc<dyn ProductTable> = Arc::new(ExactInt4Products);
    let history = trainer
        .fine_tune_quantized(&mut network, &target, &products)
        .expect("fine-tuning");
    digest.push_history(&history);
    digest.push_test_logits(&network, &target);
    digest.0
}

#[test]
fn vgg16_and_resnet50_training_trajectories_match_their_golden_digests() {
    let digests = [ModelKind::Vgg16Style, ModelKind::ResNet50Style].map(pipeline_digest);
    assert_eq!(
        digests,
        [0xee70_e3a9_b54b_2178, 0x0d95_96ad_979e_d893],
        "training digests changed: {digests:#018x?}"
    );
}
