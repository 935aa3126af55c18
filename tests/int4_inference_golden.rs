//! Golden digest of INT4 quantized inference.
//!
//! Hashes the bits of every logit that the scratch-arena
//! [`QuantizedNetwork::forward_with`] path produces for the VGG16-style and
//! ResNet50-style models through the exact INT4 table and the paper's three
//! in-SRAM corner tables (fom, power, variation), at 16×16, 12×12 and 9×9
//! three-channel images.  The sizes give the convolutions 256, 144, 81, 64,
//! 36 and 16 pixels, so the wide blocks, the 16-pixel blocks and the scalar
//! tail of every convolution sweep are under test.  Any change to a logit
//! bit fails the test.

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_suite::optima_dnn::models::{build_model, ModelKind};
use optima_suite::optima_dnn::multiplier::{ExactInt4Products, InMemoryProducts, ProductTable};
use optima_suite::optima_dnn::quantized::QuantizedNetwork;
use optima_suite::optima_dnn::scratch::KernelScratch;
use optima_suite::optima_dnn::tensor::Tensor;
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
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
}

/// The exact INT4 table followed by the fom, power and variation corner
/// tables on fast-calibrated models.
fn product_tables() -> Vec<Arc<dyn ProductTable>> {
    let models = Calibrator::new(Technology::tsmc65_like(), CalibrationConfig::fast())
        .run()
        .expect("calibration succeeds")
        .into_models();
    let mut tables: Vec<Arc<dyn ProductTable>> = vec![Arc::new(ExactInt4Products)];
    for (name, config) in [
        ("fom", MultiplierConfig::paper_fom_corner()),
        ("power", MultiplierConfig::paper_power_corner()),
        ("variation", MultiplierConfig::paper_variation_corner()),
    ] {
        let multiplier = InSramMultiplier::new(models.clone(), config).expect("corner multiplier");
        let table =
            MultiplierTable::from_multiplier(&multiplier, multiplier.nominal_operating_point())
                .expect("corner table");
        tables.push(Arc::new(InMemoryProducts::new(table, name)));
    }
    tables
}

fn inference_digest(kind: ModelKind, tables: &[Arc<dyn ProductTable>]) -> u64 {
    let mut digest = Digest::new();
    let mut scratch = KernelScratch::new();
    for size in [16usize, 12, 9] {
        let network = build_model(kind, 3, size, 10, 17);
        let mut rng = ChaCha8Rng::seed_from_u64(size as u64);
        let images: Vec<Tensor> = (0..3)
            .map(|_| {
                let pixels = (0..3 * size * size).map(|_| rng.gen::<f32>()).collect();
                Tensor::from_vec(&[3, size, size], pixels).expect("image shape")
            })
            .collect();
        for products in tables {
            let quantized = QuantizedNetwork::from_network(&network, Arc::clone(products))
                .expect("quantization");
            assert!(quantized.uses_snapshot());
            for image in &images {
                let logits = quantized
                    .forward_with(image, &mut scratch)
                    .expect("inference succeeds");
                for value in logits.data() {
                    digest.push_bytes(&value.to_bits().to_le_bytes());
                }
            }
        }
    }
    digest.0
}

#[test]
fn vgg16_and_resnet50_int4_logits_match_their_golden_digests() {
    let tables = product_tables();
    let digests = [ModelKind::Vgg16Style, ModelKind::ResNet50Style]
        .map(|kind| inference_digest(kind, &tables));
    assert_eq!(
        digests,
        [0x3173_b3a0_54c1_d44b, 0x4473_d522_76e7_80c8],
        "INT4 inference digests changed: {digests:#018x?}"
    );
}
