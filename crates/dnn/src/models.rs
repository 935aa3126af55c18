//! Scaled-down VGG-style and ResNet-style model zoo.
//!
//! The paper evaluates VGG16, VGG19, ResNet50 and ResNet101.  Training those
//! architectures from scratch at full size is far outside the scope of this
//! reproduction, so the zoo provides *style-faithful, scaled-down* analogues
//! (see DESIGN.md): VGG-style models stack plain convolution blocks with max
//! pooling and a dense classifier; ResNet-style models use a convolutional
//! stem followed by identity residual blocks and global average pooling.  The
//! deeper variant of each family has more convolutions/blocks, mirroring the
//! 16→19 and 50→101 relationships.

use crate::layers::{Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu, ResidualBlock};
use crate::network::Network;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Which published architecture a model is the scaled-down analogue of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// VGG16-style: two convolutions per block.
    Vgg16Style,
    /// VGG19-style: three convolutions per block.
    Vgg19Style,
    /// ResNet50-style: two residual blocks per stage.
    ResNet50Style,
    /// ResNet101-style: four residual blocks per stage.
    ResNet101Style,
}

impl ModelKind {
    /// All four model kinds in the order of the paper's tables.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Vgg16Style,
        ModelKind::Vgg19Style,
        ModelKind::ResNet50Style,
        ModelKind::ResNet101Style,
    ];
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ModelKind::Vgg16Style => "VGG16-style",
            ModelKind::Vgg19Style => "VGG19-style",
            ModelKind::ResNet50Style => "ResNet50-style",
            ModelKind::ResNet101Style => "ResNet101-style",
        };
        write!(f, "{name}")
    }
}

/// Builds a VGG-style network for `[channels, size, size]` inputs.
///
/// `convs_per_block` is 2 for the VGG16 analogue and 3 for the VGG19 analogue.
pub fn vgg_style(
    input_channels: usize,
    convs_per_block: usize,
    classes: usize,
    image_size: usize,
    seed: u64,
) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let widths = [8usize, 16usize];
    let mut in_channels = input_channels;
    let mut spatial = image_size;
    for &width in &widths {
        for conv_index in 0..convs_per_block {
            let inputs = if conv_index == 0 { in_channels } else { width };
            layers.push(Box::new(Conv2d::new(inputs, width, 3, &mut rng)));
            layers.push(Box::new(Relu::new()));
        }
        layers.push(Box::new(MaxPool2d::new()));
        in_channels = width;
        spatial /= 2;
    }
    layers.push(Box::new(Flatten::new()));
    let flat = in_channels * spatial * spatial;
    layers.push(Box::new(Dense::new(flat, 32, &mut rng)));
    layers.push(Box::new(Relu::new()));
    layers.push(Box::new(Dense::new(32, classes, &mut rng)));
    Network::new(layers)
}

/// Builds a ResNet-style network for `[channels, size, size]` inputs.
///
/// `blocks` is 2 for the ResNet50 analogue and 4 for the ResNet101 analogue.
pub fn resnet_style(input_channels: usize, blocks: usize, classes: usize, seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let stem_width = 12usize;
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(input_channels, stem_width, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
    ];
    for _ in 0..blocks {
        layers.push(Box::new(ResidualBlock::new(stem_width, 3, &mut rng)));
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Dense::new(stem_width, classes, &mut rng)));
    Network::new(layers)
}

/// Builds the scaled-down analogue of `kind` for square images of
/// `image_size` with `input_channels` channels and `classes` output classes.
pub fn build_model(
    kind: ModelKind,
    input_channels: usize,
    image_size: usize,
    classes: usize,
    seed: u64,
) -> Network {
    match kind {
        ModelKind::Vgg16Style => vgg_style(input_channels, 2, classes, image_size, seed),
        ModelKind::Vgg19Style => vgg_style(input_channels, 3, classes, image_size, seed),
        ModelKind::ResNet50Style => resnet_style(input_channels, 2, classes, seed),
        ModelKind::ResNet101Style => resnet_style(input_channels, 4, classes, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn all_model_kinds_build_and_produce_class_logits() {
        for kind in ModelKind::ALL {
            let mut network = build_model(kind, 1, 8, 5, 3);
            let logits = network.forward(&Tensor::zeros(&[1, 8, 8])).unwrap();
            assert_eq!(logits.len(), 5, "{kind} produced the wrong output size");
        }
    }

    #[test]
    fn deeper_variants_have_more_parameters_and_multiplications() {
        let vgg16 = build_model(ModelKind::Vgg16Style, 1, 8, 5, 3);
        let vgg19 = build_model(ModelKind::Vgg19Style, 1, 8, 5, 3);
        assert!(vgg19.parameter_count() > vgg16.parameter_count());
        assert!(
            vgg19.multiplications(&[1, 8, 8]).unwrap() > vgg16.multiplications(&[1, 8, 8]).unwrap()
        );
        let resnet50 = build_model(ModelKind::ResNet50Style, 1, 8, 5, 3);
        let resnet101 = build_model(ModelKind::ResNet101Style, 1, 8, 5, 3);
        assert!(resnet101.parameter_count() > resnet50.parameter_count());
        assert!(
            resnet101.multiplications(&[1, 8, 8]).unwrap()
                > resnet50.multiplications(&[1, 8, 8]).unwrap()
        );
    }

    #[test]
    fn vgg_models_have_fewer_multiplications_per_block_than_paper_but_same_ordering() {
        // The paper's Table II lists VGG19 > VGG16 and ResNet101 > ResNet50 in
        // multiplication count; verify the analogues preserve that ordering.
        let counts: Vec<u64> = ModelKind::ALL
            .iter()
            .map(|&kind| {
                build_model(kind, 3, 16, 10, 7)
                    .multiplications(&[3, 16, 16])
                    .unwrap()
            })
            .collect();
        assert!(counts[1] > counts[0], "VGG19-style must exceed VGG16-style");
        assert!(
            counts[3] > counts[2],
            "ResNet101-style must exceed ResNet50-style"
        );
    }

    #[test]
    fn model_kind_display_names() {
        assert_eq!(ModelKind::Vgg16Style.to_string(), "VGG16-style");
        assert_eq!(ModelKind::ResNet101Style.to_string(), "ResNet101-style");
        assert_eq!(ModelKind::ALL.len(), 4);
    }
}
