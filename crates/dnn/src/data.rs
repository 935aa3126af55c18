//! Procedurally generated image-classification datasets.
//!
//! The paper evaluates on ImageNet and CIFAR-10, neither of which can be
//! bundled here.  Instead, this module generates synthetic multi-class image
//! datasets whose difficulty can be tuned (class count, noise level): each
//! class is defined by a random low-frequency prototype pattern, and samples
//! are noisy, slightly shifted instances of their class prototype.  The
//! mechanism the paper measures — multiplier error degrading classification
//! accuracy — is preserved (see DESIGN.md, substitution table).

use crate::tensor::Tensor;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of a synthetic image dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticImageConfig {
    /// Number of classes.
    pub classes: usize,
    /// Height and width of the square images.
    pub image_size: usize,
    /// Number of channels (1 = grayscale, 3 = RGB-like).
    pub channels: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Standard deviation of the additive noise (relative to unit contrast).
    pub noise_level: f32,
    /// RNG seed (datasets are fully deterministic given the seed).
    pub seed: u64,
}

impl SyntheticImageConfig {
    /// A reduced stand-in for the ImageNet experiment: more classes,
    /// 16×16 RGB-like images.
    pub fn imagenet_like() -> Self {
        SyntheticImageConfig {
            classes: 16,
            image_size: 16,
            channels: 3,
            train_per_class: 30,
            test_per_class: 10,
            noise_level: 0.25,
            seed: 2024,
        }
    }

    /// A reduced stand-in for the CIFAR-10 experiment: 10 classes,
    /// 16×16 RGB-like images.
    pub fn cifar_like() -> Self {
        SyntheticImageConfig {
            classes: 10,
            image_size: 16,
            channels: 3,
            train_per_class: 30,
            test_per_class: 10,
            noise_level: 0.2,
            seed: 10,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        SyntheticImageConfig {
            classes: 3,
            image_size: 8,
            channels: 1,
            train_per_class: 10,
            test_per_class: 4,
            noise_level: 0.15,
            seed: 1,
        }
    }
}

/// An in-memory image-classification dataset with train/test splits.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    classes: usize,
    image_shape: Vec<usize>,
    train_images: Vec<Tensor>,
    train_labels: Vec<usize>,
    test_images: Vec<Tensor>,
    test_labels: Vec<usize>,
}

impl Dataset {
    /// Generates a synthetic dataset from the given configuration.
    pub fn synthetic(config: SyntheticImageConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let image_shape = vec![config.channels, config.image_size, config.image_size];

        // One smooth prototype pattern per class.
        let prototypes: Vec<Tensor> = (0..config.classes)
            .map(|_| Self::prototype(&image_shape, &mut rng))
            .collect();

        let mut train_images = Vec::new();
        let mut train_labels = Vec::new();
        let mut test_images = Vec::new();
        let mut test_labels = Vec::new();

        for (label, prototype) in prototypes.iter().enumerate() {
            for _ in 0..config.train_per_class {
                train_images.push(Self::perturb(prototype, config.noise_level, &mut rng));
                train_labels.push(label);
            }
            for _ in 0..config.test_per_class {
                test_images.push(Self::perturb(prototype, config.noise_level, &mut rng));
                test_labels.push(label);
            }
        }

        Dataset {
            classes: config.classes,
            image_shape,
            train_images,
            train_labels,
            test_images,
            test_labels,
        }
    }

    /// Random low-frequency pattern in `[0, 1]`.
    fn prototype(shape: &[usize], rng: &mut ChaCha8Rng) -> Tensor {
        let (channels, height, width) = (shape[0], shape[1], shape[2]);
        let mut tensor = Tensor::zeros(shape);
        let pixels = tensor.data_mut();
        for c in 0..channels {
            // Sum of a few random sinusoids gives a smooth, class-specific texture.
            let fx: f32 = rng.gen_range(0.5..2.5);
            let fy: f32 = rng.gen_range(0.5..2.5);
            let phase_x: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let phase_y: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            for y in 0..height {
                let row = &mut pixels[(c * height + y) * width..(c * height + y + 1) * width];
                for (x, pixel) in row.iter_mut().enumerate() {
                    let value = 0.5
                        + 0.25
                            * ((x as f32 / width as f32 * std::f32::consts::TAU * fx + phase_x)
                                .sin()
                                + (y as f32 / height as f32 * std::f32::consts::TAU * fy
                                    + phase_y)
                                    .cos());
                    *pixel = value.clamp(0.0, 1.0);
                }
            }
        }
        tensor
    }

    /// Adds uniform noise and a small global brightness shift.
    fn perturb(prototype: &Tensor, noise: f32, rng: &mut ChaCha8Rng) -> Tensor {
        let brightness: f32 = rng.gen_range(-0.05..0.05);
        let mut sample = prototype.clone();
        for value in sample.data_mut() {
            *value = (*value + brightness + rng.gen_range(-noise..noise)).clamp(0.0, 1.0);
        }
        sample
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Shape of every image (`[C, H, W]`).
    pub fn image_shape(&self) -> &[usize] {
        &self.image_shape
    }

    /// Number of training samples.
    pub fn train_len(&self) -> usize {
        self.train_images.len()
    }

    /// Number of test samples.
    pub fn test_len(&self) -> usize {
        self.test_images.len()
    }

    /// Iterator over `(image, label)` pairs of the training split.
    pub fn train_iter(&self) -> impl Iterator<Item = (&Tensor, &usize)> {
        self.train_images.iter().zip(self.train_labels.iter())
    }

    /// Iterator over `(image, label)` pairs of the test split.
    pub fn test_iter(&self) -> impl Iterator<Item = (&Tensor, &usize)> {
        self.test_images.iter().zip(self.test_labels.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_sizes_match_configuration() {
        let config = SyntheticImageConfig::tiny();
        let dataset = Dataset::synthetic(config);
        assert_eq!(dataset.classes(), 3);
        assert_eq!(dataset.train_len(), 3 * 10);
        assert_eq!(dataset.test_len(), 3 * 4);
        assert_eq!(dataset.image_shape(), &[1, 8, 8]);
        assert_eq!(dataset.train_iter().count(), 30);
        assert_eq!(dataset.test_iter().count(), 12);
    }

    #[test]
    fn generation_is_deterministic_for_equal_seeds() {
        let a = Dataset::synthetic(SyntheticImageConfig::tiny());
        let b = Dataset::synthetic(SyntheticImageConfig::tiny());
        assert_eq!(a, b);
        let c = Dataset::synthetic(SyntheticImageConfig {
            seed: 2,
            ..SyntheticImageConfig::tiny()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn pixel_values_stay_in_unit_range() {
        let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
        for (image, _) in dataset.train_iter().chain(dataset.test_iter()) {
            assert!(image.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn classes_are_distinguishable() {
        // Same-class samples must be closer to each other than to other classes
        // on average, otherwise no network could ever learn the task.
        let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
        let distance = |a: &Tensor, b: &Tensor| -> f32 {
            a.data()
                .iter()
                .zip(b.data().iter())
                .map(|(x, y)| (x - y) * (x - y))
                .sum()
        };
        let samples: Vec<(&Tensor, &usize)> = dataset.train_iter().collect();
        let mut same = Vec::new();
        let mut different = Vec::new();
        for (i, (img_a, label_a)) in samples.iter().enumerate() {
            for (img_b, label_b) in samples.iter().skip(i + 1) {
                if label_a == label_b {
                    same.push(distance(img_a, img_b));
                } else {
                    different.push(distance(img_a, img_b));
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(mean(&same) < mean(&different));
    }

    #[test]
    fn preset_configurations_are_reasonable() {
        let imagenet = SyntheticImageConfig::imagenet_like();
        let cifar = SyntheticImageConfig::cifar_like();
        assert!(imagenet.classes > cifar.classes);
        assert_eq!(cifar.classes, 10);
        assert_eq!(imagenet.channels, 3);
    }
}
