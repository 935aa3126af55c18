//! Random-number helpers for Monte Carlo analyses.
//!
//! Transistor mismatch is modeled in the paper as Gaussian variation of the
//! bit-line voltage (Eq. 6) and of the device parameters in the
//! golden-reference simulator.  All sampling goes through [`rand`] so that the
//! caller controls seeding (deterministic, reproducible experiments).

use rand::Rng;

/// A normal (Gaussian) distribution parameterised by mean and standard deviation.
///
/// Sampling uses the Box–Muller transform, so it only requires a uniform
/// random source and no external distribution crates.
///
/// # Example
///
/// ```rust
/// use optima_math::distributions::Gaussian;
/// use rand::SeedableRng;
///
/// let dist = Gaussian::new(0.0, 1.0);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let sample = dist.sample(&mut rng);
/// assert!(sample.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
}

impl Gaussian {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "standard deviation must be finite and non-negative"
        );
        Gaussian { mean, std_dev }
    }

    /// The standard normal distribution `N(0, 1)`.
    pub fn standard() -> Self {
        Gaussian::new(0.0, 1.0)
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.map_standard(standard_normal(rng))
    }

    /// Maps a standard-normal variate `z` onto this distribution
    /// (`mean + std_dev · z`).  [`Gaussian::sample`] is exactly
    /// `map_standard(standard_normal(rng))`, so a caller that draws its
    /// variates ahead with [`standard_normal`] reproduces `sample` bit for
    /// bit.
    #[inline]
    pub fn map_standard(&self, z: f64) -> f64 {
        self.mean + self.std_dev * z
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Draws one sample truncated to `[lo, hi]` by rejection (falls back to
    /// clamping after 64 rejected draws, which only happens for extreme bounds).
    pub fn sample_truncated<R: Rng + ?Sized>(&self, rng: &mut R, lo: f64, hi: f64) -> f64 {
        for _ in 0..64 {
            let s = self.sample(rng);
            if s >= lo && s <= hi {
                return s;
            }
        }
        self.sample(rng).clamp(lo, hi)
    }

    /// Probability density function at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x == self.mean { f64::INFINITY } else { 0.0 };
        }
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Cumulative distribution function at `x` (via an `erf` approximation,
    /// accurate to about `1.5e-7`).
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x < self.mean { 0.0 } else { 1.0 };
        }
        let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }
}

/// Draws a standard-normal sample using the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against u1 == 0 which would give ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, |error| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Draws a uniform sample from `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(lo < hi, "uniform range must be non-empty");
    rng.gen_range(lo..hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sample_statistics_match_parameters() {
        let dist = Gaussian::new(2.0, 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let samples = dist.sample_n(&mut rng, 20_000);
        assert!((stats::mean(&samples) - 2.0).abs() < 0.02);
        assert!((stats::std_dev(&samples) - 0.5).abs() < 0.02);
    }

    #[test]
    fn zero_std_dev_is_deterministic() {
        let dist = Gaussian::new(1.5, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(dist.sample(&mut rng), 1.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_std_dev_panics() {
        let _ = Gaussian::new(0.0, -1.0);
    }

    #[test]
    fn truncated_samples_respect_bounds() {
        let dist = Gaussian::new(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let s = dist.sample_truncated(&mut rng, -0.5, 0.5);
            assert!((-0.5..=0.5).contains(&s));
        }
    }

    #[test]
    fn pdf_is_symmetric_and_peaks_at_mean() {
        let dist = Gaussian::new(1.0, 2.0);
        assert!((dist.pdf(0.0) - dist.pdf(2.0)).abs() < 1e-12);
        assert!(dist.pdf(1.0) > dist.pdf(0.0));
    }

    #[test]
    fn cdf_matches_known_values() {
        let std = Gaussian::standard();
        assert!((std.cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((std.cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std.cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427).abs() < 1e-4);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-4);
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let dist = Gaussian::standard();
        let mut rng_a = ChaCha8Rng::seed_from_u64(99);
        let mut rng_b = ChaCha8Rng::seed_from_u64(99);
        assert_eq!(dist.sample_n(&mut rng_a, 10), dist.sample_n(&mut rng_b, 10));
    }

    #[test]
    fn uniform_respects_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            let v = uniform(&mut rng, 0.3, 0.7);
            assert!((0.3..0.7).contains(&v));
        }
    }
}
