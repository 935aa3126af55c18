//! Descriptive statistics used by calibration, Monte Carlo analysis and the
//! experiment harnesses (RMS modeling errors, error histograms, accuracy
//! summaries).

/// Arithmetic mean of a slice; returns `0.0` for empty input.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance; returns `0.0` for slices shorter than 2.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64
}

/// Sample (Bessel-corrected) variance; returns `0.0` for slices shorter than 2.
pub fn sample_variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Sample standard deviation.
pub fn sample_std_dev(data: &[f64]) -> f64 {
    sample_variance(data).sqrt()
}

/// Root mean square of the values themselves (not residuals).
pub fn rms(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    (data.iter().map(|x| x * x).sum::<f64>() / data.len() as f64).sqrt()
}

/// Root-mean-square error between two equal-length series.
///
/// # Panics
///
/// Panics if the slices have different lengths; callers that cannot guarantee
/// this should use [`crate::lsq::fit_quality`] which returns a `Result`.
pub fn rmse(reference: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        reference.len(),
        predicted.len(),
        "rmse requires equal-length slices"
    );
    let residuals: Vec<f64> = reference
        .iter()
        .zip(predicted.iter())
        .map(|(a, b)| a - b)
        .collect();
    rms(&residuals)
}

/// Mean absolute error between two equal-length series.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mae(reference: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        reference.len(),
        predicted.len(),
        "mae requires equal-length slices"
    );
    if reference.is_empty() {
        return 0.0;
    }
    reference
        .iter()
        .zip(predicted.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / reference.len() as f64
}

/// Minimum of a slice; returns `f64::INFINITY` for empty input.
pub fn min(data: &[f64]) -> f64 {
    data.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum of a slice; returns `f64::NEG_INFINITY` for empty input.
pub fn max(data: &[f64]) -> f64 {
    data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Linear-interpolation percentile (`q` in `[0, 1]`); returns `0.0` for empty input.
pub fn percentile(data: &[f64], q: f64) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut sorted = data.to_vec();
    // Total order so that NaN samples land in a deterministic position
    // (after +inf) instead of making the result depend on the input order.
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(data: &[f64]) -> f64 {
    percentile(data, 0.5)
}

/// Pearson correlation coefficient; returns `0.0` when either series is constant.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(
        xs.len(),
        ys.len(),
        "correlation requires equal-length slices"
    );
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut num = 0.0;
    let mut dx2 = 0.0;
    let mut dy2 = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        let dx = x - mx;
        let dy = y - my;
        num += dx * dy;
        dx2 += dx * dx;
        dy2 += dy * dy;
    }
    if dx2 == 0.0 || dy2 == 0.0 {
        return 0.0;
    }
    num / (dx2.sqrt() * dy2.sqrt())
}

/// A fixed-bin histogram over a closed interval.
///
/// # Example
///
/// ```rust
/// use optima_math::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for v in [1.0, 2.0, 3.0, 7.0, 11.0] {
///     h.add(v);
/// }
/// assert_eq!(h.total_count(), 5);
/// assert_eq!(h.counts()[0], 1); // only 1.0 falls into the bin [0, 2)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram interval must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds a sample; values outside `[lo, hi)` go to the under/overflow counters.
    pub fn add(&mut self, value: f64) {
        if value < self.lo {
            self.underflow += 1;
            return;
        }
        if value >= self.hi {
            self.overflow += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = (((value - self.lo) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Adds every sample of the iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.add(v);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of samples below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Number of samples at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of samples added, including under/overflow.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Centre of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        assert!(i < self.counts.len(), "bin index out of range");
        self.lo + width * (i as f64 + 0.5)
    }
}

/// Running mean / variance accumulator (Welford's algorithm).
///
/// Used by Monte Carlo loops that would otherwise have to keep every sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the pushed samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of the pushed samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation of the pushed samples.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest pushed sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest pushed sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data) - 5.0).abs() < 1e-12);
        assert!((variance(&data) - 4.0).abs() < 1e-12);
        assert!((std_dev(&data) - 2.0).abs() < 1e-12);
        assert!(sample_variance(&data) > variance(&data));
    }

    #[test]
    fn empty_and_singleton_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(mae(&[], &[]), 0.0);
    }

    #[test]
    fn rms_and_rmse() {
        assert!((rms(&[3.0, 4.0]) - (12.5_f64).sqrt()).abs() < 1e-12);
        assert!((rmse(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0])).abs() < 1e-12);
        assert!((rmse(&[0.0, 0.0], &[1.0, -1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_and_median() {
        let data = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert!((median(&data) - 3.0).abs() < 1e-12);
        assert!((percentile(&data, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&data, 1.0) - 5.0).abs() < 1e-12);
        assert!((percentile(&data, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_with_nan_is_input_order_invariant() {
        // NaN sorts after +inf under the total order, so finite percentiles
        // are identical no matter where the NaN sat in the input.
        let a = [f64::NAN, 5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [5.0, 1.0, 3.0, f64::NAN, 2.0, 4.0];
        let c = [4.0, 2.0, 3.0, 1.0, 5.0, f64::NAN];
        for q in [0.0, 0.1, 0.25, 0.5, 0.75] {
            let pa = percentile(&a, q);
            assert_eq!(pa.to_bits(), percentile(&b, q).to_bits(), "q = {q}");
            assert_eq!(pa.to_bits(), percentile(&c, q).to_bits(), "q = {q}");
            assert!(pa.is_finite(), "q = {q} leaked NaN into the finite range");
        }
        // The top of the distribution is the NaN itself — still deterministic.
        assert!(percentile(&a, 1.0).is_nan());
        assert!(percentile(&b, 1.0).is_nan());
    }

    #[test]
    fn correlation_of_linear_relation_is_one() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let ys_neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &ys_neg) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&xs, &[1.0; 20]), 0.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.extend([0.1, 0.3, 0.6, 0.9, 1.5, -0.2]);
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total_count(), 6);
        assert!((h.bin_center(0) - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn running_stats_matches_batch_stats() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let mut rs = RunningStats::new();
        rs.extend(data.iter().copied());
        assert_eq!(rs.count(), 7);
        assert!((rs.mean() - mean(&data)).abs() < 1e-12);
        assert!((rs.variance() - variance(&data)).abs() < 1e-12);
        assert_eq!(rs.min(), 1.0);
        assert_eq!(rs.max(), 7.0);
    }

    #[test]
    fn running_stats_empty_defaults() {
        let rs = RunningStats::new();
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.variance(), 0.0);
        assert_eq!(rs.count(), 0);
    }
}
