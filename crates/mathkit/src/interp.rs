//! Interpolation over sampled waveforms and rectangular grids.
//!
//! The circuit simulator produces discretely sampled bit-line waveforms; the
//! calibration pipeline and the ADC sampling code look up voltages at
//! arbitrary times, which requires linear interpolation.  Design-space heat
//! maps use bilinear interpolation over `(parameter, parameter)` grids.

use crate::error::MathError;

/// Linearly interpolates `ys` sampled at ascending abscissae `xs` at position `x`.
///
/// Values outside the sampled range are clamped to the boundary samples,
/// which matches how a sampled waveform is extended in practice (the bit-line
/// holds its final value).
///
/// # Errors
///
/// * [`MathError::DimensionMismatch`] if `xs.len() != ys.len()`.
/// * [`MathError::InvalidArgument`] if fewer than two samples are given,
///   `xs` is not strictly ascending (which also rejects NaN abscissae), or
///   `x` is NaN.
pub fn linear(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, MathError> {
    check_samples(xs, ys)?;
    // Anything but `Some(Less)` — including the NaN case `None` — fails, so
    // an axis containing NaN is rejected here rather than slipping past.
    if xs
        .windows(2)
        // optima-lint: allow(R1) -- NaN rejection is the point: None != Some(Less) fails the axis
        .any(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less))
    {
        return Err(MathError::InvalidArgument {
            context: "abscissae must be strictly ascending".to_string(),
        });
    }
    linear_sorted(xs, ys, x)
}

/// [`linear`] on an axis the caller has already validated as strictly
/// ascending: the `O(n)` ascending scan is skipped, the lookup is the same
/// binary search and interpolation formula, so the result is bit-identical.
///
/// An axis that is not strictly ascending yields an unspecified value, never
/// a panic.
///
/// # Errors
///
/// * [`MathError::DimensionMismatch`] if `xs.len() != ys.len()`.
/// * [`MathError::InvalidArgument`] if fewer than two samples are given or
///   `x` is NaN.
pub fn linear_sorted(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, MathError> {
    check_samples(xs, ys)?;
    if x.is_nan() {
        return Err(MathError::InvalidArgument {
            context: "interpolation query position is NaN".to_string(),
        });
    }
    let last = xs.len() - 1;
    if x <= xs[0] {
        return Ok(ys[0]);
    }
    if x >= xs[last] {
        return Ok(ys[last]);
    }
    // Binary search for the bracketing interval (total order: never panics;
    // the clamp only matters for an axis that breaks the precondition).
    let idx = match xs.binary_search_by(|probe| probe.total_cmp(&x)) {
        Ok(i) => return Ok(ys[i]),
        Err(i) => i.clamp(1, last),
    };
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    let (y0, y1) = (ys[idx - 1], ys[idx]);
    let frac = (x - x0) / (x1 - x0);
    Ok(y0 + frac * (y1 - y0))
}

/// The `O(1)` shape checks shared by [`linear`] and [`linear_sorted`].
fn check_samples(xs: &[f64], ys: &[f64]) -> Result<(), MathError> {
    if xs.len() != ys.len() {
        return Err(MathError::DimensionMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(MathError::InvalidArgument {
            context: "linear interpolation needs at least two samples".to_string(),
        });
    }
    Ok(())
}

/// Bilinear interpolation on a rectangular grid.
///
/// `values[i][j]` is the sample at `(xs[i], ys[j])`.  Queries outside the grid
/// are clamped to the edge.
///
/// # Errors
///
/// * [`MathError::ShapeMismatch`] if `values` is not `xs.len() × ys.len()`.
/// * [`MathError::InvalidArgument`] if either axis has fewer than two samples
///   or is not strictly ascending (which also rejects NaN abscissae), or the
///   query position is NaN.
pub fn bilinear(
    xs: &[f64],
    ys: &[f64],
    values: &[Vec<f64>],
    x: f64,
    y: f64,
) -> Result<f64, MathError> {
    if xs.len() < 2 || ys.len() < 2 {
        return Err(MathError::InvalidArgument {
            context: "bilinear interpolation needs at least a 2x2 grid".to_string(),
        });
    }
    if values.len() != xs.len() || values.iter().any(|row| row.len() != ys.len()) {
        return Err(MathError::ShapeMismatch {
            context: format!(
                "value grid must be {}x{} to match the axes",
                xs.len(),
                ys.len()
            ),
        });
    }
    // As in `linear`: anything but `Some(Less)` — including NaN's `None` —
    // rejects the axis.
    // optima-lint: allow(R1) -- NaN rejection is the point: None != Some(Less) fails the axis
    let not_ascending = |w: &[f64]| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less);
    if xs.windows(2).any(not_ascending) || ys.windows(2).any(not_ascending) {
        return Err(MathError::InvalidArgument {
            context: "grid axes must be strictly ascending".to_string(),
        });
    }
    if x.is_nan() || y.is_nan() {
        return Err(MathError::InvalidArgument {
            context: "interpolation query position is NaN".to_string(),
        });
    }

    let x = x.clamp(xs[0], xs[xs.len() - 1]);
    let y = y.clamp(ys[0], ys[ys.len() - 1]);
    let i = bracket(xs, x);
    let j = bracket(ys, y);
    let tx = if xs[i + 1] == xs[i] {
        0.0
    } else {
        (x - xs[i]) / (xs[i + 1] - xs[i])
    };
    let ty = if ys[j + 1] == ys[j] {
        0.0
    } else {
        (y - ys[j]) / (ys[j + 1] - ys[j])
    };
    let v00 = values[i][j];
    let v10 = values[i + 1][j];
    let v01 = values[i][j + 1];
    let v11 = values[i + 1][j + 1];
    Ok(v00 * (1.0 - tx) * (1.0 - ty)
        + v10 * tx * (1.0 - ty)
        + v01 * (1.0 - tx) * ty
        + v11 * tx * ty)
}

/// Index `i` such that `xs[i] <= x <= xs[i+1]`, clamped to valid intervals.
fn bracket(xs: &[f64], x: f64) -> usize {
    match xs.binary_search_by(|probe| probe.total_cmp(&x)) {
        Ok(i) => i.min(xs.len() - 2),
        Err(i) => i.saturating_sub(1).min(xs.len() - 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolation_midpoint() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 40.0];
        assert_eq!(linear(&xs, &ys, 0.5).unwrap(), 5.0);
        assert_eq!(linear(&xs, &ys, 1.5).unwrap(), 25.0);
        assert_eq!(linear(&xs, &ys, 1.0).unwrap(), 10.0);
    }

    #[test]
    fn linear_interpolation_clamps_out_of_range() {
        let xs = [0.0, 1.0];
        let ys = [2.0, 3.0];
        assert_eq!(linear(&xs, &ys, -5.0).unwrap(), 2.0);
        assert_eq!(linear(&xs, &ys, 5.0).unwrap(), 3.0);
    }

    #[test]
    fn linear_interpolation_validates_input() {
        assert!(linear(&[0.0], &[1.0], 0.0).is_err());
        assert!(linear(&[0.0, 1.0], &[1.0], 0.5).is_err());
        assert!(linear(&[1.0, 0.0], &[1.0, 2.0], 0.5).is_err());
    }

    #[test]
    fn linear_interpolation_rejects_nan_instead_of_panicking() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 40.0];
        // NaN query: typed error, no panic from the interval search.
        assert!(matches!(
            linear(&xs, &ys, f64::NAN),
            Err(MathError::InvalidArgument { .. })
        ));
        // NaN abscissa: rejected by the ascending check.
        assert!(matches!(
            linear(&[0.0, f64::NAN, 2.0], &ys, 0.5),
            Err(MathError::InvalidArgument { .. })
        ));
        // Infinite queries still clamp like any other out-of-range position.
        assert_eq!(linear(&xs, &ys, f64::INFINITY).unwrap(), 40.0);
        assert_eq!(linear(&xs, &ys, f64::NEG_INFINITY).unwrap(), 0.0);
    }

    #[test]
    fn sorted_lookup_matches_linear_and_never_panics_on_a_broken_axis() {
        let xs = [0.0, 0.3, 1.1, 2.0, 4.5];
        let ys = [1.0, 0.7, 0.2, -0.4, 3.0];
        for x in [-1.0, 0.0, 0.1, 0.3, 0.77, 1.9, 3.3, 4.5, 9.0] {
            assert_eq!(
                linear_sorted(&xs, &ys, x).unwrap().to_bits(),
                linear(&xs, &ys, x).unwrap().to_bits()
            );
        }
        assert!(linear_sorted(&xs, &ys, f64::NAN).is_err());
        assert!(linear_sorted(&xs, &ys[..4], 0.5).is_err());
        // Unspecified value, but a value.
        let unsorted = [0.0, 5.0, 1.0, 2.0, 3.0];
        for x in [0.5, 1.5, 2.5, 2.9] {
            assert!(linear_sorted(&unsorted, &ys, x).is_ok());
        }
    }

    #[test]
    fn bilinear_interpolation_on_plane() {
        // f(x, y) = 2x + 3y is reproduced exactly by bilinear interpolation.
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 1.0];
        let values: Vec<Vec<f64>> = xs
            .iter()
            .map(|&x| ys.iter().map(|&y| 2.0 * x + 3.0 * y).collect())
            .collect();
        let v = bilinear(&xs, &ys, &values, 1.5, 0.5).unwrap();
        assert!((v - 4.5).abs() < 1e-12);
    }

    #[test]
    fn bilinear_clamps_to_grid() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let values = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        assert_eq!(bilinear(&xs, &ys, &values, -1.0, -1.0).unwrap(), 0.0);
        assert_eq!(bilinear(&xs, &ys, &values, 2.0, 2.0).unwrap(), 3.0);
    }

    #[test]
    fn bilinear_validates_shapes() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        assert!(bilinear(&xs, &ys, &[vec![0.0, 1.0]], 0.5, 0.5).is_err());
        assert!(bilinear(&[0.0], &ys, &[vec![0.0, 1.0]], 0.5, 0.5).is_err());
        assert!(bilinear(
            &[1.0, 0.0],
            &ys,
            &[vec![0.0, 1.0], vec![0.0, 1.0]],
            0.5,
            0.5
        )
        .is_err());
    }

    #[test]
    fn bilinear_rejects_nan_instead_of_panicking() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 1.0];
        let values = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        assert!(matches!(
            bilinear(&xs, &ys, &values, f64::NAN, 0.5),
            Err(MathError::InvalidArgument { .. })
        ));
        assert!(matches!(
            bilinear(&xs, &ys, &values, 0.5, f64::NAN),
            Err(MathError::InvalidArgument { .. })
        ));
        assert!(matches!(
            bilinear(&[0.0, f64::NAN], &ys, &values, 0.5, 0.5),
            Err(MathError::InvalidArgument { .. })
        ));
    }
}
