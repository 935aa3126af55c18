//! Small dense linear algebra: matrices, vectors, LU and QR factorisations.
//!
//! The least-squares fits used by OPTIMA involve design matrices with at most
//! a few thousand rows and a handful of columns, so a straightforward dense
//! implementation is more than adequate and keeps the dependency set minimal.

use crate::error::MathError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense column vector of `f64`.
pub type Vector = Vec<f64>;

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_math::MathError> {
/// use optima_math::Matrix;
///
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]])?;
/// let x = a.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] when the rows have differing
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MathError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(MathError::ShapeMismatch {
                context: "matrix must have at least one row and one column".to_string(),
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(MathError::ShapeMismatch {
                    context: format!("row length {} differs from {}", row.len(), cols),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a closure evaluated at every `(row, col)` index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, MathError> {
        if self.cols != rhs.rows {
            return Err(MathError::ShapeMismatch {
                context: format!(
                    "cannot multiply {}x{} by {}x{}",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vector, MathError> {
        if v.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                left: self.cols,
                right: v.len(),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, out_value) in out.iter_mut().enumerate() {
            *out_value = self
                .row(i)
                .iter()
                .zip(v.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>();
        }
        Ok(out)
    }

    /// Solves `A x = b` for square `A` using LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`MathError::ShapeMismatch`] if the matrix is not square.
    /// * [`MathError::DimensionMismatch`] if `b.len() != self.rows()`.
    /// * [`MathError::SingularMatrix`] if a zero pivot is encountered.
    pub fn solve(&self, b: &[f64]) -> Result<Vector, MathError> {
        if self.rows != self.cols {
            return Err(MathError::ShapeMismatch {
                context: format!(
                    "solve requires a square matrix, got {}x{}",
                    self.rows, self.cols
                ),
            });
        }
        if b.len() != self.rows {
            return Err(MathError::DimensionMismatch {
                left: self.rows,
                right: b.len(),
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivoting: find the largest magnitude entry in this column.
            let mut pivot_row = col;
            let mut pivot_val = lu[perm[col] * n + col].abs();
            for row in (col + 1)..n {
                let candidate = lu[perm[row] * n + col].abs();
                if candidate > pivot_val {
                    pivot_val = candidate;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-300 {
                return Err(MathError::SingularMatrix);
            }
            perm.swap(col, pivot_row);

            let pivot = lu[perm[col] * n + col];
            for row in (col + 1)..n {
                let factor = lu[perm[row] * n + col] / pivot;
                lu[perm[row] * n + col] = factor;
                for k in (col + 1)..n {
                    lu[perm[row] * n + k] -= factor * lu[perm[col] * n + k];
                }
            }
        }

        // Forward substitution (L y = P b).
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = x[perm[i]];
            for k in 0..i {
                sum -= lu[perm[i] * n + k] * y[k];
            }
            y[i] = sum;
        }
        // Back substitution (U x = y).
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= lu[perm[i] * n + k] * x[k];
            }
            let diag = lu[perm[i] * n + i];
            if diag.abs() < 1e-300 {
                return Err(MathError::SingularMatrix);
            }
            x[i] = sum / diag;
        }
        Ok(x)
    }

    /// Solves the least-squares problem `min ||A x - b||` via Householder QR.
    ///
    /// Works for over-determined systems (`rows >= cols`), which is the shape
    /// of every fit performed by the OPTIMA calibration pipeline.
    ///
    /// # Errors
    ///
    /// * [`MathError::InsufficientData`] if `rows < cols`.
    /// * [`MathError::DimensionMismatch`] if `b.len() != rows`.
    /// * [`MathError::SingularMatrix`] if the columns are linearly dependent.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vector, MathError> {
        if self.rows < self.cols {
            return Err(MathError::InsufficientData {
                samples: self.rows,
                coefficients: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(MathError::DimensionMismatch {
                left: self.rows,
                right: b.len(),
            });
        }
        let m = self.rows;
        let n = self.cols;
        let mut r = self.data.clone();
        let mut rhs = b.to_vec();

        // Householder QR: transform A -> R in place, applying the same
        // reflections to the right-hand side.
        for col in 0..n {
            let mut norm = 0.0;
            for row in col..m {
                norm += r[row * n + col] * r[row * n + col];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                return Err(MathError::SingularMatrix);
            }
            let alpha = if r[col * n + col] > 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            v[col] = r[col * n + col] - alpha;
            for row in (col + 1)..m {
                v[row] = r[row * n + col];
            }
            let vtv: f64 = v[col..].iter().map(|x| x * x).sum();
            if vtv < 1e-300 {
                continue;
            }

            // Apply H = I - 2 v v^T / (v^T v) to the remaining columns of R.
            for j in col..n {
                let dot: f64 = (col..m).map(|row| v[row] * r[row * n + j]).sum();
                let scale = 2.0 * dot / vtv;
                for row in col..m {
                    r[row * n + j] -= scale * v[row];
                }
            }
            // And to the right-hand side.
            let dot: f64 = (col..m).map(|row| v[row] * rhs[row]).sum();
            let scale = 2.0 * dot / vtv;
            for row in col..m {
                rhs[row] -= scale * v[row];
            }
        }

        // Back substitution on the upper-triangular system R x = Q^T b.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = rhs[i];
            for k in (i + 1)..n {
                sum -= r[i * n + k] * x[k];
            }
            let diag = r[i * n + i];
            if diag.abs() < 1e-12 {
                return Err(MathError::SingularMatrix);
            }
            x[i] = sum / diag;
        }
        Ok(x)
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Dot product of two equal-length slices.
///
/// # Errors
///
/// Returns [`MathError::DimensionMismatch`] if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64, MathError> {
    if a.len() != b.len() {
        return Err(MathError::DimensionMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter().zip(b.iter()).map(|(x, y)| x * y).sum())
}

/// Euclidean norm of a slice.
pub fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn lu_solve_matches_known_solution() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 2.0],
            vec![1.0, 5.0, 1.0],
            vec![2.0, 1.0, 6.0],
        ])
        .unwrap();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]).unwrap_err(), MathError::SingularMatrix);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_recovers_exact_solution_when_consistent() {
        // Overdetermined but consistent: y = 1 + 2x sampled at 5 points.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |i, j| if j == 0 { 1.0 } else { xs[i] });
        let b: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x).collect();
        let sol = a.solve_least_squares(&b).unwrap();
        assert!((sol[0] - 1.0).abs() < 1e-10);
        assert!((sol[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_minimises_residual() {
        // Inconsistent system: best fit of a constant to [0, 1, 2] is 1.
        let a = Matrix::from_fn(3, 1, |_, _| 1.0);
        let sol = a.solve_least_squares(&[0.0, 1.0, 2.0]).unwrap();
        assert!((sol[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve_least_squares(&[0.0, 0.0]).unwrap_err(),
            MathError::InsufficientData { .. }
        ));
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let at = a.transpose();
        let prod = a.matmul(&at).unwrap();
        assert_eq!(prod[(0, 0)], 5.0);
        assert_eq!(prod[(0, 1)], 11.0);
        assert_eq!(prod[(1, 1)], 25.0);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_rows_validates_shape() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(9).frobenius_norm() - 3.0).abs() < 1e-12);
    }
}
