//! LU factorization with partial pivoting.
//!
//! [`Lu`] factors a square matrix `A` as `P·A = L·U` and exposes linear
//! solves, inversion, and the determinant. It is the backbone of the Padé
//! solve inside [`crate::expm`] and of the Riccati iterations in
//! [`crate::solve_dare`].

use crate::{LinalgError, Mat};

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// Create one with [`Lu::factor`], then reuse it for any number of
/// right-hand sides via [`Lu::solve`] / [`Lu::solve_mat`].
///
/// # Examples
///
/// ```
/// use ecl_linalg::{lu::Lu, Mat};
///
/// # fn main() -> Result<(), ecl_linalg::LinalgError> {
/// let a = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// // A * x = b
/// let b = a.matvec(&x)?;
/// assert!((b[0] - 10.0).abs() < 1e-12 && (b[1] - 12.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors (unit-diagonal L below, U on and above the diagonal).
    lu: Mat,
    /// Row permutation: `perm[i]` is the original row stored at position `i`.
    perm: Vec<usize>,
    /// Parity of the permutation (`+1.0` or `-1.0`) for the determinant.
    sign: f64,
}

/// Pivot tolerance: a pivot smaller than this (relative to the largest entry
/// of its column) marks the matrix as numerically singular.
const PIVOT_TOL: f64 = 1e-300;

impl Lu {
    /// Factors the square matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is rectangular.
    /// * [`LinalgError::Singular`] if a pivot collapses to (near) zero.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN or infinity.
    pub fn factor(a: &Mat) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite { op: "lu" });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let sign = factor_in_place(lu.as_mut_slice(), n, &mut perm)?;
        Ok(Lu { lu, perm, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply the permutation, then forward/back substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        substitute_in_place(self.lu.as_slice(), n, &mut x);
        Ok(x)
    }

    /// Solves `A·X = B` column-by-column for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `B.rows() != self.dim()`.
    pub fn solve_mat(&self, b: &Mat) -> Result<Mat, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_mat",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Mat::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// The determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let n = self.dim();
        let mut d = self.sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// The inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully factored
    /// matrix, but the signature stays fallible for uniformity).
    pub fn inverse(&self) -> Result<Mat, LinalgError> {
        self.solve_mat(&Mat::identity(self.dim()))
    }
}

/// Factors the row-major `n × n` matrix in `lu` in place as `P·A = L·U`
/// (unit-diagonal L below the diagonal, U on and above it), writing the
/// row permutation into `perm` (`perm[i]` is the original row stored at
/// position `i`). Returns the permutation's parity. The one factorization
/// kernel behind [`Lu::factor`] and [`crate::expm_in`].
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] if a pivot collapses to (near) zero.
#[inline]
pub(crate) fn factor_in_place(
    lu: &mut [f64],
    n: usize,
    perm: &mut [usize],
) -> Result<f64, LinalgError> {
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    let mut sign = 1.0;
    for k in 0..n {
        // Select the pivot row: largest |entry| in column k at or below k.
        let mut p = k;
        let mut best = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best <= PIVOT_TOL {
            return Err(LinalgError::Singular { pivot: k });
        }
        if p != k {
            for j in 0..n {
                lu.swap(k * n + j, p * n + j);
            }
            perm.swap(k, p);
            sign = -sign;
        }
        let pivot = lu[k * n + k];
        for i in (k + 1)..n {
            let m = lu[i * n + k] / pivot;
            lu[i * n + k] = m;
            for j in (k + 1)..n {
                let u = lu[k * n + j];
                lu[i * n + j] -= m * u;
            }
        }
    }
    Ok(sign)
}

/// Forward then back substitution through packed factors from
/// [`factor_in_place`]: `x` holds the permuted right-hand side on entry
/// and the solution on exit.
#[inline]
pub(crate) fn substitute_in_place(lu: &[f64], n: usize, x: &mut [f64]) {
    for i in 0..n {
        for j in 0..i {
            x[i] -= lu[i * n + j] * x[j];
        }
    }
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            x[i] -= lu[i * n + j] * x[j];
        }
        x[i] /= lu[i * n + i];
    }
}

/// Convenience one-shot solve of `A·x = b`.
///
/// # Errors
///
/// Same as [`Lu::factor`] followed by [`Lu::solve`].
///
/// # Examples
///
/// ```
/// use ecl_linalg::{lu, Mat};
/// # fn main() -> Result<(), ecl_linalg::LinalgError> {
/// let a = Mat::identity(2).scaled(2.0);
/// let x = lu::solve(&a, &[2.0, 4.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Mat, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Lu::factor(a)?.solve(b)
}

/// Convenience one-shot inverse of `A`.
///
/// # Errors
///
/// Same as [`Lu::factor`].
pub fn inverse(a: &Mat) -> Result<Mat, LinalgError> {
    Lu::factor(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_conditioned() -> Mat {
        Mat::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]).unwrap()
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = well_conditioned();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = well_conditioned();
        let ainv = inverse(&a).unwrap();
        let prod = a.matmul(&ainv).unwrap();
        assert!(prod.approx_eq(&Mat::identity(3), 1e-12));
    }

    #[test]
    fn det_of_triangular() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn det_sign_tracks_permutation() {
        // Swapped-identity has determinant -1.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rectangular_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(Lu::factor(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn nan_rejected() {
        let mut a = Mat::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(Lu::factor(&a), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn solve_mat_matches_columnwise_solve() {
        let a = well_conditioned();
        let lu = Lu::factor(&a).unwrap();
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let x = lu.solve_mat(&b).unwrap();
        let recon = a.matmul(&x).unwrap();
        assert!(recon.approx_eq(&b, 1e-12));
    }

    #[test]
    fn rhs_length_checked() {
        let lu = Lu::factor(&Mat::identity(3)).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
        assert!(lu.solve_mat(&Mat::zeros(2, 2)).is_err());
    }
}
