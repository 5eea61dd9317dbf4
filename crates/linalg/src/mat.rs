use std::fmt;
use std::ops::{Index, IndexMut};

use crate::LinalgError;

/// A dense, row-major `f64` matrix.
///
/// `Mat` is the workhorse of the control-synthesis kernels. It is designed
/// for small matrices (plant orders 2–8) and keeps its storage in a plain
/// `Vec<f64>` so traversals are cache-friendly and allocation-free views are
/// unnecessary.
///
/// Arithmetic that can fail on shape grounds is exposed as fallible methods
/// ([`Mat::add`], [`Mat::sub`], [`Mat::matmul`], …) returning
/// [`LinalgError`]; indexing panics on out-of-bounds like slices do.
///
/// # Examples
///
/// ```
/// use ecl_linalg::Mat;
///
/// # fn main() -> Result<(), ecl_linalg::LinalgError> {
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Mat::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecl_linalg::Mat;
    /// let z = Mat::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecl_linalg::Mat;
    /// let i = Mat::identity(3);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] if the rows are ragged (unequal
    /// lengths) or the input is empty in one dimension but not the other.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecl_linalg::Mat;
    /// # fn main() -> Result<(), ecl_linalg::LinalgError> {
    /// let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// assert_eq!(m[(1, 0)], 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(LinalgError::InvalidData {
                    reason: format!("row {i} has {} entries, expected {ncols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Mat {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidData {
                reason: format!(
                    "flat data has {} entries, expected {rows}x{cols} = {}",
                    data.len(),
                    rows * cols
                ),
            });
        }
        Ok(Mat { rows, cols, data })
    }

    /// Creates a column vector (`n x 1`) from a slice.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecl_linalg::Mat;
    /// let v = Mat::col_vec(&[1.0, 2.0, 3.0]);
    /// assert_eq!(v.shape(), (3, 1));
    /// ```
    pub fn col_vec(entries: &[f64]) -> Self {
        Mat {
            rows: entries.len(),
            cols: 1,
            data: entries.to_vec(),
        }
    }

    /// Creates a row vector (`1 x n`) from a slice.
    pub fn row_vec(entries: &[f64]) -> Self {
        Mat {
            rows: 1,
            cols: entries.len(),
            data: entries.to_vec(),
        }
    }

    /// Creates a square diagonal matrix with the given diagonal entries.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecl_linalg::Mat;
    /// let d = Mat::diag(&[1.0, 2.0]);
    /// assert_eq!(d[(1, 1)], 2.0);
    /// assert_eq!(d[(0, 1)], 0.0);
    /// ```
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Mat::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
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

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the flat row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the entry at `(i, j)` or `None` if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Returns the transpose.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecl_linalg::Mat;
    /// # fn main() -> Result<(), ecl_linalg::LinalgError> {
    /// let m = Mat::from_rows(&[&[1.0, 2.0, 3.0]])?;
    /// assert_eq!(m.transpose().shape(), (3, 1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Mat) -> Result<Mat, LinalgError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Mat) -> Result<Mat, LinalgError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Mat,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Mat, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self` scaled by `k`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecl_linalg::Mat;
    /// let m = Mat::identity(2).scaled(3.0);
    /// assert_eq!(m[(0, 0)], 3.0);
    /// ```
    pub fn scaled(&self, k: f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * k).collect(),
        }
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != other.rows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecl_linalg::Mat;
    /// # fn main() -> Result<(), ecl_linalg::LinalgError> {
    /// let a = Mat::from_rows(&[&[1.0, 2.0]])?;       // 1x2
    /// let b = Mat::col_vec(&[3.0, 4.0]);              // 2x1
    /// let c = a.matmul(&b)?;                          // 1x1
    /// assert_eq!(c[(0, 0)], 11.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Mat) -> Result<Mat, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, other.cols);
        matmul_acc(
            &self.data,
            &other.data,
            (self.rows, self.cols, other.cols),
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix-vector product `self * x` with `x` given as a slice.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            let row = self.row(i);
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// The infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// The Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// The trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Extracts the contiguous sub-matrix with rows `r0..r0+nr` and columns
    /// `c0..c0+nc`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] if the block exceeds the bounds
    /// of `self`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Result<Mat, LinalgError> {
        if r0 + nr > self.rows || c0 + nc > self.cols {
            return Err(LinalgError::InvalidData {
                reason: format!(
                    "block [{r0}..{}, {c0}..{}] exceeds {}x{}",
                    r0 + nr,
                    c0 + nc,
                    self.rows,
                    self.cols
                ),
            });
        }
        let mut out = Mat::zeros(nr, nc);
        for i in 0..nr {
            for j in 0..nc {
                out[(i, j)] = self[(r0 + i, c0 + j)];
            }
        }
        Ok(out)
    }

    /// Writes `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Mat) -> Result<(), LinalgError> {
        if r0 + block.rows > self.rows || c0 + block.cols > self.cols {
            return Err(LinalgError::InvalidData {
                reason: format!(
                    "block {}x{} at ({r0}, {c0}) exceeds {}x{}",
                    block.rows, block.cols, self.rows, self.cols
                ),
            });
        }
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
        Ok(())
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the row counts differ.
    pub fn hcat(&self, other: &Mat) -> Result<Mat, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hcat",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, self.cols + other.cols);
        out.set_block(0, 0, self).expect("fits by construction");
        out.set_block(0, self.cols, other)
            .expect("fits by construction");
        Ok(out)
    }

    /// Vertical concatenation `[self ; other]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column counts differ.
    pub fn vcat(&self, other: &Mat) -> Result<Mat, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vcat",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows + other.rows, self.cols);
        out.set_block(0, 0, self).expect("fits by construction");
        out.set_block(self.rows, 0, other)
            .expect("fits by construction");
        Ok(out)
    }

    /// `true` if every entry is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// `true` if `self` and `other` agree entry-wise within `tol`
    /// (and have identical shapes).
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Returns the symmetric part `(self + selfᵀ) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrized(&self) -> Mat {
        assert!(self.is_square(), "symmetrized requires a square matrix");
        let t = self.transpose();
        let mut out = self.clone();
        for (o, t) in out.data.iter_mut().zip(t.data) {
            *o = 0.5 * (*o + t);
        }
        out
    }
}

/// `out += a·b` for row-major `a` (`rows × inner`) and `b`
/// (`inner × cols`), with `(rows, inner, cols) = dims`: the one product
/// kernel behind [`Mat::matmul`] and [`crate::expm_in`], which pass a
/// zeroed `out`. Zero entries of `a` are skipped.
#[inline]
pub(crate) fn matmul_acc(a: &[f64], b: &[f64], dims: (usize, usize, usize), out: &mut [f64]) {
    let (rows, inner, cols) = dims;
    for i in 0..rows {
        let a_row = &a[i * inner..(i + 1) * inner];
        let out_row = &mut out[i * cols..(i + 1) * cols];
        for k in 0..inner {
            let aik = a_row[k];
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[k * cols..(k + 1) * cols];
            for j in 0..cols {
                out_row[j] += aik * b_row[j];
            }
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:+.6e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:12.6}", self[(i, j)])?;
            }
            if i + 1 < self.rows {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

impl Default for Mat {
    /// The empty `0 x 0` matrix.
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Mat {
        Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Mat::identity(3);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidData { .. }));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Mat::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Mat::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = m22();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = m22();
        let b = Mat::identity(2);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(c.approx_eq(&a, 1e-15));
    }

    #[test]
    fn add_shape_mismatch() {
        let a = m22();
        let b = Mat::zeros(3, 2);
        assert!(matches!(
            a.add(&b),
            Err(LinalgError::ShapeMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = m22();
        assert_eq!(a.matmul(&Mat::identity(2)).unwrap(), a);
        assert_eq!(Mat::identity(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = m22();
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = m22();
        let x = [5.0, 6.0];
        let y = a.matvec(&x).unwrap();
        let y2 = a.matmul(&Mat::col_vec(&x)).unwrap();
        assert_eq!(y[0], y2[(0, 0)]);
        assert_eq!(y[1], y2[(1, 0)]);
    }

    #[test]
    fn norms() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]).unwrap();
        assert_eq!(a.norm_inf(), 7.0);
        assert!((a.norm_fro() - 30.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn block_and_set_block() {
        let mut m = Mat::zeros(3, 3);
        m.set_block(1, 1, &m22()).unwrap();
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 2)], 4.0);
        let b = m.block(1, 1, 2, 2).unwrap();
        assert_eq!(b, m22());
        assert!(m.block(2, 2, 2, 2).is_err());
        assert!(m.clone().set_block(2, 2, &m22()).is_err());
    }

    #[test]
    fn hcat_vcat() {
        let a = m22();
        let h = a.hcat(&Mat::identity(2)).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(0, 2)], 1.0);
        let v = a.vcat(&Mat::identity(2)).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(2, 0)], 1.0);
        assert!(a.hcat(&Mat::zeros(3, 1)).is_err());
        assert!(a.vcat(&Mat::zeros(1, 3)).is_err());
    }

    #[test]
    fn symmetrized_is_symmetric() {
        let s = m22().symmetrized();
        assert_eq!(s[(0, 1)], s[(1, 0)]);
    }

    #[test]
    fn diag_and_col() {
        let d = Mat::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.col(1), vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn get_bounds() {
        let m = m22();
        assert_eq!(m.get(1, 1), Some(4.0));
        assert_eq!(m.get(2, 0), None);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = m22();
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = m22();
        let _ = m[(5, 0)];
    }
}
