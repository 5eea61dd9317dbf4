//! Matrix exponential via scaling-and-squaring with a degree-13 Padé
//! approximant (Higham 2005).
//!
//! Zero-order-hold discretization of a continuous plant `ẋ = A·x + B·u`
//! computes `Ad = exp(A·Ts)` and `Bd = ∫₀^Ts exp(A·s) ds · B`; both are
//! obtained from one call to [`expm`] on an augmented block matrix (see
//! `ecl-control`). This module provides the kernel itself: [`expm_in`]
//! over row-major slices and a caller-owned [`ExpmWorkspace`] (the form
//! the simulation kernel steps LTI plants with), and [`expm`] on a
//! [`Mat`], a thin wrapper over it.

use crate::lu::{factor_in_place, substitute_in_place};
use crate::mat::matmul_acc;
use crate::{LinalgError, Mat};

/// Padé-13 coefficients (Higham, *The scaling and squaring method for the
/// matrix exponential revisited*, SIAM J. Matrix Anal. 2005, Table A.1).
const PADE13: [f64; 14] = [
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
];

/// θ₁₃ threshold from Higham 2005: ‖A‖₁ below this needs no scaling.
const THETA_13: f64 = 5.371920351148152;

/// ‖A‖₁ of the row-major `n × n` matrix `a`: the largest column sum.
fn norm_1(a: &[f64], n: usize) -> f64 {
    (0..n)
        .map(|j| (0..n).map(|i| a[i * n + j].abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Scratch buffers for [`expm_in`]: seven `n × n` matrices, the LU
/// permutation and one solve column.
///
/// Size one with [`ExpmWorkspace::new`] (or [`ExpmWorkspace::fit`]) and
/// reuse it: [`expm_in`] over a workspace already sized for its
/// dimension allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ExpmWorkspace {
    mats: [Vec<f64>; 7],
    perm: Vec<usize>,
    col: Vec<f64>,
}

impl ExpmWorkspace {
    /// A workspace sized for `n × n` matrices.
    pub fn new(n: usize) -> Self {
        let mut ws = ExpmWorkspace::default();
        ws.fit(n);
        ws
    }

    /// Resizes every buffer for `n × n` matrices, returning how many had
    /// to grow their heap allocation (0 once sized for `n` or more).
    pub fn fit(&mut self, n: usize) -> u64 {
        let mut grown = 0;
        for (buf, len) in self
            .mats
            .iter_mut()
            .map(|m| (m, n * n))
            .chain([(&mut self.col, n)])
        {
            grown += u64::from(buf.capacity() < len);
            buf.resize(len, 0.0);
        }
        grown += u64::from(self.perm.capacity() < n);
        self.perm.resize(n, 0);
        grown
    }
}

/// Computes the matrix exponential `exp(A)`.
///
/// Uses scaling-and-squaring with the degree-13 Padé approximant; accurate
/// to near machine precision for the small, moderately scaled matrices that
/// arise in plant discretization. A thin wrapper over [`expm_in`].
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `a` is rectangular.
/// * [`LinalgError::NonFinite`] if `a` contains NaN or infinity.
/// * [`LinalgError::Singular`] if the Padé denominator is singular (cannot
///   occur for finite input within the θ₁₃ bound, but is propagated for
///   robustness).
///
/// # Examples
///
/// ```
/// use ecl_linalg::{expm, Mat};
/// # fn main() -> Result<(), ecl_linalg::LinalgError> {
/// // exp(diag(a, b)) = diag(e^a, e^b)
/// let d = Mat::diag(&[0.0, 1.0]);
/// let e = expm(&d)?;
/// assert!((e[(1, 1)] - 1.0f64.exp()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn expm(a: &Mat) -> Result<Mat, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    let mut out = Mat::zeros(n, n);
    expm_in(
        a.as_slice(),
        n,
        out.as_mut_slice(),
        &mut ExpmWorkspace::new(n),
    )?;
    Ok(out)
}

/// [`expm`] on row-major slices: writes `exp(A)` for the `n × n` matrix
/// `a` into `out`, using `ws` for every intermediate.
///
/// Allocation-free once `ws` is sized for `n` (it is refitted
/// otherwise). The arithmetic is [`expm`]'s, operation for operation,
/// so both return the same bits.
///
/// # Errors
///
/// * [`LinalgError::InvalidData`] if `a` or `out` does not hold `n·n`
///   entries.
/// * [`LinalgError::NonFinite`] if `a` contains NaN or infinity, or the
///   result overflows.
/// * [`LinalgError::Singular`] if the Padé denominator is singular.
///
/// # Examples
///
/// ```
/// use ecl_linalg::{expm_in, ExpmWorkspace};
/// # fn main() -> Result<(), ecl_linalg::LinalgError> {
/// // exp([[0, 1], [0, 0]]) = [[1, 1], [0, 1]]
/// let mut ws = ExpmWorkspace::new(2);
/// let mut e = [0.0; 4];
/// expm_in(&[0.0, 1.0, 0.0, 0.0], 2, &mut e, &mut ws)?;
/// assert_eq!(e, [1.0, 1.0, 0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
pub fn expm_in(
    a: &[f64],
    n: usize,
    out: &mut [f64],
    ws: &mut ExpmWorkspace,
) -> Result<(), LinalgError> {
    let nn = n * n;
    if a.len() != nn || out.len() != nn {
        return Err(LinalgError::InvalidData {
            reason: format!(
                "expm_in of a {n}x{n} matrix got {} input and {} output entries",
                a.len(),
                out.len()
            ),
        });
    }
    if !a.iter().all(|x| x.is_finite()) {
        return Err(LinalgError::NonFinite { op: "expm" });
    }
    if n == 0 {
        return Ok(());
    }
    ws.fit(n);
    let mul = |x: &[f64], y: &[f64], out: &mut [f64]| {
        out.fill(0.0);
        matmul_acc(x, y, (n, n, n), out);
    };
    let id = |i: usize| if i.is_multiple_of(n + 1) { 1.0 } else { 0.0 };
    let ExpmWorkspace { mats, perm, col } = ws;
    let [a_s, a2, a4, a6, t, p, u] = mats;

    // Scale A by 2^-s so that ||A/2^s||_1 <= theta_13.
    let norm = norm_1(a, n);
    let s = if norm > THETA_13 {
        (norm / THETA_13).log2().ceil() as u32
    } else {
        0
    };
    let k = 0.5f64.powi(s as i32);
    for (y, &x) in a_s.iter_mut().zip(a) {
        *y = x * k;
    }

    // Padé-13: exp(A) ~ (V - U)^-1 (V + U), Higham's formulation.
    mul(a_s, a_s, a2);
    mul(a2, a2, a4);
    mul(a4, a2, a6);
    let b = &PADE13;

    // u_odd = A * (A6*(b13*A6 + b11*A4 + b9*A2) + b7*A6 + b5*A4 + b3*A2 + b1*I)
    for i in 0..nn {
        t[i] = a6[i] * b[13] + a4[i] * b[11] + a2[i] * b[9];
    }
    mul(a6, t, p);
    for i in 0..nn {
        p[i] = p[i] + a6[i] * b[7] + a4[i] * b[5] + a2[i] * b[3] + id(i) * b[1];
    }
    mul(a_s, p, u);

    // v_even = A6*(b12*A6 + b10*A4 + b8*A2) + b6*A6 + b4*A4 + b2*A2 + b0*I,
    // built in `p`.
    for i in 0..nn {
        t[i] = a6[i] * b[12] + a4[i] * b[10] + a2[i] * b[8];
    }
    mul(a6, t, p);
    for i in 0..nn {
        p[i] = p[i] + a6[i] * b[6] + a4[i] * b[4] + a2[i] * b[2] + id(i) * b[0];
    }

    // Solve (V - U) X = (V + U): the denominator factors in `t`, the
    // numerator sits in `a_s`.
    for i in 0..nn {
        t[i] = p[i] - u[i];
        a_s[i] = p[i] + u[i];
    }
    if !t.iter().all(|x| x.is_finite()) {
        return Err(LinalgError::NonFinite { op: "lu" });
    }
    factor_in_place(t, n, perm)?;
    for j in 0..n {
        for (c, &r) in col.iter_mut().zip(perm.iter()) {
            *c = a_s[r * n + j];
        }
        substitute_in_place(t, n, col);
        for i in 0..n {
            out[i * n + j] = col[i];
        }
    }

    // Undo the scaling: square s times.
    for _ in 0..s {
        mul(out, out, a2);
        out.copy_from_slice(a2);
    }
    if !out.iter().all(|x| x.is_finite()) {
        return Err(LinalgError::NonFinite { op: "expm" });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::Lu;
    use proptest::prelude::*;

    /// The `Mat`-operator formulation `expm` had before the slice
    /// kernel, kept verbatim as the reference `expm_in` must match bit
    /// for bit.
    fn mat_expm(a: &Mat) -> Result<Mat, LinalgError> {
        if !a.is_finite() {
            return Err(LinalgError::NonFinite { op: "expm" });
        }
        let n = a.rows();
        if n == 0 {
            return Ok(Mat::zeros(0, 0));
        }
        let norm = (0..a.cols())
            .map(|j| (0..a.rows()).map(|i| a[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max);
        let s = if norm > THETA_13 {
            (norm / THETA_13).log2().ceil() as u32
        } else {
            0
        };
        let a_scaled = a.scaled(0.5f64.powi(s as i32));
        let ident = Mat::identity(n);
        let a2 = a_scaled.matmul(&a_scaled)?;
        let a4 = a2.matmul(&a2)?;
        let a6 = a4.matmul(&a2)?;
        let b = &PADE13;
        let inner_u = a6
            .scaled(b[13])
            .add(&a4.scaled(b[11]))?
            .add(&a2.scaled(b[9]))?;
        let u_poly = a6
            .matmul(&inner_u)?
            .add(&a6.scaled(b[7]))?
            .add(&a4.scaled(b[5]))?
            .add(&a2.scaled(b[3]))?
            .add(&ident.scaled(b[1]))?;
        let u = a_scaled.matmul(&u_poly)?;
        let inner_v = a6
            .scaled(b[12])
            .add(&a4.scaled(b[10]))?
            .add(&a2.scaled(b[8]))?;
        let v = a6
            .matmul(&inner_v)?
            .add(&a6.scaled(b[6]))?
            .add(&a4.scaled(b[4]))?
            .add(&a2.scaled(b[2]))?
            .add(&ident.scaled(b[0]))?;
        let denom = v.sub(&u)?;
        let numer = v.add(&u)?;
        let mut x = Lu::factor(&denom)?.solve_mat(&numer)?;
        for _ in 0..s {
            x = x.matmul(&x)?;
        }
        if !x.is_finite() {
            return Err(LinalgError::NonFinite { op: "expm" });
        }
        Ok(x)
    }

    fn bits(m: &[f64]) -> Vec<u64> {
        m.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `expm_in` (and so `expm`) returns the reference's bits on
        /// random matrices of orders 1–6, from norms far below θ₁₃ to
        /// ones that need up to ~8 squarings, with some exact zeros and
        /// one workspace reused across every size.
        #[test]
        fn expm_in_is_bit_equal_to_the_mat_formulation(
            n in 1usize..7,
            entries in proptest::collection::vec(-1.0f64..1.0, 36),
            zeros in proptest::collection::vec(0usize..4, 36),
            log_scale in -6i32..9,
        ) {
            let scale = 2f64.powi(log_scale) * 1.37;
            let data: Vec<f64> = entries[..n * n]
                .iter()
                .zip(&zeros)
                .map(|(&x, &z)| if z == 0 { 0.0 } else { x * scale })
                .collect();
            let a = Mat::from_vec(n, n, data).unwrap();
            let reference = mat_expm(&a).unwrap();
            let mut ws = ExpmWorkspace::new(6);
            let mut out = vec![f64::NAN; n * n];
            expm_in(a.as_slice(), n, &mut out, &mut ws).unwrap();
            prop_assert_eq!(bits(&out), bits(reference.as_slice()));
            prop_assert_eq!(bits(expm(&a).unwrap().as_slice()), bits(reference.as_slice()));
            // A sized workspace is reused without growing.
            prop_assert_eq!(ws.fit(n), 0);
        }
    }

    #[test]
    fn expm_in_checks_lengths_and_sizes_its_workspace() {
        let mut ws = ExpmWorkspace::default();
        let mut out = [0.0; 4];
        assert!(expm_in(&[0.0; 3], 2, &mut out, &mut ws).is_err());
        assert!(expm_in(&[0.0; 4], 2, &mut out[..3], &mut ws).is_err());
        let err = expm_in(&[f64::NAN, 0.0, 0.0, 0.0], 2, &mut out, &mut ws);
        assert_eq!(err, Err(LinalgError::NonFinite { op: "expm" }));
        expm_in(&[0.0; 4], 2, &mut out, &mut ws).unwrap();
        assert_eq!(out, [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(ws.fit(2), 0);
        assert!(ws.fit(3) > 0);
        expm_in(&[], 0, &mut [], &mut ws).unwrap();
    }

    #[test]
    fn expm_zero_is_identity() {
        let z = Mat::zeros(3, 3);
        let e = expm(&z).unwrap();
        assert!(e.approx_eq(&Mat::identity(3), 1e-14));
    }

    #[test]
    fn expm_diagonal() {
        let d = Mat::diag(&[1.0, -2.0, 0.5]);
        let e = expm(&d).unwrap();
        for (i, &v) in [1.0f64, -2.0, 0.5].iter().enumerate() {
            assert!((e[(i, i)] - v.exp()).abs() < 1e-12 * v.exp().abs().max(1.0));
        }
        assert!(e[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn expm_nilpotent() {
        // N = [[0,1],[0,0]] => exp(N) = I + N exactly.
        let n = Mat::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let e = expm(&n).unwrap();
        let expect = Mat::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        assert!(e.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn expm_rotation() {
        // exp([[0,-w],[w,0]] t) = rotation by w*t.
        let w = 2.0;
        let t = 0.7;
        let a = Mat::from_rows(&[&[0.0, -w], &[w, 0.0]]).unwrap().scaled(t);
        let e = expm(&a).unwrap();
        let (s, c) = (w * t).sin_cos();
        assert!((e[(0, 0)] - c).abs() < 1e-12);
        assert!((e[(0, 1)] + s).abs() < 1e-12);
        assert!((e[(1, 0)] - s).abs() < 1e-12);
        assert!((e[(1, 1)] - c).abs() < 1e-12);
    }

    #[test]
    fn expm_large_norm_triggers_scaling() {
        // 50 * rotation: still exact rotation after squaring.
        let a = Mat::from_rows(&[&[0.0, -50.0], &[50.0, 0.0]]).unwrap();
        let e = expm(&a).unwrap();
        let (s, c) = 50.0f64.sin_cos();
        assert!((e[(0, 0)] - c).abs() < 1e-9);
        assert!((e[(1, 0)] - s).abs() < 1e-9);
        // Rotation matrices have determinant 1.
        let det = e[(0, 0)] * e[(1, 1)] - e[(0, 1)] * e[(1, 0)];
        assert!((det - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expm_semigroup_property() {
        // exp(A)·exp(A) = exp(2A) for any A.
        let a = Mat::from_rows(&[&[0.1, 0.3], &[-0.2, -0.5]]).unwrap();
        let e1 = expm(&a).unwrap();
        let e2 = expm(&a.scaled(2.0)).unwrap();
        assert!(e1.matmul(&e1).unwrap().approx_eq(&e2, 1e-12));
    }

    #[test]
    fn expm_inverse_is_exp_of_negative() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[-3.0, -0.4]]).unwrap();
        let e = expm(&a).unwrap();
        let einv = expm(&a.scaled(-1.0)).unwrap();
        assert!(e.matmul(&einv).unwrap().approx_eq(&Mat::identity(2), 1e-11));
    }

    #[test]
    fn expm_rejects_bad_input() {
        assert!(expm(&Mat::zeros(2, 3)).is_err());
        let mut a = Mat::identity(2);
        a[(0, 0)] = f64::INFINITY;
        assert!(expm(&a).is_err());
    }

    #[test]
    fn expm_empty() {
        let e = expm(&Mat::zeros(0, 0)).unwrap();
        assert_eq!(e.shape(), (0, 0));
    }
}
