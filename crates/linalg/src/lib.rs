//! Dense linear algebra kernels for control-law synthesis.
//!
//! This crate implements, from scratch, the small-matrix numerical kernels
//! that the `eclipse-codesign` workspace needs to discretize continuous
//! plants and synthesize controllers:
//!
//! * [`Mat`] — a small dense row-major `f64` matrix with the usual algebra,
//! * [`lu::Lu`] — LU factorization with partial pivoting (solve / inverse /
//!   determinant),
//! * [`expm`] — the matrix exponential via scaling-and-squaring with a Padé
//!   approximant (the kernel behind zero-order-hold discretization), and
//!   [`expm_in`], the same kernel on slices over a reusable
//!   [`ExpmWorkspace`],
//! * [`solve_discrete_lyapunov`] and [`solve_dare`] — the fixed-point and
//!   structured-iteration solvers behind LQR synthesis.
//!
//! Matrices in embedded control loops are tiny (plant orders 2–8), so the
//! implementation favours clarity and numerical robustness over blocking or
//! SIMD; everything is `O(n^3)` textbook dense code with partial pivoting.
//!
//! # Examples
//!
//! ```
//! use ecl_linalg::Mat;
//!
//! # fn main() -> Result<(), ecl_linalg::LinalgError> {
//! let a = Mat::from_rows(&[&[0.0, 1.0], &[-2.0, -3.0]])?;
//! let eye = Mat::identity(2);
//! // exp(0) = I
//! let e0 = ecl_linalg::expm(&a.scaled(0.0))?;
//! assert!(e0.sub(&eye)?.norm_inf() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![allow(
    // `!(x > 0.0)` deliberately treats NaN as invalid; partial_cmp would
    // obscure that.
    clippy::neg_cmp_op_on_partial_ord,
    // Index loops mirror the textbook matrix formulas they implement.
    clippy::needless_range_loop
)]
#![warn(missing_docs)]

mod eig;
mod error;
mod expm;
pub mod lu;
mod mat;
mod riccati;
mod vecops;

pub use eig::{eigenvalues, spectral_radius, Eigenvalue};
pub use error::LinalgError;
pub use expm::{expm, expm_in, ExpmWorkspace};
pub use mat::Mat;
pub use riccati::{solve_dare, solve_discrete_lyapunov, DareOptions};
pub use vecops::{vec_add, vec_axpy, vec_dot, vec_norm_inf, vec_scale, vec_sub};
