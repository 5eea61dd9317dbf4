//! The DATE 2008 co-design methodology: early simulation of a distributed
//! implementation's impact on control performance.
//!
//! This crate is the paper's primary contribution, assembled from the
//! workspace substrates:
//!
//! 1. [`translate`] — turns a discrete control law (inputs, computation
//!    stages, outputs) into a SynDEx [`AlgorithmGraph`](ecl_aaa::AlgorithmGraph)
//!    (the ECLIPSE Scicos→SynDEx translator);
//! 2. `ecl-aaa`'s adequation produces the static distributed schedule;
//! 3. [`delays`] — synthesizes the **graph of delays** (paper §3.2): a
//!    Scicos event sub-graph of `EventDelay` / `EventSelect` /
//!    `Synchronization` blocks replaying the schedule's temporal behaviour,
//!    re-activating the Sample/Hold and controller blocks at the instants
//!    the real implementation would;
//! 4. [`latency`] — extracts the sampling latencies `Ls_j(k)` (eq. 1) and
//!    actuation latencies `La_j(k)` (eq. 2) from the co-simulation trace;
//! 5. [`cosim`] — the one co-simulation path: a loop spec is wired under
//!    an ideal (stroboscopic) or scheduled (graph-of-delays) activation,
//!    then run;
//! 6. [`lifecycle`] — the full design lifecycle: design → adequation →
//!    co-simulate → calibrate (delay-aware LQR redesign) → generate
//!    executives;
//! 7. [`xval`] — cross-validates the graph-of-delays prediction against
//!    the measured instants of the concurrent virtual executive
//!    (`ecl-exec`).
//!
//! # Examples
//!
//! ```
//! use ecl_core::cosim::{self, DisturbanceKind, LoopSpec};
//! use ecl_control::{c2d_zoh, dlqr, plants};
//! use ecl_linalg::Mat;
//!
//! # fn main() -> Result<(), ecl_core::CoreError> {
//! let plant = plants::dc_motor();
//! let dss = c2d_zoh(&plant.sys, plant.ts)?;
//! let lqr = dlqr(&dss, &Mat::identity(2), &Mat::diag(&[0.1]))?;
//! let spec = LoopSpec {
//!     plant: plant.sys.clone(),
//!     n_controls: 1,
//!     x0: vec![1.0, 0.0],
//!     feedback: lqr.k.clone(),
//!     input_memory: None,
//!     ts: plant.ts,
//!     horizon: 2.0,
//!     q_weight: 1.0,
//!     r_weight: 0.1,
//!     disturbance: DisturbanceKind::None,
//! };
//! let ideal = cosim::run_ideal(&spec)?;
//! assert!(ideal.cost.is_finite() && ideal.cost > 0.0);
//! // `run_ideal` is shorthand for the two stages of the one path:
//! let wired = spec.wire(cosim::Activation::Ideal)?;
//! let again = wired.run(&mut ecl_telemetry::Collector::noop(), "")?;
//! assert_eq!(again.cost.to_bits(), ideal.cost.to_bits());
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

pub mod cosim;
pub mod delays;
mod error;
pub mod faults;
pub mod interval;
pub mod latency;
pub mod lifecycle;
pub mod report;
pub mod translate;
pub mod xval;

pub use error::CoreError;
