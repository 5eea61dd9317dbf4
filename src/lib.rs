//! `eclipse-codesign` — a reproduction of *“A methodology for improving
//! software design lifecycle in embedded control systems”* (Ben Gaïd,
//! Kocik, Sorel, Hamouche — DATE 2008) as a Rust workspace.
//!
//! The paper links a hybrid control-design simulator (Scicos) with a
//! system-level distribution/scheduling CAD tool (SynDEx) so that the
//! timing of a distributed implementation — sampling latencies, actuation
//! latencies, conditioning jitter — can be *simulated against the
//! continuous plant* early in the design cycle, and the control law
//! calibrated before any code runs on a target.
//!
//! This facade crate re-exports the workspace layers:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`linalg`] | `ecl-linalg` | dense kernels: LU, `expm`, Lyapunov, Riccati |
//! | [`sim`] | `ecl-sim` | hybrid continuous/discrete-event kernel (Scicos substrate) |
//! | [`blocks`] | `ecl-blocks` | Scicos block vocabulary incl. `Synchronization` (§3.2.3) |
//! | [`control`] | `ecl-control` | plants, discretization, LQR/PID, metrics |
//! | [`aaa`] | `ecl-aaa` | SynDEx substrate: graphs, adequation, schedules, codegen |
//! | [`core`] | `ecl-core` | the methodology: translation, graph of delays, latency, lifecycle |
//! | [`exec`] | `ecl-exec` | concurrent virtual executive, cross-validated against the model |
//! | [`telemetry`] | `ecl-telemetry` | spans, histograms, Chrome-trace/Gantt exporters |
//!
//! # Quickstart
//!
//! ```
//! use eclipse_codesign::control::{c2d_zoh, dlqr, plants};
//! use eclipse_codesign::core::cosim::{self, DisturbanceKind, LoopSpec};
//! use eclipse_codesign::linalg::Mat;
//! use eclipse_codesign::telemetry::Collector;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let plant = plants::dc_motor();
//! let dss = c2d_zoh(&plant.sys, plant.ts)?;
//! let lqr = dlqr(&dss, &Mat::identity(2), &Mat::diag(&[0.1]))?;
//! let spec = LoopSpec {
//!     plant: plant.sys.clone(),
//!     n_controls: 1,
//!     x0: vec![1.0, 0.0],
//!     feedback: lqr.k,
//!     input_memory: None,
//!     ts: plant.ts,
//!     horizon: 2.0,
//!     q_weight: 1.0,
//!     r_weight: 0.1,
//!     disturbance: DisturbanceKind::None,
//! };
//! let ideal = cosim::run_ideal(&spec)?;
//! println!("ideal quadratic cost: {:.4}", ideal.cost);
//! // The same run as the two stages of the one co-simulation path:
//! let wired = spec.wire(cosim::Activation::Ideal)?;
//! let again = wired.run(&mut Collector::noop(), "")?;
//! assert_eq!(again.cost.to_bits(), ideal.cost.to_bits());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for the full lifecycle (distributed suspension over a
//! CAN-like bus, conditioning jitter, executive generation) and
//! `EXPERIMENTS.md` for the figure/experiment reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ecl_aaa as aaa;
pub use ecl_blocks as blocks;
pub use ecl_control as control;
pub use ecl_core as core;
pub use ecl_exec as exec;
pub use ecl_linalg as linalg;
pub use ecl_sim as sim;
pub use ecl_telemetry as telemetry;
