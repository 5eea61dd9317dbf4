//! Dependency-free observability substrate for the co-design workspace.
//!
//! The DATE 2008 methodology is about making implementation-induced timing
//! visible *early*: sampling latency `Ls_j(k)` and actuation latency
//! `La_j(k)` are observability artifacts before they are control
//! artifacts. This crate provides the measurement substrate the rest of
//! the workspace threads through the lifecycle:
//!
//! - [`Collector`]/[`Sink`] — span-style phase timing (translate →
//!   adequation → delay-graph synthesis → co-simulation) over
//!   `std::time::Instant`, with a [`NoopSink`] whose emission paths
//!   compile to nothing (guarded by the `Sink::ENABLED` associated
//!   constant) and a [`RecordingSink`] that captures a deterministic,
//!   byte-renderable event stream for tests;
//! - [`Histogram`] — streaming fixed-bucket latency histograms with exact
//!   `min`/`max`/`count`/`mean` and clamped p50/p95/p99 in nanoseconds;
//! - [`trace`] — a Chrome trace-event-format writer (one JSON event per
//!   line) viewable in `chrome://tracing` or Perfetto, plus [`json`], a
//!   minimal parser used to validate emitted traces in tests;
//! - [`profile`] — the fleet profiler: per-worker, per-phase attribution
//!   of sweep wall time ([`WorkerProfile`] hot-path buffers merged
//!   index-ordered into a [`ProfileReport`] sidecar);
//! - [`DigestMemo`] — the one content-addressed memo table behind every
//!   memoized lifecycle stage (compute outside the lock, digest-derived
//!   hit/miss counters, seed/snapshot for the on-disk store).
//!
//! Everything sim-derived in an [`Event`] carries integer nanoseconds of
//! *simulated* time; wall-clock appears only in span events. Recording a
//! co-simulation therefore yields byte-identical streams across runs.
//!
//! # Examples
//!
//! ```
//! use ecl_telemetry::{Collector, Event, RecordingSink};
//!
//! let mut tel = Collector::new(RecordingSink::default());
//! let sum = tel.span("adequation", |tel| {
//!     tel.emit(|| Event::Instant {
//!         track: "sched".into(),
//!         name: "op done".into(),
//!         at_ns: 42,
//!     });
//!     1 + 1
//! });
//! assert_eq!(sum, 2);
//! let sink = tel.into_sink();
//! assert_eq!(sink.events().len(), 3); // begin, instant, end
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
mod collector;
mod counts;
mod event;
mod hist;
pub mod json;
mod memo;
pub mod profile;
pub mod trace;

pub use collector::Collector;
pub use counts::Counts;
pub use event::{Event, NoopSink, PrefixSink, RecordingSink, Sink};
pub use hist::{Histogram, Summary};
pub use memo::DigestMemo;
pub use profile::{Phase, ProfileReport, ProfileSpan, WorkerProfile};
