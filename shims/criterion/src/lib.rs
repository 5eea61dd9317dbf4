//! Offline mini benchmark harness, API-compatible with the subset of
//! `criterion` this workspace uses.
//!
//! The build environment has no crates.io access, so the real `criterion`
//! cannot be compiled. This shim keeps `benches/*.rs` source-compatible
//! (`Criterion`, `benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `Bencher::iter_batched`, `BatchSize`, `criterion_group!`,
//! `criterion_main!`) and measures with
//! `std::time::Instant`: a short warmup, an iteration count calibrated to
//! the target measurement time, then a handful of samples reported as
//! min/median/mean per iteration.
//!
//! Environment knobs:
//!
//! - `ECL_BENCH_MS` — per-benchmark measurement budget in milliseconds
//!   (default 100; set small, e.g. `1`, for smoke runs).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of the standard optimization barrier, matching
/// `criterion::black_box`.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// How many inputs `iter_batched` sets up at once (accepted for API
/// compatibility; see [`Bencher::iter_batched`]).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs cheap to hold many of at once.
    SmallInput,
    /// Inputs expensive to hold many of at once.
    LargeInput,
    /// One input per timed run.
    PerIteration,
}

/// A benchmark identifier: a function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{parameter}"),
        }
    }

    /// Just the parameter, for groups whose name already identifies the
    /// benchmark.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Passed to benchmark closures; `iter` runs and times the workload.
pub struct Bencher {
    budget: Duration,
    /// Mean ns/iter from the most recent `iter` call.
    mean_ns: f64,
    min_ns: f64,
    median_ns: f64,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Bencher {
            budget,
            mean_ns: 0.0,
            min_ns: 0.0,
            median_ns: 0.0,
        }
    }

    /// Times repeated runs of `routine`.
    ///
    /// Warmup runs for a quarter of the budget, the iteration count is
    /// calibrated from it, and the remaining budget is split into up to 8
    /// timed samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.measure(|n| {
            let start = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            start.elapsed()
        });
    }

    /// Like [`iter`](Bencher::iter), but each run consumes a fresh input
    /// built by `setup`, outside the timed region. The shim prepares one
    /// timed batch of inputs at a time whatever the [`BatchSize`].
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.measure(|n| {
            let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            start.elapsed()
        });
    }

    /// The calibration and sampling behind [`iter`](Bencher::iter):
    /// `run(n)` performs `n` iterations and returns their timed share.
    fn measure(&mut self, mut run: impl FnMut(u64) -> Duration) {
        let warmup_end = Instant::now() + self.budget / 4;
        let mut warm_iters: u64 = 0;
        let mut warm_elapsed = Duration::ZERO;
        loop {
            warm_elapsed += run(1);
            warm_iters += 1;
            if Instant::now() >= warmup_end {
                break;
            }
        }
        let est_ns = (warm_elapsed.as_nanos() as f64 / warm_iters as f64).max(1.0);
        let sample_budget_ns = (self.budget.as_nanos() as f64 * 0.75 / 8.0).max(1.0);
        let iters_per_sample = ((sample_budget_ns / est_ns) as u64).max(1);

        let mut samples = Vec::with_capacity(8);
        for _ in 0..8 {
            let per_iter = run(iters_per_sample).as_nanos() as f64 / iters_per_sample as f64;
            samples.push(per_iter);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        self.min_ns = samples[0];
        self.median_ns = samples[samples.len() / 2];
        self.mean_ns = samples.iter().sum::<f64>() / samples.len() as f64;
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// The harness: collects and prints one result line per benchmark.
pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let ms = std::env::var("ECL_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(100)
            .max(1);
        Criterion {
            budget: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    fn run_one<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        println!(
            "{name:<40} time: [{} {} {}]",
            format_ns(b.min_ns),
            format_ns(b.median_ns),
            format_ns(b.mean_ns),
        );
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.run_one(name, f);
        self
    }

    /// Opens a named group; benchmark ids are prefixed with `group/`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs `f` with the given id and a reference to `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        self.criterion.run_one(&full, |b| f(b, input));
        self
    }

    /// Runs `f` under `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Display,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.criterion.run_one(&full, f);
        self
    }

    /// Ends the group (accepted for API compatibility; no-op).
    pub fn finish(self) {}
}

/// Declares a benchmark group function calling each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares `main` for a benchmark binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}
