//! The repository benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_memo|sweep_faults|sweep_cold|serve_open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line
//! carries every end-to-end metric of `BENCHMARK.json`; with
//! `--trace 1` every per-layer metric. The line before it is the run
//! header (cores, workers, build profile, git rev, rustc, seed, size).
//! Spans of traced runs go to `.bench_out/`. Any failed output check,
//! and a run that outlives its watchdog, exits non-zero.

mod openloop;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock budget of one run, after which the watchdog fails it.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Run context shared by every workload.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Fleet pool workers (available cores).
    pub workers: usize,
    /// Where traced runs write their spans.
    pub out_dir: PathBuf,
    /// Where workloads keep temporary files.
    pub tmp_dir: PathBuf,
    attempted: Arc<AtomicUsize>,
    failed: Arc<AtomicUsize>,
    in_flight: Arc<AtomicUsize>,
}

impl Ctx {
    /// Marks `n` operations as started.
    pub fn begin(&self, n: usize) {
        self.in_flight.fetch_add(n, Ordering::SeqCst);
    }

    /// Records `n` finished operations of which `failed` failed, closing
    /// as many started ones as are open.
    pub fn count(&self, n: usize, failed: usize) {
        let _ = self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(n))
            });
        self.attempted.fetch_add(n, Ordering::SeqCst);
        self.failed.fetch_add(failed, Ordering::SeqCst);
    }

    /// A diagnostic line on stderr.
    pub fn note(&self, msg: String) {
        eprintln!("[{}] {msg}", self.workload);
    }
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks of all CPUs from `/proc/stat`: `(steal, total)`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// A stopwatch for wall time the hypervisor did not steal.
///
/// On a shared virtual machine the host can take the vCPUs away for
/// minutes at a time (steal reached 28% of all CPU time on the 2-vCPU VM
/// this was built on, and sweep throughput fell 40% with it). The elapsed
/// wall time is scaled by the share of CPU time that was not stolen
/// meanwhile, so a repetition measures the program, not its neighbours.
pub struct Unstolen {
    start: std::time::Instant,
    ticks: (u64, u64),
}

impl Unstolen {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        Unstolen {
            start: std::time::Instant::now(),
            ticks: cpu_ticks(),
        }
    }

    /// Unstolen seconds since [`start`](Self::start).
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * self.kept()
    }

    /// The share of CPU time since [`start`](Self::start) that was not
    /// stolen (at least 0.1).
    pub fn kept(&self) -> f64 {
        let (steal, total) = cpu_ticks();
        let stolen = steal.saturating_sub(self.ticks.0) as f64
            / total.saturating_sub(self.ticks.1).max(1) as f64;
        1.0 - stolen.clamp(0.0, 0.9)
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, m: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        m.to_json()
    )
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run header: machine, build and input.
fn header(ctx: &Ctx, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"header\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {trace}, \
         \"available_cores\": {cores}, \"pool_workers\": {}, \"build_profile\": \"{profile}\", \
         \"git_rev\": {}, \"rustc\": {}, \"run_size\": {}}}}}",
        json_str(&ctx.workload),
        ctx.seed,
        ctx.seconds,
        ctx.workers,
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&run_size(&ctx.workload)),
    )
}

/// The workload's fixed sizes, for the header.
fn run_size(workload: &str) -> String {
    match workload {
        "serve_open" => serve::describe(),
        w => match shape_of(w) {
            Some(s) => format!("{:?}", s.plan()),
            None => "unknown".into(),
        },
    }
}

fn shape_of(workload: &str) -> Option<sweep::Shape> {
    match workload {
        "sweep_memo" => Some(sweep::Shape::Memo),
        "sweep_faults" => Some(sweep::Shape::Faults),
        "sweep_cold" => Some(sweep::Shape::Cold),
        _ => None,
    }
}

/// A metric name as `BENCHMARK.json` allows it.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// The metric names `BENCHMARK.json` declares under `key`.
pub fn declared(benchmark: &str, key: &str) -> Result<Vec<String>, String> {
    let doc = ecl_telemetry::json::parse(benchmark)?;
    let list = doc
        .get(key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("a {key} entry has no name"))
        })
        .collect()
}

/// Every declared name is valid and each is emitted, and nothing else is.
fn check_emitted(m: &Metrics, trace: bool) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let names = declared(&text, if trace { "per_layer" } else { "end_to_end" })?;
    if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
        return Err(format!("metric name {bad:?} is not [A-Za-z0-9_.-]+"));
    }
    let missing: Vec<&String> = names.iter().filter(|n| m.get(n).is_none()).collect();
    let extra: Vec<&String> = m.0.keys().filter(|k| !names.contains(k)).collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "emitted metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    if let Some((k, _)) = m.0.iter().find(|(_, (v, _))| !v.is_finite()) {
        return Err(format!("metric {k} is not finite"));
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if shape_of(&args.workload).is_none() && args.workload != "serve_open" {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        workers,
        out_dir: PathBuf::from(".bench_out"),
        tmp_dir: PathBuf::from(".bench_tmp").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        )),
        attempted: Arc::new(AtomicUsize::new(0)),
        failed: Arc::new(AtomicUsize::new(0)),
        in_flight: Arc::new(AtomicUsize::new(0)),
    };
    println!("{}", header(&ctx, args.trace));

    // The watchdog: a stalled run counts every operation still in
    // flight as failed and exits non-zero instead of hanging.
    {
        let (attempted, failed, in_flight) = (
            Arc::clone(&ctx.attempted),
            Arc::clone(&ctx.failed),
            Arc::clone(&ctx.in_flight),
        );
        let tmp = ctx.tmp_dir.clone();
        std::thread::spawn(move || {
            std::thread::sleep(WATCHDOG);
            let open = in_flight.load(Ordering::SeqCst).max(1);
            let a = attempted.load(Ordering::SeqCst) + open;
            let f = failed.load(Ordering::SeqCst) + open;
            eprintln!(
                "perfbench: watchdog fired after {WATCHDOG:?}; {open} operation(s) in flight"
            );
            println!("{}", result_line(false, a, f, &Metrics::default()));
            let _ = std::fs::remove_dir_all(tmp);
            std::process::exit(3);
        });
    }

    let mut m = Metrics::default();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("serve_open", false) => serve::run(&ctx, &mut m),
        ("serve_open", true) => serve::run_traced(&ctx, &mut m),
        (w, false) => sweep::run(&ctx, shape_of(w).expect("checked"), &mut m),
        (w, true) => sweep::run_traced(&ctx, shape_of(w).expect("checked"), &mut m),
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp_dir);
    if let Some(parent) = ctx.tmp_dir.parent() {
        // Only succeeds once no other run keeps files there.
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = outcome.and_then(|()| check_emitted(&m, args.trace));
    let attempted = ctx.attempted.load(Ordering::SeqCst);
    let failed = ctx.failed.load(Ordering::SeqCst);
    match outcome {
        Ok(()) if failed == 0 => {
            println!("{}", result_line(true, attempted, failed, &m));
        }
        Ok(()) => {
            eprintln!("perfbench: {failed} of {attempted} operations failed");
            println!("{}", result_line(false, attempted, failed, &m));
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", result_line(false, attempted, failed.max(1), &m));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    #[test]
    fn declared_metric_names_are_valid_and_unique() {
        let text = benchmark_json();
        for key in ["end_to_end", "per_layer"] {
            let names = declared(&text, key).unwrap();
            assert!(!names.is_empty(), "{key} is empty");
            for n in &names {
                assert!(valid_name(n), "{key}: {n:?} is not [A-Za-z0-9_.-]+");
            }
            let mut sorted = names.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "{key} repeats a name");
        }
        let e2e = declared(&text, "end_to_end").unwrap();
        assert!(e2e.iter().any(|n| n == "setup_s"));
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("p99_ms.high"));
        assert!(valid_name("fleet.unattributed_frac"));
        assert!(!valid_name("p99 ms"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn emitted_set_must_equal_the_declared_set() {
        // Run from the repository root so BENCHMARK.json resolves.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
        let text = benchmark_json();
        let mut m = Metrics::default();
        for n in declared(&text, "end_to_end").unwrap() {
            m.set(&n, 1.0, "x");
        }
        assert!(check_emitted(&m, false).is_ok());
        m.set("undeclared", 1.0, "x");
        assert!(check_emitted(&m, false).is_err());
        let mut short = Metrics::default();
        short.set("setup_s", 1.0, "s");
        assert!(check_emitted(&short, false).is_err());
    }
}
