//! E16-SCALE — the fleet at 10⁵ scenarios: allocation-free sim-kernel
//! hot loop, ideal-run memoization and batched work claiming.
//!
//! Runs a 100 000-scenario sweep of the standard DC-motor split loop
//! (light pipeline: no fault axes, no executive validation, no static
//! verification, no traces) with the fleet profiler on, and checks the
//! three claims that let the sweep reach this size:
//!
//! * **Ideal-run memoization** — the stroboscopic reference is pure in
//!   the loop spec and the sweep varies only its sampling period, so the
//!   `IdealRunCache` answers all but a handful of the 10⁵ lookups from
//!   memory. Asserted: one lookup per scenario, at most one miss per
//!   period scale, and a per-scenario `ideal co-simulation` profile mean
//!   at least 3× below the PR-6 baseline (which re-simulated the
//!   reference for every scenario).
//! * **Allocation-free hot loop** — the engine's
//!   [`ecl_sim::EngineStats::hot_allocs`] counter stays 0 across the
//!   sweep's co-simulation flavours, machine-checked here and greppable
//!   from `results/BENCH_exp16.json` by the CI gate.
//! * **Throughput** — the profiled 4-worker sweep clears 3× the PR-6
//!   baseline throughput (`results/PROFILE_exp15.json`: 256 scenarios in
//!   1.6196 s → 158 scenarios/s, full pipeline).
//!
//! Artifacts follow the E15 split:
//!
//! * **Deterministic** — `results/exp16_scale.txt`, a *digest* report
//!   (FNV-64 of the rendered summary, the JSON summary and the merged
//!   histogram, plus the order-invariant cache/memo counters). The full
//!   100k-row report would be megabytes; its digests pin the same bytes.
//!   CI diffs this file across `ECL_FLEET_WORKERS` counts; without the
//!   variable the binary runs 1 and 4 workers in-process and asserts
//!   identity directly on the underlying artifacts.
//! * **Sidecar** — `results/PROFILE_exp16.json` (per-phase wall-clock
//!   attribution) and `results/BENCH_exp16.json` (throughput and memo
//!   evidence vs the PR-6 baseline, with the workers, available cores,
//!   build profile and git rev it was measured with).

use ecl_aaa::{adequation, AdequationOptions, Fnv1a, TimeNs};
use ecl_bench::fleet::{run_sweep, workers_from_env, SweepConfig, SweepOutput};
use ecl_bench::{dc_motor_loop, machine_json, split_scenario, write_result, SplitScenario};
use ecl_core::cosim::{self, LoopSpec};
use ecl_telemetry::{Phase, ProfileReport};

/// Scenario count: two orders of magnitude past E11-MC's 64.
const SCENARIOS: usize = 100_000;

/// PR-6 baseline throughput from `results/PROFILE_exp15.json`: 256
/// scenarios, 4 workers, wall 1.619611298 s.
const BASELINE_SCENARIOS_PER_S: f64 = 256.0 / 1.619_611_298;

/// PR-6 baseline mean of the `ideal co-simulation` phase (same profile):
/// every scenario re-simulated the stroboscopic reference from scratch.
const BASELINE_IDEAL_MEAN_NS: f64 = 2_272_412.9;

/// Required improvement factor for both throughput claims.
const SPEEDUP_FLOOR: f64 = 3.0;

fn config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: SCENARIOS,
        workers,
        trace_scenarios: 0,
        profile: true,
        ..SweepConfig::default()
    }
}

fn base() -> Result<SplitScenario, Box<dyn std::error::Error>> {
    Ok(split_scenario(
        2,
        1,
        TimeNs::from_micros(200),
        TimeNs::from_micros(50),
        TimeNs::from_micros(500),
    )?)
}

/// The E15 loop at a shorter horizon: one sampling period per scenario,
/// so 10⁵ co-simulations fit in minutes while still exercising the full
/// sample → compute → actuate event cascade.
fn spec() -> Result<LoopSpec, Box<dyn std::error::Error>> {
    Ok(dc_motor_loop(0.05)?)
}

fn sweep(workers: usize) -> Result<SweepOutput, Box<dyn std::error::Error>> {
    Ok(run_sweep(&spec()?, &base()?, &config(workers))?)
}

fn fnv64(bytes: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes.as_bytes());
    h.finish()
}

/// The deterministic digest report (diffed across worker counts by CI).
fn digest_report(out: &SweepOutput) -> String {
    format!(
        "E16-SCALE deterministic digest (diffed across ECL_FLEET_WORKERS)\n\
         scenarios: {}\n\
         summary_render_fnv64: {:#018x}\n\
         summary_json_fnv64: {:#018x}\n\
         actuation_hist_fnv64: {:#018x}\n\
         robustness_margin: {:.6}\n\
         schedule_cache: hits={} misses={}\n\
         ideal_memo: hits={} misses={}\n",
        out.summary.scenarios.len(),
        fnv64(&out.summary.render()),
        fnv64(&out.summary.to_json()),
        fnv64(&format!("{:?}", out.actuation_hist)),
        out.summary.robustness_margin(),
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.ideal_hits,
        out.ideal_misses,
    )
}

/// Mean wall time of one profile phase, in nanoseconds.
fn phase_mean_ns(profile: &ProfileReport, phase: Phase) -> f64 {
    profile
        .phases
        .iter()
        .find(|s| s.phase == phase)
        .map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64)
}

/// Runs every co-simulation flavour the sweep uses on this loop and
/// returns the summed `hot_allocs` counter — the machine-checkable
/// evidence that the kernel's event hot path allocates nothing once its
/// scratch buffers are warm.
fn hot_allocs_probe() -> Result<u64, Box<dyn std::error::Error>> {
    let spec = spec()?;
    let base = base()?;
    let mut total = 0;
    for scale in config(1).period_scales {
        let mut scaled = spec.clone();
        scaled.ts = spec.ts * scale;
        total += cosim::run_ideal(&scaled)?.stats.hot_allocs;
    }
    let schedule = adequation(
        &base.alg,
        &base.arch,
        &base.db,
        AdequationOptions::default(),
    )?;
    let run = cosim::run_scheduled(&spec, &base.alg, &base.io, &schedule, &base.arch)?;
    total += run.stats.hot_allocs;
    Ok(total)
}

/// Wall-clock evidence sidecar (never diffed across worker counts).
fn bench_json(out: &SweepOutput, profile: &ProfileReport, hot_allocs: u64) -> String {
    let wall_s = profile.wall_ns as f64 / 1e9;
    let throughput = out.summary.scenarios.len() as f64 / wall_s;
    let throughput_x = throughput / BASELINE_SCENARIOS_PER_S;
    let ideal_mean_ns = phase_mean_ns(profile, Phase::IdealSim);
    let ideal_speedup_x = BASELINE_IDEAL_MEAN_NS / ideal_mean_ns.max(1.0);
    format!(
        "{{\"experiment\":\"exp16_scale\",\
         \"scenarios\":{},\
         \"workers\":{},{},\
         \"wall_ns\":{},\
         \"scenarios_per_s\":{throughput:.1},\
         \"baseline_scenarios_per_s\":{BASELINE_SCENARIOS_PER_S:.1},\
         \"throughput_x\":{throughput_x:.2},\
         \"throughput_ge_3x\":{},\
         \"ideal_mean_ns\":{ideal_mean_ns:.1},\
         \"baseline_ideal_mean_ns\":{BASELINE_IDEAL_MEAN_NS:.1},\
         \"ideal_speedup_x\":{ideal_speedup_x:.1},\
         \"ideal_speedup_ge_3x\":{},\
         \"ideal_hits\":{},\"ideal_misses\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\
         \"hot_allocs\":{hot_allocs},\
         \"hot_allocs_zero\":{}}}\n",
        out.summary.scenarios.len(),
        profile.workers.len(),
        machine_json(),
        profile.wall_ns,
        throughput_x >= SPEEDUP_FLOOR,
        ideal_speedup_x >= SPEEDUP_FLOOR,
        out.ideal_hits,
        out.ideal_misses,
        out.summary.cache_hits,
        out.summary.cache_misses,
        hot_allocs == 0,
    )
}

/// Worker-count-independent assertions.
fn check(out: &SweepOutput) {
    assert_eq!(out.summary.scenarios.len(), SCENARIOS);
    assert_eq!(
        out.ideal_hits + out.ideal_misses,
        SCENARIOS as u64,
        "one ideal-memo lookup per scenario"
    );
    assert!(
        out.ideal_misses <= config(1).period_scales.len() as u64,
        "at most one ideal run per period scale, got {} misses",
        out.ideal_misses
    );
    let profile = out.profile.as_ref().expect("profiling was requested");
    let fraction = profile.attributed_fraction();
    assert!(
        fraction >= 0.95,
        "only {:.2}% of busy time attributed to named phases",
        fraction * 100.0
    );
    // The memo turns the per-scenario reference simulation into a table
    // lookup; its profile mean must collapse vs the PR-6 baseline.
    let ideal_mean_ns = phase_mean_ns(profile, Phase::IdealSim);
    assert!(
        BASELINE_IDEAL_MEAN_NS / ideal_mean_ns.max(1.0) >= SPEEDUP_FLOOR,
        "ideal co-simulation mean {ideal_mean_ns:.0} ns is not >= 3x \
         below the {BASELINE_IDEAL_MEAN_NS:.0} ns baseline"
    );
}

/// Throughput assertion, made only for the 4-worker profiled sweep (the
/// configuration the PR-6 baseline was measured with).
fn check_throughput(out: &SweepOutput) {
    let profile = out.profile.as_ref().expect("profiling was requested");
    let throughput = out.summary.scenarios.len() as f64 / (profile.wall_ns as f64 / 1e9);
    assert!(
        throughput >= SPEEDUP_FLOOR * BASELINE_SCENARIOS_PER_S,
        "4-worker sweep at {throughput:.0} scenarios/s is not >= 3x the \
         {BASELINE_SCENARIOS_PER_S:.0}/s baseline"
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E16-SCALE — 100k-scenario fleet sweep (memoized ideal runs, alloc-free kernel)\n");

    let hot_allocs = hot_allocs_probe()?;
    assert_eq!(
        hot_allocs, 0,
        "the event hot path allocated {hot_allocs} times"
    );
    println!("hot-path allocation counter across all co-simulation flavours: 0");

    let out = match workers_from_env()? {
        Some(workers) => {
            println!("sweeping {SCENARIOS} scenarios on {workers} worker(s) (ECL_FLEET_WORKERS)");
            let out = sweep(workers)?;
            check(&out);
            if workers == 4 {
                check_throughput(&out);
            }
            out
        }
        None => {
            let serial = sweep(1)?;
            check(&serial);
            let parallel = sweep(4)?;
            check(&parallel);
            check_throughput(&parallel);
            assert!(
                serial.summary == parallel.summary
                    && serial.summary.render() == parallel.summary.render()
                    && serial.summary.to_json() == parallel.summary.to_json()
                    && serial.actuation_hist == parallel.actuation_hist
                    && serial.traces == parallel.traces,
                "1-worker and 4-worker sweeps must produce identical \
                 deterministic artifacts"
            );
            println!("1-worker vs 4-worker sweep: deterministic artifacts byte-identical");
            // Archive the parallel run: its sidecar carries the profile
            // the throughput claim was checked against.
            parallel
        }
    };

    let profile = out.profile.as_ref().expect("profiling was requested");
    let wall_s = profile.wall_ns as f64 / 1e9;
    println!(
        "{} scenarios in {wall_s:.1} s on {} worker(s): {:.0} scenarios/s \
         ({:.1}x the PR-6 baseline)",
        out.summary.scenarios.len(),
        profile.workers.len(),
        out.summary.scenarios.len() as f64 / wall_s,
        out.summary.scenarios.len() as f64 / wall_s / BASELINE_SCENARIOS_PER_S,
    );
    println!(
        "ideal memo: {} hits / {} misses; ideal co-simulation mean {:.1} us \
         (baseline {:.0} us)",
        out.ideal_hits,
        out.ideal_misses,
        phase_mean_ns(profile, Phase::IdealSim) / 1e3,
        BASELINE_IDEAL_MEAN_NS / 1e3,
    );
    println!("{}", profile.render());

    let report_path = write_result("exp16_scale.txt", &digest_report(&out))?;
    let profile_path = write_result("PROFILE_exp16.json", &profile.to_json())?;
    let bench_path = write_result("BENCH_exp16.json", &bench_json(&out, profile, hot_allocs))?;
    println!(
        "wrote {}, {} and {}",
        report_path.display(),
        profile_path.display(),
        bench_path.display()
    );
    Ok(())
}
