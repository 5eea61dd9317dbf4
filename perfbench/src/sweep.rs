//! The three sweep workloads: bulk throughput through `run_sweep`, the
//! output checks, and the traced replay.

use std::time::{Duration, Instant};

use ecl_aaa::TimeNs;
use ecl_bench::fleet::{
    map_indexed_with, run_scenario, run_sweep, sweep_bound_ns, FaultAxes, SweepCaches, SweepConfig,
    SweepOutput, SWEEP_BUCKETS,
};
use ecl_bench::{dc_motor_loop, split_scenario, SplitScenario};
use ecl_core::cosim::LoopSpec;
use ecl_core::report::ScenarioOutcome;
use ecl_core::CoreError;
use ecl_telemetry::{Histogram, WorkerProfile};

use crate::replay::{self, Replay};
use crate::{stats, trace, Ctx, Metrics, Unstolen};

/// The deployment every workload sweeps: the standard DC-motor split
/// loop over a two-sensor, one-actuator bus architecture.
pub struct Deployment {
    /// The control loop.
    pub spec: LoopSpec,
    /// The split architecture.
    pub base: SplitScenario,
}

/// Builds the deployment — the set-up cost `setup_s` times.
pub fn deployment(horizon: f64) -> Result<Deployment, CoreError> {
    Ok(Deployment {
        spec: dc_motor_loop(horizon)?,
        base: split_scenario(
            2,
            1,
            TimeNs::from_micros(200),
            TimeNs::from_micros(50),
            TimeNs::from_micros(500),
        )?,
    })
}

/// Median wall time of `reps` deployment builds, s.
fn setup_round(horizon: f64, reps: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let d = deployment(horizon).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        drop(d);
    }
    Ok(stats::median(&times))
}

/// Deployment builds timed ahead of every bulk sweep.
const SETUP_ROUND: usize = 101;

/// Which sweep shape a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fault-free, scheduled and report memos on, pruning off.
    Memo,
    /// One zero and one non-zero rate per fault class, pruning and memos
    /// on.
    Faults,
    /// More WCET tables than scenarios, fault axes and static
    /// verification on. Executive validation runs in the traced replay
    /// only: the `ecl-exec` VM's thread rendezvous made throughput swing
    /// 3x with host load, which no bound could absorb.
    Cold,
}

/// Fixed sizes of one sweep workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Co-simulation horizon of the loop, s.
    pub horizon: f64,
    /// Scenarios per bulk sweep.
    pub bulk_n: usize,
    /// Scenarios of the unmemoized, unpruned reference prefix.
    pub prefix_n: usize,
    /// Scenarios of the traced replay.
    pub replay_n: usize,
}

impl Shape {
    /// The workload's fixed plan.
    pub fn plan(self) -> Plan {
        match self {
            Shape::Memo => Plan {
                horizon: 0.05,
                bulk_n: 131_072,
                prefix_n: 1024,
                replay_n: 65_536,
            },
            Shape::Faults => Plan {
                horizon: 0.05,
                bulk_n: 16_384,
                prefix_n: 512,
                replay_n: 8192,
            },
            Shape::Cold => Plan {
                horizon: 0.05,
                bulk_n: 1024,
                prefix_n: 64,
                replay_n: 512,
            },
        }
    }

    /// The sweep configuration over `count` scenarios.
    pub fn config(self, seed: u64, count: usize, workers: usize) -> SweepConfig {
        let base = SweepConfig {
            base_seed: seed,
            scenario_count: count,
            workers,
            memoize_scheduled: true,
            memoize_reports: true,
            ..SweepConfig::default()
        };
        match self {
            Shape::Memo => base,
            Shape::Faults => SweepConfig {
                faults: FaultAxes {
                    frame_loss_rates: vec![0.0, 0.25],
                    link_outage_rates: vec![0.0, 0.10],
                    proc_dropout_rates: vec![0.0, 0.05],
                    ..FaultAxes::default()
                },
                prune_static: true,
                ..base
            },
            Shape::Cold => SweepConfig {
                wcet_tables: 1 << 20,
                faults: FaultAxes {
                    frame_loss_rates: vec![0.0, 0.10, 0.30],
                    link_outage_rates: vec![0.0, 0.15],
                    proc_dropout_rates: vec![0.0, 0.01],
                    ..FaultAxes::default()
                },
                verify_static: true,
                ..base
            },
        }
    }
}

/// Checks `rows` against unmemoized, unpruned reference runs of the same
/// indices: simulated rows must match exactly, and a pruned row must
/// agree with its unpruned overruns (none for `pruned:safe`, some for
/// `pruned:unsafe`).
fn check_rows(
    d: &Deployment,
    config: &SweepConfig,
    rows: &[ScenarioOutcome],
    workers: usize,
) -> Result<(), String> {
    let reference = SweepConfig {
        memoize_scheduled: false,
        memoize_reports: false,
        prune_static: false,
        ..config.clone()
    };
    let caches = SweepCaches::new();
    let bound = sweep_bound_ns(&d.spec, config);
    let epoch = Instant::now();
    let (truth, _) = map_indexed_with(
        rows.len(),
        workers,
        |lane| {
            (
                WorkerProfile::new(lane, epoch, false),
                Histogram::new(bound, SWEEP_BUCKETS),
            )
        },
        |i, state: &mut (WorkerProfile, Histogram)| {
            let (wp, scratch) = state;
            run_scenario(
                &d.spec,
                &d.base,
                &reference,
                &caches,
                rows[i].index,
                wp,
                scratch,
            )
            .map(|r| r.outcome)
        },
    );
    for (row, g) in rows.iter().zip(truth) {
        let g = g.map_err(|e| e.to_string())?;
        let ok = if row.label.ends_with(" pruned:safe") {
            g.overruns == 0
        } else if row.label.ends_with(" pruned:unsafe") {
            g.overruns > 0
        } else {
            *row == g
        };
        if !ok {
            return Err(format!(
                "scenario {} disagrees with its unmemoized, unpruned reference",
                row.index
            ));
        }
    }
    Ok(())
}

/// Bulk sweeps back to back until `budget` has passed (at least
/// `min_reps`): every repetition must reproduce the first one's summary.
/// `before` runs ahead of each repetition, outside its timing.
fn bulk(
    ctx: &Ctx,
    d: &Deployment,
    config: &SweepConfig,
    budget: Duration,
    min_reps: usize,
    mut before: impl FnMut() -> Result<(), String>,
) -> Result<(SweepOutput, Vec<f64>), String> {
    let start = Instant::now();
    let mut first: Option<SweepOutput> = None;
    let mut rates = Vec::new();
    while rates.len() < min_reps || start.elapsed() < budget {
        before()?;
        ctx.begin(config.scenario_count);
        let t = Unstolen::start();
        let out = run_sweep(&d.spec, &d.base, config);
        let dt = t.seconds();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                ctx.count(config.scenario_count, config.scenario_count);
                return Err(format!("sweep failed: {e}"));
            }
        };
        ctx.count(config.scenario_count, 0);
        rates.push(config.scenario_count as f64 / dt);
        match &first {
            None => first = Some(out),
            Some(f) => {
                if f.summary != out.summary || f.actuation_hist != out.actuation_hist {
                    ctx.count(0, config.scenario_count);
                    return Err("a repeated bulk sweep changed its summary".into());
                }
            }
        }
    }
    Ok((first.expect("at least one sweep"), rates))
}

/// Runs a sweep workload untraced and fills the end-to-end metrics.
pub fn run(ctx: &Ctx, shape: Shape, m: &mut Metrics) -> Result<(), String> {
    let plan = shape.plan();
    let d = deployment(plan.horizon).map_err(|e| e.to_string())?;
    let config = shape.config(ctx.seed, plan.bulk_n, ctx.workers);
    let budget = Duration::from_secs_f64(ctx.seconds);
    // Set-up is timed in rounds of builds ahead of every bulk sweep.
    // Within a run, whole rounds are either fast (33 us a build) or slow
    // (55 us) with the host's state, in shares that differ from run to
    // run, so a median over every build jumps between the two. The mean
    // of the round medians moves with the share instead.
    let mut rounds = Vec::new();
    let (first, rates) = bulk(ctx, &d, &config, budget, 5, || {
        rounds.push(setup_round(plan.horizon, SETUP_ROUND)?);
        Ok(())
    })?;
    let setup_s = stats::mean(&rounds);
    let rss = crate::peak_rss_mb();

    // Output check, outside the timed region.
    check_rows(
        &d,
        &config,
        &first.summary.scenarios[..plan.prefix_n],
        ctx.workers,
    )?;
    ctx.note(format!(
        "bulk: {} sweeps of {} scenarios, scen/s {:?}; {} rows match unmemoized runs",
        rates.len(),
        plan.bulk_n,
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        plan.prefix_n
    ));
    m.set("scenarios_per_s", stats::median(&rates), "1/s");
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", rss, "MB");
    Ok(())
}

/// Fills the layer metrics a replay yields.
pub fn replay_metrics(r: &Replay, caches: &SweepCaches, m: &mut Metrics) {
    let agg = trace::aggregate(r.lanes.iter().map(|l| &l.rec).chain([&r.fold]));
    let get = |name: &str| agg.get(name).copied().unwrap_or_default();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let workers = r.lanes.len() as f64;
    let pool_s = r.pool_wall_ns as f64 / 1e9;
    let scen = get("fleet.scenario");
    let busy_ns: u64 = scen.total_ns;
    m.set("fleet.derive_us", get("fleet.derive").mean_us(), "us");
    m.set(
        "fleet.accumulate_us",
        get("fleet.accumulate").mean_us(),
        "us",
    );
    m.set("fleet.finish_ms", get("fleet.finish").mean_us() / 1e3, "ms");
    m.set(
        "fleet.pool_util",
        busy_ns as f64 / 1e9 / (workers * pool_s),
        "ratio",
    );
    m.set(
        "fleet.pool_idle_ms",
        (workers * pool_s * 1e3 - busy_ns as f64 / 1e6).max(0.0),
        "ms",
    );
    m.set(
        "fleet.unattributed_frac",
        scen.self_ns as f64 / busy_ns.max(1) as f64,
        "ratio",
    );
    m.set(
        "aaa.schedule_lookup_us",
        get("aaa.schedule_hit").mean_us(),
        "us",
    );
    m.set(
        "aaa.schedule_hit_ratio",
        ratio(caches.schedule.hits(), caches.schedule.misses()),
        "ratio",
    );
    m.set(
        "aaa.adequation_ms",
        get("aaa.adequation").mean_us() / 1e3,
        "ms",
    );
    let envelopes: u64 = r.lanes.iter().map(|l| l.envelopes).sum();
    let conclusive: u64 = r.lanes.iter().map(|l| l.conclusive).sum();
    m.set("verify.envelope_us", get("verify.envelope").mean_us(), "us");
    m.set(
        "verify.envelope_conclusive_ratio",
        conclusive as f64 / envelopes.max(1) as f64,
        "ratio",
    );
    m.set("verify.static_us", get("verify.static").mean_us(), "us");
    m.set(
        "cosim.ideal_lookup_us",
        get("cosim.ideal_hit").mean_us(),
        "us",
    );
    m.set(
        "cosim.scheduled_lookup_us",
        get("cosim.scheduled_hit").mean_us(),
        "us",
    );
    m.set(
        "cosim.ideal_hit_ratio",
        ratio(caches.ideal.hits(), caches.ideal.misses()),
        "ratio",
    );
    m.set(
        "cosim.scheduled_hit_ratio",
        ratio(caches.scheduled.hits(), caches.scheduled.misses()),
        "ratio",
    );
    m.set(
        "cosim.races",
        (caches.schedule.races()
            + caches.ideal.races()
            + caches.scheduled.races()
            + caches.reports.races()) as f64,
        "count",
    );
    m.set(
        "cosim.run_ms",
        get("cosim.scheduled_run").mean_us() / 1e3,
        "ms",
    );
    m.set(
        "cosim.memo_entries",
        (caches.schedule.len() + caches.ideal.len() + caches.scheduled.len() + caches.reports.len())
            as f64,
        "count",
    );
    m.set("faults.plan_us", get("faults.plan").mean_us(), "us");
    m.set("report.latency_us", get("report.latency").mean_us(), "us");
    m.set(
        "report.hit_ratio",
        ratio(caches.reports.hits(), caches.reports.misses()),
        "ratio",
    );
    m.set(
        "report.degradation_us",
        get("report.degradation").mean_us(),
        "us",
    );
    let runs: u64 = r.lanes.iter().map(|l| l.sim_runs).sum();
    let events: u64 = r.lanes.iter().map(|l| l.sim_events).sum();
    m.set(
        "sim.events_per_run",
        events as f64 / runs.max(1) as f64,
        "count",
    );
    m.set(
        "sim.hot_allocs",
        r.lanes.iter().map(|l| l.hot_allocs).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "exec.vm_ms",
        (get("exec.codegen").total_ns + get("exec.vm").total_ns) as f64
            / get("exec.vm").count.max(1) as f64
            / 1e6,
        "ms",
    );
    m.set("xval.validate_us", get("xval.validate").mean_us(), "us");
}

/// Runs a sweep workload traced: untraced and traced sweeps alternate,
/// and the summaries must be byte-identical.
pub fn run_traced(ctx: &Ctx, shape: Shape, m: &mut Metrics) -> Result<(), String> {
    let plan = shape.plan();
    let d = deployment(plan.horizon).map_err(|e| e.to_string())?;
    let config = SweepConfig {
        validate_executive: shape == Shape::Cold,
        ..shape.config(ctx.seed, plan.replay_n, ctx.workers)
    };
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last: Option<(Replay, SweepCaches)> = None;
    for _ in 0..2 {
        ctx.begin(2 * plan.replay_n);
        let t = Instant::now();
        let out = run_sweep(&d.spec, &d.base, &config).map_err(|e| e.to_string())?;
        plain.push(t.elapsed().as_secs_f64());
        let caches = SweepCaches::new();
        let r =
            replay::replay_sweep(&d.spec, &d.base, &config, &caches).map_err(|e| e.to_string())?;
        traced.push(r.wall_ns as f64 / 1e9);
        ctx.count(2 * plan.replay_n, 0);
        if r.summary.render() != out.summary.render()
            || r.summary.to_json() != out.summary.to_json()
            || r.hist != out.actuation_hist
        {
            return Err("the traced replay's summary differs from run_sweep's".into());
        }
        last = Some((r, caches));
    }
    let (r, caches) = last.expect("two replays");
    replay_metrics(&r, &caches, m);
    if m.get("sim.hot_allocs") != Some(0.0) {
        return Err("the sim hot loop allocated during the replay".into());
    }
    m.set(
        "trace.overhead_frac",
        stats::median(&traced) / stats::median(&plain) - 1.0,
        "ratio",
    );
    let path = ctx
        .out_dir
        .join(format!("spans_{}_{}.tsv", ctx.workload, ctx.seed));
    trace::write_tsv(&path, r.lanes.iter().map(|l| &l.rec).chain([&r.fold]))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    // Layers a sweep workload never enters: no request generator,
    // daemon, wire or store runs, so their figures read 0.
    for (name, unit) in [
        ("p50_ms.low", "ms"),
        ("p99_ms.low", "ms"),
        ("p50_ms.high", "ms"),
        ("p99_ms.high", "ms"),
        ("max_rate_rps", "1/s"),
        ("gen.lag_ms", "ms"),
        ("serve.ack_ms", "ms"),
        ("serve.admission_us", "us"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.run_ms", "ms"),
        ("serve.backlog_max", "count"),
        ("serve.memo_hit_ratio", "ratio"),
        ("wire.encode_us", "us"),
        ("wire.decode_us", "us"),
        ("wire.report_bytes", "bytes"),
        ("store.persist_ms", "ms"),
        ("store.rewrites_per_job", "count"),
        ("store.files", "count"),
        ("store.load_ms", "ms"),
    ] {
        m.set(name, 0.0, unit);
    }
    Ok(())
}
