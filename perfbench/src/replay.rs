//! The traced sweep replay: `run_scenario`'s pipeline re-driven from the
//! benchmark through each layer's public functions, with a span around
//! every call. The replay's summary must be byte-identical to
//! `run_sweep`'s, which is what licenses reading layer costs off it.

use std::sync::Arc;
use std::time::Instant;

use ecl_aaa::{codegen, AdequationOptions, TimeNs};
use ecl_bench::fleet::{
    map_indexed_with, report_digest, sweep_bound_ns, ReportEntry, Scenario, ScenarioRecord,
    SweepAccumulator, SweepCaches, SweepConfig, SWEEP_BUCKETS,
};
use ecl_bench::SplitScenario;
use ecl_core::cosim::{self, LoopResult, LoopSpec};
use ecl_core::faults::{FaultFamily, FaultPlan};
use ecl_core::latency::LatencyReport;
use ecl_core::report::{DegradationSummary, ScenarioOutcome, SweepSummary};
use ecl_core::{xval, CoreError};
use ecl_exec::ExecOptions;
use ecl_telemetry::{Histogram, RecordingSink};
use ecl_verify::EnvelopeVerdict;

use crate::trace::Recorder;

/// Per-lane replay state: spans, the scratch histogram and the engine
/// counters of every co-simulation this lane actually ran.
pub struct Lane {
    /// The lane's spans.
    pub rec: Recorder,
    scratch: Histogram,
    /// Co-simulations run (memo misses), with their summed
    /// `events_delivered` and `hot_allocs`.
    pub sim_runs: u64,
    /// See [`Lane::sim_runs`].
    pub sim_events: u64,
    /// See [`Lane::sim_runs`].
    pub hot_allocs: u64,
    /// Envelope evaluations and conclusive verdicts.
    pub envelopes: u64,
    /// See [`Lane::envelopes`].
    pub conclusive: u64,
}

/// Everything a traced replay yields.
pub struct Replay {
    /// The folded summary (compared byte for byte with `run_sweep`).
    pub summary: SweepSummary,
    /// The merged actuation histogram.
    pub hist: Histogram,
    /// One recorder per lane, plus the fold's own.
    pub lanes: Vec<Lane>,
    /// The fold's spans (`fleet.accumulate`, `fleet.finish`).
    pub fold: Recorder,
    /// Wall time of the pool pass, ns.
    pub pool_wall_ns: u64,
    /// Wall time of pool pass and fold together, ns.
    pub wall_ns: u64,
}

fn note_run(lane: &mut Lane, run: &LoopResult) {
    lane.sim_runs += 1;
    lane.sim_events += run.stats.events_delivered;
    lane.hot_allocs += run.stats.hot_allocs;
}

/// The Metrics-phase yield of one run — the same extraction the fleet's
/// report memo stores.
fn build_entry(run: &LoopResult, lenient: bool, bound_ns: i64) -> Result<ReportEntry, CoreError> {
    let report = if lenient {
        run.latency_report_lenient()?
    } else {
        run.latency_report()?
    };
    let mut hist = Histogram::new(bound_ns, SWEEP_BUCKETS);
    let mut worst = 0i64;
    for series in &report.actuation {
        for &v in series.values() {
            hist.record(v.as_nanos());
            worst = worst.max(v.as_nanos());
        }
    }
    let overruns = report.total_overruns();
    Ok(ReportEntry {
        report,
        hist,
        worst_actuation_ns: worst,
        overruns,
    })
}

/// One memoized scheduled co-simulation, spanned as a hit or a run.
#[allow(clippy::too_many_arguments)]
fn scheduled(
    lane: &mut Lane,
    caches: &SweepCaches,
    spec2: &LoopSpec,
    base: &SplitScenario,
    schedule: &ecl_aaa::Schedule,
    digest: u64,
    plan: Option<&FaultPlan>,
    id: u64,
) -> Result<Arc<LoopResult>, CoreError> {
    let (run, _key, hit, _phases) = lane.rec.span("cosim.scheduled_lookup", id, |_| {
        caches.scheduled.get_or_run_phased(
            spec2, &base.alg, &base.io, schedule, &base.arch, digest, plan,
        )
    })?;
    if hit {
        lane.rec.rename_last_closed("cosim.scheduled_hit");
    } else {
        lane.rec.rename_last_closed("cosim.scheduled_run");
        note_run(lane, &run);
    }
    Ok(run)
}

/// One scenario, in `run_scenario`'s order, through public layer calls.
/// The configuration must memoize scheduled runs and reports and trace
/// no scenario — the shape of every benchmark sweep.
fn replay_scenario(
    spec: &LoopSpec,
    base: &SplitScenario,
    config: &SweepConfig,
    caches: &SweepCaches,
    index: usize,
    lane: &mut Lane,
) -> Result<ScenarioRecord, CoreError> {
    let id = index as u64;
    let (scenario, db, mut spec2) = lane.rec.span("fleet.derive", id, |_| {
        let scenario = Scenario::derive(config, base, index);
        let db = scenario.jittered_db(base);
        let mut spec2 = spec.clone();
        spec2.ts = spec.ts * scenario.period_scale;
        (scenario, db, spec2)
    });
    let options = AdequationOptions {
        policy: scenario.policy,
    };
    let (schedule, digest, hit) = lane.rec.span("aaa.schedule_lookup", id, |_| {
        caches
            .schedule
            .get_or_compute_traced(&base.alg, &base.arch, &db, options)
            .map_err(CoreError::from)
    })?;
    lane.rec.rename_last_closed(if hit {
        "aaa.schedule_hit"
    } else {
        "aaa.adequation"
    });
    let makespan_s = schedule.makespan().as_secs_f64();
    if makespan_s > spec2.ts {
        spec2.ts = makespan_s * 1.05;
    }

    let prune = if config.prune_static {
        let family = FaultFamily::from_config(&scenario.fault_config(&config.faults));
        let period = TimeNs::from_secs_f64(spec2.ts);
        let envelope = lane.rec.span("verify.envelope", id, |_| {
            ecl_verify::fault_envelope(&base.alg, &base.arch, &schedule, period, &family, None)
        });
        let verdict = envelope.verdict();
        lane.envelopes += 1;
        if verdict != EnvelopeVerdict::Inconclusive {
            lane.conclusive += 1;
            let overruns = if verdict == EnvelopeVerdict::Unsafe {
                (spec2.horizon / spec2.ts).floor().max(1.0) as usize
            } else {
                0
            };
            let suffix = if verdict == EnvelopeVerdict::Safe {
                "safe"
            } else {
                "unsafe"
            };
            return Ok(ScenarioRecord {
                outcome: ScenarioOutcome {
                    index,
                    seed: scenario.seed,
                    label: format!("{} pruned:{suffix}", scenario.label()),
                    cost: 0.0,
                    cost_ratio: 0.0,
                    makespan_ns: schedule.makespan().as_nanos(),
                    worst_actuation_ns: envelope.max_actuation_hi().as_nanos(),
                    overruns,
                },
                degradation: None,
                traces: RecordingSink::default(),
                validation: None,
                verification: None,
                prune: Some(verdict),
                schedule_digest: digest,
            });
        }
        Some(verdict)
    } else {
        None
    };

    let before = caches.ideal.computes();
    let ideal = lane.rec.span("cosim.ideal_lookup", id, |_| {
        caches.ideal.get_or_run(&spec2)
    })?;
    // The memo reports no per-call outcome; a compute count that moved
    // during the call marks a run (another lane's concurrent miss can
    // rarely be misread as ours).
    if caches.ideal.computes() != before {
        lane.rec.rename_last_closed("cosim.ideal_run");
        note_run(lane, &ideal);
    } else {
        lane.rec.rename_last_closed("cosim.ideal_hit");
    }
    let periods = (spec2.horizon / spec2.ts).floor().max(1.0) as u32;
    let plan = if scenario.has_faults() {
        Some(lane.rec.span("faults.plan", id, |_| {
            FaultPlan::generate(
                &scenario.fault_config(&config.faults),
                &schedule,
                &base.arch,
                periods,
            )
        })?)
    } else {
        None
    };
    let (run, degradation) = if let Some(plan) = &plan {
        let baseline = scheduled(lane, caches, &spec2, base, &schedule, digest, None, id)?;
        let faulty = scheduled(
            lane,
            caches,
            &spec2,
            base,
            &schedule,
            digest,
            Some(plan),
            id,
        )?;
        let degradation = lane.rec.span("report.degradation", id, |_| {
            DegradationSummary::from_runs(index, plan, &baseline, &faulty, config.cost_bound_ratio)
        })?;
        (faulty, Some(degradation))
    } else {
        (
            scheduled(lane, caches, &spec2, base, &schedule, digest, None, id)?,
            None,
        )
    };

    let bound = sweep_bound_ns(spec, config);
    let lenient = scenario.has_faults();
    let key = report_digest(
        cosim::scheduled_run_digest(&spec2, digest, plan.as_ref()),
        bound,
    );
    let (entry, _hit) = lane.rec.span("report.latency", id, |_| {
        caches
            .reports
            .get_or_build(key, || build_entry(&run, lenient, bound))
    })?;
    lane.scratch.merge(&entry.hist);
    let outcome = ScenarioOutcome {
        index,
        seed: scenario.seed,
        label: scenario.label(),
        cost: run.cost,
        cost_ratio: run.cost / ideal.cost,
        makespan_ns: schedule.makespan().as_nanos(),
        worst_actuation_ns: entry.worst_actuation_ns,
        overruns: entry.overruns,
    };

    let validation = if config.validate_executive {
        let period = TimeNs::from_secs_f64(spec2.ts);
        let generated = lane.rec.span("exec.codegen", id, |_| {
            codegen::generate(&schedule, &base.alg, &base.arch).map_err(CoreError::from)
        })?;
        let opts = ExecOptions {
            period,
            periods,
            faults: plan.as_ref(),
        };
        let measured = lane.rec.span("exec.vm", id, |_| {
            ecl_exec::run(&generated, &base.arch, &schedule, &opts).map_err(|e| {
                CoreError::InvalidInput {
                    reason: format!("virtual executive of scenario {index}: {e}"),
                }
            })
        })?;
        let report = lane.rec.span("xval.validate", id, |_| {
            let predicted = xval::predict_op_completions(
                &base.alg,
                &base.arch,
                &schedule,
                period,
                periods,
                plan.as_ref(),
            )?;
            xval::validate_schedule(&measured.timeline(), &predicted, &base.alg)
        })?;
        Some((report.is_exact(), report.max_divergence_ns()))
    } else {
        None
    };

    let verification = if config.verify_static {
        let period = TimeNs::from_secs_f64(spec2.ts);
        let vreport = lane.rec.span("verify.static", id, |_| {
            ecl_verify::verify(&base.alg, &base.arch, &db, &schedule, period, plan.as_ref())
                .map_err(CoreError::from)
        })?;
        let bounds = vreport
            .bounds
            .as_ref()
            .expect("verify always derives bounds");
        let margin = if bounds.drop_capable {
            None
        } else {
            let rep: &LatencyReport = &entry.report;
            let mut margin: Option<i64> = None;
            let sensors = base.io.sensors.iter().zip(&rep.sampling);
            let actuators = base.io.actuators.iter().zip(&rep.actuation);
            for (op, series) in sensors.chain(actuators) {
                if let Some(b) = bounds.bound_for(*op) {
                    for &v in series.values() {
                        let m = b.faulty.as_nanos() - v.as_nanos();
                        margin = Some(margin.map_or(m, |cur| cur.min(m)));
                    }
                }
            }
            margin
        };
        Some((
            vreport.count(ecl_verify::Severity::Error),
            vreport.count(ecl_verify::Severity::Warn),
            margin,
        ))
    } else {
        None
    };
    Ok(ScenarioRecord {
        outcome,
        degradation,
        traces: RecordingSink::default(),
        validation,
        verification,
        prune,
        schedule_digest: digest,
    })
}

/// Replays a whole sweep on the fleet's scoped pool with per-lane span
/// buffers, then folds it with a spanned [`SweepAccumulator`].
pub fn replay_sweep(
    spec: &LoopSpec,
    base: &SplitScenario,
    config: &SweepConfig,
    caches: &SweepCaches,
) -> Result<Replay, CoreError> {
    assert!(
        config.memoize_scheduled && config.memoize_reports && config.trace_scenarios == 0,
        "the replay mirrors the memoized, untraced pipeline"
    );
    let epoch = Instant::now();
    let bound = sweep_bound_ns(spec, config);
    let (results, lanes) = map_indexed_with(
        config.scenario_count,
        config.workers,
        |_| Lane {
            rec: Recorder::new(epoch),
            scratch: Histogram::new(bound, SWEEP_BUCKETS),
            sim_runs: 0,
            sim_events: 0,
            hot_allocs: 0,
            envelopes: 0,
            conclusive: 0,
        },
        |i, lane: &mut Lane| {
            // The scenario span encloses every layer span of the index;
            // its self time is the pipeline glue no layer span covers.
            let span = lane.rec.open("fleet.scenario", i as u64);
            let r = replay_scenario(spec, base, config, caches, i, lane);
            lane.rec.close(span);
            r
        },
    );
    let pool_wall_ns = epoch.elapsed().as_nanos() as u64;
    let mut hist = Histogram::new(bound, SWEEP_BUCKETS);
    for lane in &lanes {
        hist.merge(&lane.scratch);
    }
    let mut fold = Recorder::new(epoch);
    let mut acc = SweepAccumulator::new(config);
    for (i, r) in results.into_iter().enumerate() {
        let record = r?;
        fold.span("fleet.accumulate", i as u64, |_| acc.push(record));
    }
    let (summary, _traces) = fold.span("fleet.finish", 0, |_| acc.finish());
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    Ok(Replay {
        summary,
        hist,
        lanes,
        fold,
        pool_wall_ns,
        wall_ns,
    })
}
