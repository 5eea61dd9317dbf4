//! Golden byte-identity tests for the sim-kernel hot path.
//!
//! A kernel refactor must not change a single artifact byte. These tests
//! pin the exp10-style lifecycle case and the exp12-style fault sweep
//! against golden files; any behavioural drift in the engine shows up as
//! a byte diff here. A third case pins every co-simulation entry point
//! (state and output feedback, ideal and scheduled, faulty, conditioned,
//! traced) and the lifecycle's telemetry stream.
//!
//! The lifecycle and entry-point goldens hold f64 bits of the plant
//! state, so they were re-blessed once, when the kernel began stepping
//! LTI plants in closed form instead of integrating them with RK45 (the
//! largest relative change was 2.5e-8, in the last printed digit). The
//! fault-sweep golden did not move.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! ECL_GOLDEN_BLESS=1 cargo test -p ecl-bench --test golden_kernel
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use ecl_aaa::{
    adequation, AdequationOptions, AlgorithmGraph, ArchitectureGraph, Fnv1a, OpId, Schedule,
    TimeNs, TimingDb,
};
use ecl_bench::fleet::{run_sweep, FaultAxes, SweepConfig};
use ecl_bench::{dc_motor_loop, split_scenario, SplitScenario};
use ecl_blocks::Sine;
use ecl_control::{c2d_zoh, dlqr, kalman, lqg, plants};
use ecl_core::cosim::{
    self, Activation, DisturbanceKind, LoopResult, LoopSpec, OutputLoopSpec, ScheduledRunCache,
    WiredLoop,
};
use ecl_core::delays::{ConditionSource, DelayGraphConfig};
use ecl_core::faults::{FaultConfig, FaultPlan};
use ecl_core::lifecycle::{self, LifecycleInputs};
use ecl_core::translate::{uniform_timing, ControlLawSpec, IoMap};
use ecl_linalg::Mat;
use ecl_sim::Model;
use ecl_telemetry::{Collector, Event, RecordingSink};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the golden file, or rewrites the golden
/// when `ECL_GOLDEN_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("ECL_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with ECL_GOLDEN_BLESS=1",
            path.display()
        )
    });
    if actual != expected {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or(expected.lines().count().min(actual.lines().count()), |i| i);
        panic!(
            "{name} diverged from the golden at line {} (expected {} bytes, got {}):\n  \
             golden: {:?}\n  actual: {:?}",
            line + 1,
            expected.len(),
            actual.len(),
            expected.lines().nth(line).unwrap_or("<eof>"),
            actual.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

/// Event-path engine counters. How each chunk advanced (ODE steps or
/// closed-form chunks) is pinned by the metric bytes of the entry-point
/// golden; the traces pin its outcome.
fn stats_lines(tag: &str, r: &LoopResult) -> String {
    format!(
        "{tag}: events_delivered={} event_instants={} max_cascade={} calendar_peak={} \
         activations={:?}\n",
        r.stats.events_delivered,
        r.stats.event_instants,
        r.stats.max_cascade,
        r.stats.calendar_peak,
        r.stats.activation_counts(),
    )
}

fn trace_lines(tag: &str, r: &LoopResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {tag} trace: {} events, end {} ==",
        r.result.event_log().len(),
        r.result.end_time()
    );
    for (name, sig) in r.result.signals() {
        s.push_str(&sig.to_csv(name));
    }
    s
}

/// The exp10 case study at a shorter horizon: quarter-car active
/// suspension over a 3-ECU CAN network, full lifecycle (ideal +
/// implemented + calibrated co-simulations).
#[test]
fn lifecycle_quarter_car_bytes_match_seed_kernel() {
    let plant = plants::quarter_car();
    let law = ControlLawSpec::filtered("susp", 4, 1).with_data_units(8);
    let (_, io) = law.to_algorithm().expect("law translates");

    let mut arch = ArchitectureGraph::new();
    let wheel_ecu = arch.add_processor("wheel_ecu", "cortex-m");
    let body_ecu = arch.add_processor("body_ecu", "cortex-m");
    let control_ecu = arch.add_processor("control_ecu", "cortex-a");
    arch.add_bus(
        "can",
        &[wheel_ecu, body_ecu, control_ecu],
        TimeNs::from_micros(120),
        TimeNs::from_micros(8),
    )
    .expect("bus");

    let (alg, _) = law.to_algorithm().expect("law translates");
    let mut db = uniform_timing(&alg, &io, TimeNs::from_micros(80), TimeNs::from_micros(600));
    for &s in &[io.sensors[0], io.sensors[2], io.sensors[3]] {
        db.forbid(s, body_ecu);
        db.forbid(s, control_ecu);
    }
    db.forbid(io.sensors[1], wheel_ecu);
    db.forbid(io.sensors[1], control_ecu);
    let step = *io.stages.last().expect("law has stages");
    db.forbid(step, wheel_ecu);
    db.forbid(step, body_ecu);
    db.forbid(io.actuators[0], body_ecu);
    db.forbid(io.actuators[0], control_ecu);

    let inputs = LifecycleInputs {
        plant: plant.sys.clone(),
        n_controls: 1,
        x0: vec![0.05, 0.0, 0.0, 0.0],
        ts: plant.ts,
        horizon: 0.25,
        lqr_q: Mat::diag(&[1e4, 1.0, 1e3, 1.0]),
        lqr_r: Mat::diag(&[1e-6]),
        q_weight: 1.0,
        r_weight: 1e-8,
        law,
        arch,
        db,
        adequation: AdequationOptions::default(),
        disturbance: DisturbanceKind::None,
    };

    let rep = lifecycle::run(&inputs).expect("lifecycle runs");

    let mut out = String::new();
    let _ = writeln!(out, "== costs ==");
    let _ = writeln!(out, "ideal       {:.9}", rep.ideal.cost);
    let _ = writeln!(out, "implemented {:.9}", rep.implemented.cost);
    let _ = writeln!(out, "calibrated  {:.9}", rep.calibrated.cost);
    let _ = writeln!(out, "degradation {:+.3}%", rep.degradation() * 100.0);
    let _ = writeln!(out, "== latency (paper eq. 1-2) ==");
    out.push_str(&rep.latency.render());
    let _ = writeln!(out, "== engine stats (event path) ==");
    out.push_str(&stats_lines("ideal", &rep.ideal));
    out.push_str(&stats_lines("implemented", &rep.implemented));
    out.push_str(&stats_lines("calibrated", &rep.calibrated));
    out.push_str(&trace_lines("ideal", &rep.ideal));
    out.push_str(&trace_lines("implemented", &rep.implemented));
    out.push_str(&trace_lines("calibrated", &rep.calibrated));

    check_golden("lifecycle_quarter_car.txt", &out);
}

/// The exp12 case: deterministic fault-injection sweep over the fleet
/// (frame loss + retransmission, link outages, processor dropout), on
/// two workers — report and JSON bytes pinned against the seed kernel.
#[test]
fn fault_sweep_bytes_match_seed_kernel() {
    let base = split_scenario(
        2,
        1,
        TimeNs::from_micros(200),
        TimeNs::from_micros(50),
        TimeNs::from_micros(500),
    )
    .expect("scenario");
    let spec = dc_motor_loop(0.2).expect("loop spec");
    let config = SweepConfig {
        scenario_count: 12,
        workers: 2,
        trace_scenarios: 2,
        faults: FaultAxes {
            frame_loss_rates: vec![0.0, 0.10, 0.30],
            link_outage_rates: vec![0.0, 0.15],
            proc_dropout_rates: vec![0.0, 0.01],
            ..FaultAxes::default()
        },
        ..SweepConfig::default()
    };
    let out = run_sweep(&spec, &base, &config).expect("sweep runs");

    let mut s = out.summary.render();
    s.push_str("== json ==\n");
    s.push_str(&out.summary.to_json());
    let _ = writeln!(s, "== actuation histogram ==");
    let _ = writeln!(s, "{:?}", out.actuation_hist);

    check_golden("fleet_fault_sweep.txt", &s);
}

/// FNV-1a over the bit patterns of every probe sample and the event log,
/// one line per signal: the trace content the metric bytes leave out.
fn probe_lines(r: &LoopResult) -> String {
    let mut s = String::new();
    for (name, sig) in r.result.signals() {
        let mut h = Fnv1a::new();
        for (&t, &v) in sig.times().iter().zip(sig.values()) {
            h.write_f64(t);
            h.write_f64(v);
        }
        let _ = writeln!(
            s,
            "  probe {name}: {} samples, bits {:016x}",
            sig.len(),
            h.finish()
        );
    }
    let mut h = Fnv1a::new();
    for ev in r.result.event_log() {
        h.write_str(&ev.to_string());
    }
    let _ = writeln!(
        s,
        "  event log: {} records, end {}, digest {:016x}",
        r.result.event_log().len(),
        r.result.end_time(),
        h.finish()
    );
    s
}

/// One entry point's result: the metric-grade bytes in hex, then the
/// probe bits.
fn run_lines(tag: &str, r: &LoopResult) -> String {
    let mut s = format!("== {tag} ==\n  metric bytes:");
    for (i, b) in r.to_metric_bytes().iter().enumerate() {
        if i % 32 == 0 {
            s.push_str("\n    ");
        }
        let _ = write!(s, "{b:02x}");
    }
    s.push('\n');
    s.push_str(&probe_lines(r));
    s
}

/// A recorded telemetry stream with the wall-clock stamps of spans
/// dropped: span names and nesting order, slices and counters stay.
fn stream_lines(tag: &str, sink: &RecordingSink) -> String {
    let mut s = format!("== {tag} stream: {} events ==\n", sink.events().len());
    for ev in sink.events() {
        match ev {
            Event::SpanBegin { name, .. } => {
                let _ = writeln!(s, "span-begin {name}");
            }
            Event::SpanEnd { name, .. } => {
                let _ = writeln!(s, "span-end {name}");
            }
            Event::Slice {
                track,
                name,
                start_ns,
                end_ns,
            } => {
                let _ = writeln!(s, "slice {track} {name} [{start_ns}, {end_ns}]");
            }
            Event::Instant { track, name, at_ns } => {
                let _ = writeln!(s, "instant {track} {name} @{at_ns}");
            }
            Event::Counter {
                track,
                name,
                at_ns,
                value_ns,
            } => {
                let _ = writeln!(s, "counter {track} {name} @{at_ns} = {value_ns}");
            }
        }
    }
    s
}

/// The DC-motor loop over the two-ECU split: sensors and actuator on the
/// I/O ECU, the law on the control ECU, a 2 ms bus between them.
fn dc_motor_split(horizon: f64) -> (LoopSpec, SplitScenario, Schedule) {
    let spec = dc_motor_loop(horizon).expect("loop spec");
    let base = split_scenario(
        2,
        1,
        TimeNs::from_millis(2),
        TimeNs::from_micros(200),
        TimeNs::from_millis(5),
    )
    .expect("scenario");
    let schedule = adequation(
        &base.alg,
        &base.arch,
        &base.db,
        AdequationOptions::default(),
    )
    .expect("adequation");
    (spec, base, schedule)
}

/// A non-trivial fault plan over the split: frame loss with one retry,
/// link outages and a small processor-dropout rate.
fn split_fault_plan(spec: &LoopSpec, base: &SplitScenario, schedule: &Schedule) -> FaultPlan {
    let periods = (spec.horizon / spec.ts).floor() as u32;
    let plan = FaultPlan::generate(
        &FaultConfig {
            seed: 11,
            frame_loss_rate: 0.3,
            max_retries: 1,
            link_outage_rate: 0.1,
            outage_periods: 2,
            ..FaultConfig::default()
        },
        schedule,
        &base.arch,
        periods,
    )
    .expect("fault plan");
    assert!(!plan.is_trivial(), "the fixture plan must inject faults");
    plan
}

/// LQG output feedback on the DC motor: only the speed is measured.
fn lqg_output_spec() -> OutputLoopSpec {
    let plant = plants::dc_motor();
    let dss = c2d_zoh(&plant.sys, plant.ts).expect("c2d");
    let gain = dlqr(&dss, &Mat::diag(&[10.0, 1.0]), &Mat::diag(&[1e-2])).expect("dlqr");
    let kf =
        kalman::design(&dss, &Mat::identity(2).scaled(1e-4), &Mat::diag(&[1e-4])).expect("kalman");
    OutputLoopSpec {
        plant: plant.sys,
        n_controls: 1,
        x0: vec![1.0, 0.0],
        compensator: lqg::compensator(&dss, &gain, &kf).expect("compensator"),
        ts: plant.ts,
        horizon: 1.0,
        q_weight: 1.0,
        r_weight: 1e-2,
        disturbance: DisturbanceKind::None,
    }
}

/// The exp7 conditioned law: a mode operation selects a fast or a slow
/// branch each period (`mean ± spread/2` at 40% ± 20% of the period).
fn conditioned_case(period: TimeNs) -> (AlgorithmGraph, IoMap, OpId, ArchitectureGraph, Schedule) {
    let mean = (period.as_nanos() as f64 * 0.4) as i64;
    let spread = (period.as_nanos() as f64 * 0.4) as i64;
    let mut alg = AlgorithmGraph::new();
    let s0 = alg.add_sensor("in0");
    let s1 = alg.add_sensor("in1");
    let mode = alg.add_function("mode");
    let fast = alg.add_function("fast");
    let slow = alg.add_function("slow");
    let merge = alg.add_function("merge");
    let a0 = alg.add_actuator("out0");
    alg.add_edge(s0, mode, 4).expect("edge");
    alg.add_edge(s1, mode, 4).expect("edge");
    alg.set_condition(fast, mode, 0).expect("condition");
    alg.set_condition(slow, mode, 1).expect("condition");
    alg.add_edge(fast, merge, 4).expect("edge");
    alg.add_edge(slow, merge, 4).expect("edge");
    alg.add_edge(merge, a0, 4).expect("edge");
    let io = IoMap {
        sensors: vec![s0, s1],
        stages: vec![mode, fast, slow, merge],
        actuators: vec![a0],
    };
    let mut arch = ArchitectureGraph::new();
    arch.add_processor("ecu", "arm");
    let tiny = TimeNs::from_micros(20);
    let mut db = TimingDb::new();
    for op in [s0, s1, mode, merge, a0] {
        db.set_default(op, tiny);
    }
    db.set_default(fast, TimeNs::from_nanos((mean - spread / 2).max(1000)));
    db.set_default(slow, TimeNs::from_nanos(mean + spread / 2));
    let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).expect("adequation");
    (alg, io, mode, arch, schedule)
}

/// The condition-source hook of the conditioned case: a sinusoid at half
/// the sampling rate flips the branch every period.
fn mode_signal(model: &mut Model, mode: OpId, ts: f64) -> DelayGraphConfig {
    let osc = model.add_block(
        "mode_signal",
        Sine::new(1.0, 1.0 / (2.0 * ts)).with_phase(std::f64::consts::FRAC_PI_4),
    );
    let mut cfg = DelayGraphConfig::default();
    cfg.condition_sources.insert(
        mode,
        ConditionSource {
            block: osc,
            output: 0,
            mapping: Box::new(|v| usize::from(v < 0.0)),
        },
    );
    cfg
}

/// The DC-motor lifecycle over two ECUs and a 3 ms bus at a short
/// horizon.
fn lifecycle_inputs() -> LifecycleInputs {
    let plant = plants::dc_motor();
    let law = ControlLawSpec::monolithic("lqr", 2, 1);
    let (alg, io) = law.to_algorithm().expect("law translates");
    let mut arch = ArchitectureGraph::new();
    let p0 = arch.add_processor("ecu0", "arm");
    let p1 = arch.add_processor("ecu1", "arm");
    arch.add_bus(
        "can",
        &[p0, p1],
        TimeNs::from_millis(3),
        TimeNs::from_micros(10),
    )
    .expect("bus");
    let mut db = uniform_timing(&alg, &io, TimeNs::from_micros(200), TimeNs::from_millis(5));
    for &s in io.sensors.iter().chain(&io.actuators) {
        db.forbid(s, p1);
    }
    db.forbid(io.stages[0], p0);
    LifecycleInputs {
        plant: plant.sys,
        n_controls: 1,
        x0: vec![1.0, 0.0],
        ts: plant.ts,
        horizon: 0.5,
        lqr_q: Mat::identity(2),
        lqr_r: Mat::diag(&[0.1]),
        q_weight: 1.0,
        r_weight: 0.1,
        law,
        arch,
        db,
        adequation: AdequationOptions::default(),
        disturbance: DisturbanceKind::None,
    }
}

/// Untraced second stage of the co-simulation path.
fn run(wired: WiredLoop) -> LoopResult {
    wired.run(&mut Collector::noop(), "").expect("run")
}

/// Every co-simulation flavour on fixed fixtures: the metric bytes and
/// probe bits of each run, the telemetry streams of the traced runs, and
/// the lifecycle's event stream with wall-clock stamps dropped. Section
/// tags keep the names of the nine per-flavour entry points the golden
/// was blessed with; all now go through `wire` → `run`.
#[test]
fn cosim_entry_points_bytes_are_pinned() {
    let mut out = String::new();
    let (spec, base, schedule) = dc_motor_split(1.0);
    let plan = split_fault_plan(&spec, &base, &schedule);
    let (alg, io, arch) = (&base.alg, &base.io, &base.arch);
    let scheduled = |faults| Activation::scheduled(alg, io, &schedule, arch, faults);

    out.push_str(&run_lines(
        "run_ideal",
        &cosim::run_ideal(&spec).expect("ideal"),
    ));
    let mut tel = Collector::new(RecordingSink::default());
    let r = spec
        .wire(Activation::Ideal)
        .expect("wire")
        .run(&mut tel, "ideal:")
        .expect("ideal traced");
    out.push_str(&run_lines("run_ideal_traced", &r));
    out.push_str(&stream_lines("run_ideal_traced", tel.sink()));

    let r = cosim::run_scheduled(&spec, alg, io, &schedule, arch).expect("scheduled");
    out.push_str(&run_lines("run_scheduled", &r));
    let r = run(spec.wire(scheduled(Some(plan.clone()))).expect("faulty"));
    out.push_str(&run_lines("run_scheduled_faulty", &r));
    for (tag, faults) in [
        ("run_scheduled_phased nominal", None),
        ("run_scheduled_phased faulty", Some(&plan)),
    ] {
        let (r, ..) = ScheduledRunCache::new()
            .get_or_run_phased(&spec, alg, io, &schedule, arch, 0, faults)
            .expect("phased");
        out.push_str(&run_lines(tag, &r));
    }
    let mut tel = Collector::new(RecordingSink::default());
    let wired = spec.wire(scheduled(None)).expect("wire");
    cosim::emit_schedule_timeline(&mut tel, &schedule, alg, arch, spec.ts, spec.horizon);
    let r = wired.run(&mut tel, "").expect("scheduled traced");
    out.push_str(&run_lines("run_scheduled_traced", &r));
    out.push_str(&stream_lines("run_scheduled_traced", tel.sink()));

    let cond_spec = dc_motor_loop(1.0).expect("loop spec");
    let ts = cond_spec.ts;
    let (c_alg, c_io, mode, c_arch, c_schedule) = conditioned_case(TimeNs::from_secs_f64(ts));
    let conditioned = Activation::Scheduled {
        alg: &c_alg,
        io: &c_io,
        schedule: &c_schedule,
        arch: &c_arch,
        configure: Box::new(|model| Ok(mode_signal(model, mode, ts))),
    };
    let r = run(cond_spec.wire(conditioned).expect("conditioned"));
    out.push_str(&run_lines("run_scheduled_with conditioned", &r));

    let lqg = lqg_output_spec();
    out.push_str(&run_lines(
        "run_output_ideal",
        &run(lqg.wire(Activation::Ideal).expect("output ideal")),
    ));
    // One sensor (the measured speed) and one actuator over the split.
    let o_base = split_scenario(
        1,
        1,
        TimeNs::from_millis(2),
        TimeNs::from_micros(200),
        TimeNs::from_millis(5),
    )
    .expect("scenario");
    let o_schedule = adequation(
        &o_base.alg,
        &o_base.arch,
        &o_base.db,
        AdequationOptions::default(),
    )
    .expect("adequation");
    let o_scheduled =
        Activation::scheduled(&o_base.alg, &o_base.io, &o_schedule, &o_base.arch, None);
    let r = run(lqg.wire(o_scheduled).expect("output scheduled"));
    out.push_str(&run_lines("run_output_scheduled", &r));

    let mut tel = Collector::new(RecordingSink::default());
    let rep = lifecycle::run_with(&lifecycle_inputs(), &mut tel).expect("lifecycle");
    out.push_str(&run_lines("lifecycle ideal", &rep.ideal));
    out.push_str(&run_lines("lifecycle implemented", &rep.implemented));
    out.push_str(&run_lines("lifecycle calibrated", &rep.calibrated));
    out.push_str(&stream_lines("lifecycle::run_with", tel.sink()));

    check_golden("cosim_entry_points.txt", &out);
}
