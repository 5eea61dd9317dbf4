//! Golden byte-identity test for the virtual executive.
//!
//! Every `OpRecord` and `CommRecord` of a set of runs is printed, in
//! `ExecRun` order, and compared against `tests/golden/exec_runs.txt`.
//! The cases cover the crate's unit fixture under each of its fault
//! plans, the DC-motor split deployment of E13's validated sweep, and
//! adequation schedules under frame-loss, outage, dropout and retry
//! plans, some at a period tight enough that transfers and computations
//! complete past the period deadline. The input checks' error messages
//! are pinned too.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! ECL_GOLDEN_BLESS=1 cargo test -p ecl-exec --test golden_runs
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use ecl_aaa::codegen::{self, Executive, Generated, Instr};
use ecl_aaa::{
    adequation, AdequationOptions, AlgorithmGraph, ArchitectureGraph, Schedule, TimeNs, TimingDb,
};
use ecl_core::faults::{CommFault, FaultConfig, FaultPlan};
use ecl_core::translate::{uniform_timing, ControlLawSpec};
use ecl_exec::{ExecOptions, ExecRun};

fn us(v: i64) -> TimeNs {
    TimeNs::from_micros(v)
}

/// Compares `actual` against the golden file, or rewrites the golden
/// when `ECL_GOLDEN_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
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
            .unwrap_or(expected.lines().count().min(actual.lines().count()));
        panic!(
            "{name} diverged from the golden at line {}:\n  golden: {:?}\n  actual: {:?}",
            line + 1,
            expected.lines().nth(line).unwrap_or("<eof>"),
            actual.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

/// One deployment: the graphs, the schedule and its generated code.
struct Deployment {
    arch: ArchitectureGraph,
    schedule: Schedule,
    generated: Generated,
}

fn deploy(alg: &AlgorithmGraph, arch: ArchitectureGraph, db: &TimingDb) -> Deployment {
    let schedule = adequation(alg, &arch, db, AdequationOptions::default()).expect("adequation");
    schedule.validate(alg, &arch).expect("valid schedule");
    let generated = codegen::generate(&schedule, alg, &arch).expect("generate");
    Deployment {
        arch,
        schedule,
        generated,
    }
}

/// The crate's unit fixture: sensor `s` on p0 (100us), function `f` on
/// p1 (200us), one 2-unit transfer over a 10us+5us/unit bus.
fn unit_fixture() -> Deployment {
    let mut alg = AlgorithmGraph::new();
    let s = alg.add_sensor("s");
    let f = alg.add_function("f");
    alg.add_edge(s, f, 2).expect("edge");
    let mut arch = ArchitectureGraph::new();
    let p0 = arch.add_processor("p0", "arm");
    let p1 = arch.add_processor("p1", "arm");
    arch.add_bus("bus", &[p0, p1], us(10), us(5)).expect("bus");
    let mut db = TimingDb::new();
    db.set(s, p0, us(100));
    db.set(f, p1, us(200));
    deploy(&alg, arch, &db)
}

/// A monolithic law split between an I/O ECU and a compute ECU on one
/// CAN bus — the deployment E13's validated sweep perturbs.
fn split(
    n_inputs: usize,
    n_outputs: usize,
    bus: TimeNs,
    io: TimeNs,
    compute: TimeNs,
) -> Deployment {
    let law = ControlLawSpec::monolithic("law", n_inputs, n_outputs);
    let (alg, map) = law.to_algorithm().expect("law");
    let mut arch = ArchitectureGraph::new();
    let io_proc = arch.add_processor("io_ecu", "arm");
    let compute_proc = arch.add_processor("control_ecu", "arm");
    arch.add_bus("can", &[io_proc, compute_proc], bus, us(10))
        .expect("bus");
    let mut db = uniform_timing(&alg, &map, io, compute);
    for &s in map.sensors.iter().chain(&map.actuators) {
        db.forbid(s, compute_proc);
    }
    for &f in &map.stages {
        db.forbid(f, io_proc);
    }
    deploy(&alg, arch, &db)
}

/// A filtered law spread over three ECUs on one bus, placement left to
/// the adequation (the shape of E13's quarter-car deployment).
fn three_ecus() -> Deployment {
    let law = ControlLawSpec::filtered("law", 3, 2).with_data_units(8);
    let (alg, map) = law.to_algorithm().expect("law");
    let mut arch = ArchitectureGraph::new();
    let ps: Vec<_> = (0..3)
        .map(|i| arch.add_processor(format!("ecu{i}"), "arm"))
        .collect();
    arch.add_bus("can", &ps, us(120), us(8)).expect("bus");
    let db = uniform_timing(&alg, &map, us(80), us(600));
    deploy(&alg, arch, &db)
}

/// Prints a run's records in `ExecRun` order, with the number of
/// transfers and unforced computations that completed past their
/// period's deadline `k·P + P − 1ns` (a forced computation always does).
fn render(out: &mut String, name: &str, opts: &ExecOptions<'_>, run: &ExecRun) -> usize {
    let deadline = |k: u32| opts.period * i64::from(k + 1) - TimeNs::from_nanos(1);
    let late = run
        .ops
        .iter()
        .filter(|r| !r.forced)
        .map(|r| (r.period, r.end))
        .chain(run.comms.iter().map(|c| (c.period, c.end)))
        .filter(|&(k, end)| end > deadline(k))
        .count();
    writeln!(
        out,
        "== {name}: period {} ns, {} periods, {} ops, {} comms, {late} late ==",
        opts.period.as_nanos(),
        opts.periods,
        run.ops.len(),
        run.comms.len()
    )
    .unwrap();
    for r in &run.ops {
        writeln!(
            out,
            "op {} on {} k{} [{}, {}){}",
            r.op,
            r.proc,
            r.period,
            r.start.as_nanos(),
            r.end.as_nanos(),
            if r.forced { " forced" } else { "" }
        )
        .unwrap();
    }
    for c in &run.comms {
        writeln!(
            out,
            "comm {} on {} {}->{} k{} [{}, {})",
            c.src_op,
            c.medium,
            c.from,
            c.to,
            c.period,
            c.start.as_nanos(),
            c.end.as_nanos()
        )
        .unwrap();
    }
    late
}

fn run_case(
    out: &mut String,
    name: &str,
    d: &Deployment,
    period: TimeNs,
    periods: u32,
    faults: Option<&FaultPlan>,
) -> usize {
    let opts = ExecOptions {
        period,
        periods,
        faults,
    };
    let run = ecl_exec::run(&d.generated, &d.arch, &d.schedule, &opts).expect("vm run");
    render(out, name, &opts, &run)
}

/// Runs `d` under the plan each `config` draws, one case per config.
fn run_plans(
    out: &mut String,
    name: &str,
    d: &Deployment,
    period: TimeNs,
    periods: u32,
    configs: &[(&str, FaultConfig)],
) -> usize {
    let mut late = 0;
    for (label, config) in configs {
        let plan = FaultPlan::generate(config, &d.schedule, &d.arch, periods).expect("plan");
        let case = format!("{name} {label} seed {}", config.seed);
        late += run_case(out, &case, d, period, periods, Some(&plan));
    }
    late
}

/// One config per fault class (and one mixing all of them), each at two
/// seeds.
fn fault_configs() -> Vec<(&'static str, FaultConfig)> {
    let classes = [
        (
            "frame-loss",
            FaultConfig {
                frame_loss_rate: 0.3,
                max_retries: 0,
                ..FaultConfig::default()
            },
        ),
        (
            "retry",
            FaultConfig {
                frame_loss_rate: 0.3,
                max_retries: 3,
                ..FaultConfig::default()
            },
        ),
        (
            "outage",
            FaultConfig {
                link_outage_rate: 0.2,
                ..FaultConfig::default()
            },
        ),
        (
            "dropout",
            FaultConfig {
                proc_dropout_rate: 0.1,
                ..FaultConfig::default()
            },
        ),
        (
            "mixed",
            FaultConfig {
                frame_loss_rate: 0.2,
                max_retries: 2,
                link_outage_rate: 0.1,
                proc_dropout_rate: 0.05,
                ..FaultConfig::default()
            },
        ),
    ];
    classes
        .iter()
        .flat_map(|&(label, config)| [3u64, 11].map(|seed| (label, FaultConfig { seed, ..config })))
        .collect()
}

#[test]
fn exec_runs_match_golden() {
    let mut out = String::new();
    let ms = TimeNs::from_millis(1);

    // The unit fixture under each of the crate's unit-test plans.
    let fixture = unit_fixture();
    run_case(&mut out, "fixture nominal", &fixture, ms, 3, None);
    let certain_loss = FaultConfig {
        frame_loss_rate: 1.0,
        max_retries: 1,
        ..FaultConfig::default()
    };
    let unit_configs = [
        ("certain-loss", certain_loss),
        (
            "retry",
            FaultConfig {
                seed: 1,
                frame_loss_rate: 0.5,
                max_retries: 3,
                ..FaultConfig::default()
            },
        ),
        (
            "dropout",
            FaultConfig {
                seed: 2,
                proc_dropout_rate: 0.5,
                ..FaultConfig::default()
            },
        ),
        (
            "mixed",
            FaultConfig {
                seed: 7,
                frame_loss_rate: 0.4,
                proc_dropout_rate: 0.1,
                ..FaultConfig::default()
            },
        ),
    ];
    run_plans(&mut out, "fixture", &fixture, ms, 8, &unit_configs);
    let trivial = FaultPlan::trivial(4);
    run_case(
        &mut out,
        "fixture trivial-plan",
        &fixture,
        ms,
        4,
        Some(&trivial),
    );

    // E13's DC-motor split, at a roomy and at a tight period.
    let dc = split(2, 1, us(200), us(50), us(500));
    let makespan = dc.schedule.makespan();
    let roomy = TimeNs::from_nanos(makespan.as_nanos() * 5 / 4 + 1);
    let tight = makespan + us(30);
    run_case(&mut out, "dc_motor nominal", &dc, roomy, 6, None);
    run_plans(&mut out, "dc_motor", &dc, roomy, 10, &fault_configs());
    let mut late = run_plans(&mut out, "dc_motor tight", &dc, tight, 10, &fault_configs());

    // A wider split and a three-ECU placement.
    let wide = split(3, 2, us(120), us(40), us(400));
    let wide_period = wide.schedule.makespan() + us(50);
    late += run_plans(
        &mut out,
        "split3x2",
        &wide,
        wide_period,
        10,
        &fault_configs(),
    );
    let tri = three_ecus();
    let tri_period = tri.schedule.makespan() + us(100);
    run_case(&mut out, "three_ecus nominal", &tri, tri_period, 4, None);
    late += run_plans(
        &mut out,
        "three_ecus",
        &tri,
        tri_period,
        10,
        &fault_configs(),
    );
    assert!(late > 0, "some tight case must complete past its deadline");

    // Every input check's refusal, by message.
    let outcome = |g: &Generated, period: TimeNs| {
        let opts = ExecOptions {
            period,
            periods: 1,
            faults: None,
        };
        match ecl_exec::run(g, &fixture.arch, &fixture.schedule, &opts) {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        }
    };
    let procs: Vec<_> = fixture.arch.processors().collect();
    let m = fixture.arch.media().next().expect("medium");
    let (s, f) = (fixture.schedule.ops()[0].op, fixture.schedule.ops()[1].op);
    let crossed = |own, own_proc, want, want_from| Executive {
        proc: own_proc,
        instrs: vec![
            Instr::Recv {
                src_op: want,
                medium: m,
                from: want_from,
            },
            Instr::Send {
                src_op: own,
                medium: m,
                to: want_from,
            },
        ],
    };
    let crossed = Generated {
        executives: vec![
            crossed(s, procs[0], f, procs[1]),
            crossed(f, procs[1], s, procs[0]),
        ],
        comm_sequences: vec![],
    };
    let mut orphan = fixture.generated.clone();
    orphan.executives[0]
        .instrs
        .retain(|i| !matches!(i, Instr::Send { .. }));
    orphan.executives[1]
        .instrs
        .retain(|i| !matches!(i, Instr::Recv { .. }));
    let mut extra = fixture.generated.clone();
    let slot = extra.comm_sequences[0].transfers[0];
    extra.comm_sequences[0].transfers.push(slot);
    let mut unmatched = fixture.generated.clone();
    unmatched.comm_sequences[0].transfers[0].from = procs[1];
    // A posted send and a receive for data no transfer carries.
    let mut undelivered = fixture.generated.clone();
    undelivered.executives[0].instrs.insert(
        0,
        Instr::Send {
            src_op: f,
            medium: m,
            to: procs[1],
        },
    );
    undelivered.executives[1].instrs.insert(
        0,
        Instr::Recv {
            src_op: f,
            medium: m,
            from: procs[0],
        },
    );
    for (name, g, period) in [
        ("crossed receives", &crossed, ms),
        ("orphan transfer", &orphan, ms),
        ("extra transfer", &extra, ms),
        ("unmatched slot", &unmatched, ms),
        ("undelivered receive", &undelivered, ms),
        ("zero period", &fixture.generated, TimeNs::ZERO),
    ] {
        writeln!(out, "== refused {name}: {}", outcome(g, period)).unwrap();
    }

    check_golden("exec_runs.txt", &out);
}

#[test]
fn fault_configs_draw_every_fate() {
    // The golden is only as strong as its plans: across the DC-motor
    // cases, some slot must be dropped, some retried, and some processor
    // must die.
    let dc = split(2, 1, us(200), us(50), us(500));
    let (mut drop, mut retry, mut dead) = (false, false, false);
    for (_, config) in fault_configs() {
        let plan = FaultPlan::generate(&config, &dc.schedule, &dc.arch, 10).expect("plan");
        for i in 0..dc.schedule.comms().len() {
            for k in 0..10 {
                match plan.comm_fault(i, k) {
                    CommFault::Drop => drop = true,
                    CommFault::Retry(_) => retry = true,
                    CommFault::Ok => {}
                }
            }
        }
        dead |= (0..2).any(|p| plan.proc_dead_from(p).is_some());
    }
    assert!(
        drop && retry && dead,
        "drop {drop} retry {retry} dead {dead}"
    );
}
