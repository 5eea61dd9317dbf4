//! Cross-layer regression: `exec::run` and `codegen::replay` drive one
//! sequential executor (`codegen::execute`). `replay` runs one nominal
//! period from instant zero, with transfer durations from the
//! architecture's timing; `run` runs every period from its origin
//! `k·P`, with the schedule's slot durations. Every period of a nominal
//! run must therefore reproduce the replay's single-period instants
//! shifted by `k·P`: periods are independent, nothing is forced, and the
//! schedule's slot durations equal the architecture's transfer times.

use eclipse_codesign::aaa::{
    adequation, codegen, AdequationOptions, AlgorithmGraph, ArchitectureGraph, Schedule, TimeNs,
};
use eclipse_codesign::core::translate::{uniform_timing, ControlLawSpec};
use eclipse_codesign::exec::{self, ExecOptions};

const PERIODS: u32 = 4;

/// Runs the VM for [`PERIODS`] periods and asserts every period's
/// measured instants equal the replay's shifted by the period origin, op
/// by op and transfer by transfer.
fn assert_vm_matches_replay(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
    period: TimeNs,
) {
    assert!(
        schedule.makespan() <= period,
        "period must fit the schedule for a nominal comparison"
    );
    let generated = codegen::generate(schedule, alg, arch).expect("generate");
    let replay = codegen::replay(&generated, arch).expect("replay");
    let run = exec::run(
        &generated,
        arch,
        schedule,
        &ExecOptions {
            period,
            periods: PERIODS,
            faults: None,
        },
    )
    .expect("vm run");

    let mut replay_ops: Vec<(usize, usize, i64)> = replay
        .op_end
        .iter()
        .map(|&(op, proc, t)| (op.index(), proc.index(), t.as_nanos()))
        .collect();
    replay_ops.sort_unstable();
    let mut replay_comms: Vec<(usize, usize, i64)> = replay
        .comm_end
        .iter()
        .map(|&(op, medium, t)| (op.index(), medium.index(), t.as_nanos()))
        .collect();
    replay_comms.sort_unstable();

    for k in 0..PERIODS {
        let origin = period * i64::from(k);
        let mut vm_ops: Vec<(usize, usize, i64)> = run
            .ops
            .iter()
            .filter(|r| r.period == k)
            .inspect(|r| assert!(!r.forced, "nominal run must never force a start"))
            .map(|r| (r.op.index(), r.proc.index(), (r.end - origin).as_nanos()))
            .collect();
        vm_ops.sort_unstable();
        assert_eq!(
            vm_ops, replay_ops,
            "period {k}: VM computation instants differ from the replay"
        );
        let mut vm_comms: Vec<(usize, usize, i64)> = run
            .comms
            .iter()
            .filter(|r| r.period == k)
            .map(|r| {
                (
                    r.src_op.index(),
                    r.medium.index(),
                    (r.end - origin).as_nanos(),
                )
            })
            .collect();
        vm_comms.sort_unstable();
        assert_eq!(
            vm_comms, replay_comms,
            "period {k}: VM transfer instants differ from the replay"
        );
        // The replay's makespan is the last activity of each VM period.
        let last = vm_ops
            .iter()
            .map(|&(_, _, t)| t)
            .chain(vm_comms.iter().map(|&(_, _, t)| t))
            .max()
            .expect("non-empty period");
        assert_eq!(last, replay.makespan.as_nanos());
    }
}

/// The E9-style deployment: a monolithic law split across an I/O ECU and
/// a compute ECU over one CAN-like bus.
#[test]
fn vm_reproduces_replay_on_split_io_case() {
    let law = ControlLawSpec::monolithic("law", 2, 1);
    let (alg, io) = law.to_algorithm().expect("translate");
    let mut arch = ArchitectureGraph::new();
    let io_proc = arch.add_processor("io_ecu", "arm");
    let compute_proc = arch.add_processor("control_ecu", "arm");
    arch.add_bus(
        "can",
        &[io_proc, compute_proc],
        TimeNs::from_micros(200),
        TimeNs::from_micros(10),
    )
    .expect("bus");
    let mut db = uniform_timing(&alg, &io, TimeNs::from_micros(50), TimeNs::from_micros(500));
    for &s in io.sensors.iter().chain(&io.actuators) {
        db.forbid(s, compute_proc);
    }
    for &f in &io.stages {
        db.forbid(f, io_proc);
    }
    let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).expect("adequation");
    assert_vm_matches_replay(&alg, &arch, &schedule, TimeNs::from_millis(5));
}

/// The E10 quarter-car deployment: the filtered suspension law on three
/// ECUs sharing a CAN bus, with I/O pinned by interdictions.
#[test]
fn vm_reproduces_replay_on_quarter_car_case() {
    let law = ControlLawSpec::filtered("susp", 4, 1).with_data_units(8);
    let (alg, io) = law.to_algorithm().expect("translate");
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
    let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).expect("adequation");
    assert_vm_matches_replay(&alg, &arch, &schedule, TimeNs::from_millis(5));
}
