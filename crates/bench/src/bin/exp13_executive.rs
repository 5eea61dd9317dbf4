//! E13-EXEC — the virtual executive cross-validated against the graph
//! of delays.
//!
//! The paper's graph of delays *predicts* the instants a distributed
//! implementation samples and actuates at; the `ecl-exec` virtual
//! machine *measures* them, by running the generated executives — every
//! ECU's instruction sequence and every bus's communication sequence,
//! stepped by one sequential executor — on a virtual clock. Since every
//! instant is a max/plus fold, a concurrent target would measure the
//! same. This experiment diffs the two on the quarter-car
//! case study of E10 (3 ECUs on one CAN bus) and demands **zero
//! divergence**, twice:
//!
//! * nominally, over 60 control periods;
//! * under a non-trivial fault plan (frame losses healed by bounded
//!   retransmission), over the same 60 periods, with the *same* plan
//!   driving the VM's channels and the delay graph's `FaultyDelay`
//!   blocks.
//!
//! A fleet sweep with `validate_executive` then repeats the diff over
//! perturbed DC-motor implementations, and the usual worker-invariance
//! gate applies: `ECL_FLEET_WORKERS=<n>` runs the sweep on exactly `n`
//! workers and CI diffs `results/BENCH_exp13.json` across counts, so
//! the artifact carries no wall-clock content. Without the variable,
//! both counts run in-process and the binary asserts byte identity.

use ecl_aaa::{adequation, codegen, AdequationOptions, ArchitectureGraph, Schedule, TimeNs};
use ecl_bench::fleet::{run_sweep, workers_from_env, FaultAxes, SweepConfig, SweepOutput};
use ecl_bench::{dc_motor_loop, split_scenario, write_result};
use ecl_control::plants;
use ecl_core::faults::{CommFault, FaultConfig, FaultPlan};
use ecl_core::translate::{uniform_timing, ControlLawSpec};
use ecl_core::xval;
use ecl_exec::ExecOptions;

/// How many control periods the executives run for (>= 50 per the
/// experiment's acceptance bar).
const PERIODS: u32 = 60;

/// The E10 quarter-car deployment: suspension law on 3 ECUs sharing a
/// CAN bus, with placement interdictions pinning I/O to its ECU.
fn quarter_car_case() -> Result<
    (ecl_aaa::AlgorithmGraph, ArchitectureGraph, Schedule, TimeNs),
    Box<dyn std::error::Error>,
> {
    let plant = plants::quarter_car();
    let law = ControlLawSpec::filtered("susp", 4, 1).with_data_units(8);
    let (alg, io) = law.to_algorithm()?;

    let mut arch = ArchitectureGraph::new();
    let wheel_ecu = arch.add_processor("wheel_ecu", "cortex-m");
    let body_ecu = arch.add_processor("body_ecu", "cortex-m");
    let control_ecu = arch.add_processor("control_ecu", "cortex-a");
    arch.add_bus(
        "can",
        &[wheel_ecu, body_ecu, control_ecu],
        TimeNs::from_micros(120),
        TimeNs::from_micros(8),
    )?;

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

    let schedule = adequation(&alg, &arch, &db, AdequationOptions::default())?;
    Ok((alg, arch, schedule, TimeNs::from_secs_f64(plant.ts)))
}

/// Scans fault-plan seeds for a retries-only plan: at least one
/// retransmission, no dropped transfer, no dead processor. Such a plan
/// perturbs every downstream instant (retry cost is non-zero on the
/// CAN bus) while staying inside the regime both models define
/// identically.
fn retries_only_plan(
    schedule: &Schedule,
    arch: &ArchitectureGraph,
) -> Result<(u64, FaultPlan, u32), Box<dyn std::error::Error>> {
    for seed in 0..4096u64 {
        let config = FaultConfig {
            seed,
            frame_loss_rate: 0.05,
            max_retries: 3,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&config, schedule, arch, PERIODS)?;
        let n_procs = arch.processors().count();
        if (0..n_procs).any(|p| plan.proc_dead_from(p).is_some()) {
            continue;
        }
        let mut retries = 0u32;
        let mut dropped = false;
        for i in 0..schedule.comms().len() {
            for k in 0..PERIODS {
                match plan.comm_fault(i, k) {
                    CommFault::Ok => {}
                    CommFault::Retry(r) => retries += r,
                    CommFault::Drop => dropped = true,
                }
            }
        }
        if !dropped && retries > 0 {
            return Ok((seed, plan, retries));
        }
    }
    Err("no retries-only fault plan in 4096 seeds".into())
}

/// Runs the generated executives on the VM and diffs the measured
/// completion instants against the delay-graph prediction.
fn cross_validate(
    alg: &ecl_aaa::AlgorithmGraph,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
    period: TimeNs,
    faults: Option<&FaultPlan>,
) -> Result<xval::ValidationReport, Box<dyn std::error::Error>> {
    let generated = codegen::generate(schedule, alg, arch)?;
    assert!(
        codegen::check_deadlock_free(&generated.executives).is_free(),
        "quarter-car executives must be deadlock-free"
    );
    let opts = ExecOptions {
        period,
        periods: PERIODS,
        faults,
    };
    let measured = ecl_exec::run(&generated, arch, schedule, &opts)?;
    let predicted = xval::predict_op_completions(alg, arch, schedule, period, PERIODS, faults)?;
    Ok(xval::validate_schedule(
        &measured.timeline(),
        &predicted,
        alg,
    )?)
}

fn sweep_config(workers: usize) -> SweepConfig {
    SweepConfig {
        scenario_count: 16,
        workers,
        validate_executive: true,
        faults: FaultAxes {
            frame_loss_rates: vec![0.0, 0.10],
            link_outage_rates: vec![0.0, 0.15],
            proc_dropout_rates: vec![0.0, 0.01],
            ..FaultAxes::default()
        },
        ..SweepConfig::default()
    }
}

fn sweep(workers: usize) -> Result<SweepOutput, Box<dyn std::error::Error>> {
    let base = split_scenario(
        2,
        1,
        TimeNs::from_micros(200),
        TimeNs::from_micros(50),
        TimeNs::from_micros(500),
    )?;
    let spec = dc_motor_loop(0.3)?;
    Ok(run_sweep(&spec, &base, &sweep_config(workers))?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E13-EXEC — virtual executive vs graph of delays ({PERIODS} periods)\n");

    let (alg, arch, schedule, period) = quarter_car_case()?;

    // Gate 1: nominal execution measures exactly the modeled instants.
    let nominal = cross_validate(&alg, &arch, &schedule, period, None)?;
    println!("== nominal cross-validation ==\n{}", nominal.render());
    assert!(
        nominal.is_exact(),
        "nominal VM run diverged from the graph of delays:\n{}",
        nominal.render()
    );

    // Gate 2: the same fault plan drives both models to the same instants.
    let (seed, plan, retries) = retries_only_plan(&schedule, &arch)?;
    println!("fault plan: seed {seed}, {retries} retransmission(s), no drop, no dead ECU\n");
    let faulty = cross_validate(&alg, &arch, &schedule, period, Some(&plan))?;
    println!("== faulty cross-validation ==\n{}", faulty.render());
    assert!(
        faulty.is_exact(),
        "faulty VM run diverged from the graph of delays:\n{}",
        faulty.render()
    );

    // Gate 3: worker invariance of the self-validating fleet sweep.
    let summary = match workers_from_env()? {
        Some(workers) => {
            println!("validated sweep on {workers} worker(s) (ECL_FLEET_WORKERS)");
            sweep(workers)?.summary
        }
        None => {
            let serial = sweep(1)?;
            let parallel = sweep(4)?;
            assert!(
                serial.summary.render() == parallel.summary.render()
                    && serial.summary.to_json() == parallel.summary.to_json(),
                "1-worker and 4-worker validated sweeps must produce identical bytes"
            );
            println!("1-worker vs 4-worker validated sweep: byte-identical");
            serial.summary
        }
    };
    let validation = summary
        .validation
        .expect("sweep ran with validate_executive");
    println!(
        "sweep validation: {} scenarios, {} exact, max divergence {} ns\n",
        validation.validated, validation.exact, validation.max_divergence_ns
    );

    let md = format!(
        "E13-EXEC — virtual executive vs graph of delays\n\n\
         == nominal cross-validation ==\n{}\n\
         == faulty cross-validation (seed {seed}, {retries} retransmissions) ==\n{}\n\
         == validated fleet sweep ==\n{}",
        nominal.render(),
        faulty.render(),
        summary.render()
    );
    let report_path = write_result("exp13_executive.txt", &md)?;

    // The machine-readable artifact: wall-clock-free and worker-count
    // free, so CI can diff the bytes across ECL_FLEET_WORKERS values.
    let bench = format!(
        "{{\"experiment\":\"exp13_executive\",\
         \"periods\":{PERIODS},\
         \"nominal_exact\":{},\
         \"fault_seed\":{seed},\
         \"fault_retries\":{retries},\
         \"faulty_exact\":{},\
         \"sweep_validated\":{},\
         \"sweep_exact\":{},\
         \"sweep_max_divergence_ns\":{}}}\n",
        nominal.is_exact(),
        faulty.is_exact(),
        validation.validated,
        validation.exact,
        validation.max_divergence_ns,
    );
    let bench_path = write_result("BENCH_exp13.json", &bench)?;
    println!(
        "wrote {} and {}",
        report_path.display(),
        bench_path.display()
    );
    Ok(())
}
