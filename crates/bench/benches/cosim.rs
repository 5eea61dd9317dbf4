//! Criterion benches of the co-simulation pipeline: ideal loop, graph-of-
//! delays synthesis, the scheduled end-to-end run, and the runs a sweep
//! computes on a co-simulation memo miss.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ecl_aaa::{adequation, AdequationOptions, TimeNs};
use ecl_bench::{dc_motor_loop, split_scenario};
use ecl_core::cosim::{self, Activation, WiredLoop};
use ecl_core::delays::{self, DelayGraphConfig};
use ecl_core::faults::{FaultConfig, FaultPlan};
use ecl_sim::Model;
use ecl_telemetry::Collector;

fn bench_ideal(c: &mut Criterion) {
    let spec = dc_motor_loop(1.0).expect("valid");
    c.bench_function("cosim_ideal_1s", |bench| {
        bench.iter(|| cosim::run_ideal(&spec).expect("ok"))
    });
}

fn bench_delay_graph_build(c: &mut Criterion) {
    let scenario = split_scenario(
        4,
        1,
        TimeNs::from_millis(1),
        TimeNs::from_micros(100),
        TimeNs::from_millis(2),
    )
    .expect("valid");
    let schedule = adequation(
        &scenario.alg,
        &scenario.arch,
        &scenario.db,
        AdequationOptions::default(),
    )
    .expect("ok");
    c.bench_function("delay_graph_build", |bench| {
        bench.iter(|| {
            let mut model = Model::new();
            delays::build(
                &mut model,
                &scenario.alg,
                &scenario.arch,
                &schedule,
                TimeNs::from_millis(50),
                DelayGraphConfig::default(),
            )
            .expect("ok")
        })
    });
}

fn bench_scheduled(c: &mut Criterion) {
    let spec = dc_motor_loop(1.0).expect("valid");
    let scenario = split_scenario(
        2,
        1,
        TimeNs::from_millis(4),
        TimeNs::from_micros(200),
        TimeNs::from_millis(10),
    )
    .expect("valid");
    let schedule = adequation(
        &scenario.alg,
        &scenario.arch,
        &scenario.db,
        AdequationOptions::default(),
    )
    .expect("ok");
    c.bench_function("cosim_scheduled_1s", |bench| {
        bench.iter(|| {
            cosim::run_scheduled(
                &spec,
                &scenario.alg,
                &scenario.io,
                &schedule,
                &scenario.arch,
            )
            .expect("ok")
        })
    });
}

/// The runs a sweep over the standard deployment (the DC-motor loop at a
/// 50 ms horizon on the two-sensor, one-actuator split architecture)
/// computes on a memo miss: the scheduled run, nominal and under a fixed
/// frame-loss plan, and the ideal run. Each is measured whole, then as
/// its two stages: `/wire` (assembly + activation wiring, including
/// delay-graph synthesis) and `/run` (simulation + metric extraction).
fn bench_sweep_miss(c: &mut Criterion) {
    let spec = dc_motor_loop(0.05).expect("valid");
    let scenario = split_scenario(
        2,
        1,
        TimeNs::from_micros(200),
        TimeNs::from_micros(50),
        TimeNs::from_micros(500),
    )
    .expect("valid");
    let schedule = adequation(
        &scenario.alg,
        &scenario.arch,
        &scenario.db,
        AdequationOptions::default(),
    )
    .expect("ok");
    let periods = (spec.horizon / spec.ts).floor().max(1.0) as u32;
    let plan = FaultPlan::generate(
        &FaultConfig {
            seed: 1,
            frame_loss_rate: 0.2,
            ..FaultConfig::default()
        },
        &schedule,
        &scenario.arch,
        periods,
    )
    .expect("valid plan");
    assert!(!plan.is_trivial(), "the faulty bench must inject faults");
    let nominal =
        || Activation::scheduled(&scenario.alg, &scenario.io, &schedule, &scenario.arch, None);
    let faulty = || {
        Activation::scheduled(
            &scenario.alg,
            &scenario.io,
            &schedule,
            &scenario.arch,
            Some(plan.clone()),
        )
    };
    let run = |wired: WiredLoop| wired.run(&mut Collector::noop(), "").expect("ok");
    c.bench_function("cosim_sweep_miss_scheduled_50ms", |bench| {
        bench.iter(|| run(spec.wire(nominal()).expect("ok")))
    });
    c.bench_function("cosim_sweep_miss_scheduled_50ms/wire", |bench| {
        bench.iter(|| spec.wire(nominal()).expect("ok"))
    });
    c.bench_function("cosim_sweep_miss_scheduled_50ms/run", |bench| {
        bench.iter_batched(
            || spec.wire(nominal()).expect("ok"),
            run,
            BatchSize::SmallInput,
        )
    });
    c.bench_function("cosim_sweep_miss_faulty_50ms", |bench| {
        bench.iter(|| run(spec.wire(faulty()).expect("ok")))
    });
    c.bench_function("cosim_sweep_miss_faulty_50ms/wire", |bench| {
        bench.iter(|| spec.wire(faulty()).expect("ok"))
    });
    c.bench_function("cosim_sweep_miss_faulty_50ms/run", |bench| {
        bench.iter_batched(
            || spec.wire(faulty()).expect("ok"),
            run,
            BatchSize::SmallInput,
        )
    });
    c.bench_function("cosim_sweep_miss_ideal_50ms", |bench| {
        bench.iter(|| cosim::run_ideal(&spec).expect("ok"))
    });
    c.bench_function("cosim_sweep_miss_ideal_50ms/wire", |bench| {
        bench.iter(|| spec.wire(Activation::Ideal).expect("ok"))
    });
    c.bench_function("cosim_sweep_miss_ideal_50ms/run", |bench| {
        bench.iter_batched(
            || spec.wire(Activation::Ideal).expect("ok"),
            run,
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_ideal,
    bench_delay_graph_build,
    bench_scheduled,
    bench_sweep_miss
);
criterion_main!(benches);
