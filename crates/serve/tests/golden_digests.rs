//! Golden values of every content digest that keys a memo table or an
//! on-disk store entry.
//!
//! `results/cache/<kind>/<digest>.bin` files written by one build must
//! warm-start every later build, so these hashes are a persistence
//! format, not an implementation detail. Each digest is computed on a
//! fixed, hand-built fixture and compared against its literal `u64`: a
//! refactor that changes a single hashed byte fails here before it
//! silently invalidates a warm store.

use ecl_aaa::{adequation, schedule_digest, AdequationOptions, MappingPolicy, TimeNs};
use ecl_bench::fleet::report_digest;
use ecl_bench::{split_scenario, SplitScenario};
use ecl_control::StateSpace;
use ecl_core::cosim::{loop_spec_digest, scheduled_run_digest, DisturbanceKind, LoopSpec};
use ecl_core::faults::{FaultConfig, FaultPlan};
use ecl_linalg::Mat;
use ecl_serve::SweepRequest;

/// The canonical 2-ECU split target with two sensed signals.
fn target() -> SplitScenario {
    split_scenario(
        2,
        1,
        TimeNs::from_micros(40),
        TimeNs::from_micros(30),
        TimeNs::from_micros(250),
    )
    .unwrap()
}

/// A two-state loop touching every [`LoopSpec`] field, including the
/// optional input-memory gain and a noise disturbance.
fn spec() -> LoopSpec {
    let plant = StateSpace::new(
        Mat::from_rows(&[&[0.0, 1.0], &[-2.0, -0.5]]).unwrap(),
        Mat::from_rows(&[&[0.0, 0.0], &[1.0, 0.25]]).unwrap(),
        Mat::identity(2),
        Mat::zeros(2, 2),
    )
    .unwrap();
    LoopSpec {
        plant,
        n_controls: 1,
        x0: vec![1.0, -0.5],
        feedback: Mat::from_rows(&[&[1.5, 0.75]]).unwrap(),
        input_memory: Some(Mat::from_rows(&[&[0.125]]).unwrap()),
        ts: 0.004,
        horizon: 0.4,
        q_weight: 1.0,
        r_weight: 1e-3,
        disturbance: DisturbanceKind::Noise {
            std_dev: 0.01,
            seed: 17,
        },
    }
}

/// A non-trivial plan exercising all three fault classes.
fn plan(t: &SplitScenario) -> FaultPlan {
    let schedule = adequation(&t.alg, &t.arch, &t.db, AdequationOptions::default()).unwrap();
    let config = FaultConfig {
        seed: 7,
        frame_loss_rate: 0.3,
        max_retries: 2,
        link_outage_rate: 0.1,
        outage_periods: 3,
        proc_dropout_rate: 0.02,
    };
    FaultPlan::generate(&config, &schedule, &t.arch, 24).unwrap()
}

#[test]
fn schedule_digest_is_pinned() {
    let t = target();
    let pressure = schedule_digest(&t.alg, &t.arch, &t.db, AdequationOptions::default());
    let random = schedule_digest(
        &t.alg,
        &t.arch,
        &t.db,
        AdequationOptions {
            policy: MappingPolicy::Random { seed: 5 },
        },
    );
    assert_eq!(pressure, 5594389224461149428);
    assert_eq!(random, 2614050256019725715);
}

#[test]
fn loop_spec_digest_is_pinned() {
    let mut nominal = spec();
    assert_eq!(loop_spec_digest(&nominal), 3463389370162172027);
    nominal.input_memory = None;
    nominal.disturbance = DisturbanceKind::None;
    assert_eq!(loop_spec_digest(&nominal), 153687626110549973);
}

#[test]
fn fault_plan_digest_is_pinned() {
    let t = target();
    let plan = plan(&t);
    assert!(!plan.is_trivial(), "the fixture must inject faults");
    assert_eq!(plan.digest(), 7181753405447176357);
}

#[test]
fn scheduled_run_and_report_digests_are_pinned() {
    let t = target();
    let sched = schedule_digest(&t.alg, &t.arch, &t.db, AdequationOptions::default());
    let plan = plan(&t);
    let nominal = scheduled_run_digest(&spec(), sched, None);
    let faulty = scheduled_run_digest(&spec(), sched, Some(&plan));
    assert_eq!(nominal, 7923962451031410904);
    assert_eq!(faulty, 17582577257008323479);
    assert_eq!(report_digest(nominal, 8_000_000), 5284014646051711584);
    assert_eq!(report_digest(faulty, 10_000_000), 12878277214321337433);
}

#[test]
fn sweep_request_digest_is_pinned() {
    assert_eq!(SweepRequest::default().digest(), 7718525955118535433);
}
