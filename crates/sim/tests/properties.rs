//! Property-based tests of the simulation kernel.

use std::any::Any;

use ecl_blocks::{
    add_clock, Constant, DeadZone, Gain, Integrator as Integ, Ramp, SampleHold, Saturation, Sine,
    StateSpaceCt, Step, Sum, UnitDelay,
};
use ecl_sim::ode::{integrate, Integrator};
use ecl_sim::{
    Block, BlockId, EventActions, EventCalendar, EventCtx, Model, PortSpec, SimOptions, Simulator,
    TimeNs,
};
use proptest::prelude::*;

/// Delegates everything to the wrapped block except `depends_on_time`,
/// which keeps its conservative default: a diagram of these re-evaluates
/// every block the derivative pass reads on every right-hand-side call.
struct Moving(Box<dyn Block>);

impl Block for Moving {
    fn type_name(&self) -> &'static str {
        self.0.type_name()
    }
    fn ports(&self) -> PortSpec {
        self.0.ports()
    }
    fn feedthrough(&self, input: usize) -> bool {
        self.0.feedthrough(input)
    }
    fn num_states(&self) -> usize {
        self.0.num_states()
    }
    fn init_states(&self, x: &mut [f64]) {
        self.0.init_states(x)
    }
    fn derivatives(&self, t: f64, x: &[f64], inputs: &[f64], dx: &mut [f64]) {
        self.0.derivatives(t, x, inputs, dx)
    }
    fn outputs(&mut self, t: f64, x: &[f64], inputs: &[f64], outputs: &mut [f64]) {
        self.0.outputs(t, x, inputs, outputs)
    }
    fn on_start(&mut self, actions: &mut EventActions) {
        self.0.on_start(actions)
    }
    fn on_event(&mut self, port: usize, t: TimeNs, ctx: &mut EventCtx<'_>) {
        self.0.on_event(port, t, ctx)
    }
    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// Delegates everything to the wrapped block except `linear_dynamics`,
/// which keeps its `None` default: the engine must integrate it.
struct Opaque(Box<dyn Block>);

impl Block for Opaque {
    fn type_name(&self) -> &'static str {
        self.0.type_name()
    }
    fn ports(&self) -> PortSpec {
        self.0.ports()
    }
    fn feedthrough(&self, input: usize) -> bool {
        self.0.feedthrough(input)
    }
    fn depends_on_time(&self) -> bool {
        self.0.depends_on_time()
    }
    fn num_states(&self) -> usize {
        self.0.num_states()
    }
    fn init_states(&self, x: &mut [f64]) {
        self.0.init_states(x)
    }
    fn derivatives(&self, t: f64, x: &[f64], inputs: &[f64], dx: &mut [f64]) {
        self.0.derivatives(t, x, inputs, dx)
    }
    fn outputs(&mut self, t: f64, x: &[f64], inputs: &[f64], outputs: &mut [f64]) {
        self.0.outputs(t, x, inputs, outputs)
    }
    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// One random sampled LTI loop: an `n`-state, `m`-input plant (`C = I`,
/// `D = 0`) whose inputs are sample-and-holds of a sine plus a gain on
/// one plant output, clocked off the `record_dt` grid.
#[derive(Debug, Clone)]
struct LtiLoop {
    n: usize,
    m: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    shift: f64,
    k: f64,
    period_us: i64,
    offset_us: i64,
}

fn lti_loop(lp: &LtiLoop, opaque: bool) -> Model {
    let (n, m) = (lp.n, lp.m);
    let mut a = lp.a[..n * n].to_vec();
    for i in 0..n {
        a[i * n + i] += lp.shift;
    }
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        c[i * n + i] = 1.0;
    }
    let x0 = (0..n).map(|i| 0.5 - 0.25 * i as f64).collect();
    let plant = StateSpaceCt::new(n, m, n, a, lp.b[..n * m].to_vec(), c, vec![0.0; n * m], x0)
        .expect("valid plant");
    let mut md = Model::new();
    let p = if opaque {
        md.add_block("plant", Opaque(Box::new(plant)))
    } else {
        md.add_block("plant", plant)
    };
    let clk = add_clock(
        &mut md,
        "clk",
        TimeNs::from_micros(lp.period_us),
        TimeNs::from_micros(lp.offset_us),
    )
    .expect("valid clock");
    for j in 0..m {
        let src = md.add_block(format!("src{j}"), Sine::new(1.0, 7.0 + 13.0 * j as f64));
        let fb = md.add_block(format!("fb{j}"), Gain::new(lp.k));
        let sum = md.add_block(format!("sum{j}"), Sum::new(vec![1.0, 1.0]).expect("valid"));
        let sh = md.add_block(format!("sh{j}"), SampleHold::new(0.0));
        md.connect(p, j % n, fb, 0).expect("wire");
        md.connect(src, 0, sum, 0).expect("wire");
        md.connect(fb, 0, sum, 1).expect("wire");
        md.connect(sum, 0, sh, 0).expect("wire");
        md.connect(sh, 0, p, j).expect("wire");
        md.connect_event(clk, 0, sh, 0).expect("wire");
    }
    for i in 0..n {
        md.probe(format!("x{i}"), p, i).expect("probe");
    }
    md
}

/// A one-state plant `ẋ = a·x + u`, `y = x + d·u`.
fn plant(a: f64, d: f64) -> StateSpaceCt {
    StateSpaceCt::new(1, 1, 1, vec![a], vec![1.0], vec![1.0], vec![d], vec![0.5]).expect("valid")
}

/// Builds a model whose blocks are all wrapped in [`Moving`], or none.
struct Builder {
    m: Model,
    moving: bool,
}

impl Builder {
    fn add(&mut self, block: impl Block) -> BlockId {
        let name = format!("b{}", self.m.len());
        if self.moving {
            self.m.add_block(name, Moving(Box::new(block)))
        } else {
            self.m.add_block(name, block)
        }
    }

    fn wire(&mut self, src: BlockId, dst: BlockId, port: usize) {
        self.m.connect(src, 0, dst, port).expect("valid wire");
    }
}

/// Parameters of one random `ecl-blocks` diagram: a skeleton covering
/// every case of the continuous cone, then a random tail of `(kind,
/// parameter, wiring seed, wiring seed)`.
#[derive(Debug, Clone)]
struct Diagram {
    period_us: i64,
    source: usize,
    k: f64,
    a: f64,
    d: f64,
    tail: Vec<(usize, f64, usize, usize)>,
}

fn build(dg: &Diagram, moving: bool) -> Model {
    let mut m = Model::new();
    let clk = add_clock(
        &mut m,
        "clk",
        TimeNs::from_micros(dg.period_us),
        TimeNs::ZERO,
    )
    .expect("valid clock");
    let mut b = Builder { m, moving };
    let clocked = |b: &mut Builder, block: BlockId| {
        b.m.connect_event(clk, 0, block, 0)
            .expect("valid event wire");
    };
    // A Sine, Step or Ramp straight into an integrator.
    let src = match dg.source {
        0 => b.add(Sine::new(1.5, 40.0).with_phase(dg.k)),
        1 => b.add(Step::new(0.011, dg.k, 1.0)),
        _ => b.add(Ramp::new(0.004, dg.k)),
    };
    let i1 = b.add(Integ::new(0.0));
    b.wire(src, i1, 0);
    // stateful -> Gain -> Sum -> StateSpaceCt with nonzero D.
    let g = b.add(Gain::new(dg.k));
    let c = b.add(Constant::new(1.5));
    let sum = b.add(Sum::new(vec![1.0, dg.k]).expect("valid sum"));
    let p1 = b.add(plant(dg.a, dg.d));
    b.wire(i1, g, 0);
    b.wire(g, sum, 0);
    b.wire(c, sum, 1);
    b.wire(sum, p1, 0);
    // A clocked SampleHold and a Constant driving a plant.
    let sh = b.add(SampleHold::new(0.25));
    clocked(&mut b, sh);
    let sum2 = b.add(Sum::new(vec![1.0, -1.0]).expect("valid sum"));
    let p2 = b.add(plant(dg.a, 0.0));
    b.wire(p1, sh, 0);
    b.wire(sh, sum2, 0);
    b.wire(c, sum2, 1);
    b.wire(sum2, p2, 0);
    let mut outs = vec![src, i1, g, c, sum, p1, sh, sum2, p2];
    // The tail: feedthrough inputs pick an earlier block, the others any
    // block (closing loops through state and holds).
    let mut wires = Vec::new();
    for &(kind, p, s0, s1) in &dg.tail {
        let (id, ins, ft) = match kind {
            0 => (b.add(Constant::new(p)), 0, false),
            1 => (b.add(Sine::new(p, 25.0)), 0, false),
            2 => (b.add(Gain::new(p)), 1, true),
            3 => (b.add(Sum::new(vec![p, 1.0]).expect("valid sum")), 2, true),
            4 => (b.add(Saturation::new(-1.0, 1.0).expect("valid")), 1, true),
            5 => (b.add(DeadZone::new(p.abs()).expect("valid")), 1, true),
            6 => (b.add(Integ::new(p)), 1, false),
            7 => (b.add(plant(-1.0 - p.abs(), p)), 1, p != 0.0),
            8 => {
                let id = b.add(UnitDelay::new(p));
                clocked(&mut b, id);
                (id, 1, false)
            }
            _ => {
                let id = b.add(SampleHold::new(p));
                clocked(&mut b, id);
                (id, 1, false)
            }
        };
        for (port, seed) in [s0, s1].into_iter().enumerate().take(ins) {
            wires.push((id, port, seed, ft.then_some(outs.len())));
        }
        outs.push(id);
    }
    for (id, port, seed, before) in wires {
        let src = outs[seed % before.unwrap_or(outs.len())];
        b.wire(src, id, port);
    }
    for (n, &id) in outs.iter().enumerate() {
        b.m.probe(format!("y{n}"), id, 0).expect("valid probe");
    }
    b.m
}

/// Probe samples as raw bits, event records and every engine counter.
type RunBits = (
    Vec<(String, Vec<u64>, Vec<u64>)>,
    Vec<ecl_sim::EventRecord>,
    ecl_sim::EngineStats,
);

fn run_bits(model: Model, opts: SimOptions, until: TimeNs) -> Result<RunBits, String> {
    let mut sim = Simulator::new(model, opts).map_err(|e| e.to_string())?;
    sim.run(until / 2).map_err(|e| e.to_string())?;
    sim.run(until).map_err(|e| e.to_string())?;
    let r = sim.result();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    let signals = r
        .signals()
        .map(|(n, s)| (n.to_string(), bits(s.times()), bits(s.values())))
        .collect();
    Ok((signals, r.event_log().to_vec(), sim.stats().clone()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Time arithmetic is consistent with raw nanosecond arithmetic.
    #[test]
    fn time_arithmetic(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
        let (ta, tb) = (TimeNs::from_nanos(a), TimeNs::from_nanos(b));
        prop_assert_eq!((ta + tb).as_nanos(), a + b);
        prop_assert_eq!((ta - tb).as_nanos(), a - b);
        prop_assert_eq!((-ta).as_nanos(), -a);
        prop_assert_eq!(ta.max(tb).as_nanos(), a.max(b));
        prop_assert_eq!(ta.min(tb).as_nanos(), a.min(b));
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta.abs().as_nanos(), a.abs());
    }

    /// from_secs_f64 round-trips within a nanosecond.
    #[test]
    fn time_secs_roundtrip(s in -1e6f64..1e6) {
        let t = TimeNs::from_secs_f64(s);
        prop_assert!((t.as_secs_f64() - s).abs() <= 1e-9);
    }

    /// The calendar is a stable priority queue: pops are sorted by time,
    /// and equal times preserve insertion order.
    #[test]
    fn calendar_is_stable_priority_queue(times in proptest::collection::vec(0i64..1000, 1..200)) {
        let mut cal = EventCalendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(TimeNs::from_nanos(t), BlockId::from_index(i), 0);
        }
        let mut last_time = TimeNs::from_nanos(i64::MIN);
        let mut last_idx_at_time = 0usize;
        let mut popped = 0usize;
        while let Some(e) = cal.pop() {
            popped += 1;
            prop_assert!(e.time >= last_time);
            if e.time == last_time {
                prop_assert!(e.emitter.index() > last_idx_at_time, "stability violated");
            }
            last_time = e.time;
            last_idx_at_time = e.emitter.index();
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Linear ODE ẋ = a·x integrates to the exact exponential for any
    /// stable rate and any span.
    #[test]
    fn linear_ode_matches_exponential(a in -5.0f64..-0.01, span in 0.01f64..5.0) {
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| dx[0] = a * x[0];
        let mut x = vec![1.0];
        integrate(&mut f, 0.0, span, &mut x, Integrator::default()).expect("integrates");
        let expect = (a * span).exp();
        prop_assert!((x[0] - expect).abs() < 1e-6 * expect.max(1e-3), "{} vs {expect}", x[0]);
    }

    /// Integration is additive over subintervals: integrating [0, t1] then
    /// [t1, t2] equals integrating [0, t2] (well within tolerance).
    #[test]
    fn integration_additive(t1 in 0.1f64..1.0, dt in 0.1f64..1.0) {
        let f = |t: f64, x: &[f64], dx: &mut [f64]| {
            dx[0] = (t).sin() - 0.5 * x[0];
        };
        let t2 = t1 + dt;
        let mut x_split = vec![1.0];
        let mut f1 = f;
        integrate(&mut f1, 0.0, t1, &mut x_split, Integrator::default()).expect("ok");
        integrate(&mut f1, t1, t2, &mut x_split, Integrator::default()).expect("ok");
        let mut x_whole = vec![1.0];
        integrate(&mut f1, 0.0, t2, &mut x_whole, Integrator::default()).expect("ok");
        prop_assert!((x_split[0] - x_whole[0]).abs() < 1e-6);
    }

    /// RK4 with a small step agrees with adaptive RK45.
    #[test]
    fn rk4_agrees_with_rk45(omega in 0.5f64..5.0) {
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| {
            dx[0] = x[1];
            dx[1] = -omega * omega * x[0];
        };
        let mut a = vec![1.0, 0.0];
        let mut b = vec![1.0, 0.0];
        integrate(&mut f, 0.0, 2.0, &mut a, Integrator::Rk4 { h: 1e-3 }).expect("ok");
        integrate(&mut f, 0.0, 2.0, &mut b, Integrator::default()).expect("ok");
        prop_assert!((a[0] - b[0]).abs() < 1e-5, "{} vs {}", a[0], b[0]);
        // Both match the analytic cos(w t).
        prop_assert!((a[0] - (2.0 * omega).cos()).abs() < 1e-4);
    }

    /// Stepping LTI plants in closed form agrees with tightly toleranced
    /// RK45 on the same loop with the plant's `linear_dynamics` hidden:
    /// identical probe instants, values within a relative-plus-absolute
    /// 1e-9, over two `run` legs.
    #[test]
    fn exact_stepping_matches_tight_rk45(
        n in 1usize..5,
        m in 1usize..3,
        a in proptest::collection::vec(-3.0f64..3.0, 16),
        b in proptest::collection::vec(-2.0f64..2.0, 8),
        shift in -4.0f64..1.0,
        k in -2.0f64..2.0,
        period_us in 300i64..4000,
        offset_us in 0i64..300,
    ) {
        prop_assume!(period_us % 1000 != 0);
        let lp = LtiLoop { n, m, a, b, shift, k, period_us, offset_us };
        let run = |opaque: bool, integrator| {
            let mut sim = Simulator::new(
                lti_loop(&lp, opaque),
                SimOptions { integrator, ..SimOptions::default() },
            )
            .expect("valid model");
            sim.run(TimeNs::from_micros(37_300)).expect("runs");
            sim.run(TimeNs::from_millis(80)).expect("runs");
            (sim.result().clone(), sim.stats().clone())
        };
        let (exact, exact_stats) = run(false, Integrator::default());
        prop_assert!(exact_stats.exact_chunks > 0);
        prop_assert_eq!(exact_stats.exact_chunks, exact_stats.integration_spans);
        prop_assert_eq!(exact_stats.ode.rhs_evals, 0);
        let (rk, rk_stats) = run(
            true,
            Integrator::Rk45 { rtol: 1e-12, atol: 1e-14, h_max: 0.01 },
        );
        prop_assert!(rk_stats.ode.rhs_evals > 0);
        prop_assert_eq!(rk_stats.exact_chunks, 0);
        prop_assert_eq!(exact.event_log(), rk.event_log());
        for ((name, e), (_, r)) in exact.signals().zip(rk.signals()) {
            prop_assert_eq!(e.times(), r.times(), "{}", name);
            for (&ev, &rv) in e.values().iter().zip(r.values()) {
                prop_assert!(
                    (ev - rv).abs() <= 1e-9 * (1.0 + rv.abs()),
                    "{name}: exact {ev} vs rk45 {rv} ({lp:?})"
                );
            }
        }
    }

    /// `ecl-blocks`' `depends_on_time` overrides are sound: freezing the
    /// blocks that declare no time dependence reproduces, bit for bit, the
    /// same diagram with every block kept moving — every probe sample,
    /// every event record, every counter.
    #[test]
    fn block_library_cone_matches_all_moving(
        period_us in 700i64..4000,
        source in 0usize..3,
        k in -2.0f64..2.0,
        a in -60.0f64..-0.5,
        d in 0.1f64..2.0,
        rk4 in 0usize..4,
        tail in proptest::collection::vec(
            (0usize..10, -2.0f64..2.0, 0usize..1000, 0usize..1000),
            0..8,
        ),
    ) {
        let dg = Diagram { period_us, source, k, a, d, tail };
        let opts = SimOptions {
            integrator: if rk4 == 0 {
                Integrator::Rk4 { h: 3e-4 }
            } else {
                Integrator::default()
            },
            ..SimOptions::default()
        };
        let until = TimeNs::from_millis(30);
        let frozen = run_bits(build(&dg, false), opts, until);
        prop_assert!(frozen.is_ok(), "{frozen:?}");
        prop_assert_eq!(frozen, run_bits(build(&dg, true), opts, until));
    }
}

/// A time-reading source in the cone keeps the plant on the integrator:
/// a `Sine` wired straight into `StateSpaceCt` is integrated, the same
/// plant behind a sample-and-hold is stepped in closed form.
#[test]
fn time_reading_source_in_the_cone_keeps_rk45() {
    let run = |held: bool| {
        let mut m = Model::new();
        let src = m.add_block("src", Sine::new(1.0, 5.0));
        let p = m.add_block("plant", plant(-2.0, 0.0));
        if held {
            let clk = add_clock(&mut m, "clk", TimeNs::from_micros(700), TimeNs::ZERO)
                .expect("valid clock");
            let sh = m.add_block("sh", SampleHold::new(0.0));
            m.connect(src, 0, sh, 0).expect("wire");
            m.connect(sh, 0, p, 0).expect("wire");
            m.connect_event(clk, 0, sh, 0).expect("wire");
        } else {
            m.connect(src, 0, p, 0).expect("wire");
        }
        let mut sim = Simulator::new(m, SimOptions::default()).expect("valid");
        sim.run(TimeNs::from_millis(50)).expect("runs");
        sim.stats().clone()
    };
    let direct = run(false);
    assert!(direct.ode.rhs_evals > 0);
    assert_eq!(direct.exact_chunks, 0);
    assert_eq!(direct.discretizations, 0);
    let held = run(true);
    assert!(held.exact_chunks > 0);
    assert_eq!(held.ode.rhs_evals, 0);
}
