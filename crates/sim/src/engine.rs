//! The simulation engine: joint ODE integration of continuous state and
//! deterministic dispatch of activation events.

use crate::block::{EventActions, EventCtx};
use crate::error::SimError;
use crate::event::EventCalendar;
use crate::exact::ExactStepper;
use crate::model::{BlockId, Entry, Model};
use crate::ode::{self, Integrator, OdeRhs};
use crate::stats::EngineStats;
use crate::time::TimeNs;
use crate::trace::{EventRecord, Signal, SimResult};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// ODE method used between event instants, for models the engine
    /// cannot advance in closed form: a non-empty continuous cone (a
    /// time-reading source driving a plant, say), or a stateful block
    /// that declares no [linear dynamics](crate::Block::linear_dynamics).
    /// When every stateful block is LTI with frozen inputs, each chunk
    /// is stepped exactly and this setting is not used.
    pub integrator: Integrator,
    /// Probe recording resolution (seconds) for continuous spans. Probes
    /// are additionally recorded at every event instant.
    pub record_dt: f64,
    /// Maximum number of event deliveries at a single instant before the
    /// run aborts with [`SimError::EventCascadeOverflow`] (guards against
    /// zero-delay event loops).
    pub cascade_limit: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            integrator: Integrator::default(),
            record_dt: 1e-3,
            cascade_limit: 100_000,
        }
    }
}

/// Executes a [`Model`].
///
/// Construction ([`Simulator::new`]) validates the model (port wiring,
/// connected inputs, absence of algebraic loops) and freezes the evaluation
/// order; [`Simulator::run`] then advances the simulation. `run` may be
/// called repeatedly to continue from where the previous call stopped.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Simulator {
    model: Model,
    opts: SimOptions,
    layout: Layout,
    /// Flat input values (rewritten on every output pass).
    inputs: Vec<f64>,
    /// Flat output values.
    outputs: Vec<f64>,
    /// `evt_routes[block][out_port]` lists `(target, event_in)` pairs.
    evt_routes: Vec<Vec<Vec<(usize, usize)>>>,
    /// For each probe, the flat output index it reads (structure-of-arrays
    /// layout: the probe pass touches only this vector and `outputs`).
    probe_src: Vec<usize>,
    /// Joint continuous state.
    x: Vec<f64>,
    /// Integrator stage buffers, sized for `x` (growth bumps
    /// `EngineStats::hot_allocs`).
    ode_ws: ode::Workspace,
    /// Closed-form stepping of the stateful blocks, when the cone is
    /// empty and every one of them is LTI; `None` integrates instead.
    exact: Option<ExactStepper>,
    calendar: EventCalendar,
    now: TimeNs,
    started: bool,
    /// Reusable emission queue for event deliveries; pre-sized so the
    /// hot path never allocates (growth bumps `EngineStats::hot_allocs`).
    scratch_actions: EventActions,
    result: SimResult,
    stats: EngineStats,
    /// Integrate with the full-pass reference right-hand side.
    #[cfg(test)]
    full_pass: bool,
}

/// The flat signal/state layout of a model and the evaluation schedules
/// derived from its wiring, frozen by [`Simulator::new`].
#[derive(Debug)]
struct Layout {
    /// Block `b`'s inputs are `inputs[in_off[b]..in_off[b + 1]]`.
    in_off: Vec<usize>,
    /// Block `b`'s outputs are `outputs[out_off[b]..out_off[b + 1]]`.
    out_off: Vec<usize>,
    /// Block `b`'s states are `x[state_off[b]..state_off[b + 1]]`.
    state_off: Vec<usize>,
    /// For each flat input, the flat output driving it.
    input_src: Vec<usize>,
    /// Every block, topologically ordered over feedthrough edges: the
    /// committed output pass.
    eval_order: Vec<usize>,
    /// The continuous cone, in `eval_order`: the blocks whose outputs can
    /// change between events and that the derivative pass reads.
    cone: Vec<usize>,
    /// The blocks with continuous state.
    stateful: Vec<usize>,
}

impl Layout {
    /// Copies block `b`'s inputs from their driving outputs.
    fn pull_inputs(&self, b: usize, inputs: &mut [f64], outputs: &[f64]) {
        for gi in self.in_off[b]..self.in_off[b + 1] {
            inputs[gi] = outputs[self.input_src[gi]];
        }
    }

    /// Pulls block `b`'s inputs, then evaluates its outputs at `(t, x)`.
    fn eval_block(
        &self,
        entry: &mut Entry,
        b: usize,
        t: f64,
        x: &[f64],
        inputs: &mut [f64],
        outputs: &mut [f64],
    ) {
        self.pull_inputs(b, inputs, outputs);
        let outs = &mut outputs[self.out_off[b]..self.out_off[b + 1]];
        if outs.is_empty() {
            return;
        }
        let xs = &x[self.state_off[b]..self.state_off[b + 1]];
        entry
            .block
            .outputs(t, xs, &inputs[self.in_off[b]..self.in_off[b + 1]], outs);
    }
}

/// Prefix sums of `counts`: `n + 1` offsets, the last one the total.
fn offsets(counts: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut off = vec![0];
    for c in counts {
        off.push(off[off.len() - 1] + c);
    }
    off
}

impl Simulator {
    /// Validates `model` and prepares it for execution.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnconnectedInput`] if any regular input lacks a driver.
    /// * [`SimError::AlgebraicLoop`] if the feedthrough graph is cyclic.
    pub fn new(model: Model, opts: SimOptions) -> Result<Self, SimError> {
        let n = model.entries.len();
        let es = &model.entries;
        let in_off = offsets(es.iter().map(|e| e.spec.inputs));
        let out_off = offsets(es.iter().map(|e| e.spec.outputs));
        let state_off = offsets(es.iter().map(|e| e.block.num_states()));
        let (ni, no, ns) = (in_off[n], out_off[n], state_off[n]);

        // Map each flat input to its driving flat output and block.
        let mut input_src: Vec<Option<(usize, usize)>> = vec![None; ni];
        for c in &model.sig_conns {
            let gi = in_off[c.dst.index()] + c.inp;
            input_src[gi] = Some((out_off[c.src.index()] + c.out, c.src.index()));
        }
        for (b, e) in es.iter().enumerate() {
            for p in 0..e.spec.inputs {
                if input_src[in_off[b] + p].is_none() {
                    return Err(SimError::UnconnectedInput {
                        block: e.name.clone(),
                        port: p,
                    });
                }
            }
        }
        let (input_src, driver): (Vec<usize>, Vec<usize>) = input_src.into_iter().flatten().unzip();

        // Topological sort over feedthrough edges (Kahn, stable order).
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in &model.sig_conns {
            let dst = c.dst.index();
            if es[dst].block.feedthrough(c.inp) {
                succ[c.src.index()].push(dst);
                indeg[dst] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut eval_order = Vec::with_capacity(n);
        let mut cursor = 0;
        while cursor < ready.len() {
            let b = ready[cursor];
            cursor += 1;
            eval_order.push(b);
            for &s in &succ[b] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        if eval_order.len() != n {
            let cyclic: Vec<String> = (0..n)
                .filter(|&i| indeg[i] > 0)
                .map(|i| es[i].name.clone())
                .collect();
            return Err(SimError::AlgebraicLoop { blocks: cyclic });
        }

        // The continuous cone. A block is *moving* if its outputs can
        // change between events: it has continuous state, depends on time,
        // or has a feedthrough input driven by a moving block (propagated
        // in topological order). Only moving blocks whose outputs the
        // derivative pass reads — the drivers of a stateful block's
        // inputs, closed over the inputs of every block so re-evaluated —
        // are re-evaluated per right-hand-side call; every other output is
        // frozen at the last committed pass.
        let stateful: Vec<usize> = (0..n)
            .filter(|&b| state_off[b + 1] > state_off[b])
            .collect();
        let mut moving: Vec<bool> = (0..n)
            .map(|b| state_off[b + 1] > state_off[b] || es[b].block.depends_on_time())
            .collect();
        for &b in &eval_order {
            if moving[b] {
                for &s in &succ[b] {
                    moving[s] = true;
                }
            }
        }
        let mut read = vec![false; n];
        let mut pending = stateful.clone();
        while let Some(b) = pending.pop() {
            for &d in &driver[in_off[b]..in_off[b + 1]] {
                if !read[d] {
                    read[d] = true;
                    if moving[d] {
                        pending.push(d);
                    }
                }
            }
        }
        let cone: Vec<usize> = eval_order
            .iter()
            .copied()
            .filter(|&b| read[b] && moving[b])
            .collect();
        // With an empty cone every stateful block's inputs are frozen
        // between events, so LTI blocks can be stepped in closed form.
        let exact = if cone.is_empty() {
            ExactStepper::plan(es, &stateful, &state_off, &in_off)?
        } else {
            None
        };

        // Event routing table.
        let mut evt_routes: Vec<Vec<Vec<(usize, usize)>>> = es
            .iter()
            .map(|e| vec![Vec::new(); e.spec.event_outputs])
            .collect();
        for c in &model.evt_conns {
            evt_routes[c.src.index()][c.out].push((c.dst.index(), c.inp));
        }

        // Continuous state initialization.
        let mut x = vec![0.0; ns];
        for &b in &stateful {
            es[b]
                .block
                .init_states(&mut x[state_off[b]..state_off[b + 1]]);
        }

        let result = SimResult {
            signals: model
                .probes
                .iter()
                .map(|p| (p.name.clone(), Signal::new()))
                .collect(),
            events: Vec::new(),
            end_time: TimeNs::ZERO,
        };
        let probe_src = model
            .probes
            .iter()
            .map(|p| out_off[p.block.index()] + p.out)
            .collect();

        Ok(Simulator {
            stats: EngineStats::new(n),
            model,
            opts,
            layout: Layout {
                in_off,
                out_off,
                state_off,
                input_src,
                eval_order,
                cone,
                stateful,
            },
            inputs: vec![0.0; ni],
            outputs: vec![0.0; no],
            evt_routes,
            probe_src,
            x,
            ode_ws: ode::Workspace::new(ns),
            exact,
            calendar: EventCalendar::new(),
            now: TimeNs::ZERO,
            started: false,
            scratch_actions: EventActions::with_capacity(8),
            result,
            #[cfg(test)]
            full_pass: false,
        })
    }

    /// The wrapped model (for downcasting blocks after a run).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Mutable access to the wrapped model's blocks.
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
    }

    /// Consumes the simulator, returning the model.
    pub fn into_model(self) -> Model {
        self.model
    }

    /// Current simulation time.
    pub fn now(&self) -> TimeNs {
        self.now
    }

    /// Hot-loop execution counters accumulated across `run` calls:
    /// per-block activations, ODE steps taken/rejected, event-calendar
    /// peak depth, cascade depth.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Advances the simulation to `until` (inclusive of events at exactly
    /// `until`) and returns a borrowed view of the accumulated results.
    ///
    /// The returned reference keeps the simulator mutably borrowed; call
    /// [`result`](Simulator::result) afterwards to read the results
    /// alongside other accessors ([`stats`](Simulator::stats),
    /// [`model`](Simulator::model)), or [`into_result`](Simulator::into_result)
    /// to take ownership without copying.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidHorizon`] if `until` precedes the current time.
    /// * Event-emission validation errors ([`SimError::InvalidEmit`],
    ///   [`SimError::NegativeDelay`], [`SimError::EventCascadeOverflow`]).
    /// * [`SimError::IntegrationFailure`] from the ODE solver.
    pub fn run(&mut self, until: TimeNs) -> Result<&SimResult, SimError> {
        if until < self.now {
            return Err(SimError::InvalidHorizon {
                now: self.now,
                until,
            });
        }
        if !self.started {
            self.started = true;
            for b in 0..self.model.entries.len() {
                let mut actions = std::mem::take(&mut self.scratch_actions);
                self.model.entries[b].block.on_start(&mut actions);
                self.schedule_actions(b, &mut actions)?;
                self.scratch_actions = actions;
            }
            self.eval_outputs_committed();
            self.record_probes();
        } else {
            // `model_mut` may have retuned a block since the last committed
            // pass; the right-hand side reads frozen outputs from it, and
            // the closed-form stepper's cached (Φ, Γ) its (A, B).
            self.eval_outputs_committed();
            if let Some(exact) = &mut self.exact {
                exact.clear();
            }
        }

        loop {
            match self.calendar.peek_time() {
                Some(te) if te <= until => {
                    if te > self.now {
                        self.integrate_span(te)?;
                    }
                    self.process_instant()?;
                }
                _ => {
                    if until > self.now {
                        self.integrate_span(until)?;
                    }
                    break;
                }
            }
        }
        self.result.end_time = self.now;
        Ok(&self.result)
    }

    /// The results accumulated by [`run`](Simulator::run) calls so far.
    pub fn result(&self) -> &SimResult {
        &self.result
    }

    /// Consumes the simulator, returning the accumulated results without
    /// copying the trace.
    pub fn into_result(self) -> SimResult {
        self.result
    }

    /// Advances the continuous state from `self.now` to `t_end`,
    /// recording probes every `record_dt`: in closed form when the
    /// stateful blocks are LTI with frozen inputs, else with the
    /// configured integrator.
    ///
    /// Chunk boundaries are integer-nanosecond instants derived by
    /// repeated addition of the nanosecond-rounded `record_dt` — exact in
    /// `i64`, so probe instants never drift off the recording grid no
    /// matter how many chunks a span covers (an `f64` accumulator loses
    /// ~1 ulp per chunk and wanders off-grid over long horizons).
    fn integrate_span(&mut self, t_end: TimeNs) -> Result<(), SimError> {
        if self.x.is_empty() {
            self.now = t_end;
            self.eval_outputs_committed();
            self.record_probes();
            return Ok(());
        }
        self.stats.hot_allocs += self.ode_ws.fit(self.x.len());
        let dt = TimeNs::from_secs_f64(self.opts.record_dt.max(1e-12)).max(TimeNs::from_nanos(1));
        while self.now < t_end {
            let chunk_end = self.now.saturating_add(dt).min(t_end);
            let (a, b) = (self.now.as_secs_f64(), chunk_end.as_secs_f64());
            if let Some(exact) = &mut self.exact {
                let len_ns = (chunk_end - self.now).as_nanos();
                let (entries, inputs) = (&self.model.entries, &self.inputs);
                exact.step(entries, inputs, &mut self.x, a, len_ns, &mut self.stats)?;
            } else {
                let rhs = ConeRhs {
                    entries: &mut self.model.entries,
                    layout: &self.layout,
                    inputs: &mut self.inputs,
                    outputs: &mut self.outputs,
                };
                // Tests may swap in the full-pass reference.
                #[cfg(test)]
                let rhs = tests::Reference::pick(rhs, self.full_pass);
                let ode_stats = ode::integrate_in(
                    &mut { rhs },
                    a,
                    b,
                    &mut self.x,
                    self.opts.integrator,
                    &mut self.ode_ws,
                )?;
                self.stats.ode.merge(ode_stats);
            }
            self.stats.integration_spans += 1;
            self.now = chunk_end;
            self.eval_outputs_committed();
            self.record_probes();
        }
        Ok(())
    }

    /// Processes every event scheduled at the current instant (including
    /// zero-delay follow-ups), then records probes once.
    ///
    /// Allocation-free in steady state: routes are walked by index, the
    /// activated block borrows its input slice directly from the flat
    /// input buffer (disjoint from the mutably borrowed model), and the
    /// emission queue is a reusable scratch buffer whose growth is the
    /// only heap traffic (counted in [`EngineStats::hot_allocs`]).
    fn process_instant(&mut self) -> Result<(), SimError> {
        let now = self.now;
        self.stats.event_instants += 1;
        let mut deliveries = 0usize;
        while self.calendar.peek_time() == Some(now) {
            let ev = self.calendar.pop().expect("peeked");
            let (em, out) = (ev.emitter.index(), ev.out_port);
            for r in 0..self.evt_routes[em][out].len() {
                let (dst, port) = self.evt_routes[em][out][r];
                deliveries += 1;
                self.stats.count_activation(dst);
                if deliveries > self.opts.cascade_limit {
                    return Err(SimError::EventCascadeOverflow {
                        time: now,
                        limit: self.opts.cascade_limit,
                    });
                }
                // Refresh signal values so the activated block sees current
                // inputs (including effects of earlier same-instant events).
                self.eval_outputs_committed();
                let mut actions = std::mem::take(&mut self.scratch_actions);
                let cap = actions.emissions.capacity();
                {
                    // `inputs` is a shared borrow of the flat input buffer,
                    // `block` a mutable borrow of the model — disjoint
                    // fields, so no defensive copy is needed.
                    let in_off = &self.layout.in_off;
                    let mut ctx = EventCtx {
                        inputs: &self.inputs[in_off[dst]..in_off[dst + 1]],
                        actions: &mut actions,
                    };
                    self.model.entries[dst].block.on_event(port, now, &mut ctx);
                }
                if actions.emissions.capacity() != cap {
                    self.stats.hot_allocs += 1;
                }
                self.schedule_actions(dst, &mut actions)?;
                self.scratch_actions = actions;
                self.result.events.push(EventRecord {
                    time: now,
                    emitter: ev.emitter,
                    out_port: ev.out_port,
                    target: BlockId::from_index(dst),
                    port,
                });
            }
        }
        self.stats.max_cascade = self.stats.max_cascade.max(deliveries);
        self.eval_outputs_committed();
        self.record_probes();
        Ok(())
    }

    /// Validates and schedules the emissions queued by block `b`, then
    /// clears the queue (capacity is retained for reuse).
    fn schedule_actions(&mut self, b: usize, actions: &mut EventActions) -> Result<(), SimError> {
        for i in 0..actions.emissions.len() {
            let (port, delay) = actions.emissions[i];
            let spec = self.model.entries[b].spec;
            if port >= spec.event_outputs {
                return Err(SimError::InvalidEmit {
                    block: self.model.entries[b].name.clone(),
                    port,
                    count: spec.event_outputs,
                });
            }
            if delay.is_negative() {
                return Err(SimError::NegativeDelay {
                    block: self.model.entries[b].name.clone(),
                    delay,
                });
            }
            self.calendar
                .schedule(self.now + delay, BlockId::from_index(b), port);
            self.stats.calendar_peak = self.stats.calendar_peak.max(self.calendar.len());
        }
        actions.emissions.clear();
        Ok(())
    }

    /// The committed output pass: every block's outputs at the committed
    /// state and current time.
    fn eval_outputs_committed(&mut self) {
        eval_all(
            &mut self.model.entries,
            &self.layout,
            self.now.as_secs_f64(),
            &self.x,
            &mut self.inputs,
            &mut self.outputs,
        );
    }

    fn record_probes(&mut self) {
        let t = self.now.as_secs_f64();
        for (i, &src) in self.probe_src.iter().enumerate() {
            self.result.signals[i].1.push(t, self.outputs[src]);
        }
    }
}

/// Evaluates every block's outputs at `(t, x)` in topological order, then
/// refreshes every input from the final outputs: non-feedthrough blocks
/// may be ordered before their drivers, so the values pulled during the
/// pass can be stale, and the event pass must see inputs consistent with
/// the final outputs.
fn eval_all(
    entries: &mut [Entry],
    layout: &Layout,
    t: f64,
    x: &[f64],
    inputs: &mut [f64],
    outputs: &mut [f64],
) {
    for &b in &layout.eval_order {
        layout.eval_block(&mut entries[b], b, t, x, inputs, outputs);
    }
    for (gi, &go) in layout.input_src.iter().enumerate() {
        inputs[gi] = outputs[go];
    }
}

/// ODE right-hand side over the continuous cone: re-evaluates the cone's
/// outputs at the trial `(t, x)`, then collects the stateful blocks'
/// derivatives. Every other output keeps its value from the last
/// committed pass — by the idempotent-`outputs` contract and the
/// `depends_on_time`/`feedthrough` declarations, exactly the value a
/// fresh evaluation at `(t, x)` would produce.
struct ConeRhs<'a> {
    entries: &'a mut [Entry],
    layout: &'a Layout,
    inputs: &'a mut [f64],
    outputs: &'a mut [f64],
}

impl OdeRhs for ConeRhs<'_> {
    fn eval(&mut self, t: f64, x: &[f64], dx: &mut [f64]) {
        let l = self.layout;
        for &b in &l.cone {
            l.eval_block(&mut self.entries[b], b, t, x, self.inputs, self.outputs);
        }
        for &b in &l.stateful {
            l.pull_inputs(b, self.inputs, self.outputs);
            let s = l.state_off[b]..l.state_off[b + 1];
            self.entries[b].block.derivatives(
                t,
                &x[s.clone()],
                &self.inputs[l.in_off[b]..l.in_off[b + 1]],
                &mut dx[s],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, PortSpec};
    use crate::impl_block_any;
    use proptest::prelude::*;

    /// The right-hand side `integrate_span` hands the integrator: the
    /// cone, or the deleted full pass it replaced, kept here as the
    /// reference the cone is pinned against.
    pub(super) enum Reference<'a> {
        Cone(ConeRhs<'a>),
        FullPass(ConeRhs<'a>),
    }

    impl<'a> Reference<'a> {
        pub(super) fn pick(rhs: ConeRhs<'a>, full_pass: bool) -> Self {
            if full_pass {
                Reference::FullPass(rhs)
            } else {
                Reference::Cone(rhs)
            }
        }
    }

    impl OdeRhs for Reference<'_> {
        fn eval(&mut self, t: f64, x: &[f64], dx: &mut [f64]) {
            let rhs = match self {
                Reference::Cone(rhs) => return rhs.eval(t, x, dx),
                Reference::FullPass(rhs) => rhs,
            };
            // Every block's outputs at the trial state, then every
            // stateful block's derivatives.
            eval_all(rhs.entries, rhs.layout, t, x, rhs.inputs, rhs.outputs);
            for (b, e) in rhs.entries.iter().enumerate() {
                let ns = e.block.num_states();
                if ns == 0 {
                    continue;
                }
                let so = rhs.layout.state_off[b];
                let ins = &rhs.inputs[rhs.layout.in_off[b]..rhs.layout.in_off[b] + e.spec.inputs];
                e.block
                    .derivatives(t, &x[so..so + ns], ins, &mut dx[so..so + ns]);
            }
        }
    }

    /// Source emitting a constant.
    struct Const(f64);
    impl Block for Const {
        fn type_name(&self) -> &'static str {
            "Const"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::source(1)
        }
        fn depends_on_time(&self) -> bool {
            false
        }
        fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = self.0;
        }
        impl_block_any!();
    }

    /// y = k * u, direct feedthrough.
    struct Gain(f64);
    impl Block for Gain {
        fn type_name(&self) -> &'static str {
            "Gain"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::siso(1, 1)
        }
        fn depends_on_time(&self) -> bool {
            false
        }
        fn outputs(&mut self, _t: f64, _x: &[f64], u: &[f64], y: &mut [f64]) {
            y[0] = self.0 * u[0];
        }
        impl_block_any!();
    }

    /// Pure integrator: ẋ = u, y = x.
    struct Integ {
        x0: f64,
    }
    impl Block for Integ {
        fn type_name(&self) -> &'static str {
            "Integ"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::siso(1, 1)
        }
        fn feedthrough(&self, _i: usize) -> bool {
            false
        }
        fn depends_on_time(&self) -> bool {
            false
        }
        fn num_states(&self) -> usize {
            1
        }
        fn init_states(&self, x: &mut [f64]) {
            x[0] = self.x0;
        }
        fn derivatives(&self, _t: f64, _x: &[f64], u: &[f64], dx: &mut [f64]) {
            dx[0] = u[0];
        }
        fn outputs(&mut self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = x[0];
        }
        impl_block_any!();
    }

    /// Periodic clock built as a self-looped emitter.
    struct Clock {
        period: TimeNs,
    }
    impl Block for Clock {
        fn type_name(&self) -> &'static str {
            "Clock"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::event_pipe(1, 1)
        }
        fn on_start(&mut self, actions: &mut EventActions) {
            actions.emit(0, TimeNs::ZERO);
        }
        fn on_event(&mut self, _p: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
            ctx.actions.emit(0, self.period);
        }
        impl_block_any!();
    }

    /// Samples its input on activation; exposes the held value.
    struct Sampler {
        held: f64,
        samples: Vec<(TimeNs, f64)>,
    }
    impl Block for Sampler {
        fn type_name(&self) -> &'static str {
            "Sampler"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::new(1, 1, 1, 0)
        }
        fn feedthrough(&self, _i: usize) -> bool {
            false
        }
        fn depends_on_time(&self) -> bool {
            false
        }
        fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = self.held;
        }
        fn on_event(&mut self, _p: usize, t: TimeNs, ctx: &mut EventCtx<'_>) {
            self.held = ctx.inputs[0];
            self.samples.push((t, self.held));
        }
        impl_block_any!();
    }

    /// y = sin(w·t): reads `t`, so it keeps the default `depends_on_time`.
    struct SineT(f64);
    impl Block for SineT {
        fn type_name(&self) -> &'static str {
            "SineT"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::source(1)
        }
        fn outputs(&mut self, t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = (self.0 * t).sin();
        }
        impl_block_any!();
    }

    /// y = u0 + k·u1, direct feedthrough on both inputs.
    struct Sum2(f64);
    impl Block for Sum2 {
        fn type_name(&self) -> &'static str {
            "Sum2"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::siso(2, 1)
        }
        fn depends_on_time(&self) -> bool {
            false
        }
        fn outputs(&mut self, _t: f64, _x: &[f64], u: &[f64], y: &mut [f64]) {
            y[0] = u[0] + self.0 * u[1];
        }
        impl_block_any!();
    }

    /// ẋ = a·x + u, y = x + d·u: a plant with direct feedthrough iff
    /// `d != 0`.
    struct Lti {
        a: f64,
        d: f64,
    }
    impl Block for Lti {
        fn type_name(&self) -> &'static str {
            "Lti"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::siso(1, 1)
        }
        fn feedthrough(&self, _i: usize) -> bool {
            self.d != 0.0
        }
        fn depends_on_time(&self) -> bool {
            false
        }
        fn num_states(&self) -> usize {
            1
        }
        fn init_states(&self, x: &mut [f64]) {
            x[0] = 0.5;
        }
        fn linear_dynamics(&self) -> Option<(&[f64], &[f64])> {
            Some((std::slice::from_ref(&self.a), &[1.0]))
        }
        fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
            dx[0] = self.a * x[0] + u[0];
        }
        fn outputs(&mut self, _t: f64, x: &[f64], u: &[f64], y: &mut [f64]) {
            y[0] = x[0] + self.d * u[0];
        }
        impl_block_any!();
    }

    fn clocked(period_ms: i64) -> (Model, BlockId) {
        let mut m = Model::new();
        let clk = m.add_block(
            "clk",
            Clock {
                period: TimeNs::from_millis(period_ms),
            },
        );
        m.connect_event(clk, 0, clk, 0).unwrap();
        (m, clk)
    }

    #[test]
    fn integrator_ramps_under_constant_input() {
        let mut m = Model::new();
        let c = m.add_block("c", Const(2.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        let x = r.signal("x").unwrap();
        assert!((x.last().unwrap().1 - 2.0).abs() < 1e-9);
        // Ramp is linear: value at 0.5 s is ~1.0.
        assert!((x.sample(0.5).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn feedback_loop_through_integrator_allowed() {
        // ẋ = -x via gain feedback: integrator breaks the loop.
        let mut m = Model::new();
        let i = m.add_block("i", Integ { x0: 1.0 });
        let g = m.add_block("g", Gain(-1.0));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        let xf = r.signal("x").unwrap().last().unwrap().1;
        assert!((xf - (-1.0f64).exp()).abs() < 1e-6, "{xf}");
    }

    #[test]
    fn algebraic_loop_detected() {
        let mut m = Model::new();
        let g1 = m.add_block("g1", Gain(1.0));
        let g2 = m.add_block("g2", Gain(1.0));
        m.connect(g1, 0, g2, 0).unwrap();
        m.connect(g2, 0, g1, 0).unwrap();
        assert!(matches!(
            Simulator::new(m, SimOptions::default()),
            Err(SimError::AlgebraicLoop { .. })
        ));
    }

    #[test]
    fn unconnected_input_detected() {
        let mut m = Model::new();
        m.add_block("g", Gain(1.0));
        assert!(matches!(
            Simulator::new(m, SimOptions::default()),
            Err(SimError::UnconnectedInput { .. })
        ));
    }

    #[test]
    fn clock_activates_sampler_periodically() {
        let (mut m, clk) = clocked(100);
        let c = m.add_block("c", Const(7.0));
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(c, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(1000)).unwrap();
        let r = sim.result();
        let smp = sim.model().block_as::<Sampler>(s).unwrap();
        // events at 0, 100, ..., 1000 ms inclusive = 11 samples
        assert_eq!(smp.samples.len(), 11);
        assert!(smp.samples.iter().all(|&(_, v)| v == 7.0));
        // Event log captured deliveries to both clock and sampler.
        assert_eq!(r.activation_times(s, Some(0)).len(), 11);
        assert_eq!(r.activation_times(s, Some(0))[3], TimeNs::from_millis(300));
    }

    #[test]
    fn sampler_sees_continuous_state_at_activation() {
        // Integrator of constant 1 sampled at 0.25 s steps: samples are
        // 0.0, 0.25, 0.5, ...
        let (mut m, clk) = clocked(250);
        let c = m.add_block("c", Const(1.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(c, 0, i, 0).unwrap();
        m.connect(i, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_secs(1)).unwrap();
        let smp = sim.model().block_as::<Sampler>(s).unwrap();
        for (k, &(t, v)) in smp.samples.iter().enumerate() {
            assert_eq!(t, TimeNs::from_millis(250 * k as i64));
            assert!((v - 0.25 * k as f64).abs() < 1e-7, "sample {k}: {v}");
        }
    }

    #[test]
    fn run_is_resumable() {
        let (m, _clk) = clocked(10);
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r1 = sim.run(TimeNs::from_millis(50)).unwrap();
        let n1 = r1.event_log().len();
        let r2 = sim.run(TimeNs::from_millis(100)).unwrap();
        assert!(r2.event_log().len() > n1);
        assert_eq!(r2.end_time(), TimeNs::from_millis(100));
    }

    #[test]
    fn backwards_run_rejected() {
        let (m, _clk) = clocked(10);
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(50)).unwrap();
        assert!(matches!(
            sim.run(TimeNs::from_millis(40)),
            Err(SimError::InvalidHorizon { .. })
        ));
    }

    #[test]
    fn zero_delay_loop_overflows() {
        // Two pipes emitting to each other with zero delay diverge.
        struct Echo;
        impl Block for Echo {
            fn type_name(&self) -> &'static str {
                "Echo"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::event_pipe(1, 1)
            }
            fn on_start(&mut self, a: &mut EventActions) {
                a.emit(0, TimeNs::ZERO);
            }
            fn on_event(&mut self, _p: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
                ctx.actions.emit(0, TimeNs::ZERO);
            }
            impl_block_any!();
        }
        let mut m = Model::new();
        let a = m.add_block("a", Echo);
        let b = m.add_block("b", Echo);
        m.connect_event(a, 0, b, 0).unwrap();
        m.connect_event(b, 0, a, 0).unwrap();
        let mut sim = Simulator::new(
            m,
            SimOptions {
                cascade_limit: 1000,
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert!(matches!(
            sim.run(TimeNs::from_secs(1)),
            Err(SimError::EventCascadeOverflow { .. })
        ));
    }

    #[test]
    fn invalid_emit_port_detected() {
        struct BadEmit;
        impl Block for BadEmit {
            fn type_name(&self) -> &'static str {
                "BadEmit"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::default()
            }
            fn on_start(&mut self, a: &mut EventActions) {
                a.emit(0, TimeNs::ZERO); // declares zero event outputs
            }
            impl_block_any!();
        }
        let mut m = Model::new();
        m.add_block("bad", BadEmit);
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        assert!(matches!(
            sim.run(TimeNs::from_secs(1)),
            Err(SimError::InvalidEmit { .. })
        ));
    }

    #[test]
    fn events_exactly_at_horizon_are_processed() {
        let (m, clk) = clocked(100);
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(200)).unwrap();
        // 0, 100, 200 all delivered
        assert_eq!(r.activation_times(clk, Some(0)).len(), 3);
    }

    #[test]
    fn into_model_returns_blocks() {
        let (m, clk) = clocked(10);
        let sim = Simulator::new(m, SimOptions::default()).unwrap();
        let m = sim.into_model();
        assert!(m.block_as::<Clock>(clk).is_some());
    }

    #[test]
    fn empty_model_runs_to_horizon() {
        let sim = Simulator::new(Model::new(), SimOptions::default());
        let mut sim = sim.unwrap();
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        assert_eq!(r.end_time(), TimeNs::from_secs(1));
        assert!(r.event_log().is_empty());
        assert_eq!(sim.now(), TimeNs::from_secs(1));
    }

    #[test]
    fn rk4_option_matches_rk45_on_smooth_problem() {
        let build = || {
            let mut m = Model::new();
            let c = m.add_block("c", Const(1.0));
            let i = m.add_block("i", Integ { x0: 0.0 });
            m.connect(c, 0, i, 0).unwrap();
            m.probe("x", i, 0).unwrap();
            m
        };
        let run = |integrator| {
            let mut sim = Simulator::new(
                build(),
                SimOptions {
                    integrator,
                    ..SimOptions::default()
                },
            )
            .unwrap();
            sim.run(TimeNs::from_secs(1))
                .unwrap()
                .signal("x")
                .unwrap()
                .last()
                .unwrap()
                .1
        };
        let rk45 = run(crate::ode::Integrator::default());
        let rk4 = run(crate::ode::Integrator::Rk4 { h: 1e-3 });
        assert!((rk45 - 1.0).abs() < 1e-9);
        assert!((rk4 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn record_dt_controls_probe_density() {
        let build = || {
            let mut m = Model::new();
            let c = m.add_block("c", Const(1.0));
            let i = m.add_block("i", Integ { x0: 0.0 });
            m.connect(c, 0, i, 0).unwrap();
            m.probe("x", i, 0).unwrap();
            m
        };
        let samples = |record_dt: f64| {
            let mut sim = Simulator::new(
                build(),
                SimOptions {
                    record_dt,
                    ..SimOptions::default()
                },
            )
            .unwrap();
            sim.run(TimeNs::from_secs(1))
                .unwrap()
                .signal("x")
                .unwrap()
                .len()
        };
        let coarse = samples(0.1);
        let fine = samples(0.01);
        assert!(fine > 5 * coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn probes_capture_discontinuity_at_event() {
        // A sampler steps its held value at t = 0.5 s; the probe records
        // both the pre- and post-event values at that instant.
        let mut m = Model::new();
        let clk = m.add_block(
            "clk",
            Clock {
                period: TimeNs::from_millis(500),
            },
        );
        m.connect_event(clk, 0, clk, 0).unwrap();
        let c = m.add_block("c", Const(1.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        let s = m.add_block(
            "s",
            Sampler {
                held: -1.0,
                samples: vec![],
            },
        );
        m.connect(i, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        m.probe("held", s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(750)).unwrap();
        let held = r.signal("held").unwrap();
        // At t = 0.5 the held value jumps from 0.0 to 0.5.
        let t_evt = 0.5;
        let around: Vec<f64> = held
            .iter()
            .filter(|(t, _)| (*t - t_evt).abs() < 1e-12)
            .map(|(_, v)| v)
            .collect();
        assert!(around.iter().any(|v| (v - 0.5).abs() < 1e-9), "{around:?}");
        assert!((held.sample(0.75).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn engine_stats_count_hot_loop_work() {
        // Clock at 100 ms driving a sampler over an integrated constant:
        // 10 instants in [0, 950 ms], each delivering to clock + sampler.
        let mut m = Model::new();
        let clk = m.add_block(
            "clk",
            Clock {
                period: TimeNs::from_millis(100),
            },
        );
        m.connect_event(clk, 0, clk, 0).unwrap();
        let c = m.add_block("c", Const(1.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(i, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(950)).unwrap();
        let stats = sim.stats().clone();
        assert_eq!(stats.activations(clk), 10);
        assert_eq!(stats.activations(s), 10);
        assert_eq!(stats.activations(c), 0);
        assert_eq!(stats.events_delivered, 20);
        assert_eq!(stats.max_cascade, 2);
        assert!(stats.calendar_peak >= 1);
        assert!(stats.integration_spans >= 10);
        assert!(stats.ode.steps_accepted > 0);
        assert!(stats.ode.rhs_evals >= 4 * stats.ode.steps_accepted);

        // Counters accumulate across runs and are deterministic: a second
        // identical simulator reaches byte-identical stats.
        let mut m2 = Model::new();
        let clk2 = m2.add_block(
            "clk",
            Clock {
                period: TimeNs::from_millis(100),
            },
        );
        m2.connect_event(clk2, 0, clk2, 0).unwrap();
        let c2 = m2.add_block("c", Const(1.0));
        let i2 = m2.add_block("i", Integ { x0: 0.0 });
        m2.connect(c2, 0, i2, 0).unwrap();
        let s2 = m2.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m2.connect(i2, 0, s2, 0).unwrap();
        m2.connect_event(clk2, 0, s2, 0).unwrap();
        let mut sim2 = Simulator::new(m2, SimOptions::default()).unwrap();
        sim2.run(TimeNs::from_millis(950)).unwrap();
        assert_eq!(*sim2.stats(), stats);
    }

    /// Probe instants must sit exactly on the `record_dt` grid no matter
    /// how many chunks a span covers. An `f64` time accumulator loses
    /// ~1 ulp per chunk; over 10⁶ chunks at t ≈ 10³ s the drift reaches
    /// tens of nanoseconds and probe instants wander off-grid. The
    /// integer-chunk boundaries are exact, so every recorded instant
    /// round-trips onto the grid.
    #[test]
    fn probe_instants_stay_on_grid_over_a_million_chunks() {
        let mut m = Model::new();
        let c = m.add_block("c", Const(1e-3));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(
            m,
            SimOptions {
                // Fixed-step RK4, one step per chunk: the cheapest way to
                // drive the chunk loop a million times.
                integrator: crate::ode::Integrator::Rk4 { h: 1e-3 },
                record_dt: 1e-3,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let r = sim.run(TimeNs::from_secs(1000)).unwrap();
        let x = r.signal("x").unwrap();
        assert_eq!(x.len(), 1_000_001);
        let grid = TimeNs::from_millis(1);
        for (k, &t) in x.times().iter().enumerate() {
            let expected = grid * k as i64;
            assert_eq!(
                TimeNs::from_secs_f64(t),
                expected,
                "sample {k} drifted off the record_dt grid: {t} vs {expected}"
            );
        }
        assert_eq!(sim.stats().integration_spans, 1_000_000);
    }

    /// The hot paths must not allocate in steady state: route walks,
    /// input staging, the emission queue, the integrator's stage
    /// buffers and the closed-form stepper's (Φ, Γ) slots all reuse
    /// engine-owned buffers, so the regression counter stays at zero
    /// across a run with thousands of deliveries and integration spans.
    #[test]
    fn hot_path_is_allocation_free() {
        let (mut m, clk) = clocked(1);
        let src = m.add_block("src", SineT(7.0));
        let p = m.add_block("p", Lti { a: -3.0, d: 0.5 });
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(src, 0, p, 0).unwrap();
        m.connect(p, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_secs(2)).unwrap();
        assert!(sim.stats().events_delivered > 4000);
        assert!(sim.stats().integration_spans >= 2000);
        assert!(sim.stats().ode.rhs_evals > 0);
        assert_eq!(
            sim.stats().hot_allocs,
            0,
            "hot path allocated {} times",
            sim.stats().hot_allocs
        );

        // The closed-form path, with more distinct chunk lengths than
        // cache slots: misses overwrite slots in place, and the run
        // stays exact.
        let mut m = Model::new();
        let gaps = (0..40).map(|k| TimeNs::from_micros(100 + 7 * k)).collect();
        let jit = m.add_block("jit", Jitter { gaps, next: 0 });
        m.connect_event(jit, 0, jit, 0).unwrap();
        let c = m.add_block("c", Const(2.0));
        let p = m.add_block("p", Lti { a: -3.0, d: 0.0 });
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(c, 0, p, 0).unwrap();
        m.connect(p, 0, s, 0).unwrap();
        m.connect_event(jit, 0, s, 0).unwrap();
        m.probe("x", p, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_secs(2)).unwrap();
        let x_end = r.signal("x").unwrap().last().unwrap().1;
        let expect = lti_response(-3.0, 0.5, 2.0, 2.0);
        assert!((x_end - expect).abs() < 1e-12, "{x_end} vs {expect}");
        let stats = sim.stats();
        assert!(stats.exact_chunks >= 2000);
        assert_eq!(stats.exact_chunks, stats.integration_spans);
        assert_eq!(stats.ode.rhs_evals, 0);
        assert!(stats.discretizations > 100, "{}", stats.discretizations);
        assert_eq!(
            stats.hot_allocs, 0,
            "closed-form path allocated {} times",
            stats.hot_allocs
        );
    }

    /// Emits on its self-loop after delays cycling through `gaps`: a
    /// clock whose chunk lengths keep changing.
    struct Jitter {
        gaps: Vec<TimeNs>,
        next: usize,
    }
    impl Block for Jitter {
        fn type_name(&self) -> &'static str {
            "Jitter"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::event_pipe(1, 1)
        }
        fn on_start(&mut self, actions: &mut EventActions) {
            actions.emit(0, TimeNs::ZERO);
        }
        fn on_event(&mut self, _p: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
            ctx.actions.emit(0, self.gaps[self.next]);
            self.next = (self.next + 1) % self.gaps.len();
        }
        impl_block_any!();
    }

    /// `ẋ = a·x + u` from `x0` under a constant `u`, at `t`.
    fn lti_response(a: f64, x0: f64, u: f64, t: f64) -> f64 {
        let xe = -u / a;
        xe + (x0 - xe) * (a * t).exp()
    }

    /// A `model_mut` retune of `A` between two `run` legs takes effect:
    /// the cached (Φ, Γ) of the first leg are not reused.
    #[test]
    fn model_mut_retune_invalidates_exact_pairs() {
        let mut m = Model::new();
        let c = m.add_block("c", Const(1.0));
        let p = m.add_block("p", Lti { a: -1.0, d: 0.0 });
        m.connect(c, 0, p, 0).unwrap();
        m.probe("x", p, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(500)).unwrap();
        assert_eq!(sim.stats().discretizations, 1);
        sim.model_mut().block_as_mut::<Lti>(p).unwrap().a = -3.0;
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        let x_end = r.signal("x").unwrap().last().unwrap().1;
        let x_mid = lti_response(-1.0, 0.5, 1.0, 0.5);
        let expect = lti_response(-3.0, x_mid, 1.0, 0.5);
        assert!((x_end - expect).abs() < 1e-12, "{x_end} vs {expect}");
        assert_eq!(sim.stats().discretizations, 2);
        assert_eq!(sim.stats().ode.rhs_evals, 0);
    }

    /// Linear dynamics whose shape disagrees with the block's state and
    /// input counts are a model error, not a silent fallback.
    #[test]
    fn malformed_linear_dynamics_rejected() {
        struct Bad;
        impl Block for Bad {
            fn type_name(&self) -> &'static str {
                "Bad"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::siso(1, 1)
            }
            fn feedthrough(&self, _i: usize) -> bool {
                false
            }
            fn depends_on_time(&self) -> bool {
                false
            }
            fn num_states(&self) -> usize {
                2
            }
            fn linear_dynamics(&self) -> Option<(&[f64], &[f64])> {
                Some((&[0.0], &[1.0]))
            }
            impl_block_any!();
        }
        let mut m = Model::new();
        let c = m.add_block("c", Const(1.0));
        let b = m.add_block("b", Bad);
        m.connect(c, 0, b, 0).unwrap();
        assert!(matches!(
            Simulator::new(m, SimOptions::default()),
            Err(SimError::InvalidModel { .. })
        ));
    }

    #[test]
    fn model_mut_allows_retuning_between_runs() {
        let mut m = Model::new();
        let c = m.add_block("c", Const(1.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(500)).unwrap();
        // Double the source mid-run: the second half integrates at slope 2.
        sim.model_mut().block_as_mut::<Const>(c).unwrap().0 = 2.0;
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        let x_end = r.signal("x").unwrap().last().unwrap().1;
        assert!((x_end - 1.5).abs() < 1e-6, "{x_end}");
    }

    /// A block reading `t` without overriding `depends_on_time` stays in
    /// the cone: ∫₀¹ t dt = 1/2.
    #[test]
    fn time_reading_block_without_override_integrates() {
        struct TimeOut;
        impl Block for TimeOut {
            fn type_name(&self) -> &'static str {
                "TimeOut"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::source(1)
            }
            fn outputs(&mut self, t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
                y[0] = t;
            }
            impl_block_any!();
        }
        let mut m = Model::new();
        let t = m.add_block("t", TimeOut);
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(t, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        assert_eq!(sim.layout.cone, vec![t.index()]);
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        let x_end = r.signal("x").unwrap().last().unwrap().1;
        assert!((x_end - 0.5).abs() < 1e-9, "{x_end}");
    }

    /// The cone holds the time-dependent and stateful blocks the
    /// derivative pass reads, plus their feedthrough descendants; a
    /// constant, a sampler and a probed-only gain stay frozen.
    #[test]
    fn cone_skips_blocks_that_cannot_move_or_are_not_read() {
        let (mut m, clk) = clocked(5);
        let c = m.add_block("c", Const(1.0));
        let src = m.add_block("src", SineT(3.0));
        let sum = m.add_block("sum", Sum2(0.5));
        let plant = m.add_block("plant", Lti { a: -1.0, d: 2.0 });
        let g = m.add_block("g", Gain(2.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        let probe_only = m.add_block("probe_only", Gain(3.0));
        m.connect(src, 0, sum, 0).unwrap();
        m.connect(c, 0, sum, 1).unwrap();
        m.connect(sum, 0, plant, 0).unwrap();
        m.connect(plant, 0, g, 0).unwrap();
        m.connect(g, 0, s, 0).unwrap();
        m.connect(s, 0, i, 0).unwrap();
        m.connect(plant, 0, probe_only, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let sim = Simulator::new(m, SimOptions::default()).unwrap();
        assert_eq!(sim.layout.cone, vec![src.index(), sum.index()]);
        assert_eq!(sim.layout.stateful, vec![plant.index(), i.index()]);
    }

    /// The parts of a run the cone must leave untouched, with every
    /// sample as raw bits.
    type RunBits = (
        Vec<(String, Vec<u64>, Vec<u64>)>,
        Vec<EventRecord>,
        EngineStats,
    );

    fn run_bits(sim: &mut Simulator, until: TimeNs) -> Result<RunBits, String> {
        sim.run(until / 2).map_err(|e| e.to_string())?;
        let r = sim.run(until).map_err(|e| e.to_string())?;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        let signals = r
            .signals()
            .map(|(n, s)| (n.to_string(), bits(s.times()), bits(s.values())))
            .collect();
        Ok((signals, r.event_log().to_vec(), sim.stats().clone()))
    }

    /// One random diagram: a skeleton covering every cone case, then a
    /// random tail of `(kind, parameter, wiring seed, wiring seed)`.
    #[derive(Debug, Clone)]
    struct Diagram {
        period_ms: i64,
        w: f64,
        k: f64,
        a: f64,
        d: f64,
        rk4: bool,
        tail: Vec<(usize, f64, usize, usize)>,
    }

    fn build(dg: &Diagram) -> Model {
        let (mut m, clk) = clocked(dg.period_ms);
        let sampler = || Sampler {
            held: 0.25,
            samples: vec![],
        };
        // A time source straight into an integrator.
        let src = m.add_block("src", SineT(dg.w));
        let i1 = m.add_block("i1", Integ { x0: 0.0 });
        m.connect(src, 0, i1, 0).unwrap();
        // stateful -> gain -> sum -> plant with direct feedthrough.
        let g = m.add_block("g", Gain(dg.k));
        let c = m.add_block("c", Const(1.5));
        let sum = m.add_block("sum", Sum2(dg.k));
        let plant = m.add_block("plant", Lti { a: dg.a, d: dg.d });
        m.connect(i1, 0, g, 0).unwrap();
        m.connect(g, 0, sum, 0).unwrap();
        m.connect(c, 0, sum, 1).unwrap();
        m.connect(sum, 0, plant, 0).unwrap();
        // A clocked sample-and-hold and a constant driving a plant.
        let sh = m.add_block("sh", sampler());
        let sum2 = m.add_block("sum2", Sum2(1.0));
        let i2 = m.add_block("i2", Integ { x0: 0.0 });
        m.connect(plant, 0, sh, 0).unwrap();
        m.connect_event(clk, 0, sh, 0).unwrap();
        m.connect(sh, 0, sum2, 0).unwrap();
        m.connect(c, 0, sum2, 1).unwrap();
        m.connect(sum2, 0, i2, 0).unwrap();
        let mut outs = vec![src, i1, g, c, sum, plant, sh, sum2, i2];
        // The tail: feedthrough inputs pick an earlier block, the others
        // any block (closing loops through state and samplers).
        let mut wires = Vec::new();
        for (n, &(kind, p, s0, s1)) in dg.tail.iter().enumerate() {
            let name = format!("t{n}");
            let b = match kind {
                0 => m.add_block(name, Const(p)),
                1 => m.add_block(name, SineT(p)),
                2 => m.add_block(name, Gain(p)),
                3 => m.add_block(name, Sum2(p)),
                4 => m.add_block(name, Integ { x0: p }),
                5 => m.add_block(
                    name,
                    Lti {
                        a: -1.0 - p.abs(),
                        d: p,
                    },
                ),
                _ => {
                    let b = m.add_block(name, sampler());
                    m.connect_event(clk, 0, b, 0).unwrap();
                    b
                }
            };
            let (ins, ft) = match kind {
                0 | 1 => (0, false),
                3 => (2, true),
                2 => (1, true),
                5 => (1, p != 0.0),
                _ => (1, false),
            };
            for (port, seed) in [s0, s1].into_iter().enumerate().take(ins) {
                wires.push((b, port, seed, ft.then_some(outs.len())));
            }
            outs.push(b);
        }
        for (b, port, seed, before) in wires {
            let src = outs[seed % before.unwrap_or(outs.len())];
            m.connect(src, 0, b, port).unwrap();
        }
        for (n, &b) in outs.iter().enumerate() {
            m.probe(format!("y{n}"), b, 0).unwrap();
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cone right-hand side reproduces the full pass bit for bit:
        /// every probe sample, every event record, every counter.
        #[test]
        fn cone_matches_full_pass(
            period_ms in 1i64..6,
            w in 1.0f64..400.0,
            k in -2.0f64..2.0,
            a in -50.0f64..-0.5,
            d in 0.1f64..2.0,
            rk4 in 0usize..4,
            tail in proptest::collection::vec(
                (0usize..7, -2.0f64..2.0, 0usize..1000, 0usize..1000),
                0..7,
            ),
        ) {
            let dg = Diagram { period_ms, w, k, a, d, rk4: rk4 == 0, tail };
            let opts = SimOptions {
                integrator: if dg.rk4 {
                    Integrator::Rk4 { h: 3e-4 }
                } else {
                    Integrator::default()
                },
                ..SimOptions::default()
            };
            let until = TimeNs::from_millis(30);
            let mut cone = Simulator::new(build(&dg), opts).unwrap();
            let mut full = Simulator::new(build(&dg), opts).unwrap();
            full.full_pass = true;
            prop_assert!(!cone.layout.cone.is_empty());
            prop_assert_eq!(run_bits(&mut cone, until), run_bits(&mut full, until));
        }
    }
}
