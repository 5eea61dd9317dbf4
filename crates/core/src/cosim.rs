//! Closed-loop co-simulation drivers.
//!
//! [`run_ideal`] simulates the loop under the *stroboscopic model* (paper
//! Fig. 2): one activation clock samples every input, runs the controller,
//! and applies every output at the same instant — the assumption control
//! engineers design under. [`run_scheduled`] simulates the same loop with
//! the **graph of delays** (paper Fig. 3) synthesized from a SynDEx
//! schedule: sampling, computation and actuation are re-activated at the
//! instants of the distributed implementation, exposing its impact on
//! control performance *before any code runs on a target*.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ecl_aaa::{timeline, AlgorithmGraph, ArchitectureGraph, Fnv1a, Schedule, TimeNs};
use ecl_blocks::{add_clock, Constant, DiscreteStateSpace, SampleHold, SampledNoise, StateSpaceCt};
use ecl_control::metrics;
use ecl_control::StateSpace;
use ecl_linalg::Mat;
use ecl_sim::{BlockId, EngineStats, Model, SimOptions, SimResult, Simulator};
use ecl_telemetry::bytes::{ByteReader, ByteWriter, CodecError};
use ecl_telemetry::{Collector, Event, Histogram, Sink};

use crate::delays::{self, DelayGraphConfig};
use crate::faults::FaultPlan;
use crate::latency::{latencies, latencies_strict, LatencyReport};
use crate::translate::IoMap;
use crate::CoreError;

/// Disturbance applied to the plant's non-control inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DisturbanceKind {
    /// Disturbance inputs held at zero.
    None,
    /// Zero-order-hold Gaussian noise redrawn each period (road profile,
    /// load torque, ...), deterministically seeded.
    Noise {
        /// Standard deviation.
        std_dev: f64,
        /// PRNG seed.
        seed: u64,
    },
}

/// Description of a sampled-data regulation loop.
///
/// The plant's first `n_controls` inputs are driven by the controller; any
/// remaining inputs are disturbances. The controller samples the full
/// plant state and applies the static law `u = −K·x` (or the
/// delay-compensated law `u_k = −Kx·x_k − Ku·u_{k-1}` when `input_memory`
/// is set — the output of the calibration phase).
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// Continuous plant.
    pub plant: StateSpace,
    /// Number of control inputs (prefix of the plant inputs).
    pub n_controls: usize,
    /// Initial plant state (the regulation experiment's perturbation).
    pub x0: Vec<f64>,
    /// State-feedback gain `K` (`n_controls × n_states`).
    pub feedback: Mat,
    /// Optional previous-input gain `Ku` (`n_controls × n_controls`) for
    /// the delay-compensated law.
    pub input_memory: Option<Mat>,
    /// Sampling period (seconds).
    pub ts: f64,
    /// Simulation horizon (seconds).
    pub horizon: f64,
    /// State weight of the quadratic evaluation cost.
    pub q_weight: f64,
    /// Control weight of the quadratic evaluation cost.
    pub r_weight: f64,
    /// Disturbance on the non-control plant inputs.
    pub disturbance: DisturbanceKind,
}

impl LoopSpec {
    fn validate(&self) -> Result<(), CoreError> {
        let n = self.plant.state_dim();
        let bad = |reason: String| Err(CoreError::InvalidInput { reason });
        if self.n_controls == 0 || self.n_controls > self.plant.input_dim() {
            return bad(format!(
                "n_controls = {} out of range for a plant with {} inputs",
                self.n_controls,
                self.plant.input_dim()
            ));
        }
        if self.x0.len() != n {
            return bad(format!(
                "x0 has {} entries, plant has {n} states",
                self.x0.len()
            ));
        }
        if self.feedback.shape() != (self.n_controls, n) {
            return bad(format!(
                "feedback gain must be {}x{n}, got {}x{}",
                self.n_controls,
                self.feedback.rows(),
                self.feedback.cols()
            ));
        }
        if let Some(ku) = &self.input_memory {
            if ku.shape() != (self.n_controls, self.n_controls) {
                return bad(format!(
                    "input-memory gain must be {0}x{0}, got {1}x{2}",
                    self.n_controls,
                    ku.rows(),
                    ku.cols()
                ));
            }
        }
        if !(self.ts > 0.0) || !(self.horizon > 0.0) {
            return bad("ts and horizon must be positive".into());
        }
        Ok(())
    }

    /// Builds the controller block implementing the law.
    fn controller(&self) -> Result<DiscreteStateSpace, CoreError> {
        let n = self.plant.state_dim();
        let m = self.n_controls;
        let neg_k: Vec<f64> = self.feedback.as_slice().iter().map(|v| -v).collect();
        let blk = match &self.input_memory {
            None => DiscreteStateSpace::static_gain(m, n, neg_k)?,
            Some(ku) => {
                // State x_c = u_{k-1}: u_k = −Ku·x_c − Kx·x_k, latched
                // pre-update; x_c⁺ = u_k.
                let neg_ku: Vec<f64> = ku.as_slice().iter().map(|v| -v).collect();
                DiscreteStateSpace::new(
                    m,
                    n,
                    m,
                    neg_ku.clone(),
                    neg_k.clone(),
                    neg_ku,
                    neg_k,
                    vec![0.0; m],
                )?
            }
        };
        Ok(blk)
    }
}

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct LoopResult {
    /// The raw simulation output (probes `x0..`, `u0..`).
    pub result: SimResult,
    /// Quadratic cost `q·Σᵢ∫xᵢ² + r·Σⱼ∫uⱼ²`.
    pub cost: f64,
    /// Sampling instants `I_j(k)` per controller input.
    pub sample_instants: Vec<Vec<TimeNs>>,
    /// Actuation instants `O_j(k)` per controller output.
    pub actuation_instants: Vec<Vec<TimeNs>>,
    /// Sampling period used (seconds).
    pub ts: f64,
    /// Hot-loop counters of the underlying simulation (block activations,
    /// ODE steps, event-calendar peak depth).
    pub stats: EngineStats,
    /// Streaming histogram of `Ls_j(k)` per controller input, bucketed on
    /// `[0, Ts)` — fed one observation per period during the run.
    pub sampling_hist: Vec<Histogram>,
    /// Streaming histogram of `La_j(k)` per controller output.
    pub actuation_hist: Vec<Histogram>,
    /// Event deliveries per block as `(block name, count)`, busiest
    /// first (count descending, then name), zero-activity blocks omitted.
    pub activity: Vec<(String, u64)>,
}

impl LoopResult {
    /// The latency report (paper eq. 1–2) of this run.
    ///
    /// Sampling series are checked strictly (one sample per period, so
    /// `Ls_j(k) < Ts` must hold); actuation series accept cross-period
    /// completions (`La_j(k) >= Ts` under heavy communication load) and
    /// report them via [`LatencyReport::total_overruns`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if a *sampling* activation
    /// misses its period (the schedule does not sustain `Ts` on the
    /// input side), or any series is unsorted or causally impossible
    /// (negative latency).
    pub fn latency_report(&self) -> Result<LatencyReport, CoreError> {
        let period = TimeNs::from_secs_f64(self.ts);
        let mut rep = LatencyReport::default();
        for s in &self.sample_instants {
            rep.sampling.push(latencies_strict(s, period)?);
        }
        for a in &self.actuation_instants {
            rep.actuation.push(latencies(a, period)?);
        }
        Ok(rep)
    }

    /// Like [`latency_report`](Self::latency_report), but lenient on the
    /// sampling side too: a degraded (fault-injected) run legitimately
    /// samples at or past the period boundary when a rendezvous is forced
    /// by its timeout arm, so the strict `Ls_j(k) < Ts` invariant no
    /// longer holds. Cross-period activations are counted by
    /// [`LatencyReport::total_overruns`] instead of erroring.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] only for unsorted or causally
    /// impossible series (negative latency), or a period-origin overflow.
    pub fn latency_report_lenient(&self) -> Result<LatencyReport, CoreError> {
        let period = TimeNs::from_secs_f64(self.ts);
        let mut rep = LatencyReport::default();
        for s in &self.sample_instants {
            rep.sampling.push(latencies(s, period)?);
        }
        for a in &self.actuation_instants {
            rep.actuation.push(latencies(a, period)?);
        }
        Ok(rep)
    }

    /// The run's hot-loop counters as telemetry [`Event::Counter`]s at
    /// simulated instant `at_ns` (typically the horizon): one `stats:*`
    /// track per [`EngineStats`] counter plus one `activity:*` track per
    /// active block. Every value is sim-derived and deterministic, so the
    /// events are safe to mix into byte-compared trace artifacts.
    pub fn stats_events(&self, at_ns: i64) -> Vec<Event> {
        let counter = |track: &str, value: u64| Event::Counter {
            track: format!("stats:{track}"),
            name: track.to_string(),
            at_ns,
            value_ns: value as i64,
        };
        let mut events = vec![
            counter("events_delivered", self.stats.events_delivered),
            counter("event_instants", self.stats.event_instants),
            counter("calendar_peak", self.stats.calendar_peak as u64),
            counter("max_cascade", self.stats.max_cascade as u64),
            counter("integration_spans", self.stats.integration_spans),
            counter("ode_steps_accepted", self.stats.ode.steps_accepted),
            counter("ode_steps_rejected", self.stats.ode.steps_rejected),
            counter("ode_rhs_evals", self.stats.ode.rhs_evals),
        ];
        for (block, count) in &self.activity {
            events.push(Event::Counter {
                track: format!("activity:{block}"),
                name: block.clone(),
                at_ns,
                value_ns: *count as i64,
            });
        }
        events
    }

    /// Serializes the run's *metrics-grade* state for the on-disk memo
    /// cache (`results/cache/{ideal,scheduled}/`): cost, period, the
    /// sampling/actuation instants, hot-loop counters, latency histograms
    /// and block activity — everything the untraced fleet metrics path
    /// (latency reports, degradation twins, verification margins) reads.
    /// The raw simulation trace (`result`) and the per-`BlockId`
    /// activation vector are deliberately **not** persisted: only traced
    /// scenarios read them, and traced scenarios bypass the memo caches
    /// entirely.
    pub fn to_metric_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(256);
        w.put_raw(LOOP_RESULT_MAGIC);
        w.put_u32(LOOP_RESULT_VERSION);
        w.put_f64(self.cost);
        w.put_f64(self.ts);
        let put_instants = |w: &mut ByteWriter, series: &[Vec<TimeNs>]| {
            w.put_seq_len(series.len());
            for s in series {
                w.put_seq_len(s.len());
                for &t in s {
                    w.put_i64(t.as_nanos());
                }
            }
        };
        put_instants(&mut w, &self.sample_instants);
        put_instants(&mut w, &self.actuation_instants);
        w.put_u64(self.stats.events_delivered);
        w.put_u64(self.stats.event_instants);
        w.put_usize(self.stats.calendar_peak);
        w.put_usize(self.stats.max_cascade);
        w.put_u64(self.stats.integration_spans);
        w.put_u64(self.stats.hot_allocs);
        w.put_u64(self.stats.ode.steps_accepted);
        w.put_u64(self.stats.ode.steps_rejected);
        w.put_u64(self.stats.ode.rhs_evals);
        let put_hists = |w: &mut ByteWriter, hists: &[Histogram]| {
            w.put_seq_len(hists.len());
            for h in hists {
                h.encode_into(w);
            }
        };
        put_hists(&mut w, &self.sampling_hist);
        put_hists(&mut w, &self.actuation_hist);
        w.put_seq_len(self.activity.len());
        for (name, count) in &self.activity {
            w.put_str(name);
            w.put_u64(*count);
        }
        w.into_bytes()
    }

    /// Reconstructs a run serialized by [`to_metric_bytes`]. The raw
    /// trace rehydrates as the empty [`SimResult`] and the per-`BlockId`
    /// activation vector as empty — callers that need either (traced
    /// scenarios) must re-simulate instead of decoding. Corruption
    /// decodes to a typed [`CodecError`], never a panic.
    ///
    /// [`to_metric_bytes`]: LoopResult::to_metric_bytes
    ///
    /// # Errors
    ///
    /// Returns the structural [`CodecError`] describing the corruption.
    pub fn from_metric_bytes(bytes: &[u8]) -> Result<LoopResult, CoreError> {
        LoopResult::decode_metric(bytes).map_err(|e| CoreError::InvalidInput {
            reason: format!("loop-result cache payload: {e}"),
        })
    }

    // `EngineStats` keeps its per-block activation vector private, so the
    // counters are necessarily rebuilt field-by-field on a `default()`.
    #[allow(clippy::field_reassign_with_default)]
    fn decode_metric(bytes: &[u8]) -> Result<LoopResult, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.expect_magic(LOOP_RESULT_MAGIC)?;
        let version = r.get_u32()?;
        if version != LOOP_RESULT_VERSION {
            return Err(CodecError::BadMagic {
                expected: format!("loop-result v{LOOP_RESULT_VERSION}"),
                found: format!("loop-result v{version}"),
            });
        }
        let cost = r.get_f64()?;
        let ts = r.get_f64()?;
        let get_instants = |r: &mut ByteReader<'_>| -> Result<Vec<Vec<TimeNs>>, CodecError> {
            let n = r.get_seq_len()?;
            let mut series = Vec::with_capacity(n);
            for _ in 0..n {
                let len = r.get_seq_len()?;
                let mut s = Vec::with_capacity(len);
                for _ in 0..len {
                    s.push(TimeNs::from_nanos(r.get_i64()?));
                }
                series.push(s);
            }
            Ok(series)
        };
        let sample_instants = get_instants(&mut r)?;
        let actuation_instants = get_instants(&mut r)?;
        let mut stats = EngineStats::default();
        stats.events_delivered = r.get_u64()?;
        stats.event_instants = r.get_u64()?;
        stats.calendar_peak = r.get_usize()?;
        stats.max_cascade = r.get_usize()?;
        stats.integration_spans = r.get_u64()?;
        stats.hot_allocs = r.get_u64()?;
        stats.ode.steps_accepted = r.get_u64()?;
        stats.ode.steps_rejected = r.get_u64()?;
        stats.ode.rhs_evals = r.get_u64()?;
        let get_hists = |r: &mut ByteReader<'_>| -> Result<Vec<Histogram>, CodecError> {
            let n = r.get_seq_len()?;
            let mut hists = Vec::with_capacity(n);
            for _ in 0..n {
                hists.push(Histogram::decode_from(r)?);
            }
            Ok(hists)
        };
        let sampling_hist = get_hists(&mut r)?;
        let actuation_hist = get_hists(&mut r)?;
        let n = r.get_seq_len()?;
        let mut activity = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.get_str()?;
            let count = r.get_u64()?;
            activity.push((name, count));
        }
        r.finish()?;
        Ok(LoopResult {
            result: SimResult::default(),
            cost,
            sample_instants,
            actuation_instants,
            ts,
            stats,
            sampling_hist,
            actuation_hist,
            activity,
        })
    }
}

/// Magic tag of the [`LoopResult::to_metric_bytes`] layout.
const LOOP_RESULT_MAGIC: &[u8] = b"ECLR";
/// Version of the [`LoopResult::to_metric_bytes`] layout; bump on change.
const LOOP_RESULT_VERSION: u32 = 1;

/// Wall-clock split of one scheduled run, measured by
/// [`run_scheduled_phased`]: model assembly + graph-of-delays synthesis
/// versus the simulation itself. Profiler sidecar data — never part of a
/// deterministic artifact.
#[derive(Debug, Clone, Copy, Default)]
pub struct CosimPhases {
    /// Wall time of [`wire_scheduled`]: assembly + delay-graph synthesis.
    pub synthesis_wall_ns: u64,
    /// Wall time of the simulation (including latency extraction).
    pub simulation_wall_ns: u64,
}

/// The blocks shared by the ideal and scheduled assemblies.
pub(crate) struct LoopModel {
    model: Model,
    sample_sh: Vec<BlockId>,
    controller: BlockId,
    act_sh: Vec<BlockId>,
    /// Clock driving the disturbance sources (and the stroboscopic loop).
    base_clock: BlockId,
}

/// Builds plant + S/H + controller and the probes; activation wiring is
/// left to the caller.
fn assemble(spec: &LoopSpec) -> Result<LoopModel, CoreError> {
    spec.validate()?;
    let n = spec.plant.state_dim();
    let m_total = spec.plant.input_dim();
    let mc = spec.n_controls;
    let mut model = Model::new();
    let period = TimeNs::from_secs_f64(spec.ts);
    let base_clock = add_clock(&mut model, "base_clock", period, TimeNs::ZERO)?;

    // Plant with full-state output (C = I, D = 0) so the controller can
    // sample the state; evaluation metrics read the same probes.
    let plant = model.add_block(
        "plant",
        StateSpaceCt::new(
            n,
            m_total,
            n,
            spec.plant.a().as_slice().to_vec(),
            spec.plant.b().as_slice().to_vec(),
            Mat::identity(n).into_vec(),
            vec![0.0; n * m_total],
            spec.x0.clone(),
        )?,
    );

    // Input samplers: one S/H per plant state.
    let mut sample_sh = Vec::with_capacity(n);
    for j in 0..n {
        let sh = model.add_block(format!("sample_x{j}"), SampleHold::new(spec.x0[j]));
        model.connect(plant, j, sh, 0)?;
        sample_sh.push(sh);
    }

    // Controller.
    let controller = model.add_block("controller", spec.controller()?);
    for (j, &sh) in sample_sh.iter().enumerate() {
        model.connect(sh, 0, controller, j)?;
    }

    // Output holds: one per control, feeding the plant.
    let mut act_sh = Vec::with_capacity(mc);
    for j in 0..mc {
        let sh = model.add_block(format!("hold_u{j}"), SampleHold::new(0.0));
        model.connect(controller, j, sh, 0)?;
        model.connect(sh, 0, plant, j)?;
        act_sh.push(sh);
    }

    // Disturbance inputs.
    for j in mc..m_total {
        match spec.disturbance {
            DisturbanceKind::None => {
                let z = model.add_block(format!("dist{j}"), Constant::new(0.0));
                model.connect(z, 0, plant, j)?;
            }
            DisturbanceKind::Noise { std_dev, seed } => {
                let nz = model.add_block(
                    format!("dist{j}"),
                    SampledNoise::new(0.0, std_dev, seed.wrapping_add(j as u64)),
                );
                model.connect(nz, 0, plant, j)?;
                model.connect_event(base_clock, 0, nz, 0)?;
            }
        }
    }

    // Probes.
    for j in 0..n {
        model.probe(format!("x{j}"), plant, j)?;
    }
    for (j, &sh) in act_sh.iter().enumerate() {
        model.probe(format!("u{j}"), sh, 0)?;
    }

    Ok(LoopModel {
        model,
        sample_sh,
        controller,
        act_sh,
        base_clock,
    })
}

/// The shape parameters `finish_traced` needs from either spec flavour.
struct CostSpec {
    /// Probes `x0..x{n_outputs}` weighted by `q_weight` in the cost.
    n_outputs: usize,
    n_controls: usize,
    q_weight: f64,
    r_weight: f64,
    ts: f64,
    horizon: f64,
}

impl CostSpec {
    fn of(spec: &LoopSpec) -> Self {
        CostSpec {
            n_outputs: spec.plant.state_dim(),
            n_controls: spec.n_controls,
            q_weight: spec.q_weight,
            r_weight: spec.r_weight,
            ts: spec.ts,
            horizon: spec.horizon,
        }
    }

    fn of_output(spec: &OutputLoopSpec) -> Self {
        CostSpec {
            n_outputs: spec.plant.output_dim(),
            n_controls: spec.n_controls,
            q_weight: spec.q_weight,
            r_weight: spec.r_weight,
            ts: spec.ts,
            horizon: spec.horizon,
        }
    }
}

/// Number of fixed-width buckets of each latency histogram (over
/// `[0, Ts)`).
const LATENCY_BUCKETS: usize = 64;

/// Runs the assembled loop and extracts cost, instants, hot-loop
/// counters and latency histograms. One latency observation per period
/// is streamed into the histograms and, when the collector is enabled,
/// emitted as an [`Event::Counter`] (simulated time — deterministic).
///
/// `track_prefix` namespaces the counter tracks (`{prefix}Ls[j]` /
/// `{prefix}La[j]`): every simulation restarts at simulated time 0, so
/// when several runs share one collector (the lifecycle's ideal /
/// implemented / calibrated runs) distinct prefixes keep per-track
/// timestamps monotone in the exported Chrome trace.
fn finish_traced<S: Sink>(
    cs: &CostSpec,
    lm: LoopModel,
    track_prefix: &str,
    tel: &mut Collector<S>,
) -> Result<LoopResult, CoreError> {
    let mut sim = Simulator::new(lm.model, SimOptions::default())?;
    sim.run(TimeNs::from_secs_f64(cs.horizon))?;
    let stats = sim.stats().clone();
    // Borrow the trace for the metric passes; ownership is taken at the
    // very end (`into_result`) without copying it.
    let result = sim.result();

    let mut cost = 0.0;
    for j in 0..cs.n_outputs {
        let sig = result
            .signal(&format!("x{j}"))
            .expect("probe registered in assemble");
        cost += cs.q_weight * metrics::ise(sig.times(), sig.values(), 0.0);
    }
    for j in 0..cs.n_controls {
        let sig = result
            .signal(&format!("u{j}"))
            .expect("probe registered in assemble");
        cost += cs.r_weight * metrics::ise(sig.times(), sig.values(), 0.0);
    }

    let sample_instants: Vec<Vec<TimeNs>> = lm
        .sample_sh
        .iter()
        .map(|&sh| result.activation_times(sh, Some(0)))
        .collect();
    let actuation_instants: Vec<Vec<TimeNs>> = lm
        .act_sh
        .iter()
        .map(|&sh| result.activation_times(sh, Some(0)))
        .collect();

    let period = TimeNs::from_secs_f64(cs.ts);
    let bound = period.as_nanos().max(1);
    let feed = |label: &'static str,
                instants: &[Vec<TimeNs>],
                tel: &mut Collector<S>|
     -> Result<Vec<Histogram>, CoreError> {
        instants
            .iter()
            .enumerate()
            .map(|(j, series)| {
                let mut h = Histogram::new(bound, LATENCY_BUCKETS);
                for (k, &t) in series.iter().enumerate() {
                    // Same guarded arithmetic as `latencies`: the period
                    // origin k·Ts must not silently wrap in release at
                    // huge horizons.
                    let origin =
                        period
                            .checked_mul(k as i64)
                            .ok_or_else(|| CoreError::InvalidInput {
                                reason: format!(
                                    "period origin {k}·{period} overflows the i64 nanosecond range"
                                ),
                            })?;
                    let lat = (t - origin).as_nanos();
                    h.record(lat);
                    tel.emit(|| Event::Counter {
                        track: format!("{track_prefix}{label}[{j}]"),
                        name: label.to_string(),
                        at_ns: t.as_nanos(),
                        value_ns: lat,
                    });
                }
                Ok(h)
            })
            .collect()
    };
    let sampling_hist = feed("Ls", &sample_instants, tel)?;
    let actuation_hist = feed("La", &actuation_instants, tel)?;

    let mut activity: Vec<(String, u64)> = stats
        .activation_counts()
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| {
            let name = sim
                .model()
                .name(BlockId::from_index(i))
                .unwrap_or("?")
                .to_string();
            (name, c)
        })
        .collect();
    activity.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    Ok(LoopResult {
        result: sim.into_result(),
        cost,
        sample_instants,
        actuation_instants,
        ts: cs.ts,
        stats,
        sampling_hist,
        actuation_hist,
        activity,
    })
}

fn finish(spec: &LoopSpec, lm: LoopModel) -> Result<LoopResult, CoreError> {
    finish_traced(&CostSpec::of(spec), lm, "", &mut Collector::noop())
}

/// Description of a sampled-data loop closed through *measured outputs*
/// (output feedback): the controller is an arbitrary discrete compensator
/// mapping the plant's `p` outputs to its `m` controls — typically the
/// LQG compensator from [`ecl_control::lqg::compensator`].
#[derive(Debug, Clone)]
pub struct OutputLoopSpec {
    /// Continuous plant; its real `C`/`D` define what is measured.
    pub plant: StateSpace,
    /// Number of control inputs (prefix of the plant inputs).
    pub n_controls: usize,
    /// Initial plant state.
    pub x0: Vec<f64>,
    /// The discrete compensator (`p` measurement inputs → `m` control
    /// outputs); its sampling period must equal `ts`.
    pub compensator: ecl_control::DiscreteSs,
    /// Sampling period (seconds).
    pub ts: f64,
    /// Simulation horizon (seconds).
    pub horizon: f64,
    /// Output weight of the quadratic evaluation cost.
    pub q_weight: f64,
    /// Control weight of the quadratic evaluation cost.
    pub r_weight: f64,
    /// Disturbance on the non-control plant inputs.
    pub disturbance: DisturbanceKind,
}

impl OutputLoopSpec {
    fn validate(&self) -> Result<(), CoreError> {
        let bad = |reason: String| Err(CoreError::InvalidInput { reason });
        if self.n_controls == 0 || self.n_controls > self.plant.input_dim() {
            return bad(format!(
                "n_controls = {} out of range for a plant with {} inputs",
                self.n_controls,
                self.plant.input_dim()
            ));
        }
        if self.x0.len() != self.plant.state_dim() {
            return bad(format!(
                "x0 has {} entries, plant has {} states",
                self.x0.len(),
                self.plant.state_dim()
            ));
        }
        if self.compensator.input_dim() != self.plant.output_dim() {
            return bad(format!(
                "compensator consumes {} measurements, plant produces {}",
                self.compensator.input_dim(),
                self.plant.output_dim()
            ));
        }
        if self.compensator.output_dim() != self.n_controls {
            return bad(format!(
                "compensator produces {} controls, loop needs {}",
                self.compensator.output_dim(),
                self.n_controls
            ));
        }
        if !(self.ts > 0.0) || !(self.horizon > 0.0) {
            return bad("ts and horizon must be positive".into());
        }
        if (self.compensator.ts() - self.ts).abs() > 1e-12 {
            return bad(format!(
                "compensator period {} disagrees with loop period {}",
                self.compensator.ts(),
                self.ts
            ));
        }
        Ok(())
    }
}

/// Builds plant (real outputs) + measurement S/H + compensator + holds.
fn assemble_output(spec: &OutputLoopSpec) -> Result<LoopModel, CoreError> {
    spec.validate()?;
    let n = spec.plant.state_dim();
    let p = spec.plant.output_dim();
    let m_total = spec.plant.input_dim();
    let mc = spec.n_controls;
    let mut model = Model::new();
    let period = TimeNs::from_secs_f64(spec.ts);
    let base_clock = add_clock(&mut model, "base_clock", period, TimeNs::ZERO)?;

    let plant = model.add_block(
        "plant",
        StateSpaceCt::new(
            n,
            m_total,
            p,
            spec.plant.a().as_slice().to_vec(),
            spec.plant.b().as_slice().to_vec(),
            spec.plant.c().as_slice().to_vec(),
            spec.plant.d().as_slice().to_vec(),
            spec.x0.clone(),
        )?,
    );

    let mut sample_sh = Vec::with_capacity(p);
    for j in 0..p {
        let sh = model.add_block(format!("sample_y{j}"), SampleHold::new(0.0));
        model.connect(plant, j, sh, 0)?;
        sample_sh.push(sh);
    }

    let comp = &spec.compensator;
    let controller = model.add_block(
        "compensator",
        DiscreteStateSpace::new(
            comp.state_dim(),
            p,
            mc,
            comp.a().as_slice().to_vec(),
            comp.b().as_slice().to_vec(),
            comp.c().as_slice().to_vec(),
            comp.d().as_slice().to_vec(),
            vec![0.0; comp.state_dim()],
        )?,
    );
    for (j, &sh) in sample_sh.iter().enumerate() {
        model.connect(sh, 0, controller, j)?;
    }

    let mut act_sh = Vec::with_capacity(mc);
    for j in 0..mc {
        let sh = model.add_block(format!("hold_u{j}"), SampleHold::new(0.0));
        model.connect(controller, j, sh, 0)?;
        model.connect(sh, 0, plant, j)?;
        act_sh.push(sh);
    }

    for j in mc..m_total {
        match spec.disturbance {
            DisturbanceKind::None => {
                let z = model.add_block(format!("dist{j}"), Constant::new(0.0));
                model.connect(z, 0, plant, j)?;
            }
            DisturbanceKind::Noise { std_dev, seed } => {
                let nz = model.add_block(
                    format!("dist{j}"),
                    SampledNoise::new(0.0, std_dev, seed.wrapping_add(j as u64)),
                );
                model.connect(nz, 0, plant, j)?;
                model.connect_event(base_clock, 0, nz, 0)?;
            }
        }
    }

    // Probe the measured outputs (as `x{j}` so `finish` computes the cost
    // over them uniformly) and the controls.
    for j in 0..p {
        model.probe(format!("x{j}"), plant, j)?;
    }
    for (j, &sh) in act_sh.iter().enumerate() {
        model.probe(format!("u{j}"), sh, 0)?;
    }

    Ok(LoopModel {
        model,
        sample_sh,
        controller,
        act_sh,
        base_clock,
    })
}

fn finish_output(spec: &OutputLoopSpec, lm: LoopModel) -> Result<LoopResult, CoreError> {
    finish_traced(&CostSpec::of_output(spec), lm, "", &mut Collector::noop())
}

/// Simulates an output-feedback loop under the stroboscopic model.
///
/// # Errors
///
/// Propagates specification-validation and simulation errors.
pub fn run_output_ideal(spec: &OutputLoopSpec) -> Result<LoopResult, CoreError> {
    let mut lm = assemble_output(spec)?;
    for &sh in &lm.sample_sh.clone() {
        lm.model.connect_event(lm.base_clock, 0, sh, 0)?;
    }
    lm.model.connect_event(lm.base_clock, 0, lm.controller, 0)?;
    for &sh in &lm.act_sh.clone() {
        lm.model.connect_event(lm.base_clock, 0, sh, 0)?;
    }
    finish_output(spec, lm)
}

/// Simulates an output-feedback loop re-activated by the graph of delays
/// synthesized from `schedule`. There must be one sensor operation per
/// plant output and one actuator per control.
///
/// # Errors
///
/// Same as [`run_scheduled`].
pub fn run_output_scheduled(
    spec: &OutputLoopSpec,
    alg: &AlgorithmGraph,
    io: &IoMap,
    schedule: &Schedule,
    arch: &ArchitectureGraph,
) -> Result<LoopResult, CoreError> {
    let p = spec.plant.output_dim();
    if io.sensors.len() != p {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "law has {} sensors but the plant has {p} measured outputs",
                io.sensors.len()
            ),
        });
    }
    if io.actuators.len() != spec.n_controls {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "law has {} actuators but the loop has {} controls",
                io.actuators.len(),
                spec.n_controls
            ),
        });
    }
    let mut lm = assemble_output(spec)?;
    let period = TimeNs::from_secs_f64(spec.ts);
    let dg = delays::build(
        &mut lm.model,
        alg,
        arch,
        schedule,
        period,
        DelayGraphConfig::default(),
    )?;
    for (j, &op) in io.sensors.iter().enumerate() {
        dg.activate_on_completion(&mut lm.model, op, lm.sample_sh[j], 0)?;
    }
    let compute = *io.stages.last().ok_or_else(|| CoreError::InvalidInput {
        reason: "law has no computation stage".into(),
    })?;
    dg.activate_on_completion(&mut lm.model, compute, lm.controller, 0)?;
    for (j, &op) in io.actuators.iter().enumerate() {
        dg.activate_on_completion(&mut lm.model, op, lm.act_sh[j], 0)?;
    }
    finish_output(spec, lm)
}

/// Simulates the loop under the stroboscopic model (paper Fig. 2): one
/// clock activates sampling, control and actuation simultaneously.
///
/// # Errors
///
/// Propagates specification-validation and simulation errors.
pub fn run_ideal(spec: &LoopSpec) -> Result<LoopResult, CoreError> {
    let mut lm = assemble(spec)?;
    // Activation order at each tick: sample all inputs, run the
    // controller, apply all outputs — deliveries happen in wiring order.
    for &sh in &lm.sample_sh.clone() {
        lm.model.connect_event(lm.base_clock, 0, sh, 0)?;
    }
    lm.model.connect_event(lm.base_clock, 0, lm.controller, 0)?;
    for &sh in &lm.act_sh.clone() {
        lm.model.connect_event(lm.base_clock, 0, sh, 0)?;
    }
    finish(spec, lm)
}

/// Content digest of every input [`run_ideal`] reads: all [`LoopSpec`]
/// fields, floats hashed by exact bit pattern.
///
/// [`run_ideal`] is a deterministic pure function of its spec — the
/// model is assembled from the spec alone, `SimOptions::default()` is
/// fixed, and the engine schedules all discrete activity on the
/// integer-nanosecond calendar — so two specs with equal digests produce
/// byte-identical [`LoopResult`]s. A fleet sweep perturbs only the
/// sampling period of its ideal reference (period scale × makespan
/// stretch); every other field is shared, so the digest space collapses
/// to a handful of keys and the memo table actually hits.
pub fn loop_spec_digest(spec: &LoopSpec) -> u64 {
    let mut h = Fnv1a::new();
    let mat = |h: &mut Fnv1a, m: &Mat| {
        h.write_u64(m.rows() as u64);
        h.write_u64(m.cols() as u64);
        for &v in m.as_slice() {
            h.write_f64(v);
        }
    };
    mat(&mut h, spec.plant.a());
    mat(&mut h, spec.plant.b());
    mat(&mut h, spec.plant.c());
    mat(&mut h, spec.plant.d());
    h.write_u64(spec.n_controls as u64);
    h.write_u64(spec.x0.len() as u64);
    for &v in &spec.x0 {
        h.write_f64(v);
    }
    mat(&mut h, &spec.feedback);
    match &spec.input_memory {
        None => h.write_u64(0),
        Some(ku) => {
            h.write_u64(1);
            mat(&mut h, ku);
        }
    }
    h.write_f64(spec.ts);
    h.write_f64(spec.horizon);
    h.write_f64(spec.q_weight);
    h.write_f64(spec.r_weight);
    match spec.disturbance {
        DisturbanceKind::None => h.write_u64(0),
        DisturbanceKind::Noise { std_dev, seed } => {
            h.write_u64(1);
            h.write_f64(std_dev);
            h.write_u64(seed);
        }
    }
    h.finish()
}

/// A cached ideal run plus the number of times it was looked up.
#[derive(Debug)]
struct IdealSlot {
    result: Arc<LoopResult>,
    lookups: u64,
}

/// Memo map plus the count of lookups that *observed* a local miss and
/// therefore simulated. Beyond one per distinct digest, those are racing
/// double-computes whose losing results were discarded — wasted work,
/// scheduling-dependent, sidecar-only (see
/// [`IdealRunCache::races`]/[`ScheduledRunCache::races`]).
#[derive(Debug)]
struct MemoState<S> {
    map: HashMap<u64, S>,
    local_misses: u64,
}

impl<S> Default for MemoState<S> {
    fn default() -> Self {
        MemoState {
            map: HashMap::new(),
            local_misses: 0,
        }
    }
}

/// A thread-safe memo table from [`loop_spec_digest`] keys to
/// [`run_ideal`] results.
///
/// A scenario sweep re-simulates the stroboscopic reference once per
/// scenario, but the reference depends only on the loop spec — and the
/// sweep varies that spec along a single axis (the sampling period). A
/// 10⁵-scenario sweep therefore needs only as many ideal runs as it has
/// distinct periods; this table, shared by the sweep workers beside the
/// [`ecl_aaa::ScheduleCache`], answers the rest from memory.
///
/// Same discipline as the schedule cache: the lock is held only around
/// the map lookup/insert, never across the simulation, so a miss on one
/// worker does not serialize the others (two workers racing on one key
/// both compute the identical deterministic result; the second insert is
/// a no-op). The [`hits`](IdealRunCache::hits)/
/// [`misses`](IdealRunCache::misses) counters are derived from
/// per-digest lookup counts, so they depend only on the multiset of
/// digests looked up — identical for any worker count and claim order.
/// They still must never enter a byte-compared sweep report that predates
/// the memo; experiment sidecars are their place.
///
/// # Examples
///
/// ```
/// use ecl_core::cosim::{run_ideal, IdealRunCache, LoopSpec, DisturbanceKind};
/// use ecl_control::StateSpace;
/// use ecl_linalg::Mat;
/// # fn main() -> Result<(), ecl_core::CoreError> {
/// let plant = StateSpace::new(
///     Mat::from_rows(&[&[-1.0]]).unwrap(),
///     Mat::from_rows(&[&[1.0]]).unwrap(),
///     Mat::identity(1),
///     Mat::zeros(1, 1),
/// )?;
/// let spec = LoopSpec {
///     plant,
///     n_controls: 1,
///     x0: vec![1.0],
///     feedback: Mat::from_rows(&[&[0.5]]).unwrap(),
///     input_memory: None,
///     ts: 0.01,
///     horizon: 0.1,
///     q_weight: 1.0,
///     r_weight: 1e-3,
///     disturbance: DisturbanceKind::None,
/// };
/// let cache = IdealRunCache::new();
/// let a = cache.get_or_run(&spec)?;
/// let b = cache.get_or_run(&spec)?;
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// assert_eq!(a.cost.to_bits(), b.cost.to_bits());
/// assert_eq!(a.cost.to_bits(), run_ideal(&spec)?.cost.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct IdealRunCache {
    state: Mutex<MemoState<IdealSlot>>,
}

impl IdealRunCache {
    /// An empty memo table.
    pub fn new() -> Self {
        IdealRunCache::default()
    }

    /// The ideal run for `spec`, simulating only on a cache miss.
    ///
    /// # Errors
    ///
    /// Propagates [`run_ideal`] errors; failures are not cached.
    pub fn get_or_run(&self, spec: &LoopSpec) -> Result<Arc<LoopResult>, CoreError> {
        self.get_or_run_traced(spec).map(|(result, _, _)| result)
    }

    /// Like [`get_or_run`](IdealRunCache::get_or_run), also returning the
    /// [`loop_spec_digest`] key and whether *this* lookup was answered
    /// from the cache.
    ///
    /// The hit flag is the caller's local observation (racing workers
    /// both observe a miss), so it may only feed wall-clock sidecars;
    /// deterministic artifacts use the order-invariant
    /// [`hits`](IdealRunCache::hits)/[`misses`](IdealRunCache::misses).
    ///
    /// # Errors
    ///
    /// Propagates [`run_ideal`] errors; failures are not cached.
    pub fn get_or_run_traced(
        &self,
        spec: &LoopSpec,
    ) -> Result<(Arc<LoopResult>, u64, bool), CoreError> {
        let key = loop_spec_digest(spec);
        if let Some(slot) = self
            .state
            .lock()
            .expect("ideal memo lock")
            .map
            .get_mut(&key)
        {
            slot.lookups += 1;
            return Ok((Arc::clone(&slot.result), key, true));
        }
        // Simulated outside the lock: the ideal run is a full
        // co-simulation and must not serialize the pool.
        let result = Arc::new(run_ideal(spec)?);
        let mut state = self.state.lock().expect("ideal memo lock");
        state.local_misses += 1;
        let slot = state
            .map
            .entry(key)
            .or_insert_with(|| IdealSlot { result, lookups: 0 });
        slot.lookups += 1;
        Ok((Arc::clone(&slot.result), key, false))
    }

    /// Counts `n` more lookups of `digest` answered by a caller that kept
    /// the run it first looked up (a fleet lane's reused sweep variant):
    /// [`hits`](IdealRunCache::hits) grows by `n`, as if they had reached the
    /// table. A digest never looked up or seeded is ignored.
    pub fn note_hits(&self, digest: u64, n: u64) {
        if let Some(slot) = self
            .state
            .lock()
            .expect("ideal memo lock")
            .map
            .get_mut(&digest)
        {
            slot.lookups += n;
        }
    }

    /// Lookups beyond the first of their digest — what a serial run would
    /// have answered from the cache. Derived from per-digest lookup
    /// counts, so identical for any worker count.
    pub fn hits(&self) -> u64 {
        self.state
            .lock()
            .expect("ideal memo lock")
            .map
            .values()
            .map(|slot| slot.lookups.saturating_sub(1))
            .sum()
    }

    /// Distinct digests ever looked up — the ideal runs a serial sweep
    /// would actually have simulated. Derived, order-invariant.
    pub fn misses(&self) -> u64 {
        self.len() as u64
    }

    /// Total lookups across all digests (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.state
            .lock()
            .expect("ideal memo lock")
            .map
            .values()
            .map(|slot| slot.lookups)
            .sum()
    }

    /// Racing double-computes: lookups that observed a local miss (and
    /// simulated) beyond the first of their digest. The losers' results
    /// were discarded — pure wasted work. Thread-interleaving-dependent,
    /// so report it only in wall-clock sidecars, never in deterministic
    /// artifacts.
    pub fn races(&self) -> u64 {
        let state = self.state.lock().expect("ideal memo lock");
        state.local_misses.saturating_sub(state.map.len() as u64)
    }

    /// Lookups that actually simulated in *this* process — unlike
    /// [`misses`](IdealRunCache::misses) it excludes entries answered
    /// from a [`seed`](IdealRunCache::seed)ed (on-disk) result, so a
    /// warm-started daemon can assert it re-simulated nothing. Includes
    /// racing double-computes — sidecar-only.
    pub fn computes(&self) -> u64 {
        self.state.lock().expect("ideal memo lock").local_misses
    }

    /// Inserts a run computed by an earlier process under its
    /// [`loop_spec_digest`] key — the warm-start path of the on-disk
    /// cache layer (typically a metrics-grade
    /// [`LoopResult::from_metric_bytes`] decode). Returns `false` and
    /// keeps the resident entry when the digest is already cached.
    /// Seeding is not a lookup and not a compute.
    pub fn seed(&self, digest: u64, result: LoopResult) -> bool {
        let mut state = self.state.lock().expect("ideal memo lock");
        match state.map.entry(digest) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(IdealSlot {
                    result: Arc::new(result),
                    lookups: 0,
                });
                true
            }
        }
    }

    /// Every cached `(digest, run)` pair, sorted by digest — the
    /// write-back path of the on-disk cache layer.
    pub fn snapshot(&self) -> Vec<(u64, Arc<LoopResult>)> {
        let state = self.state.lock().expect("ideal memo lock");
        let mut out: Vec<_> = state
            .map
            .iter()
            .map(|(&digest, slot)| (digest, Arc::clone(&slot.result)))
            .collect();
        out.sort_by_key(|&(digest, _)| digest);
        out
    }

    /// Number of distinct ideal runs currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().expect("ideal memo lock").map.len()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A cached scheduled run plus the number of times it was looked up.
#[derive(Debug)]
struct ScheduledSlot {
    result: Arc<LoopResult>,
    lookups: u64,
}

/// Content digest of one scheduled (possibly faulty) co-simulation:
/// the [`loop_spec_digest`] (plant, gains, scaled period, horizon,
/// disturbance — the period *scale* axis lives here), the adequation
/// `schedule_digest` from [`ecl_aaa::schedule_digest`] (algorithm graph,
/// architecture tariffs, WCET table, policy — everything delay-graph
/// synthesis reads beyond the spec), and the [`FaultPlan::digest`] with
/// a presence marker (a nominal run can never alias a faulty one).
///
/// `schedule_digest` must be the digest of the exact inputs that
/// produced `schedule` — the fleet already holds it from
/// [`ecl_aaa::ScheduleCache::get_or_compute_traced`].
pub fn scheduled_run_digest(
    spec: &LoopSpec,
    schedule_digest: u64,
    plan: Option<&FaultPlan>,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(loop_spec_digest(spec));
    h.write_u64(schedule_digest);
    match plan {
        None => h.write_u64(0),
        Some(p) => {
            h.write_u64(1);
            h.write_u64(p.digest());
        }
    }
    h.finish()
}

/// A thread-safe memo table from [`scheduled_run_digest`] keys to
/// [`run_scheduled`]/[`run_scheduled_faulty`] results.
///
/// The exp16 profiler attributes ~93% of sweep time to scheduled
/// co-simulation, and a fault-axis sweep pigeonholes heavily on
/// (loop, schedule, fault-plan) triples: quantized WCET tables bound the
/// schedule digests, the period-scale axis bounds the loop digests, and
/// zero-rate fault axes collapse onto the nominal plan. Most of that 93%
/// is therefore recomputation of byte-identical [`LoopResult`]s — this
/// table, shared by the sweep workers beside [`IdealRunCache`] and
/// [`ecl_aaa::ScheduleCache`], answers them from memory.
///
/// Same discipline as its two siblings: the lock is held only around the
/// map lookup/insert, never across the co-simulation (racing workers
/// both compute the identical deterministic result; the second insert is
/// a no-op), and [`hits`](ScheduledRunCache::hits)/
/// [`misses`](ScheduledRunCache::misses) are derived from per-digest
/// lookup counts, so they are identical for any worker count and claim
/// order. They still belong beside — never inside — byte-compared sweep
/// artifacts.
#[derive(Debug, Default)]
pub struct ScheduledRunCache {
    state: Mutex<MemoState<ScheduledSlot>>,
}

impl ScheduledRunCache {
    /// An empty memo table.
    pub fn new() -> Self {
        ScheduledRunCache::default()
    }

    /// The scheduled run for the given inputs, co-simulating only on a
    /// cache miss. `plan: None` is the nominal [`run_scheduled`];
    /// `Some(plan)` is [`run_scheduled_faulty`] (the plan is cloned only
    /// when a simulation actually runs). `schedule_digest` must be the
    /// adequation digest of the inputs that produced `schedule`.
    ///
    /// # Errors
    ///
    /// Propagates [`run_scheduled`] errors; failures are not cached.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_run(
        &self,
        spec: &LoopSpec,
        alg: &AlgorithmGraph,
        io: &IoMap,
        schedule: &Schedule,
        arch: &ArchitectureGraph,
        schedule_digest: u64,
        plan: Option<&FaultPlan>,
    ) -> Result<Arc<LoopResult>, CoreError> {
        self.get_or_run_phased(spec, alg, io, schedule, arch, schedule_digest, plan)
            .map(|(result, _, _, _)| result)
    }

    /// Like [`get_or_run`](ScheduledRunCache::get_or_run), also returning
    /// the [`scheduled_run_digest`] key, whether *this* lookup was
    /// answered from the cache, and the synthesis/simulation wall-clock
    /// split of the run (zero on a hit — nothing was simulated).
    ///
    /// The hit flag and the phase split are this caller's wall-clock
    /// observations (racing workers both observe a miss), so they may
    /// only feed profiler sidecars; deterministic artifacts use the
    /// order-invariant [`hits`](ScheduledRunCache::hits)/
    /// [`misses`](ScheduledRunCache::misses).
    ///
    /// # Errors
    ///
    /// Propagates [`run_scheduled`] errors; failures are not cached.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_run_phased(
        &self,
        spec: &LoopSpec,
        alg: &AlgorithmGraph,
        io: &IoMap,
        schedule: &Schedule,
        arch: &ArchitectureGraph,
        schedule_digest: u64,
        plan: Option<&FaultPlan>,
    ) -> Result<(Arc<LoopResult>, u64, bool, CosimPhases), CoreError> {
        let key = scheduled_run_digest(spec, schedule_digest, plan);
        if let Some(slot) = self
            .state
            .lock()
            .expect("scheduled memo lock")
            .map
            .get_mut(&key)
        {
            slot.lookups += 1;
            return Ok((Arc::clone(&slot.result), key, true, CosimPhases::default()));
        }
        // Co-simulated outside the lock: this is the sweep's dominant
        // phase and must not serialize the pool.
        let (result, phases) = run_scheduled_phased(spec, alg, io, schedule, arch, plan.cloned())?;
        let result = Arc::new(result);
        let mut state = self.state.lock().expect("scheduled memo lock");
        state.local_misses += 1;
        let slot = state
            .map
            .entry(key)
            .or_insert_with(|| ScheduledSlot { result, lookups: 0 });
        slot.lookups += 1;
        Ok((Arc::clone(&slot.result), key, false, phases))
    }

    /// Counts `n` more lookups of `digest` answered by a caller that kept
    /// the run it first looked up (a fleet lane's reused sweep variant):
    /// [`hits`](ScheduledRunCache::hits) grows by `n`, as if they had reached the
    /// table. A digest never looked up or seeded is ignored.
    pub fn note_hits(&self, digest: u64, n: u64) {
        if let Some(slot) = self
            .state
            .lock()
            .expect("scheduled memo lock")
            .map
            .get_mut(&digest)
        {
            slot.lookups += n;
        }
    }

    /// Lookups beyond the first of their digest — what a serial run would
    /// have answered from the cache. Derived from per-digest lookup
    /// counts, so identical for any worker count.
    pub fn hits(&self) -> u64 {
        self.state
            .lock()
            .expect("scheduled memo lock")
            .map
            .values()
            .map(|slot| slot.lookups.saturating_sub(1))
            .sum()
    }

    /// Distinct digests ever looked up — the scheduled runs a serial
    /// sweep would actually have co-simulated. Derived, order-invariant.
    pub fn misses(&self) -> u64 {
        self.len() as u64
    }

    /// Total lookups across all digests (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.state
            .lock()
            .expect("scheduled memo lock")
            .map
            .values()
            .map(|slot| slot.lookups)
            .sum()
    }

    /// Racing double-computes: local-miss observations beyond the first
    /// of their digest. Thread-interleaving-dependent — sidecar-only.
    pub fn races(&self) -> u64 {
        let state = self.state.lock().expect("scheduled memo lock");
        state.local_misses.saturating_sub(state.map.len() as u64)
    }

    /// Lookups that actually co-simulated in *this* process — unlike
    /// [`misses`](ScheduledRunCache::misses) it excludes entries answered
    /// from a [`seed`](ScheduledRunCache::seed)ed (on-disk) result, so a
    /// warm-started daemon can assert it re-simulated nothing. Includes
    /// racing double-computes — sidecar-only.
    pub fn computes(&self) -> u64 {
        self.state.lock().expect("scheduled memo lock").local_misses
    }

    /// Inserts a run computed by an earlier process under its
    /// [`scheduled_run_digest`] key — the warm-start path of the on-disk
    /// cache layer (typically a metrics-grade
    /// [`LoopResult::from_metric_bytes`] decode). Returns `false` and
    /// keeps the resident entry when the digest is already cached.
    /// Seeding is not a lookup and not a compute.
    pub fn seed(&self, digest: u64, result: LoopResult) -> bool {
        let mut state = self.state.lock().expect("scheduled memo lock");
        match state.map.entry(digest) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(ScheduledSlot {
                    result: Arc::new(result),
                    lookups: 0,
                });
                true
            }
        }
    }

    /// Every cached `(digest, run)` pair, sorted by digest — the
    /// write-back path of the on-disk cache layer.
    pub fn snapshot(&self) -> Vec<(u64, Arc<LoopResult>)> {
        let state = self.state.lock().expect("scheduled memo lock");
        let mut out: Vec<_> = state
            .map
            .iter()
            .map(|(&digest, slot)| (digest, Arc::clone(&slot.result)))
            .collect();
        out.sort_by_key(|&(digest, _)| digest);
        out
    }

    /// Number of distinct scheduled runs currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().expect("scheduled memo lock").map.len()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Simulates the loop with the graph of delays synthesized from
/// `schedule` (paper Fig. 3): each Sample/Hold and the controller are
/// re-activated at the distributed implementation's instants.
///
/// `io` maps the translated algorithm graph's sensors/actuators to the
/// loop's inputs/outputs: there must be one sensor per plant state and one
/// actuator per control.
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] if `io` does not match the loop shape or
///   the schedule overruns the period.
/// * Propagated wiring/simulation errors.
pub fn run_scheduled(
    spec: &LoopSpec,
    alg: &AlgorithmGraph,
    io: &IoMap,
    schedule: &Schedule,
    arch: &ArchitectureGraph,
) -> Result<LoopResult, CoreError> {
    run_scheduled_with(spec, alg, io, schedule, arch, |_| {
        Ok(DelayGraphConfig::default())
    })
}

/// Like [`run_scheduled`], but replays the schedule under a
/// [`FaultPlan`]: lost frames stretch or drop communication slots, dead
/// processors silence their operations, and every synchronization gains a
/// timeout arm so the loop degrades (Sample/Holds keep stale values, the
/// existing overrun accounting counts the damage) instead of
/// deadlocking.
///
/// A [trivial](FaultPlan::is_trivial) plan takes the exact
/// [`run_scheduled`] code path — same blocks, same wiring, bit-identical
/// results — so a zero-rate fault sweep is guaranteed to reproduce the
/// fault-free baseline.
///
/// Use [`LoopResult::latency_report_lenient`] on the result: forced
/// rendezvous can push sampling past the period boundary, which the
/// strict report rejects.
///
/// # Errors
///
/// Same as [`run_scheduled`].
pub fn run_scheduled_faulty(
    spec: &LoopSpec,
    alg: &AlgorithmGraph,
    io: &IoMap,
    schedule: &Schedule,
    arch: &ArchitectureGraph,
    plan: FaultPlan,
) -> Result<LoopResult, CoreError> {
    run_scheduled_with(spec, alg, io, schedule, arch, move |_| {
        Ok(DelayGraphConfig {
            faults: Some(plan),
            ..DelayGraphConfig::default()
        })
    })
}

/// Like [`run_scheduled`], but lets the caller extend the model (e.g. add
/// the block producing a condition variable's value) and supply the
/// [`DelayGraphConfig`] — required when the algorithm graph contains
/// conditioned operations (paper §3.2.2).
///
/// # Errors
///
/// Same as [`run_scheduled`], plus whatever `configure` returns.
pub fn run_scheduled_with(
    spec: &LoopSpec,
    alg: &AlgorithmGraph,
    io: &IoMap,
    schedule: &Schedule,
    arch: &ArchitectureGraph,
    configure: impl FnOnce(&mut Model) -> Result<DelayGraphConfig, CoreError>,
) -> Result<LoopResult, CoreError> {
    let lm = wire_scheduled(spec, alg, io, schedule, arch, configure)?;
    finish(spec, lm)
}

/// Like [`run_scheduled`] / [`run_scheduled_faulty`] (chosen by whether
/// `faults` is given), additionally measuring the wall-clock split
/// between delay-graph synthesis and the simulation itself for the fleet
/// profiler. The returned [`LoopResult`] is byte-identical to the
/// unphased drivers' — the measurement only reads the monotonic clock
/// around the two stages.
///
/// # Errors
///
/// Same as [`run_scheduled`].
pub fn run_scheduled_phased(
    spec: &LoopSpec,
    alg: &AlgorithmGraph,
    io: &IoMap,
    schedule: &Schedule,
    arch: &ArchitectureGraph,
    faults: Option<FaultPlan>,
) -> Result<(LoopResult, CosimPhases), CoreError> {
    let t0 = std::time::Instant::now();
    let lm = wire_scheduled(spec, alg, io, schedule, arch, move |_| {
        Ok(DelayGraphConfig {
            faults,
            ..DelayGraphConfig::default()
        })
    })?;
    let synthesis_wall_ns = t0.elapsed().as_nanos() as u64;
    let t1 = std::time::Instant::now();
    let result = finish(spec, lm)?;
    let simulation_wall_ns = t1.elapsed().as_nanos() as u64;
    Ok((
        result,
        CosimPhases {
            synthesis_wall_ns,
            simulation_wall_ns,
        },
    ))
}

/// Assembles the loop model and synthesizes the graph of delays from the
/// schedule — everything up to (but excluding) the simulation itself, so
/// the lifecycle can time delay-graph synthesis and co-simulation as
/// separate phases.
pub(crate) fn wire_scheduled(
    spec: &LoopSpec,
    alg: &AlgorithmGraph,
    io: &IoMap,
    schedule: &Schedule,
    arch: &ArchitectureGraph,
    configure: impl FnOnce(&mut Model) -> Result<DelayGraphConfig, CoreError>,
) -> Result<LoopModel, CoreError> {
    let n = spec.plant.state_dim();
    if io.sensors.len() != n {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "law has {} sensors but the plant has {n} sampled states",
                io.sensors.len()
            ),
        });
    }
    if io.actuators.len() != spec.n_controls {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "law has {} actuators but the loop has {} controls",
                io.actuators.len(),
                spec.n_controls
            ),
        });
    }
    let mut lm = assemble(spec)?;
    let period = TimeNs::from_secs_f64(spec.ts);
    let config = configure(&mut lm.model)?;
    let dg = delays::build(&mut lm.model, alg, arch, schedule, period, config)?;
    for (j, &op) in io.sensors.iter().enumerate() {
        dg.activate_on_completion(&mut lm.model, op, lm.sample_sh[j], 0)?;
    }
    let compute = *io.stages.last().ok_or_else(|| CoreError::InvalidInput {
        reason: "law has no computation stage".into(),
    })?;
    dg.activate_on_completion(&mut lm.model, compute, lm.controller, 0)?;
    for (j, &op) in io.actuators.iter().enumerate() {
        dg.activate_on_completion(&mut lm.model, op, lm.act_sh[j], 0)?;
    }
    Ok(lm)
}

/// Finishes a wired loop with telemetry (used by the lifecycle to wrap
/// the simulation in its own span). `track_prefix` namespaces the latency
/// counter tracks when several runs share one collector.
pub(crate) fn finish_loop<S: Sink>(
    spec: &LoopSpec,
    lm: LoopModel,
    track_prefix: &str,
    tel: &mut Collector<S>,
) -> Result<LoopResult, CoreError> {
    finish_traced(&CostSpec::of(spec), lm, track_prefix, tel)
}

/// Emits the schedule's per-period timeline ([`Event::Slice`] per
/// operation and communication, one replica per period over `horizon`)
/// into the collector. A no-op for a disabled collector.
pub(crate) fn emit_schedule_timeline<S: Sink>(
    tel: &mut Collector<S>,
    schedule: &Schedule,
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    ts: f64,
    horizon: f64,
) {
    if !tel.enabled() {
        return;
    }
    let periods = (horizon / ts).floor() as u32;
    let period = TimeNs::from_secs_f64(ts);
    for ev in timeline::trace_events(schedule, alg, arch, period, periods) {
        tel.emit(|| ev);
    }
}

/// Like [`run_ideal`], but streams telemetry into `tel`: one latency
/// [`Event::Counter`] per I/O per period (simulated time), on
/// `ideal:Ls[j]` / `ideal:La[j]` tracks so an ideal run can share a
/// collector with a scheduled run without mixing tracks. With a
/// [`ecl_telemetry::NoopSink`] collector this is exactly [`run_ideal`].
///
/// # Errors
///
/// Same as [`run_ideal`].
pub fn run_ideal_traced<S: Sink>(
    spec: &LoopSpec,
    tel: &mut Collector<S>,
) -> Result<LoopResult, CoreError> {
    let mut lm = assemble(spec)?;
    for &sh in &lm.sample_sh.clone() {
        lm.model.connect_event(lm.base_clock, 0, sh, 0)?;
    }
    lm.model.connect_event(lm.base_clock, 0, lm.controller, 0)?;
    for &sh in &lm.act_sh.clone() {
        lm.model.connect_event(lm.base_clock, 0, sh, 0)?;
    }
    finish_traced(&CostSpec::of(spec), lm, "ideal:", tel)
}

/// Like [`run_scheduled`], but streams telemetry into `tel`: the
/// schedule's per-period timeline as [`Event::Slice`]s on `proc:*` /
/// `bus:*` tracks, then one latency [`Event::Counter`] per I/O per
/// period. All events carry simulated time, so two identical runs record
/// byte-identical streams.
///
/// # Errors
///
/// Same as [`run_scheduled`].
pub fn run_scheduled_traced<S: Sink>(
    spec: &LoopSpec,
    alg: &AlgorithmGraph,
    io: &IoMap,
    schedule: &Schedule,
    arch: &ArchitectureGraph,
    tel: &mut Collector<S>,
) -> Result<LoopResult, CoreError> {
    let lm = wire_scheduled(spec, alg, io, schedule, arch, |_| {
        Ok(DelayGraphConfig::default())
    })?;
    emit_schedule_timeline(tel, schedule, alg, arch, spec.ts, spec.horizon);
    finish_traced(&CostSpec::of(spec), lm, "", tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_aaa::{adequation, AdequationOptions};
    use ecl_control::{c2d_zoh, dlqr, plants};

    use crate::translate::{uniform_timing, ControlLawSpec};

    /// The sweep pool moves loop descriptions and results across worker
    /// threads; this fails to compile if a non-`Send` member sneaks in.
    #[test]
    fn loop_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LoopSpec>();
        assert_send::<LoopResult>();
    }

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    fn dc_motor_spec() -> LoopSpec {
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(&dss, &Mat::identity(2), &Mat::diag(&[0.1])).unwrap();
        LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            feedback: lqr.k,
            input_memory: None,
            ts: plant.ts,
            horizon: 2.0,
            q_weight: 1.0,
            r_weight: 0.1,
            disturbance: DisturbanceKind::None,
        }
    }

    /// The metrics-grade byte codec preserves every field the untraced
    /// fleet path reads (bit-exact cost/period, instants, counters,
    /// histograms, activity) while dropping the raw trace, and a memo
    /// cache seeded from the bytes serves lookups with zero computes.
    #[test]
    fn metric_codec_round_trips_and_seeds_caches() {
        let spec = dc_motor_spec();
        let fresh = run_ideal(&spec).unwrap();
        let bytes = fresh.to_metric_bytes();
        let back = LoopResult::from_metric_bytes(&bytes).unwrap();
        assert_eq!(back.cost.to_bits(), fresh.cost.to_bits());
        assert_eq!(back.ts.to_bits(), fresh.ts.to_bits());
        assert_eq!(back.sample_instants, fresh.sample_instants);
        assert_eq!(back.actuation_instants, fresh.actuation_instants);
        assert_eq!(back.sampling_hist, fresh.sampling_hist);
        assert_eq!(back.actuation_hist, fresh.actuation_hist);
        assert_eq!(back.activity, fresh.activity);
        assert_eq!(back.stats.events_delivered, fresh.stats.events_delivered);
        assert_eq!(back.stats.ode, fresh.stats.ode);
        // Derived metrics are byte-identical too.
        assert_eq!(
            format!("{:?}", back.latency_report().unwrap()),
            format!("{:?}", fresh.latency_report().unwrap())
        );
        // Canonical: re-encoding the decode reproduces the bytes.
        assert_eq!(back.to_metric_bytes(), bytes);
        // The raw trace is intentionally not persisted.
        assert!(back.result.signal("x0").is_none());

        // Corruption decodes to a typed error at every truncation point.
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                LoopResult::from_metric_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }

        // A cache seeded from the bytes answers without simulating.
        let digest = loop_spec_digest(&spec);
        let cache = IdealRunCache::new();
        assert!(cache.seed(digest, LoopResult::from_metric_bytes(&bytes).unwrap()));
        assert!(!cache.seed(digest, LoopResult::from_metric_bytes(&bytes).unwrap()));
        let (served, key, hit) = cache.get_or_run_traced(&spec).unwrap();
        assert!(hit);
        assert_eq!(key, digest);
        assert_eq!(cache.computes(), 0);
        assert_eq!(served.cost.to_bits(), fresh.cost.to_bits());
        // The snapshot reproduces the seeded entry, sorted by digest.
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, digest);
        assert_eq!(snap[0].1.to_metric_bytes(), bytes);
    }

    #[test]
    fn ideal_loop_regulates_to_zero() {
        let spec = dc_motor_spec();
        let r = run_ideal(&spec).unwrap();
        let x0 = r.result.signal("x0").unwrap();
        assert!(x0.values()[0] > 0.9, "starts at x0");
        assert!(
            x0.last().unwrap().1.abs() < 0.02,
            "regulated, got {}",
            x0.last().unwrap().1
        );
        assert!(r.cost > 0.0 && r.cost.is_finite());
        // One sampling instant per period, zero latency.
        let rep = r.latency_report().unwrap();
        assert_eq!(rep.mean_actuation(), TimeNs::ZERO);
        assert_eq!(rep.worst_jitter(), TimeNs::ZERO);
    }

    /// Flipping any single [`LoopSpec`] field [`run_ideal`] reads must
    /// change [`loop_spec_digest`], and no two flips may alias.
    #[test]
    fn loop_spec_digest_flips_on_every_field() {
        let base = dc_motor_spec();
        let mut digests = vec![("baseline", loop_spec_digest(&base))];
        let mut check = |label: &'static str, spec: &LoopSpec| {
            let d = loop_spec_digest(spec);
            for (prev, pd) in &digests {
                assert_ne!(*pd, d, "digest of '{label}' collides with '{prev}'");
            }
            digests.push((label, d));
        };

        let mut s = dc_motor_spec();
        s.plant = {
            let mut a = s.plant.a().clone();
            a[(0, 0)] += 1e-9;
            StateSpace::new(
                a,
                s.plant.b().clone(),
                s.plant.c().clone(),
                s.plant.d().clone(),
            )
            .unwrap()
        };
        check("plant A entry", &s);

        let mut s = dc_motor_spec();
        s.x0[1] = 1e-12;
        check("x0 entry", &s);

        let mut s = dc_motor_spec();
        s.feedback[(0, 0)] += 1e-9;
        check("feedback entry", &s);

        let mut s = dc_motor_spec();
        s.input_memory = Some(Mat::diag(&[0.0]));
        check("input-memory presence", &s);

        let mut s = dc_motor_spec();
        s.input_memory = Some(Mat::diag(&[0.25]));
        check("input-memory entry", &s);

        let mut s = dc_motor_spec();
        s.ts *= 1.25;
        check("ts", &s);

        let mut s = dc_motor_spec();
        s.horizon += 0.5;
        check("horizon", &s);

        let mut s = dc_motor_spec();
        s.q_weight = 2.0;
        check("q_weight", &s);

        let mut s = dc_motor_spec();
        s.r_weight = 0.2;
        check("r_weight", &s);

        let mut s = dc_motor_spec();
        s.disturbance = DisturbanceKind::Noise {
            std_dev: 0.0,
            seed: 0,
        };
        check("disturbance kind", &s);

        let mut s = dc_motor_spec();
        s.disturbance = DisturbanceKind::Noise {
            std_dev: 0.1,
            seed: 0,
        };
        check("disturbance std_dev", &s);

        let mut s = dc_motor_spec();
        s.disturbance = DisturbanceKind::Noise {
            std_dev: 0.1,
            seed: 1,
        };
        check("disturbance seed", &s);
    }

    /// A memoized ideal run is bit-identical to a fresh [`run_ideal`]:
    /// same cost bits, same instants, same engine counters, same trace.
    #[test]
    fn ideal_memo_equals_fresh_run() {
        let mut spec = dc_motor_spec();
        spec.horizon = 0.5;
        let cache = IdealRunCache::new();
        assert!(cache.is_empty());
        let memo = cache.get_or_run(&spec).unwrap();
        let again = cache.get_or_run(&spec).unwrap();
        assert!(Arc::ptr_eq(&memo, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.lookups(), 2);

        let fresh = run_ideal(&spec).unwrap();
        assert_eq!(memo.cost.to_bits(), fresh.cost.to_bits());
        assert_eq!(memo.sample_instants, fresh.sample_instants);
        assert_eq!(memo.actuation_instants, fresh.actuation_instants);
        assert_eq!(memo.stats, fresh.stats);
        assert_eq!(memo.activity, fresh.activity);
        assert_eq!(
            memo.result.event_log().len(),
            fresh.result.event_log().len()
        );

        // A different period is a distinct entry, not a stale hit.
        let mut scaled = spec.clone();
        scaled.ts *= 1.5;
        let other = cache.get_or_run(&scaled).unwrap();
        assert_ne!(other.cost.to_bits(), memo.cost.to_bits());
        assert_eq!(cache.len(), 2);
    }

    /// Digest-derived memo counters are exact under racing lookups,
    /// mirroring the `ScheduleCache` guarantee the sweep relies on.
    #[test]
    fn ideal_memo_counters_are_thread_exact() {
        let mut spec = dc_motor_spec();
        spec.horizon = 0.25;
        let cache = Arc::new(IdealRunCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let spec = &spec;
                scope.spawn(move || {
                    for _ in 0..4 {
                        cache.get_or_run(spec).unwrap();
                    }
                });
            }
        });
        assert_eq!((cache.hits(), cache.misses()), (15, 1));
        assert_eq!(cache.lookups(), 16);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn scheduled_loop_shows_latency_and_costs_more() {
        // Aggressive LQR (cheap control) on the DC motor: the tighter the
        // loop, the more implementation latency hurts (Cervin et al. 2003).
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(&dss, &Mat::diag(&[10.0, 1.0]), &Mat::diag(&[1e-3])).unwrap();
        let spec = LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            feedback: lqr.k,
            input_memory: None,
            ts: plant.ts,
            horizon: 1.0,
            q_weight: 1.0,
            r_weight: 1e-3,
            disturbance: DisturbanceKind::None,
        };
        let ideal = run_ideal(&spec).unwrap();

        // Distribute over two ECUs with a slow bus: sensor+actuator pinned
        // on ecu0, control on ecu1 — actuation latency near the full
        // period (Ts = 50 ms).
        let law = ControlLawSpec::monolithic("lqr", 2, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], TimeNs::from_millis(8), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(200), TimeNs::from_millis(18));
        // Pin I/O on ecu0, compute on ecu1.
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        schedule.validate(&alg, &arch).unwrap();
        assert!(schedule.makespan() <= TimeNs::from_millis(50));

        let implemented = run_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        let rep = implemented.latency_report().unwrap();
        // Actuation waits for two bus crossings + compute: >> 20 ms.
        assert!(
            rep.mean_actuation() > TimeNs::from_millis(20),
            "mean actuation latency {}",
            rep.mean_actuation()
        );
        // Implementation latency degrades the quadratic cost.
        assert!(
            implemented.cost > ideal.cost * 1.05,
            "ideal {} vs implemented {}",
            ideal.cost,
            implemented.cost
        );
    }

    /// The 2-ECU split LQR fixture of
    /// `scheduled_loop_shows_latency_and_costs_more`.
    fn split_fixture() -> (LoopSpec, AlgorithmGraph, IoMap, Schedule, ArchitectureGraph) {
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(&dss, &Mat::diag(&[10.0, 1.0]), &Mat::diag(&[1e-3])).unwrap();
        let spec = LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            feedback: lqr.k,
            input_memory: None,
            ts: plant.ts,
            horizon: 1.0,
            q_weight: 1.0,
            r_weight: 1e-3,
            disturbance: DisturbanceKind::None,
        };
        let law = ControlLawSpec::monolithic("lqr", 2, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], TimeNs::from_millis(2), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(200), TimeNs::from_millis(5));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        (spec, alg, io, schedule, arch)
    }

    #[test]
    fn faulty_run_with_trivial_plan_matches_run_scheduled_exactly() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (spec, alg, io, schedule, arch) = split_fixture();
        let baseline = run_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        let periods = (spec.horizon / spec.ts).floor() as u32;
        let plan = FaultPlan::generate(
            &FaultConfig {
                seed: 123,
                ..FaultConfig::default()
            },
            &schedule,
            &arch,
            periods,
        )
        .unwrap();
        assert!(plan.is_trivial());
        let faulty = run_scheduled_faulty(&spec, &alg, &io, &schedule, &arch, plan).unwrap();
        // Bit-identical: same instants, same cost, same engine counters.
        assert_eq!(baseline.sample_instants, faulty.sample_instants);
        assert_eq!(baseline.actuation_instants, faulty.actuation_instants);
        assert!(baseline.cost == faulty.cost, "costs must be bit-identical");
        assert_eq!(baseline.stats, faulty.stats);
    }

    #[test]
    fn faulty_run_degrades_but_keeps_actuating() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (spec, alg, io, schedule, arch) = split_fixture();
        let baseline = run_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        let periods = (spec.horizon / spec.ts).floor() as u32;
        // Every frame is dropped: the controller-side rendezvous is
        // forced at the end of each period, the holds keep stale values.
        let plan = FaultPlan::generate(
            &FaultConfig {
                frame_loss_rate: 1.0,
                max_retries: 1,
                ..FaultConfig::default()
            },
            &schedule,
            &arch,
            periods,
        )
        .unwrap();
        assert!(!plan.is_trivial());
        let faulty = run_scheduled_faulty(&spec, &alg, &io, &schedule, &arch, plan).unwrap();
        // The loop still actuates once per period — forced fires land a
        // period late, so the last one completes past the horizon.
        let baseline_n = baseline.actuation_instants[0].len();
        let faulty_n = faulty.actuation_instants[0].len();
        assert!(
            faulty_n >= baseline_n - 1 && faulty_n > 1,
            "degraded loop stopped actuating: {faulty_n} vs {baseline_n}"
        );
        // The strict report rejects the forced cross-period sampling; the
        // lenient one counts overruns instead.
        let rep = faulty.latency_report_lenient().unwrap();
        assert!(rep.total_overruns() > 0, "forced fires must overrun");
        // Acting on stale state costs control performance.
        assert!(
            faulty.cost > baseline.cost,
            "faulty {} vs baseline {}",
            faulty.cost,
            baseline.cost
        );
    }

    /// A memoized scheduled run is bit-identical to a fresh
    /// [`run_scheduled`], and the faulty variant to a fresh
    /// [`run_scheduled_faulty`]; nominal and faulty runs of the same
    /// deployment occupy distinct slots.
    #[test]
    fn scheduled_memo_equals_fresh_run_nominal_and_faulty() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (spec, alg, io, schedule, arch) = split_fixture();
        let sched_digest = 0xdead_beef; // opaque to the memo; any stable tag
        let cache = ScheduledRunCache::new();
        assert!(cache.is_empty());

        let memo = cache
            .get_or_run(&spec, &alg, &io, &schedule, &arch, sched_digest, None)
            .unwrap();
        let again = cache
            .get_or_run(&spec, &alg, &io, &schedule, &arch, sched_digest, None)
            .unwrap();
        assert!(Arc::ptr_eq(&memo, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let fresh = run_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        assert_eq!(memo.cost.to_bits(), fresh.cost.to_bits());
        assert_eq!(memo.sample_instants, fresh.sample_instants);
        assert_eq!(memo.actuation_instants, fresh.actuation_instants);
        assert_eq!(memo.stats, fresh.stats);
        assert_eq!(memo.activity, fresh.activity);

        // A faulty run of the same deployment is a distinct slot and
        // bit-equals its own fresh run.
        let periods = (spec.horizon / spec.ts).floor() as u32;
        let plan = FaultPlan::generate(
            &FaultConfig {
                seed: 9,
                frame_loss_rate: 0.5,
                max_retries: 2,
                ..FaultConfig::default()
            },
            &schedule,
            &arch,
            periods,
        )
        .unwrap();
        assert!(!plan.is_trivial());
        let faulty_memo = cache
            .get_or_run(
                &spec,
                &alg,
                &io,
                &schedule,
                &arch,
                sched_digest,
                Some(&plan),
            )
            .unwrap();
        assert_eq!(cache.len(), 2);
        let faulty_fresh =
            run_scheduled_faulty(&spec, &alg, &io, &schedule, &arch, plan.clone()).unwrap();
        assert_eq!(faulty_memo.cost.to_bits(), faulty_fresh.cost.to_bits());
        assert_eq!(faulty_memo.sample_instants, faulty_fresh.sample_instants);
        assert_eq!(
            faulty_memo.actuation_instants,
            faulty_fresh.actuation_instants
        );
        assert_eq!(faulty_memo.stats, faulty_fresh.stats);

        // A different schedule digest must not alias, even with an
        // identical spec and plan.
        cache
            .get_or_run(&spec, &alg, &io, &schedule, &arch, sched_digest + 1, None)
            .unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.races(), 0, "serial lookups cannot double-compute");
    }

    /// The memo key separates nominal from faulty even when the plan is
    /// trivial: `run_scheduled_faulty` with a trivial plan is
    /// bit-identical to `run_scheduled`, but the key space must not rely
    /// on that — a presence marker keeps the mapping injective.
    #[test]
    fn scheduled_run_digest_marks_fault_plan_presence() {
        let spec = dc_motor_spec();
        let trivial = FaultPlan::trivial(10);
        let nominal = scheduled_run_digest(&spec, 1, None);
        let faulty = scheduled_run_digest(&spec, 1, Some(&trivial));
        assert_ne!(nominal, faulty);
        // And the key tracks each component.
        assert_ne!(nominal, scheduled_run_digest(&spec, 2, None));
        let mut scaled = spec.clone();
        scaled.ts *= 1.25;
        assert_ne!(nominal, scheduled_run_digest(&scaled, 1, None));
        let other_plan = FaultPlan::trivial(11);
        assert_ne!(
            faulty,
            scheduled_run_digest(&spec, 1, Some(&other_plan)),
            "plans with different digests must key differently"
        );
    }

    /// Digest-derived memo counters are exact under racing lookups,
    /// mirroring the `ScheduleCache`/`IdealRunCache` guarantee.
    #[test]
    fn scheduled_memo_counters_are_thread_exact() {
        let (mut spec, alg, io, schedule, arch) = split_fixture();
        spec.horizon = 0.25;
        let cache = Arc::new(ScheduledRunCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let (spec, alg, io, schedule, arch) = (&spec, &alg, &io, &schedule, &arch);
                scope.spawn(move || {
                    for _ in 0..4 {
                        cache
                            .get_or_run(spec, alg, io, schedule, arch, 7, None)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!((cache.hits(), cache.misses()), (15, 1));
        assert_eq!(cache.lookups(), 16);
        assert_eq!(cache.len(), 1);
        // Races are bounded by the losing local misses: at most one per
        // thread beyond the winner.
        assert!(cache.races() <= 3);
    }

    #[test]
    fn traced_scheduled_run_streams_deterministic_telemetry() {
        use ecl_telemetry::RecordingSink;
        let spec = dc_motor_spec();
        let law = ControlLawSpec::monolithic("lqr", 2, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], TimeNs::from_millis(2), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(200), TimeNs::from_millis(5));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();

        let run_once = || {
            let mut tel = Collector::new(RecordingSink::default());
            let r = run_scheduled_traced(&spec, &alg, &io, &schedule, &arch, &mut tel).unwrap();
            (r, tel.into_sink())
        };
        let (r, sink) = run_once();

        // Timeline slices cover every op and comm of every period.
        let periods = (spec.horizon / spec.ts).floor() as usize;
        let n_slices = sink
            .events()
            .iter()
            .filter(|e| matches!(e, ecl_telemetry::Event::Slice { .. }))
            .count();
        assert_eq!(
            n_slices,
            periods * (schedule.ops().len() + schedule.comms().len())
        );
        // One latency counter per I/O per recorded period.
        let n_counters = sink
            .events()
            .iter()
            .filter(|e| matches!(e, ecl_telemetry::Event::Counter { .. }))
            .count();
        let n_observations: usize = r
            .sample_instants
            .iter()
            .chain(&r.actuation_instants)
            .map(Vec::len)
            .sum();
        assert_eq!(n_counters, n_observations);
        // No wall-clock events: the stream is fully sim-derived.
        assert!(!sink.events().iter().any(|e| matches!(
            e,
            ecl_telemetry::Event::SpanBegin { .. } | ecl_telemetry::Event::SpanEnd { .. }
        )));

        // Histograms agree with the exact latency statistics.
        let rep = r.latency_report().unwrap();
        for (series, hist) in rep
            .sampling
            .iter()
            .zip(&r.sampling_hist)
            .chain(rep.actuation.iter().zip(&r.actuation_hist))
        {
            let st = series.stats().unwrap();
            assert_eq!(hist.count(), series.len() as u64);
            assert_eq!(hist.min(), Some(st.min.as_nanos()));
            assert_eq!(hist.max(), Some(st.max.as_nanos()));
            let sm = hist.summary();
            assert!((sm.mean_ns - st.mean.as_nanos() as f64).abs() <= 1.0);
            assert!(sm.min_ns <= sm.p50_ns && sm.p50_ns <= sm.p95_ns);
            assert!(sm.p95_ns <= sm.p99_ns && sm.p99_ns <= sm.max_ns);
        }

        // Hot-loop counters and activity are populated.
        assert!(r.stats.events_delivered > 0);
        assert!(r.stats.ode.steps_accepted > 0);
        assert!(!r.activity.is_empty());
        assert!(r.activity.windows(2).all(|w| w[0].1 >= w[1].1));

        // Byte-identical across identical runs.
        let (r2, sink2) = run_once();
        assert_eq!(sink.render(), sink2.render());
        assert_eq!(r.stats, r2.stats);
    }

    #[test]
    fn spec_validation_catches_shape_errors() {
        let mut spec = dc_motor_spec();
        spec.x0 = vec![1.0];
        assert!(run_ideal(&spec).is_err());
        let mut spec = dc_motor_spec();
        spec.feedback = Mat::zeros(2, 2);
        assert!(run_ideal(&spec).is_err());
        let mut spec = dc_motor_spec();
        spec.n_controls = 5;
        assert!(run_ideal(&spec).is_err());
        let mut spec = dc_motor_spec();
        spec.ts = 0.0;
        assert!(run_ideal(&spec).is_err());
        let mut spec = dc_motor_spec();
        spec.input_memory = Some(Mat::zeros(2, 2));
        assert!(run_ideal(&spec).is_err());
    }

    #[test]
    fn io_shape_mismatch_rejected() {
        let spec = dc_motor_spec();
        let law = ControlLawSpec::monolithic("lqr", 1, 1); // 1 sensor != 2 states
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("ecu0", "arm");
        let db = uniform_timing(&alg, &io, us(10), us(10));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        assert!(run_scheduled(&spec, &alg, &io, &schedule, &arch).is_err());
    }

    #[test]
    fn noise_disturbance_excites_quarter_car() {
        let plant = plants::quarter_car();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(
            &dss,
            &Mat::identity(4),
            &Mat::from_rows(&[&[1e-4, 0.0], &[0.0, 1e-4]]).unwrap(),
        )
        .unwrap();
        let spec = LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![0.0; 4],
            feedback: lqr.k.block(0, 0, 1, 4).unwrap(),
            input_memory: None,
            ts: plant.ts,
            horizon: 0.5,
            q_weight: 1.0,
            r_weight: 1e-6,
            disturbance: DisturbanceKind::Noise {
                std_dev: 0.5,
                seed: 9,
            },
        };
        let r = run_ideal(&spec).unwrap();
        // Road noise produces non-zero motion from a zero initial state.
        assert!(r.cost > 0.0, "cost {}", r.cost);
    }

    #[test]
    fn input_memory_controller_shape() {
        let mut spec = dc_motor_spec();
        spec.input_memory = Some(Mat::diag(&[0.1]));
        let r = run_ideal(&spec).unwrap();
        assert!(r.cost.is_finite());
    }

    fn lqg_spec() -> OutputLoopSpec {
        use ecl_control::{kalman, lqg};
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let gain = dlqr(&dss, &Mat::diag(&[10.0, 1.0]), &Mat::diag(&[1e-2])).unwrap();
        let kf = kalman::design(&dss, &Mat::identity(2).scaled(1e-4), &Mat::diag(&[1e-4])).unwrap();
        let comp = lqg::compensator(&dss, &gain, &kf).unwrap();
        OutputLoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            compensator: comp,
            ts: plant.ts,
            horizon: 2.0,
            q_weight: 1.0,
            r_weight: 1e-2,
            disturbance: DisturbanceKind::None,
        }
    }

    #[test]
    fn lqg_output_feedback_regulates() {
        let spec = lqg_spec();
        let r = run_output_ideal(&spec).unwrap();
        let y = r.result.signal("x0").unwrap();
        assert!(y.values()[0] > 0.9);
        assert!(
            y.last().unwrap().1.abs() < 0.05,
            "output did not regulate: {}",
            y.last().unwrap().1
        );
        // One sampling per period per measured output (only 1 here).
        assert_eq!(r.sample_instants.len(), 1);
        let rep = r.latency_report().unwrap();
        assert_eq!(rep.mean_actuation(), TimeNs::ZERO);
    }

    #[test]
    fn lqg_scheduled_shows_latency_degradation() {
        let spec = lqg_spec();
        let ideal = run_output_ideal(&spec).unwrap();
        // One sensor (the measured speed), one actuator, over the split
        // 2-ECU target with heavy latency.
        let law = ControlLawSpec::monolithic("lqg", 1, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], TimeNs::from_millis(8), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(200), TimeNs::from_millis(18));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        let run = run_output_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        assert!(
            run.cost > ideal.cost,
            "ideal {} vs implemented {}",
            ideal.cost,
            run.cost
        );
        let rep = run.latency_report().unwrap();
        assert!(rep.mean_actuation() > TimeNs::from_millis(20));
    }

    #[test]
    fn output_spec_validation() {
        let good = lqg_spec();
        let mut bad = good.clone();
        bad.n_controls = 2;
        assert!(run_output_ideal(&bad).is_err());
        let mut bad = good.clone();
        bad.x0 = vec![0.0];
        assert!(run_output_ideal(&bad).is_err());
        let mut bad = good.clone();
        bad.ts = good.ts * 2.0; // disagrees with the compensator period
        assert!(run_output_ideal(&bad).is_err());
        // Sensor-count mismatch in the scheduled variant.
        let law = ControlLawSpec::monolithic("lqg", 2, 1); // 2 sensors != 1 output
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("ecu0", "arm");
        let db = uniform_timing(&alg, &io, us(10), us(10));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        assert!(run_output_scheduled(&good, &alg, &io, &schedule, &arch).is_err());
    }
}
