//! Cross-validation of executive-measured latencies against the graph of
//! delays.
//!
//! The methodology's step 3 *predicts* the distributed implementation's
//! operation instants with the graph of delays; `ecl-exec` *measures*
//! them by running the generated executives and communication sequences
//! on a sequential executor under a virtual clock. Both series are pure
//! functions of the same inputs (schedule, architecture timing, fault
//! plan), so they must agree op-by-op, period-by-period — any divergence
//! is a bug in one of the two models. This module holds the shared timeline type
//! ([`OpTimeline`]), the predictor ([`predict_op_completions`], a thin
//! harness over [`crate::delays`]) and the comparator
//! ([`validate_schedule`] → [`ValidationReport`]).

use ecl_aaa::{AlgorithmGraph, ArchitectureGraph, OpId, Schedule, TimeNs};
use ecl_blocks::{Constant, Scope};
use ecl_sim::{Model, SimOptions, Simulator};

use crate::delays::{self, DelayGraphConfig};
use crate::faults::FaultPlan;
use crate::CoreError;

/// Completion instants of every operation over a whole run, one series
/// per operation, in operation order. Instants are absolute (period `k`'s
/// nominal completions sit at `k·period + offset`) and strictly below the
/// run horizon `periods · period`, so measured and predicted runs of
/// equal length align index-by-index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTimeline {
    /// The sampling period the run was driven at.
    pub period: TimeNs,
    /// Number of periods the run covered.
    pub periods: u32,
    /// Per-operation completion instants, sorted by operation id; each
    /// series ascending.
    pub series: Vec<(OpId, Vec<TimeNs>)>,
}

impl OpTimeline {
    /// The run horizon: instants at or beyond it are excluded.
    pub fn horizon(&self) -> TimeNs {
        self.period * i64::from(self.periods)
    }

    /// The completion series of `op`, if the timeline holds one.
    pub fn series_for(&self, op: OpId) -> Option<&[TimeNs]> {
        self.series
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, s)| s.as_slice())
    }
}

/// Predicts every scheduled operation's completion instants by building
/// the graph of delays for `schedule` (with `faults` injected, when
/// given) and simulating it for `periods` periods.
///
/// This is the modeled side of the cross-validation; the measured side is
/// an `ecl-exec` run of the generated executives under the same plan.
///
/// # Errors
///
/// Propagates [`crate::delays::build`] failures (makespan exceeding the
/// period, conditioned operations — this harness supplies no condition
/// sources) and simulator errors.
pub fn predict_op_completions(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
    period: TimeNs,
    periods: u32,
    faults: Option<&FaultPlan>,
) -> Result<OpTimeline, CoreError> {
    let mut model = Model::new();
    let config = DelayGraphConfig {
        faults: faults.cloned(),
        ..DelayGraphConfig::default()
    };
    let dg = delays::build(&mut model, alg, arch, schedule, period, config)?;
    let probe = model.add_block("xval_probe", Constant::new(0.0));
    let mut scopes = Vec::with_capacity(schedule.ops().len());
    for s in schedule.ops() {
        let sc = model.add_block(format!("xval_{}", s.op), Scope::new());
        model.connect(probe, 0, sc, 0)?;
        dg.activate_on_completion(&mut model, s.op, sc, 0)?;
        scopes.push((s.op, sc));
    }
    let horizon = period * i64::from(periods);
    let mut sim = Simulator::new(model, SimOptions::default())?;
    let result = sim.run(horizon)?;
    let mut series: Vec<(OpId, Vec<TimeNs>)> = scopes
        .into_iter()
        .map(|(op, sc)| {
            let instants = result
                .activation_times(sc, Some(0))
                .into_iter()
                .filter(|&t| t < horizon)
                .collect();
            (op, instants)
        })
        .collect();
    series.sort_by_key(|(op, _)| op.index());
    Ok(OpTimeline {
        period,
        periods,
        series,
    })
}

/// The first index at which one operation's measured and predicted series
/// disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Activation ordinal (index into both series).
    pub index: usize,
    /// The measured instant at that index, if the series reaches it.
    pub measured: Option<TimeNs>,
    /// The predicted instant at that index, if the series reaches it.
    pub predicted: Option<TimeNs>,
}

/// Per-operation comparison of measured against predicted completions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpValidation {
    /// The operation compared.
    pub op: OpId,
    /// Its name in the algorithm graph.
    pub name: String,
    /// Number of measured completions.
    pub measured: usize,
    /// Number of predicted completions.
    pub predicted: usize,
    /// Largest |measured − predicted| over the common prefix, in ns.
    pub max_abs_delta_ns: i64,
    /// First index where the series disagree, if any.
    pub first_divergence: Option<Divergence>,
}

impl OpValidation {
    /// `true` iff the two series are identical.
    pub fn is_exact(&self) -> bool {
        self.first_divergence.is_none()
    }
}

/// Outcome of [`validate_schedule`]: the op-by-op diff of an executive
/// run against the graph-of-delays prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// The common sampling period.
    pub period: TimeNs,
    /// The common run length in periods.
    pub periods: u32,
    /// One row per operation, in operation order.
    pub rows: Vec<OpValidation>,
}

impl ValidationReport {
    /// `true` iff every operation's series match exactly (zero
    /// divergence).
    pub fn is_exact(&self) -> bool {
        self.rows.iter().all(OpValidation::is_exact)
    }

    /// Largest absolute measured-vs-predicted delta across all
    /// operations, in ns (0 for an exact report).
    pub fn max_divergence_ns(&self) -> i64 {
        self.rows
            .iter()
            .map(|r| r.max_abs_delta_ns)
            .max()
            .unwrap_or(0)
    }

    /// The earliest period containing a divergent instant, if any.
    pub fn first_divergent_period(&self) -> Option<u32> {
        let p = self.period.as_nanos();
        self.rows
            .iter()
            .filter_map(|r| r.first_divergence)
            .filter_map(|d| d.measured.or(d.predicted))
            .map(|t| (t.as_nanos() / p) as u32)
            .min()
    }

    /// Renders the per-op table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "cross-validation over {} periods of {}: {}\n",
            self.periods,
            self.period,
            if self.is_exact() {
                "EXACT".to_string()
            } else {
                format!(
                    "DIVERGENT (max {} ns, first period {})",
                    self.max_divergence_ns(),
                    self.first_divergent_period()
                        .map(|k| k.to_string())
                        .unwrap_or_else(|| "-".into())
                )
            }
        );
        s.push_str("op               measured predicted max|Δ|ns first-divergence\n");
        for r in &self.rows {
            let div = match r.first_divergence {
                None => "-".to_string(),
                Some(d) => format!(
                    "#{}: {} vs {}",
                    d.index,
                    d.measured
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "missing".into()),
                    d.predicted
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "missing".into()),
                ),
            };
            s.push_str(&format!(
                "{:<16} {:>8} {:>9} {:>8} {}\n",
                r.name, r.measured, r.predicted, r.max_abs_delta_ns, div
            ));
        }
        s
    }
}

/// Compares a measured timeline (from the `ecl-exec` virtual executive)
/// against a predicted one (from [`predict_op_completions`]) op-by-op.
/// Operations present on only one side compare against an empty series.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] if the two timelines do not cover
/// the same period/periods — such series cannot be aligned.
pub fn validate_schedule(
    measured: &OpTimeline,
    predicted: &OpTimeline,
    alg: &AlgorithmGraph,
) -> Result<ValidationReport, CoreError> {
    if measured.period != predicted.period || measured.periods != predicted.periods {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "timeline mismatch: measured {} x {} vs predicted {} x {}",
                measured.periods, measured.period, predicted.periods, predicted.period
            ),
        });
    }
    let empty: &[TimeNs] = &[];
    let mut ops: Vec<OpId> = measured
        .series
        .iter()
        .chain(&predicted.series)
        .map(|(op, _)| *op)
        .collect();
    ops.sort_by_key(|op| op.index());
    ops.dedup();
    let rows = ops
        .into_iter()
        .map(|op| {
            let m = measured.series_for(op).unwrap_or(empty);
            let p = predicted.series_for(op).unwrap_or(empty);
            let max_abs_delta_ns = m
                .iter()
                .zip(p)
                .map(|(a, b)| (a.as_nanos() - b.as_nanos()).abs())
                .max()
                .unwrap_or(0);
            let first_divergence = (0..m.len().max(p.len())).find_map(|i| {
                let (a, b) = (m.get(i).copied(), p.get(i).copied());
                (a != b).then_some(Divergence {
                    index: i,
                    measured: a,
                    predicted: b,
                })
            });
            OpValidation {
                op,
                name: alg.name(op).to_string(),
                measured: m.len(),
                predicted: p.len(),
                max_abs_delta_ns,
                first_divergence,
            }
        })
        .collect();
    Ok(ValidationReport {
        period: measured.period,
        periods: measured.periods,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_aaa::{adequation, AdequationOptions, ArchitectureGraph, TimingDb};

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    /// Two processors + bus (the delays-module fixture): s on p0, f on
    /// p1, one 2-unit transfer.
    fn distributed_fixture() -> (AlgorithmGraph, ArchitectureGraph, Schedule, OpId, OpId) {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let f = alg.add_function("f");
        alg.add_edge(s, f, 2).unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("p0", "arm");
        let p1 = arch.add_processor("p1", "arm");
        arch.add_bus("bus", &[p0, p1], us(10), us(5)).unwrap();
        let mut db = TimingDb::new();
        db.set(s, p0, us(100));
        db.set(f, p1, us(200));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        schedule.validate(&alg, &arch).unwrap();
        (alg, arch, schedule, s, f)
    }

    #[test]
    fn prediction_reproduces_schedule_instants() {
        let (alg, arch, schedule, s, f) = distributed_fixture();
        let tl = predict_op_completions(&alg, &arch, &schedule, TimeNs::from_millis(1), 2, None)
            .unwrap();
        assert_eq!(tl.series_for(s).unwrap(), &[us(100), us(1100)]);
        assert_eq!(tl.series_for(f).unwrap(), &[us(320), us(1320)]);
    }

    #[test]
    fn prediction_truncates_at_horizon() {
        let (alg, arch, schedule, s, _) = distributed_fixture();
        let tl = predict_op_completions(&alg, &arch, &schedule, TimeNs::from_millis(1), 1, None)
            .unwrap();
        assert_eq!(tl.series_for(s).unwrap(), &[us(100)]);
        assert_eq!(tl.horizon(), TimeNs::from_millis(1));
    }

    #[test]
    fn identical_timelines_validate_exactly() {
        let (alg, arch, schedule, _, _) = distributed_fixture();
        let tl = predict_op_completions(&alg, &arch, &schedule, TimeNs::from_millis(1), 3, None)
            .unwrap();
        let rep = validate_schedule(&tl, &tl.clone(), &alg).unwrap();
        assert!(rep.is_exact());
        assert_eq!(rep.max_divergence_ns(), 0);
        assert_eq!(rep.first_divergent_period(), None);
        assert!(rep.render().contains("EXACT"));
    }

    #[test]
    fn divergence_is_located_and_quantified() {
        let (alg, arch, schedule, _, f) = distributed_fixture();
        let tl = predict_op_completions(&alg, &arch, &schedule, TimeNs::from_millis(1), 3, None)
            .unwrap();
        let mut skewed = tl.clone();
        for (op, series) in &mut skewed.series {
            if *op == f {
                series[1] += TimeNs::from_nanos(250);
                series.pop(); // and lose the last activation
            }
        }
        let rep = validate_schedule(&skewed, &tl, &alg).unwrap();
        assert!(!rep.is_exact());
        assert_eq!(rep.max_divergence_ns(), 250);
        // The first divergent instant is f's period-1 completion.
        assert_eq!(rep.first_divergent_period(), Some(1));
        let row = rep.rows.iter().find(|r| r.op == f).unwrap();
        assert_eq!(row.measured, 2);
        assert_eq!(row.predicted, 3);
        let d = row.first_divergence.unwrap();
        assert_eq!(d.index, 1);
        assert!(rep.render().contains("DIVERGENT"));
    }

    #[test]
    fn mismatched_horizons_are_rejected() {
        let (alg, arch, schedule, _, _) = distributed_fixture();
        let a = predict_op_completions(&alg, &arch, &schedule, TimeNs::from_millis(1), 2, None)
            .unwrap();
        let b = predict_op_completions(&alg, &arch, &schedule, TimeNs::from_millis(1), 3, None)
            .unwrap();
        assert!(matches!(
            validate_schedule(&a, &b, &alg),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn missing_series_compare_against_empty() {
        let (alg, arch, schedule, s, _) = distributed_fixture();
        let tl = predict_op_completions(&alg, &arch, &schedule, TimeNs::from_millis(1), 1, None)
            .unwrap();
        let mut partial = tl.clone();
        partial.series.retain(|(op, _)| *op != s);
        let rep = validate_schedule(&partial, &tl, &alg).unwrap();
        let row = rep.rows.iter().find(|r| r.op == s).unwrap();
        assert_eq!(row.measured, 0);
        assert_eq!(row.predicted, 1);
        assert!(!row.is_exact());
    }
}
