//! Shared scenario builders and table rendering for the experiment
//! binaries (`src/bin/fig*.rs`, `src/bin/exp*.rs`) and the Criterion
//! benches.
//!
//! Every figure and experiment of `EXPERIMENTS.md` is regenerated by one
//! binary in this crate; the helpers here keep the scenarios identical
//! across experiments so the numbers are comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;

use ecl_aaa::{AlgorithmGraph, ArchitectureGraph, ProcId, TimeNs, TimingDb};
use ecl_control::{c2d_zoh, dlqr, plants, StateSpace};
use ecl_core::cosim::{DisturbanceKind, LoopSpec};
use ecl_core::translate::{uniform_timing, ControlLawSpec, IoMap};
use ecl_core::CoreError;
use ecl_linalg::Mat;

/// Renders an aligned ASCII table.
///
/// # Examples
///
/// ```
/// let t = ecl_bench::table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
/// assert!(t.contains("a"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str(" | ");
            }
            line.push_str(&format!("{c:>w$}", w = widths[i]));
        }
        line.push('\n');
        line
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    let total: usize = widths.iter().sum::<usize>() + 3 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// A ready-to-run distributed scenario: law, translated graph, 2-ECU bus
/// architecture with I/O pinned on `io_ecu` and computation on
/// `control_ecu`.
#[derive(Clone)]
pub struct SplitScenario {
    /// The control law.
    pub law: ControlLawSpec,
    /// Translated algorithm graph.
    pub alg: AlgorithmGraph,
    /// I/O correspondence.
    pub io: IoMap,
    /// The 2-ECU architecture.
    pub arch: ArchitectureGraph,
    /// WCET table with the placement constraints applied.
    pub db: TimingDb,
    /// The I/O processor.
    pub io_proc: ProcId,
    /// The compute processor.
    pub compute_proc: ProcId,
}

/// Builds the canonical 2-ECU split target used across experiments: `p`
/// sensed signals, `m` control outputs, sensors/actuators pinned on the
/// I/O ECU, computation pinned on the control ECU, one bus between them.
///
/// # Errors
///
/// Propagates construction errors (only reachable with pathological
/// arguments such as zero inputs).
pub fn split_scenario(
    n_inputs: usize,
    n_outputs: usize,
    bus_latency: TimeNs,
    io_wcet: TimeNs,
    compute_wcet: TimeNs,
) -> Result<SplitScenario, CoreError> {
    let law = ControlLawSpec::monolithic("law", n_inputs, n_outputs);
    let (alg, io) = law.to_algorithm()?;
    let mut arch = ArchitectureGraph::new();
    let io_proc = arch.add_processor("io_ecu", "arm");
    let compute_proc = arch.add_processor("control_ecu", "arm");
    arch.add_bus(
        "can",
        &[io_proc, compute_proc],
        bus_latency,
        TimeNs::from_micros(10),
    )?;
    let mut db = uniform_timing(&alg, &io, io_wcet, compute_wcet);
    for &s in io.sensors.iter().chain(&io.actuators) {
        db.forbid(s, compute_proc);
    }
    for &f in &io.stages {
        db.forbid(f, io_proc);
    }
    Ok(SplitScenario {
        law,
        alg,
        io,
        arch,
        db,
        io_proc,
        compute_proc,
    })
}

/// LQR weights used by the standard loops (aggressive enough that latency
/// visibly matters, per Cervin et al. 2003).
pub fn standard_weights(n: usize) -> (Mat, Mat) {
    let mut q = Mat::identity(n);
    q[(0, 0)] = 10.0;
    (q, Mat::diag(&[1e-3]))
}

/// Builds the standard DC-motor regulation loop with an LQR gain
/// synthesized on the ideally sampled plant.
///
/// # Errors
///
/// Propagates discretization/synthesis errors (none for the fixed motor
/// model).
pub fn dc_motor_loop(horizon: f64) -> Result<LoopSpec, CoreError> {
    let plant = plants::dc_motor();
    lqr_loop(plant.sys, plant.ts, vec![1.0, 0.0], horizon)
}

/// Builds an LQR regulation loop for an arbitrary single-control plant.
///
/// # Errors
///
/// Propagates discretization/synthesis errors (e.g. an unstabilizable
/// pair).
pub fn lqr_loop(
    plant: StateSpace,
    ts: f64,
    x0: Vec<f64>,
    horizon: f64,
) -> Result<LoopSpec, CoreError> {
    let n = plant.state_dim();
    let control_only = StateSpace::new(
        plant.a().clone(),
        plant.b().block(0, 0, n, 1)?,
        plant.c().clone(),
        plant.d().block(0, 0, plant.output_dim(), 1)?,
    )?;
    let dss = c2d_zoh(&control_only, ts)?;
    let (q, r) = standard_weights(n);
    let gain = dlqr(&dss, &q, &r)?;
    Ok(LoopSpec {
        plant,
        n_controls: 1,
        x0,
        feedback: gain.k,
        input_memory: None,
        ts,
        horizon,
        q_weight: 1.0,
        r_weight: 1e-3,
        disturbance: DisturbanceKind::None,
    })
}

/// Serializes per-phase wall-clock durations (e.g. from
/// [`ecl_telemetry::RecordingSink::span_durations`]) as a small JSON
/// document for the `results/BENCH_*.json` artifacts:
///
/// ```json
/// {"experiment":"exp10","phases":[{"name":"design","wall_ns":12345}],
///  "total_wall_ns":12345}
/// ```
pub fn bench_json(experiment: &str, phases: &[(String, u64)]) -> String {
    let escape = |s: &str| -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => "\\\"".chars().collect::<Vec<_>>(),
                '\\' => "\\\\".chars().collect(),
                c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                c => vec![c],
            })
            .collect()
    };
    let mut s = format!("{{\"experiment\":\"{}\",\"phases\":[", escape(experiment));
    for (i, (name, ns)) in phases.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{}\",\"wall_ns\":{ns}}}",
            escape(name)
        ));
    }
    let total: u64 = phases.iter().map(|(_, ns)| ns).sum();
    s.push_str(&format!("],\"total_wall_ns\":{total}}}\n"));
    s
}

/// Writes an experiment artifact under `results/`, creating the
/// directory if needed.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_result(file_name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// The machine and build a wall-clock sidecar was measured on, as JSON
/// object members without braces: available cores, build profile and
/// git rev (the fields of perfbench's run header besides the worker
/// count, which each sidecar records as `workers`). A rev that `git`
/// cannot report reads `unknown`.
pub fn machine_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!("\"available_cores\":{cores},\"build_profile\":\"{profile}\",\"git_rev\":\"{rev}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(
            &["name", "value"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn split_scenario_is_schedulable() {
        let s = split_scenario(
            2,
            1,
            TimeNs::from_millis(1),
            TimeNs::from_micros(100),
            TimeNs::from_millis(2),
        )
        .unwrap();
        let sched = ecl_aaa::adequation(
            &s.alg,
            &s.arch,
            &s.db,
            ecl_aaa::AdequationOptions::default(),
        )
        .unwrap();
        sched.validate(&s.alg, &s.arch).unwrap();
        for &op in s.io.sensors.iter().chain(&s.io.actuators) {
            assert_eq!(sched.slot(op).unwrap().proc, s.io_proc);
        }
        assert_eq!(sched.slot(s.io.stages[0]).unwrap().proc, s.compute_proc);
    }

    #[test]
    fn bench_json_shape() {
        let j = bench_json(
            "exp9",
            &[("translate".into(), 10), ("adequation".into(), 32)],
        );
        assert!(j.starts_with("{\"experiment\":\"exp9\""));
        assert!(j.contains("{\"name\":\"translate\",\"wall_ns\":10}"));
        assert!(j.contains("{\"name\":\"adequation\",\"wall_ns\":32}"));
        assert!(j.trim_end().ends_with("\"total_wall_ns\":42}"));
        let escaped = bench_json("a\"b\\c", &[]);
        assert!(escaped.contains("a\\\"b\\\\c"));
    }

    #[test]
    fn dc_motor_loop_runs() {
        let spec = dc_motor_loop(0.5).unwrap();
        let r = ecl_core::cosim::run_ideal(&spec).unwrap();
        assert!(r.cost > 0.0);
    }
}
