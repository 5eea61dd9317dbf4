//! Explicit Runge–Kutta integrators used between event instants.
//!
//! The engine integrates the joint continuous state of the model with
//! either classic fixed-step RK4 or the adaptive Dormand–Prince RK45 pair.
//! Both operate on an [`OdeRhs`] closure-style trait so they are reusable
//! outside the engine (and directly testable against analytic solutions).

use crate::error::SimError;
use crate::stats::OdeStepStats;

/// Right-hand side of an ODE `ẋ = f(t, x)`.
///
/// Implemented by the engine (which evaluates the block diagram) and by
/// plain closures via the blanket impl below.
pub trait OdeRhs {
    /// Writes `f(t, x)` into `dx` (`dx.len() == x.len()`).
    fn eval(&mut self, t: f64, x: &[f64], dx: &mut [f64]);
}

impl<F> OdeRhs for F
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    fn eval(&mut self, t: f64, x: &[f64], dx: &mut [f64]) {
        self(t, x, dx)
    }
}

/// Integrator selection and tuning for the simulation engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Integrator {
    /// Classic fixed-step 4th-order Runge–Kutta with step `h` (seconds).
    /// The last step of each span is shortened to land exactly on the event
    /// instant.
    Rk4 {
        /// Step size in seconds. Must be positive.
        h: f64,
    },
    /// Adaptive Dormand–Prince 5(4) with per-step error control.
    Rk45 {
        /// Relative tolerance.
        rtol: f64,
        /// Absolute tolerance.
        atol: f64,
        /// Largest step the controller may take (seconds).
        h_max: f64,
    },
}

impl Default for Integrator {
    /// RK45 with `rtol = 1e-8`, `atol = 1e-10`, `h_max = 0.01 s`.
    fn default() -> Self {
        Integrator::Rk45 {
            rtol: 1e-8,
            atol: 1e-10,
            h_max: 0.01,
        }
    }
}

/// Stage buffers reused across integration spans: the seven
/// Dormand–Prince stages and the trial, 5th- and 4th-order states (RK4
/// uses the first four stages and the trial state).
///
/// The engine owns one, sized for its joint state in
/// [`Simulator::new`](crate::Simulator::new), so integrating a span
/// allocates nothing; [`integrate`] builds a local one per call.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    k: [Vec<f64>; 7],
    xs: Vec<f64>,
    x5: Vec<f64>,
    x4: Vec<f64>,
}

impl Workspace {
    /// A workspace sized for an `n`-dimensional state.
    pub(crate) fn new(n: usize) -> Self {
        let mut ws = Workspace::default();
        ws.fit(n);
        ws
    }

    /// Resizes every buffer to `n`, returning how many of them had to
    /// grow their heap allocation (0 once sized).
    pub(crate) fn fit(&mut self, n: usize) -> u64 {
        let mut grown = 0;
        for buf in self
            .k
            .iter_mut()
            .chain([&mut self.xs, &mut self.x5, &mut self.x4])
        {
            grown += u64::from(buf.capacity() < n);
            buf.resize(n, 0.0);
        }
        grown
    }
}

/// One classic RK4 step of size `h` from `(t, x)`, writing the result back
/// into `x`.
pub fn rk4_step<F: OdeRhs>(f: &mut F, t: f64, x: &mut [f64], h: f64) {
    rk4_step_in(f, t, x, h, &mut Workspace::new(x.len()));
}

/// [`rk4_step`] over caller-owned stage buffers (`ws` sized for `x`).
fn rk4_step_in<F: OdeRhs>(f: &mut F, t: f64, x: &mut [f64], h: f64, ws: &mut Workspace) {
    let n = x.len();
    let [k1, k2, k3, k4, ..] = &mut ws.k;
    let tmp = &mut ws.xs;

    f.eval(t, x, k1);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * h * k1[i];
    }
    f.eval(t + 0.5 * h, tmp, k2);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * h * k2[i];
    }
    f.eval(t + 0.5 * h, tmp, k3);
    for i in 0..n {
        tmp[i] = x[i] + h * k3[i];
    }
    f.eval(t + h, tmp, k4);
    for i in 0..n {
        x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// Dormand–Prince 5(4) Butcher tableau.
const DP_C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
const DP_A: [[f64; 6]; 7] = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [
        19372.0 / 6561.0,
        -25360.0 / 2187.0,
        64448.0 / 6561.0,
        -212.0 / 729.0,
        0.0,
        0.0,
    ],
    [
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
        0.0,
    ],
    [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
    ],
];
/// 5th-order solution weights.
const DP_B5: [f64; 7] = [
    35.0 / 384.0,
    0.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
    0.0,
];
/// 4th-order (embedded) solution weights.
const DP_B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

/// Smallest step (relative to the span) the adaptive controller will try
/// before reporting failure.
const MIN_STEP_FRACTION: f64 = 1e-14;

/// Integrates `ẋ = f(t, x)` from `t0` to `t1` in place, returning step
/// counters for observability.
///
/// Dispatches on the [`Integrator`] choice; `x` is updated to the state at
/// `t1`. For `Rk45`, step-size control follows the standard PI-free
/// `0.9·(tol/err)^(1/5)` rule with a [2⁻⁴, 4] growth clamp.
///
/// # Errors
///
/// Returns [`SimError::IntegrationFailure`] if a non-finite state or
/// derivative appears, or if the adaptive controller underflows its minimum
/// step without meeting the tolerance.
///
/// # Examples
///
/// ```
/// use ecl_sim::ode::{integrate, Integrator};
/// # fn main() -> Result<(), ecl_sim::SimError> {
/// // ẋ = -x, x(0) = 1  =>  x(1) = e^-1
/// let mut x = vec![1.0];
/// let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| dx[0] = -x[0];
/// let steps = integrate(&mut f, 0.0, 1.0, &mut x, Integrator::default())?;
/// assert!((x[0] - (-1.0f64).exp()).abs() < 1e-7);
/// assert!(steps.steps_accepted > 0);
/// # Ok(())
/// # }
/// ```
pub fn integrate<F: OdeRhs>(
    f: &mut F,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    method: Integrator,
) -> Result<OdeStepStats, SimError> {
    integrate_in(f, t0, t1, x, method, &mut Workspace::new(x.len()))
}

/// [`integrate`] over caller-owned stage buffers (`ws` sized for `x`).
pub(crate) fn integrate_in<F: OdeRhs>(
    f: &mut F,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    method: Integrator,
    ws: &mut Workspace,
) -> Result<OdeStepStats, SimError> {
    if t1 < t0 {
        return Err(SimError::IntegrationFailure {
            time: t0,
            reason: format!("backwards span {t0} -> {t1}"),
        });
    }
    if t1 == t0 || x.is_empty() {
        return Ok(OdeStepStats::default());
    }
    match method {
        Integrator::Rk4 { h } => {
            if !(h > 0.0) {
                return Err(SimError::IntegrationFailure {
                    time: t0,
                    reason: format!("non-positive RK4 step {h}"),
                });
            }
            let mut stats = OdeStepStats::default();
            let mut t = t0;
            while t < t1 {
                let step = h.min(t1 - t);
                rk4_step_in(f, t, x, step, ws);
                stats.steps_accepted += 1;
                stats.rhs_evals += 4;
                if x.iter().any(|v| !v.is_finite()) {
                    return Err(SimError::IntegrationFailure {
                        time: t,
                        reason: "non-finite state after RK4 step".into(),
                    });
                }
                t += step;
            }
            Ok(stats)
        }
        Integrator::Rk45 { rtol, atol, h_max } => {
            integrate_rk45(f, t0, t1, x, rtol, atol, h_max, ws)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn integrate_rk45<F: OdeRhs>(
    f: &mut F,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    rtol: f64,
    atol: f64,
    h_max: f64,
    ws: &mut Workspace,
) -> Result<OdeStepStats, SimError> {
    let n = x.len();
    let span = t1 - t0;
    let h_min = span * MIN_STEP_FRACTION;
    let mut t = t0;
    let mut h = (span / 10.0).min(h_max).max(h_min);
    let Workspace { k, xs, x5, x4 } = ws;
    let mut stats = OdeStepStats::default();

    while t < t1 {
        h = h.min(t1 - t).min(h_max);
        // Evaluate the 7 stages.
        for s in 0..7 {
            for i in 0..n {
                let mut acc = x[i];
                for (j, kj) in k.iter().enumerate().take(s) {
                    acc += h * DP_A[s][j] * kj[i];
                }
                xs[i] = acc;
            }
            f.eval(t + DP_C[s] * h, xs, &mut k[s]);
        }
        stats.rhs_evals += 7;
        // 5th and embedded 4th order solutions.
        for i in 0..n {
            let mut acc5 = x[i];
            let mut acc4 = x[i];
            for (s, ks) in k.iter().enumerate() {
                acc5 += h * DP_B5[s] * ks[i];
                acc4 += h * DP_B4[s] * ks[i];
            }
            x5[i] = acc5;
            x4[i] = acc4;
        }
        // Scaled error norm.
        let mut err: f64 = 0.0;
        for i in 0..n {
            let scale = atol + rtol * x[i].abs().max(x5[i].abs());
            err = err.max(((x5[i] - x4[i]) / scale).abs());
        }
        if !err.is_finite() {
            return Err(SimError::IntegrationFailure {
                time: t,
                reason: "non-finite error estimate (diverging state?)".into(),
            });
        }
        if err <= 1.0 {
            // Accept.
            t += h;
            x.copy_from_slice(x5);
            stats.steps_accepted += 1;
            if x.iter().any(|v| !v.is_finite()) {
                return Err(SimError::IntegrationFailure {
                    time: t,
                    reason: "non-finite state after accepted step".into(),
                });
            }
        } else {
            stats.steps_rejected += 1;
        }
        // Step-size update (both on accept and reject).
        let factor = if err == 0.0 {
            4.0
        } else {
            (0.9 * err.powf(-0.2)).clamp(1.0 / 16.0, 4.0)
        };
        h *= factor;
        if h < h_min && t < t1 {
            return Err(SimError::IntegrationFailure {
                time: t,
                reason: format!("step underflow (h = {h:.3e} < {h_min:.3e})"),
            });
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exponential decay, analytic solution e^{-t}.
    fn decay(_t: f64, x: &[f64], dx: &mut [f64]) {
        dx[0] = -x[0];
    }

    #[test]
    fn rk4_converges_fourth_order() {
        // Halving h should reduce the error ~16x.
        let mut err = Vec::new();
        for h in [0.1, 0.05] {
            let mut x = vec![1.0];
            integrate(&mut decay, 0.0, 1.0, &mut x, Integrator::Rk4 { h }).unwrap();
            err.push((x[0] - (-1.0f64).exp()).abs());
        }
        let ratio = err[0] / err[1];
        assert!(ratio > 10.0, "convergence ratio {ratio}");
    }

    #[test]
    fn rk45_meets_tolerance() {
        let mut x = vec![1.0];
        integrate(
            &mut decay,
            0.0,
            5.0,
            &mut x,
            Integrator::Rk45 {
                rtol: 1e-10,
                atol: 1e-12,
                h_max: 1.0,
            },
        )
        .unwrap();
        assert!((x[0] - (-5.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn harmonic_oscillator_energy_preserved() {
        // ẍ = -x => energy x² + v² constant.
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| {
            dx[0] = x[1];
            dx[1] = -x[0];
        };
        let mut x = vec![1.0, 0.0];
        integrate(&mut f, 0.0, 20.0, &mut x, Integrator::default()).unwrap();
        let energy = x[0] * x[0] + x[1] * x[1];
        assert!((energy - 1.0).abs() < 1e-6, "energy {energy}");
        // And position matches cos(20).
        assert!((x[0] - 20.0f64.cos()).abs() < 1e-5);
    }

    #[test]
    fn time_dependent_rhs() {
        // ẋ = 2t => x(t) = t².
        let mut f = |t: f64, _x: &[f64], dx: &mut [f64]| dx[0] = 2.0 * t;
        let mut x = vec![0.0];
        integrate(&mut f, 0.0, 3.0, &mut x, Integrator::Rk4 { h: 0.01 }).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-10);
    }

    #[test]
    fn zero_span_is_noop() {
        let mut x = vec![1.0];
        integrate(&mut decay, 1.0, 1.0, &mut x, Integrator::default()).unwrap();
        assert_eq!(x[0], 1.0);
    }

    #[test]
    fn empty_state_is_noop() {
        let mut x: Vec<f64> = vec![];
        integrate(&mut decay, 0.0, 1.0, &mut x, Integrator::default()).unwrap();
    }

    #[test]
    fn backwards_span_rejected() {
        let mut x = vec![1.0];
        assert!(integrate(&mut decay, 1.0, 0.0, &mut x, Integrator::default()).is_err());
    }

    #[test]
    fn bad_rk4_step_rejected() {
        let mut x = vec![1.0];
        assert!(integrate(&mut decay, 0.0, 1.0, &mut x, Integrator::Rk4 { h: 0.0 }).is_err());
    }

    #[test]
    fn divergent_ode_detected() {
        // ẋ = x² blows up at t = 1 from x(0) = 1.
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| dx[0] = x[0] * x[0];
        let mut x = vec![1.0];
        let r = integrate(
            &mut f,
            0.0,
            2.0,
            &mut x,
            Integrator::Rk45 {
                rtol: 1e-8,
                atol: 1e-10,
                h_max: 0.5,
            },
        );
        assert!(matches!(r, Err(SimError::IntegrationFailure { .. })));
    }

    #[test]
    fn rk4_lands_exactly_on_endpoint() {
        // h does not divide the span; final shortened step must land on t1.
        let mut f = |t: f64, _x: &[f64], dx: &mut [f64]| dx[0] = t.cos();
        let mut x = vec![0.0];
        integrate(&mut f, 0.0, 1.0, &mut x, Integrator::Rk4 { h: 0.3 }).unwrap();
        assert!((x[0] - 1.0f64.sin()).abs() < 1e-4);
    }

    #[test]
    fn closure_implements_oderhs() {
        let mut calls = 0usize;
        let mut f = |_t: f64, _x: &[f64], dx: &mut [f64]| {
            calls += 1;
            dx[0] = 0.0;
        };
        let mut dx = [0.0];
        f.eval(0.0, &[1.0], &mut dx);
        assert_eq!(calls, 1);
    }

    #[test]
    fn default_integrator_is_rk45() {
        assert!(matches!(Integrator::default(), Integrator::Rk45 { .. }));
    }

    #[test]
    fn step_counters_track_work() {
        let mut x = vec![1.0];
        let s = integrate(&mut decay, 0.0, 1.0, &mut x, Integrator::Rk4 { h: 0.1 }).unwrap();
        // 10 nominal steps, plus possibly one shortened step from float
        // accumulation of 0.1.
        assert!((10..=11).contains(&s.steps_accepted), "{s:?}");
        assert_eq!(s.rhs_evals, 4 * s.steps_accepted);
        assert_eq!(s.steps_rejected, 0);

        let mut y = vec![1.0];
        let s45 = integrate(&mut decay, 0.0, 1.0, &mut y, Integrator::default()).unwrap();
        assert!(s45.steps_accepted > 0);
        assert_eq!(s45.rhs_evals, 7 * (s45.steps_accepted + s45.steps_rejected));
    }

    #[test]
    fn workspace_counts_growth_only() {
        let mut ws = Workspace::new(3);
        assert_eq!(ws.fit(3), 0);
        assert_eq!(ws.fit(1), 0);
        assert_eq!(ws.fit(3), 0);
        // Seven stages plus the trial, 5th- and 4th-order states.
        assert_eq!(ws.fit(64), 10);
    }

    #[test]
    fn reused_workspace_matches_fresh_integration() {
        // The engine reuses one workspace across spans; stale stage values
        // from an earlier span must not leak into the next one.
        let mut f = |t: f64, x: &[f64], dx: &mut [f64]| {
            dx[0] = x[1];
            dx[1] = -x[0] + t.sin();
        };
        for method in [Integrator::default(), Integrator::Rk4 { h: 1e-3 }] {
            let mut ws = Workspace::new(2);
            let (mut reused, mut fresh) = (vec![1.0, 0.0], vec![1.0, 0.0]);
            for k in 0..5 {
                let (a, b) = (k as f64 * 0.1, (k + 1) as f64 * 0.1);
                let s1 = integrate_in(&mut f, a, b, &mut reused, method, &mut ws).unwrap();
                let s2 = integrate(&mut f, a, b, &mut fresh, method).unwrap();
                assert_eq!(s1, s2);
                assert_eq!(reused, fresh);
            }
        }
    }
}
