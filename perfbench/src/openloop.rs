//! Open-loop load generation on a virtual-clock schedule.
//!
//! Request `i` of a level is *due* at `t0 + i / rate`, whatever happened
//! to earlier requests. Latency runs from the due instant to the reply,
//! so a stall — in the service or in the generator's own send path —
//! lands on every later request instead of silently thinning the load.

use std::time::{Duration, Instant};

use crate::stats;

/// One finished request, as observed by the generator.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Request id (as passed to [`Service::submit`]).
    pub id: usize,
    /// When the generator saw the final reply.
    pub at: Instant,
    /// `false` for a wrong or missing answer.
    pub ok: bool,
}

/// A system under open-loop load.
pub trait Service {
    /// Sends request `id`. May block; the time it takes is charged to
    /// this and later requests through their due instants.
    fn submit(&mut self, id: usize) -> Result<(), String>;
    /// Collects completions, waiting at most until `deadline`.
    fn poll(&mut self, deadline: Instant, out: &mut Vec<Completion>) -> Result<(), String>;
}

/// What one rate level measured.
#[derive(Debug, Clone)]
pub struct Level {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency of every request from its due instant, ms. Failed or
    /// unanswered requests read `+inf`: they miss any limit.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub lag_ms: Vec<f64>,
    /// Requests answered wrongly or not at all.
    pub failed: usize,
    /// Outstanding requests when the middle and the last request were
    /// sent.
    pub backlog_mid: usize,
    /// See [`Level::backlog_mid`].
    pub backlog_end: usize,
    /// Largest outstanding count seen at a send.
    pub backlog_max: usize,
    /// Wall time from the first due instant to the last reply, s.
    pub wall_s: f64,
}

impl Level {
    /// `(p50, p99)` latency, ms.
    pub fn p50_p99(&self) -> Result<(f64, f64), String> {
        stats::p50_p99(&self.latency_ms)
    }

    /// p99 of generator lateness, ms.
    pub fn lag_p99(&self) -> f64 {
        let mut v = self.lag_ms.clone();
        v.sort_by(f64::total_cmp);
        stats::nearest_rank(&v, 0.99)
    }

    /// The level as a ladder probe: its p99 and whether it backed up.
    pub fn probe(&self) -> Probe {
        let mut v = self.latency_ms.clone();
        v.sort_by(f64::total_cmp);
        Probe {
            p99_ms: stats::nearest_rank(&v, 0.99),
            grew: self.backlog_grew(),
        }
    }

    /// One diagnostic line: rate, p50/p99, backlog, lag and wall time.
    pub fn describe(&self) -> String {
        let mut v = self.latency_ms.clone();
        v.sort_by(f64::total_cmp);
        format!(
            "level {:.0}/s: p50 {:.2} ms, p99 {:.2} ms, backlog mid/end/max {}/{}/{}, \
             lag p99 {:.2} ms, wall {:.2} s",
            self.rate,
            stats::nearest_rank(&v, 0.5),
            stats::nearest_rank(&v, 0.99),
            self.backlog_mid,
            self.backlog_end,
            self.backlog_max,
            self.lag_p99(),
            self.wall_s
        )
    }

    /// `true` when the queue kept growing through the level: the
    /// outstanding count at the last send exceeds the count at the
    /// middle one by more than 8 requests or 2% of the level.
    pub fn backlog_grew(&self) -> bool {
        self.backlog_end > self.backlog_mid + (self.latency_ms.len() / 50).max(8)
    }
}

/// Runs one level: `n` requests with ids `first_id..first_id + n`, one
/// due every `1 / rate` s, then waits for the stragglers until
/// `drain_by`. Requests still outstanding then are counted failed.
pub fn run_level<S: Service>(
    svc: &mut S,
    first_id: usize,
    n: usize,
    rate: f64,
    drain_by: Instant,
) -> Result<Level, String> {
    assert!(rate > 0.0 && n > 0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let due: Vec<Instant> = (0..n)
        .map(|i| t0 + Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let mut done: Vec<Option<(Instant, bool)>> = vec![None; n];
    let mut lag_ms = Vec::with_capacity(n);
    let mut comps = Vec::new();
    let (mut backlog_mid, mut backlog_end, mut backlog_max) = (0, 0, 0);
    let mut outstanding = 0usize;
    let absorb = |comps: &mut Vec<Completion>,
                  done: &mut Vec<Option<(Instant, bool)>>,
                  outstanding: &mut usize|
     -> Result<(), String> {
        for c in comps.drain(..) {
            let slot =
                c.id.checked_sub(first_id)
                    .and_then(|k| done.get_mut(k))
                    .ok_or_else(|| format!("completion for unknown request {}", c.id))?;
            if slot.is_some() {
                return Err(format!("request {} completed twice", c.id));
            }
            *slot = Some((c.at, c.ok));
            *outstanding -= 1;
        }
        Ok(())
    };
    for (i, &due) in due.iter().enumerate() {
        while Instant::now() < due {
            svc.poll(due, &mut comps)?;
            absorb(&mut comps, &mut done, &mut outstanding)?;
        }
        lag_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        svc.submit(first_id + i)?;
        outstanding += 1;
        backlog_max = backlog_max.max(outstanding);
        if i == n / 2 {
            backlog_mid = outstanding;
        }
        if i + 1 == n {
            backlog_end = outstanding;
        }
    }
    while outstanding > 0 && Instant::now() < drain_by {
        svc.poll(drain_by, &mut comps)?;
        absorb(&mut comps, &mut done, &mut outstanding)?;
    }
    let mut failed = 0;
    let mut last = t0;
    let latency_ms = done
        .iter()
        .zip(&due)
        .map(|(d, due)| match d {
            Some((at, true)) => {
                last = last.max(*at);
                at.duration_since(*due).as_secs_f64() * 1e3
            }
            _ => {
                failed += 1;
                f64::INFINITY
            }
        })
        .collect();
    Ok(Level {
        rate,
        latency_ms,
        lag_ms,
        failed,
        backlog_mid,
        backlog_end,
        backlog_max,
        wall_s: last.duration_since(t0).as_secs_f64(),
    })
}

/// A fixed ladder of offered rates, `base * ratio^k` for `k < steps`.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Lowest rung, requests per second.
    pub base: f64,
    /// Ratio between neighbouring rungs (at most 1.05).
    pub ratio: f64,
    /// Number of rungs.
    pub steps: usize,
}

impl Ladder {
    /// Rate of rung `k`.
    pub fn rate(&self, k: usize) -> f64 {
        // Repeated multiplication, not `powi`: the same rung must read
        // the same rate bit for bit wherever it is computed.
        (0..k).fold(self.base, |r, _| r * self.ratio)
    }
}

/// Outcome of one ladder probe.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// p99 latency, ms (`+inf` when any request failed).
    pub p99_ms: f64,
    /// Whether the backlog kept growing.
    pub grew: bool,
}

/// The ladder search result.
#[derive(Debug, Clone)]
pub struct MaxRate {
    /// Highest rate meeting the limit, interpolated between the highest
    /// passing rung and the first failing one where p99 crosses the
    /// limit.
    pub rate: f64,
    /// Highest passing rung.
    pub rung: usize,
    /// `(rung, p99 ms, grew)` of every probe, in probe order.
    pub probes: Vec<(usize, f64, bool)>,
}

/// Binary search for the highest rung whose probe meets `limit_ms` at
/// p99 with no growing backlog, starting from a rung `known` to pass
/// (its probe is supplied). Assumes pass/fail is monotone in the rate.
pub fn search_max_rate(
    ladder: Ladder,
    limit_ms: f64,
    known: (usize, Probe),
    mut probe: impl FnMut(usize) -> Result<Probe, String>,
) -> Result<MaxRate, String> {
    let passes = |p: &Probe| p.p99_ms <= limit_ms && !p.grew;
    let mut probes = vec![(known.0, known.1.p99_ms, known.1.grew)];
    let mut seen: Vec<Option<Probe>> = vec![None; ladder.steps];
    seen[known.0] = Some(known.1);
    // Invariant: rung `lo` passes (or lo is below the ladder), rung `hi`
    // fails (or hi is above it).
    let (mut lo, mut hi): (isize, isize) = if passes(&known.1) {
        (known.0 as isize, ladder.steps as isize)
    } else {
        (-1, known.0 as isize)
    };
    while hi - lo > 1 {
        let mid = ((lo + hi) / 2) as usize;
        let p = probe(mid)?;
        probes.push((mid, p.p99_ms, p.grew));
        seen[mid] = Some(p);
        if passes(&p) {
            lo = mid as isize;
        } else {
            hi = mid as isize;
        }
    }
    if lo < 0 {
        return Err(format!(
            "even the lowest rung ({:.1}/s) misses the {limit_ms} ms p99 limit",
            ladder.base
        ));
    }
    let lo = lo as usize;
    let mut rate = ladder.rate(lo);
    if let (Some(a), Some(Some(b))) = (seen[lo], seen.get(lo + 1)) {
        // Linear interpolation of p99 over the bracketing rungs; a rung
        // that failed on backlog growth alone gives no crossing point.
        if b.p99_ms.is_finite() && b.p99_ms > limit_ms && b.p99_ms > a.p99_ms {
            let frac = (limit_ms - a.p99_ms) / (b.p99_ms - a.p99_ms);
            rate += frac.clamp(0.0, 1.0) * (ladder.rate(lo + 1) - rate);
        }
    }
    Ok(MaxRate {
        rate,
        rung: lo,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A single-server FIFO fake with a fixed service time. With
    /// `stall_at = Some((k, d))`, submitting request `k` blocks the
    /// caller for `d` — a transport that stops accepting bytes.
    struct Fake {
        service: Duration,
        stall_at: Option<(usize, Duration)>,
        queue: VecDeque<usize>,
        busy_until: Instant,
        pending: VecDeque<(usize, Instant)>,
    }

    impl Fake {
        fn new(service: Duration, stall_at: Option<(usize, Duration)>) -> Self {
            Fake {
                service,
                stall_at,
                queue: VecDeque::new(),
                busy_until: Instant::now(),
                pending: VecDeque::new(),
            }
        }
    }

    impl Service for Fake {
        fn submit(&mut self, id: usize) -> Result<(), String> {
            if let Some((k, d)) = self.stall_at {
                if k == id {
                    std::thread::sleep(d);
                }
            }
            let now = Instant::now();
            let start = self.busy_until.max(now);
            self.busy_until = start + self.service;
            self.queue.push_back(id);
            self.pending.push_back((id, self.busy_until));
            Ok(())
        }

        fn poll(&mut self, deadline: Instant, out: &mut Vec<Completion>) -> Result<(), String> {
            loop {
                match self.pending.front() {
                    Some(&(id, at)) if at <= deadline => {
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        self.pending.pop_front();
                        self.queue.pop_front();
                        out.push(Completion { id, at, ok: true });
                    }
                    _ => {
                        let now = Instant::now();
                        if deadline > now {
                            std::thread::sleep(deadline - now);
                        }
                        return Ok(());
                    }
                }
            }
        }
    }

    #[test]
    fn stalled_send_lands_on_later_requests() {
        // 200 req/s, 1 ms service, the send of request 20 blocks 100 ms.
        let stall = Duration::from_millis(100);
        let mut fake = Fake::new(Duration::from_millis(1), Some((20, stall)));
        let level = run_level(
            &mut fake,
            0,
            60,
            200.0,
            Instant::now() + Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(level.failed, 0);
        // Before the stall nothing is late.
        assert!(level.latency_ms[..20].iter().all(|&l| l < 20.0));
        // Request 20 was due at 100 ms and sent after the stall: it and
        // the requests due during the stall carry the lateness, falling
        // by one inter-arrival (5 ms) per request.
        assert!(level.latency_ms[20] >= 95.0, "{}", level.latency_ms[20]);
        for i in 21..35 {
            let owed = 100.0 - 5.0 * (i - 20) as f64;
            assert!(
                level.latency_ms[i] >= owed - 3.0,
                "request {i}: {} ms, owed {owed} ms",
                level.latency_ms[i]
            );
        }
        // Once the schedule catches up the latency returns to the
        // service time.
        assert!(level.latency_ms[55..].iter().all(|&l| l < 20.0));
        // The generator reports its own lateness.
        assert!(level.lag_p99() >= 50.0);
        // Measured from the send instead, the stall would vanish:
        // request 21 was sent right after 20, within a millisecond.
        assert!(level.lag_ms[21] >= 90.0);
    }

    #[test]
    fn stalled_server_keeps_later_requests_late() {
        // A server that takes 80 ms for every request from 10 on, at 50
        // req/s (20 ms apart): the queue grows, and the due-time latency
        // grows with it while the send lag stays near zero.
        struct Slow(Fake);
        impl Service for Slow {
            fn submit(&mut self, id: usize) -> Result<(), String> {
                if id == 10 {
                    self.0.service = Duration::from_millis(80);
                }
                self.0.submit(id)
            }
            fn poll(&mut self, d: Instant, out: &mut Vec<Completion>) -> Result<(), String> {
                self.0.poll(d, out)
            }
        }
        let mut slow = Slow(Fake::new(Duration::from_millis(1), None));
        let level = run_level(
            &mut slow,
            0,
            30,
            50.0,
            Instant::now() + Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(level.failed, 0);
        for i in 12..30 {
            assert!(level.latency_ms[i] > level.latency_ms[i - 1]);
        }
        assert!(level.backlog_grew(), "{level:?}");
        // The generator stays on schedule: its lateness (sleep overshoot
        // on a busy host, a few ms) is small against the latency the
        // server's queue adds (over a second by request 29).
        assert!(level.lag_p99() < level.latency_ms[29] / 10.0, "{level:?}");
    }

    #[test]
    fn unanswered_requests_fail_after_the_drain_deadline() {
        struct Deaf;
        impl Service for Deaf {
            fn submit(&mut self, _: usize) -> Result<(), String> {
                Ok(())
            }
            fn poll(&mut self, d: Instant, _: &mut Vec<Completion>) -> Result<(), String> {
                std::thread::sleep(d.saturating_duration_since(Instant::now()));
                Ok(())
            }
        }
        let level = run_level(
            &mut Deaf,
            0,
            5,
            1000.0,
            Instant::now() + Duration::from_millis(50),
        )
        .unwrap();
        assert_eq!(level.failed, 5);
        assert!(level.latency_ms.iter().all(|l| l.is_infinite()));
    }

    #[test]
    fn ladder_search_interpolates_the_crossing() {
        let ladder = Ladder {
            base: 100.0,
            ratio: 1.05,
            steps: 20,
        };
        // p99 = rate / 10 ms: the 25 ms limit is crossed at 250/s.
        let p = |k: usize| Probe {
            p99_ms: ladder.rate(k) / 10.0,
            grew: false,
        };
        let r = search_max_rate(ladder, 25.0, (5, p(5)), |k| Ok(p(k))).unwrap();
        assert!(ladder.rate(r.rung) <= 250.0 && ladder.rate(r.rung + 1) > 250.0);
        assert!((r.rate - 250.0).abs() < 1e-6, "{}", r.rate);
        // A passing top rung reports the top rate.
        let r = search_max_rate(ladder, 1e9, (0, p(0)), |k| Ok(p(k))).unwrap();
        assert_eq!(r.rung, 19);
        // Growing backlog fails a rung whatever its p99.
        let grew = |k: usize| Probe {
            p99_ms: 1.0,
            grew: k >= 7,
        };
        let r = search_max_rate(ladder, 25.0, (0, grew(0)), |k| Ok(grew(k))).unwrap();
        assert_eq!((r.rung, r.rate), (6, ladder.rate(6)));
        assert!(search_max_rate(ladder, 1.0, (0, p(0)), |k| Ok(p(k))).is_err());
    }
}
