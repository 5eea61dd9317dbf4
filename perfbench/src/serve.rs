//! `serve_open`: an in-process `ecl-serve` daemon with a disk store,
//! restarted on a store populated by a seeded warm-up, under an
//! open-loop request stream pipelined over one connection.
//!
//! Every rate level (low, high, each ladder probe) restarts the daemon
//! on a fresh copy of the warm store and replays the same seeded request
//! stream, so levels differ only in their offered rate — the store's
//! growth over a daemon's life is part of each level, identically.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ecl_aaa::Fnv1a;
use ecl_bench::fleet::SweepCaches;
use ecl_serve::wire::{send_client, Policy};
use ecl_serve::{
    Client, ClientMsg, DiskStore, Engine, EngineConfig, Server, ServerConfig, ServerMsg,
    SweepRequest,
};

use crate::openloop::{self, Completion, Ladder, Level, Service};
use crate::{replay, stats, sweep, trace, Ctx, Metrics, Unstolen};

/// Scenarios of a fresh request; an `extend` adds a quarter more.
const SCENARIOS: usize = 128;
/// Seeds computed into the store before the daemon is restarted.
const WARM_SEEDS: u64 = 3;
/// Requests per rate level (≥ 1000, so ten lie beyond p99).
const LEVEL_N: usize = 1000;
/// The low offered rate, requests per second: the ladder's base.
const LOW_RATE: f64 = 100.0;
/// The rate ladder; the high level is rung [`HIGH_RUNG`].
const LADDER: Ladder = Ladder {
    base: 100.0,
    ratio: 1.05,
    steps: 80,
};
/// Rung of the high level (293/s): at most two thirds of every
/// `max_rate_rps` measured at this mix (ten traced runs, seeds 1-5 twice,
/// 2-core VM: lowest 454/s, in a noisy spell; 639-1537/s otherwise), so
/// the high level sits below the knee.
const HIGH_RUNG: usize = 22;
/// p99 latency limit of the ladder, ms. A computed job alone took
/// 17-92 ms on the daemon, so at this mix a limit of 100 ms failed on
/// where one or two such jobs fell in a level (the highest passing rung
/// read 12, 22 and 33 on three seeds); 250 ms fails on a queue that
/// stays behind them.
const LIMIT_MS: f64 = 250.0;
/// Offered rate of an untraced drain: the whole stream due at once.
const SATURATE: f64 = 1e6;
/// Fewest drains of an untraced run.
const MIN_DRAINS: usize = 10;
/// Token bucket far above the highest rung, so no request is
/// rate-limited.
const BUCKET: f64 = 1e6;

/// Requests per stratum of the mix; every share times this is whole.
const MIX_BLOCK: usize = 200;
/// Request kinds of the mix and their shares (sum 1).
///
/// No recorded traffic of the daemon exists, so the shares follow rules
/// tied to the metrics, not observed use. The traced run prints what
/// each kind costs: the daemon's send-to-report p50 at the low rate,
/// where the queue is mostly empty, and in-process `run_job` with and
/// without the store. Figures below: seeds 1-5 on a 2-core VM.
///
/// * `extend` + `reseed` 1%: a 1000-request level holds ten computed
///   jobs, as many as the samples beyond its p99. So p50 measures memory
///   hits, and p99 the computed jobs, with their store writes, and the
///   hits queued behind them. Computed jobs then take 33-42% of the
///   daemon's time (hits 0.51-0.54 ms each; extends 17-31 ms, reseeds
///   33-42 ms).
/// * `extend` = `reseed`, one of each in every block of 200 requests, so
///   both computed paths are spread through a level. Reseeds grow the
///   store, and the store's every-entry rewrites dominate both kinds
///   (`run_job` with the store: extends 17-24 ms against 1.3-1.7 ms
///   without, reseeds 31-39 ms against 14-18 ms). Reseeds take 58-67%
///   of the computed time.
/// * `infeasible` 10%: 100 refusals per level exercise admission; at
///   0.46-0.48 ms each they take 5-6% of the daemon's time.
/// * `reprio` 20%: costs what `repeat` costs (same p50); the share only
///   sets how often a hit jumps the queue. It is chosen, not derived.
/// * `repeat`: the rest.
const MIX: [(Kind, f64); 5] = [
    (Kind::Repeat, 0.69),
    (Kind::Reprio, 0.20),
    (Kind::Extend, 0.005),
    (Kind::Reseed, 0.005),
    (Kind::Infeasible, 0.10),
];

/// One request kind of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A request already answered: the response memo hits.
    Repeat,
    /// An answered digest with another priority or chunk: still a hit.
    Reprio,
    /// A known seed with more scenarios: lower memos warm, response
    /// misses.
    Extend,
    /// A new seed: new WCET tables, adequation, co-simulation, store
    /// writes.
    Reseed,
    /// A period no schedule meets: refused at admission (`EV401`).
    Infeasible,
}

/// The workload's fixed parameters, for the run header.
pub fn describe() -> String {
    format!(
        "warm_seeds={WARM_SEEDS} level_n={LEVEL_N} low_rate={LOW_RATE} ladder={LADDER:?} \
         high_rung={HIGH_RUNG} limit_ms={LIMIT_MS} mix={MIX:?} scenarios={SCENARIOS}"
    )
}

/// splitmix64 stream for the request mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// The request template every feasible request derives from.
fn template(seed: u64) -> SweepRequest {
    SweepRequest {
        seed,
        scenarios: SCENARIOS,
        wcet_tables: 2,
        period_scales: vec![1.0, 1.25],
        policies: vec![Policy::Pressure, Policy::Earliest],
        ..SweepRequest::default()
    }
}

/// The seeded request stream.
struct Stream {
    warm: Vec<SweepRequest>,
    requests: Vec<(Kind, SweepRequest)>,
}

/// Builds the warm-up set and a `n`-request stream from `seed`.
fn stream(seed: u64, n: usize) -> Stream {
    let mut rng = Rng(seed ^ 0x5e7e_0be7);
    let seed_base = seed.wrapping_mul(1_000_003);
    let warm: Vec<SweepRequest> = (0..WARM_SEEDS).map(|k| template(seed_base + k)).collect();
    let mut known: Vec<SweepRequest> = warm.clone();
    let mut next_seed = seed_base + WARM_SEEDS;
    // Stratified: every block of MIX_BLOCK requests holds each kind
    // exactly at its share, in a seeded order, so every seed offers the
    // same mix at the same density.
    let mut kinds = Vec::with_capacity(n);
    while kinds.len() < n {
        let mut block: Vec<Kind> = MIX
            .iter()
            .flat_map(|&(k, share)| {
                std::iter::repeat_n(k, (share * MIX_BLOCK as f64).round() as usize)
            })
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        kinds.extend(block);
    }
    kinds.truncate(n);
    let mut requests = Vec::with_capacity(n);
    for kind in kinds {
        let req = match kind {
            Kind::Repeat => known[rng.below(known.len())].clone(),
            Kind::Reprio => SweepRequest {
                priority: 1 + rng.below(3) as u8,
                chunk: [8, 16][rng.below(2)],
                ..known[rng.below(known.len())].clone()
            },
            Kind::Extend => {
                let pick = known[rng.below(known.len())].seed;
                let most = known
                    .iter()
                    .filter(|r| r.seed == pick)
                    .map(|r| r.scenarios)
                    .max()
                    .expect("picked from known");
                let r = SweepRequest {
                    scenarios: most + SCENARIOS / 4,
                    ..template(pick)
                };
                known.push(r.clone());
                r
            }
            Kind::Reseed => {
                let r = template(next_seed);
                next_seed += 1;
                known.push(r.clone());
                r
            }
            Kind::Infeasible => SweepRequest {
                period_scales: vec![1e-9],
                ..template(rng.next())
            },
        };
        requests.push((kind, req));
    }
    Stream { warm, requests }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Per-request client-side timestamps.
#[derive(Debug, Clone, Copy, Default)]
struct ReqSpans {
    sent: Option<Instant>,
    queued: Option<Instant>,
    first_frame: Option<Instant>,
    report: Option<Instant>,
}

/// The open-loop client: one connection, one thread, pipelined submits,
/// replies matched back to requests.
struct OpenClient<'a> {
    stream: TcpStream,
    buf: Vec<u8>,
    requests: &'a [(Kind, SweepRequest)],
    /// Ids still waiting for their immediate reply (Queued / Rejected /
    /// Err), in send order.
    awaiting_ack: std::collections::VecDeque<usize>,
    /// Queued ids not yet reported.
    running: Vec<usize>,
    /// First frame of the job the executor is on.
    current_first: Option<Instant>,
    spans: Vec<ReqSpans>,
    /// First payload seen per request digest.
    payloads: &'a mut HashMap<u64, Vec<u8>>,
    /// Scenarios answered, and the largest queue depth acked.
    scenarios_done: usize,
    depth_max: usize,
    problems: Vec<String>,
    ignore_report: Vec<usize>,
}

impl<'a> OpenClient<'a> {
    fn new(
        addr: std::net::SocketAddr,
        requests: &'a [(Kind, SweepRequest)],
        payloads: &'a mut HashMap<u64, Vec<u8>>,
    ) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        Ok(OpenClient {
            stream,
            buf: Vec::with_capacity(1 << 16),
            requests,
            awaiting_ack: Default::default(),
            running: Vec::new(),
            current_first: None,
            spans: vec![ReqSpans::default(); requests.len()],
            payloads,
            scenarios_done: 0,
            depth_max: 0,
            problems: Vec::new(),
            ignore_report: Vec::new(),
        })
    }

    fn req(&self, id: usize) -> &(Kind, SweepRequest) {
        &self.requests[id]
    }

    fn fail(&mut self, id: usize, why: String, out: &mut Vec<Completion>) {
        if self.problems.len() < 8 {
            self.problems.push(format!("request {id}: {why}"));
        }
        out.push(Completion {
            id,
            at: Instant::now(),
            ok: false,
        });
    }

    fn handle(&mut self, msg: ServerMsg, out: &mut Vec<Completion>) -> Result<(), String> {
        let now = Instant::now();
        match msg {
            ServerMsg::Queued { depth, .. } => {
                let id = self
                    .awaiting_ack
                    .pop_front()
                    .ok_or("queued ack with nothing sent")?;
                self.spans[id].queued = Some(now);
                self.depth_max = self.depth_max.max(depth);
                if self.req(id).0 == Kind::Infeasible {
                    self.ignore_report.push(id);
                    self.fail(id, "infeasible request was queued".into(), out);
                }
                self.running.push(id);
            }
            ServerMsg::Rejected { codes, msg } => {
                let id = self
                    .awaiting_ack
                    .pop_front()
                    .ok_or("rejection with nothing sent")?;
                self.spans[id].queued = Some(now);
                let ok = self.req(id).0 == Kind::Infeasible
                    && !codes.is_empty()
                    && codes.iter().all(|c| c.starts_with("EV4"));
                if ok {
                    self.spans[id].report = Some(now);
                    out.push(Completion { id, at: now, ok });
                } else {
                    self.fail(id, format!("rejected {codes:?}: {msg}"), out);
                }
            }
            ServerMsg::Err { code, msg } if code == "sweep_failed" => {
                let id = self.next_to_run(None).ok_or("sweep_failed for no job")?;
                self.running.retain(|&r| r != id);
                self.current_first = None;
                self.fail(id, format!("sweep_failed: {msg}"), out);
            }
            ServerMsg::Err { code, msg } => {
                let id = self
                    .awaiting_ack
                    .pop_front()
                    .ok_or("error with nothing sent")?;
                self.fail(id, format!("{code}: {msg}"), out);
            }
            ServerMsg::Delta { .. } => {
                self.current_first.get_or_insert(now);
            }
            ServerMsg::Report {
                digest,
                payload_digest,
                payload,
                ..
            } => {
                let id = self
                    .next_to_run(Some(digest))
                    .ok_or_else(|| format!("report for digest {digest:016x} nobody awaits"))?;
                self.running.retain(|&r| r != id);
                let first = self.current_first.take().unwrap_or(now);
                let s = &mut self.spans[id];
                s.first_frame = Some(first);
                s.report = Some(now);
                if self.ignore_report.contains(&id) {
                    return Ok(());
                }
                let (kind, req) = self.req(id).clone();
                let mut ok = fnv(&payload) == payload_digest && req.digest() == digest;
                match self.payloads.get(&digest) {
                    Some(p) => ok &= *p == payload,
                    None => {
                        self.payloads.insert(digest, payload);
                    }
                }
                if ok {
                    self.scenarios_done += req.scenarios;
                    out.push(Completion { id, at: now, ok });
                } else {
                    self.fail(id, format!("{kind:?} payload mismatch"), out);
                }
            }
            ServerMsg::Done { .. } => {}
            ServerMsg::Stats(_) => return Err("unexpected stats reply".into()),
        }
        Ok(())
    }

    /// The queued request the executor ran: with `digest`, the
    /// highest-priority then oldest outstanding one of that digest (the
    /// queue's own order).
    fn next_to_run(&self, digest: Option<u64>) -> Option<usize> {
        self.running
            .iter()
            .copied()
            .filter(|&id| digest.is_none_or(|d| self.req(id).1.digest() == d))
            .max_by_key(|&id| (self.req(id).1.priority, std::cmp::Reverse(id)))
    }

    /// Parses every complete frame in the buffer.
    fn drain_frames(&mut self, out: &mut Vec<Completion>) -> Result<(), String> {
        let mut at = 0;
        while self.buf.len() - at >= 4 {
            let len =
                u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if self.buf.len() - at - 4 < len {
                break;
            }
            let msg =
                ServerMsg::decode(&self.buf[at + 4..at + 4 + len]).map_err(|e| e.to_string())?;
            at += 4 + len;
            self.handle(msg, out)?;
        }
        self.buf.drain(..at);
        Ok(())
    }
}

impl Service for OpenClient<'_> {
    fn submit(&mut self, id: usize) -> Result<(), String> {
        let req = self.req(id).1.clone();
        self.spans[id] = ReqSpans {
            sent: Some(Instant::now()),
            ..ReqSpans::default()
        };
        self.awaiting_ack.push_back(id);
        let mut w = &self.stream;
        send_client(&mut w, &ClientMsg::Submit(req)).map_err(|e| e.to_string())
    }

    /// Reads without blocking and naps in short sleeps: a socket read
    /// timeout is rounded to the kernel tick (4 ms at 250 Hz), which
    /// would make the generator send late by up to a tick.
    fn poll(&mut self, deadline: Instant, out: &mut Vec<Completion>) -> Result<(), String> {
        const NAP: Duration = Duration::from_micros(100);
        let mut chunk = [0u8; 1 << 16];
        self.stream
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        loop {
            let before = out.len();
            self.drain_frames(out)?;
            let now = Instant::now();
            if out.len() > before || now >= deadline {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(NAP.min(deadline - now));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        self.stream
            .set_nonblocking(false)
            .map_err(|e| e.to_string())
    }
}

/// Recursive copy of a store directory.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Every regular file under `dir` with its inode.
fn inodes(dir: &Path) -> BTreeMap<PathBuf, u64> {
    use std::os::unix::fs::MetadataExt;
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                out.insert(e.path(), meta.ino());
            }
        }
    }
    out
}

fn start(workers: usize, store: Option<&Path>) -> Result<Server, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        store_dir: store.map(Path::to_path_buf),
        rate_capacity: BUCKET,
        rate_refill_per_sec: BUCKET,
    })
    .map_err(|e| e.to_string())
}

/// The warm-up: `server` answers every warm seed, closed-loop; the
/// payloads are kept by digest.
fn warm_up(
    ctx: &Ctx,
    server: &Server,
    warm: &[SweepRequest],
    payloads: &mut HashMap<u64, Vec<u8>>,
) -> Result<(), String> {
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    ctx.begin(warm.len());
    for req in warm {
        let out = client.submit(req).map_err(|e| {
            ctx.count(1, 1);
            format!("warm-up request failed: {e}")
        })?;
        payloads.entry(out.digest).or_insert(out.payload);
    }
    ctx.count(warm.len(), 0);
    Ok(())
}

/// What one level measured, with the restart time and the client's
/// bookkeeping.
struct LevelRun {
    level: Level,
    restart_s: f64,
    spans: Vec<ReqSpans>,
    depth_max: usize,
    scenarios_done: usize,
    /// The level's wall time less the share the hypervisor stole.
    unstolen_s: f64,
    stats: Vec<(String, u64)>,
}

struct Daemon<'a> {
    ctx: &'a Ctx,
    warm_store: PathBuf,
    stream: &'a Stream,
    payloads: HashMap<u64, Vec<u8>>,
    runs: usize,
}

impl Daemon<'_> {
    /// One level at `rate`. The daemon is restarted (timed) on a fresh
    /// copy of the warm store; with `persist` off, that daemon only
    /// gives the restart time, and the level runs on a daemon without a
    /// store, warmed closed-loop with the same seeds.
    fn level(&mut self, rate: f64, persist: bool) -> Result<LevelRun, String> {
        let store = self.ctx.tmp_dir.join(format!("level-{}", self.runs));
        self.runs += 1;
        copy_dir(&self.warm_store, &store).map_err(|e| format!("cannot copy the store: {e}"))?;
        let t = Instant::now();
        let server = start(self.ctx.workers, Some(&store))?;
        let restart_s = t.elapsed().as_secs_f64();
        let server = if persist {
            server
        } else {
            drop(server);
            let server = start(self.ctx.workers, None)?;
            warm_up(self.ctx, &server, &self.stream.warm, &mut self.payloads)?;
            server
        };
        let threads = 1;
        let connections = 1;
        assert!(
            threads <= self.ctx.workers.max(1) && connections <= self.ctx.workers.max(1),
            "the generator may use at most nproc threads and connections"
        );
        let mut client = OpenClient::new(server.addr(), &self.stream.requests, &mut self.payloads)?;
        self.ctx.begin(LEVEL_N);
        let watch = Unstolen::start();
        let level = openloop::run_level(
            &mut client,
            0,
            LEVEL_N,
            rate,
            Instant::now() + Duration::from_secs(60),
        )?;
        let unstolen_s = level.wall_s * watch.kept();
        self.ctx.count(LEVEL_N, level.failed);
        if !client.problems.is_empty() {
            self.ctx.note(format!("problems: {:?}", client.problems));
        }
        self.ctx.note(format!(
            "{} (restart {:.1} ms)",
            level.describe(),
            restart_s * 1e3
        ));
        let stats = server.engine().stats();
        let run = LevelRun {
            level,
            restart_s,
            spans: std::mem::take(&mut client.spans),
            depth_max: client.depth_max,
            scenarios_done: client.scenarios_done,
            unstolen_s,
            stats,
        };
        drop(client);
        drop(server);
        let _ = std::fs::remove_dir_all(&store);
        Ok(run)
    }
}

/// Checks every payload the daemon sent against a fresh in-process
/// engine without a store, digest by digest.
fn check_payloads(
    ctx: &Ctx,
    stream: &Stream,
    payloads: &HashMap<u64, Vec<u8>>,
) -> Result<(), String> {
    let engine = Engine::new(EngineConfig {
        workers: ctx.workers,
        store_dir: None,
    })
    .map_err(|e| e.to_string())?;
    let mut checked = std::collections::HashSet::new();
    let all = stream
        .warm
        .iter()
        .chain(stream.requests.iter().map(|(_, r)| r));
    for req in all {
        let digest = req.digest();
        let Some(payload) = payloads.get(&digest) else {
            continue;
        };
        if !checked.insert(digest) {
            continue;
        }
        let reference = engine
            .run_job(req, |_, _, _, _| {})
            .map_err(|e| e.to_string())?;
        if reference.payload.as_slice() != payload.as_slice() {
            return Err(format!(
                "payload for digest {digest:016x} differs from the in-process engine"
            ));
        }
    }
    ctx.note(format!(
        "{} distinct payloads match the in-process engine",
        checked.len()
    ));
    Ok(())
}

/// Prepares the warm store (a daemon on an empty store answers the
/// warm seeds and stops) and the level runner.
fn prepare<'a>(ctx: &'a Ctx, stream: &'a Stream) -> Result<Daemon<'a>, String> {
    let warm_store = ctx.tmp_dir.join("warm");
    std::fs::create_dir_all(&ctx.tmp_dir).map_err(|e| e.to_string())?;
    let mut payloads = HashMap::new();
    let server = start(ctx.workers, Some(&warm_store))?;
    warm_up(ctx, &server, &stream.warm, &mut payloads)?;
    drop(server);
    Ok(Daemon {
        ctx,
        warm_store,
        stream,
        payloads,
        runs: 0,
    })
}

/// Runs `serve_open` untraced: for `--seconds` (at least [`MIN_DRAINS`]
/// times), a timed restart on the warm store, then the whole request
/// stream offered at once to a daemon without a store and drained.
/// `scenarios_per_s` is the median drain throughput and `setup_s` the
/// median restart. The drains run without a store because the store's
/// file rewrites made the throughput swing by more than 2x from run to
/// run with the host's disk; the traced run measures the levels and the
/// store with it.
pub fn run(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    let stream = stream(ctx.seed, LEVEL_N);
    let mut daemon = prepare(ctx, &stream)?;
    let (mut restarts, mut rates) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while rates.len() < MIN_DRAINS || start.elapsed().as_secs_f64() < ctx.seconds {
        let r = daemon.level(SATURATE, false)?;
        if r.level.failed > 0 {
            return Err(format!("{} requests failed", r.level.failed));
        }
        restarts.push(r.restart_s);
        rates.push(r.scenarios_done as f64 / r.unstolen_s);
    }
    let rss = crate::peak_rss_mb();
    let payloads = std::mem::take(&mut daemon.payloads);
    check_payloads(ctx, &stream, &payloads)?;
    ctx.note(format!(
        "{} drains, scen/s {:?}; restarts {:?} ms",
        rates.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        restarts
            .iter()
            .map(|r| (r * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    m.set("scenarios_per_s", stats::median(&rates), "1/s");
    m.set("setup_s", stats::median(&restarts), "s");
    m.set("peak_rss_mb", rss, "MB");
    Ok(())
}

/// Fills the open-loop metrics of a level pair and a ladder search.
fn open_loop_metrics(
    low: &Level,
    high: &Level,
    max_rate: &openloop::MaxRate,
    m: &mut Metrics,
) -> Result<(), String> {
    let (p50_low, p99_low) = low.p50_p99()?;
    let (p50_high, p99_high) = high.p50_p99()?;
    m.set("p50_ms.low", p50_low, "ms");
    m.set("p99_ms.low", p99_low, "ms");
    m.set("p50_ms.high", p50_high, "ms");
    m.set("p99_ms.high", p99_high, "ms");
    m.set("max_rate_rps", max_rate.rate, "1/s");
    m.set("gen.lag_ms", high.lag_p99(), "ms");
    Ok(())
}

/// Per request kind: how many, and the p50 and sum of send-to-report
/// time, ms. At the low rate the queue is mostly empty, so this is the
/// daemon's service time per kind, wire included.
fn per_kind_service(stream: &Stream, spans: &[ReqSpans]) -> Vec<(String, usize, f64, f64)> {
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (s, (kind, _)) in spans.iter().zip(&stream.requests) {
        if let (Some(a), Some(b)) = (s.sent, s.report) {
            by_kind
                .entry(format!("{kind:?}"))
                .or_default()
                .push(b.saturating_duration_since(a).as_secs_f64() * 1e3);
        }
    }
    by_kind
        .into_iter()
        .map(|(k, v)| {
            let round = |x: f64| (x * 1e3).round() / 1e3;
            (k, v.len(), round(stats::median(&v)), round(v.iter().sum()))
        })
        .collect()
}

/// Writes the client-side spans of every request: send, `Queued`, first
/// job frame and `Report`, as µs offsets from the first send.
fn write_request_spans(ctx: &Ctx, stream: &Stream, spans: &[ReqSpans]) -> Result<(), String> {
    use std::io::Write;
    let path = ctx
        .out_dir
        .join(format!("requests_{}_{}.tsv", ctx.workload, ctx.seed));
    let t0 = spans
        .iter()
        .filter_map(|s| s.sent)
        .min()
        .unwrap_or_else(Instant::now);
    let us = |t: Option<Instant>| {
        t.map_or("-".to_string(), |t| {
            format!("{:.1}", t.saturating_duration_since(t0).as_secs_f64() * 1e6)
        })
    };
    let mut text = String::from("id\tkind\tsent_us\tqueued_us\tfirst_frame_us\treport_us\n");
    for (id, (s, (kind, _))) in spans.iter().zip(&stream.requests).enumerate() {
        text.push_str(&format!(
            "{id}\t{kind:?}\t{}\t{}\t{}\t{}\n",
            us(s.sent),
            us(s.queued),
            us(s.first_frame),
            us(s.report)
        ));
    }
    std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs `serve_open` traced: the low and high levels and the ladder
/// search with client-side request spans, then the same request stream
/// through the engine, the wire codec and the store in process, then a
/// replay of the daemon's sweep shape.
pub fn run_traced(ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
    if LEVEL_N < stats::min_samples_for(0.99, 10) {
        return Err("a rate level must leave ten samples beyond its p99".into());
    }
    let stream = stream(ctx.seed, LEVEL_N);
    let mut daemon = prepare(ctx, &stream)?;
    let low = daemon.level(LOW_RATE, true)?;
    let high = daemon.level(LADDER.rate(HIGH_RUNG), true)?;
    let max_rate =
        openloop::search_max_rate(LADDER, LIMIT_MS, (HIGH_RUNG, high.level.probe()), |k| {
            Ok(daemon.level(LADDER.rate(k), true)?.level.probe())
        })?;
    if low.level.failed + high.level.failed > 0 {
        return Err("requests failed in the measured levels".into());
    }
    check_payloads(ctx, &stream, &daemon.payloads)?;
    ctx.note(format!(
        "highest passing rung {}, ladder probes {:?}",
        max_rate.rung, max_rate.probes
    ));
    open_loop_metrics(&low.level, &high.level, &max_rate, m)?;
    let ms = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
        (Some(a), Some(b)) => Some(b.saturating_duration_since(a).as_secs_f64() * 1e3),
        _ => None,
    };
    let acks: Vec<f64> = high
        .spans
        .iter()
        .filter_map(|s| ms(s.sent, s.queued))
        .collect();
    let waits: Vec<f64> = high
        .spans
        .iter()
        .filter_map(|s| ms(s.queued, s.first_frame))
        .collect();
    m.set("serve.ack_ms", stats::mean(&acks), "ms");
    m.set("serve.queue_wait_ms", stats::mean(&waits), "ms");
    m.set("serve.backlog_max", high.depth_max as f64, "count");
    let stat = |name: &str| {
        high.stats
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v) as f64
    };
    m.set(
        "serve.memo_hit_ratio",
        (stat("response_memory_hits") + stat("response_disk_hits")) / stat("jobs").max(1.0),
        "ratio",
    );
    write_request_spans(ctx, &stream, &high.spans)?;
    ctx.note(format!(
        "low level, send to report by kind (count, p50 ms, sum ms): {:?}",
        per_kind_service(&stream, &low.spans)
    ));

    // In process, on the same stream: the engine with and without a
    // store, admission, the wire codec and the store itself.
    let store_dir = ctx.tmp_dir.join("inproc");
    copy_dir(&daemon.warm_store, &store_dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let loaded: usize = {
        let store = DiskStore::open(&store_dir).map_err(|e| e.to_string())?;
        ["schedules", "ideal", "scheduled", "responses"]
            .iter()
            .map(|k| store.load_all(k).len())
            .sum()
    };
    m.set("store.load_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    let with = Engine::new(EngineConfig {
        workers: ctx.workers,
        store_dir: Some(store_dir.clone()),
    })
    .map_err(|e| e.to_string())?;
    let without = Engine::new(EngineConfig {
        workers: ctx.workers,
        store_dir: None,
    })
    .map_err(|e| e.to_string())?;
    for req in &stream.warm {
        without
            .run_job(req, |_, _, _, _| {})
            .map_err(|e| e.to_string())?;
    }
    let (mut run_all, mut with_computed, mut without_computed) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut admission, mut encode, mut decode, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rewrites = Vec::new();
    let mut by_kind: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (kind, req) in &stream.requests {
        let t = Instant::now();
        let codes = with.admission_codes(req).map_err(|e| e.to_string())?;
        admission.push(t.elapsed().as_secs_f64() * 1e6);
        if *kind == Kind::Infeasible {
            if codes.is_empty() {
                return Err("an infeasible request passed admission in process".into());
            }
            continue;
        }
        let before = inodes(&store_dir);
        let t = Instant::now();
        let report = with
            .run_job(req, |_, _, _, _| {})
            .map_err(|e| e.to_string())?;
        let dt = t.elapsed().as_secs_f64() * 1e3;
        run_all.push(dt);
        let t = Instant::now();
        let reference = without
            .run_job(req, |_, _, _, _| {})
            .map_err(|e| e.to_string())?;
        let dt_without = t.elapsed().as_secs_f64() * 1e3;
        let k = by_kind.entry(format!("{kind:?}")).or_default();
        *k = (k.0 + 1, k.1 + dt, k.2 + dt_without);
        if reference.payload != report.payload {
            return Err("engines with and without a store disagree".into());
        }
        if report.source == ecl_serve::ResponseSource::Computed {
            with_computed.push(dt);
            without_computed.push(dt_without);
            let after = inodes(&store_dir);
            rewrites.push(
                before
                    .iter()
                    .filter(|(p, ino)| after.get(*p).is_some_and(|a| a != *ino))
                    .count() as f64,
            );
        }
        let msg = ServerMsg::Report {
            digest: report.digest,
            payload_digest: report.payload_digest,
            source: report.source,
            payload: report.payload.as_ref().clone(),
        };
        let t = Instant::now();
        let frame = msg.encode();
        encode.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let back = ServerMsg::decode(&frame).map_err(|e| e.to_string())?;
        decode.push(t.elapsed().as_secs_f64() * 1e6);
        if back != msg {
            return Err("a report frame did not survive encode/decode".into());
        }
        bytes.push(frame.len() as f64);
    }
    m.set("serve.run_ms", stats::mean(&run_all), "ms");
    m.set("serve.admission_us", stats::mean(&admission), "us");
    m.set("wire.encode_us", stats::mean(&encode), "us");
    m.set("wire.decode_us", stats::mean(&decode), "us");
    m.set("wire.report_bytes", stats::mean(&bytes), "bytes");
    m.set(
        "store.persist_ms",
        stats::mean(&with_computed) - stats::mean(&without_computed),
        "ms",
    );
    m.set("store.rewrites_per_job", stats::mean(&rewrites), "count");
    m.set("store.files", inodes(&store_dir).len() as f64, "count");
    ctx.note(format!("store: {loaded} entries loaded at start"));
    // What each kind costs the engine, with and without the store: part
    // of the basis of the mix's shares (see MIX).
    let round = |x: f64| (x * 1e3).round() / 1e3;
    ctx.note(format!(
        "run_job by kind (count, mean ms with store, mean ms without): {:?}",
        by_kind
            .iter()
            .map(|(k, (n, with, without))| {
                let n = *n as f64;
                (k, n, round(with / n), round(without / n))
            })
            .collect::<Vec<_>>()
    ));
    drop(with);
    drop(without);

    // The daemon's sweep shape, replayed through the layers.
    let d = sweep::deployment(0.3).map_err(|e| e.to_string())?;
    let req = template(ctx.seed);
    let config = ecl_bench::fleet::SweepConfig {
        base_seed: req.seed,
        scenario_count: 2048,
        workers: ctx.workers,
        wcet_jitter: req.wcet_jitter,
        wcet_tables: req.wcet_tables,
        period_scales: req.period_scales.clone(),
        policies: vec![
            ecl_aaa::MappingPolicy::SchedulePressure,
            ecl_aaa::MappingPolicy::EarliestFinish,
        ],
        memoize_scheduled: true,
        memoize_reports: true,
        ..Default::default()
    };
    let t = Instant::now();
    let out = ecl_bench::fleet::run_sweep(&d.spec, &d.base, &config).map_err(|e| e.to_string())?;
    let plain = t.elapsed().as_secs_f64();
    let caches = SweepCaches::new();
    let r = replay::replay_sweep(&d.spec, &d.base, &config, &caches).map_err(|e| e.to_string())?;
    if r.summary.render() != out.summary.render() || r.hist != out.actuation_hist {
        return Err("the traced replay's summary differs from run_sweep's".into());
    }
    sweep::replay_metrics(&r, &caches, m);
    if m.get("sim.hot_allocs") != Some(0.0) {
        return Err("the sim hot loop allocated during the replay".into());
    }
    let path = ctx
        .out_dir
        .join(format!("spans_{}_{}.tsv", ctx.workload, ctx.seed));
    trace::write_tsv(&path, r.lanes.iter().map(|l| &l.rec).chain([&r.fold]))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    m.set(
        "trace.overhead_frac",
        r.wall_ns as f64 / 1e9 / plain - 1.0,
        "ratio",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_stratified_and_seeded() {
        let total: f64 = MIX.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for (_, share) in MIX {
            let per_block = share * MIX_BLOCK as f64;
            assert!((per_block - per_block.round()).abs() < 1e-9);
        }
        let a = stream(7, 1000);
        let b = stream(7, 1000);
        assert_eq!(a.requests, b.requests, "same seed, same stream");
        assert_ne!(stream(8, 1000).requests, a.requests);
        for (kind, share) in MIX {
            let count = a.requests.iter().filter(|(k, _)| *k == kind).count();
            assert_eq!(count, (share * 1000.0).round() as usize, "{kind:?}");
        }
        // Repeats and reprios reuse answered digests; extends and
        // reseeds bring new ones; infeasible requests fail admission.
        let mut known: Vec<u64> = a.warm.iter().map(SweepRequest::digest).collect();
        for (kind, req) in &a.requests {
            match kind {
                Kind::Repeat | Kind::Reprio => assert!(known.contains(&req.digest())),
                Kind::Extend | Kind::Reseed => {
                    assert!(!known.contains(&req.digest()));
                    known.push(req.digest());
                }
                Kind::Infeasible => assert_eq!(req.period_scales, vec![1e-9]),
            }
        }
    }
}
