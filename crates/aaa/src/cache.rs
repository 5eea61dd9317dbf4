//! Content-addressed caching of adequation results.
//!
//! A scenario sweep re-runs the lifecycle hundreds of times, but many
//! scenarios perturb only the plant, the disturbance seed or the sampling
//! period — inputs the list scheduler never sees. The schedule they need
//! is exactly the one already computed for the same (algorithm graph,
//! architecture, WCET table, policy) quadruple. [`ScheduleCache`] keys
//! schedules by a structural digest of that quadruple, so such scenarios
//! skip the scheduler entirely; [`adequation`] is deterministic, so a
//! cache hit returns a schedule byte-identical to a fresh run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::adequation::{adequation, AdequationOptions, MappingPolicy};
use crate::algorithm::AlgorithmGraph;
use crate::architecture::{ArchitectureGraph, MediumKind};
use crate::schedule::Schedule;
use crate::timing::TimingDb;
use crate::AaaError;

/// FNV-1a, 64 bit — a stable, dependency-free content hash. `std`'s
/// `DefaultHasher` is deliberately unspecified across releases; the
/// digests built on this hasher must be reproducible so cache statistics
/// (and any persisted keys) mean the same thing on every toolchain.
///
/// Public so other content-addressed memo tables (e.g. the ideal-run
/// memo in `ecl-core`) key on the exact same hash family as
/// [`schedule_digest`].
#[derive(Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes an `i64` (little-endian) into the digest.
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes an `f64` by its exact bit pattern: distinct bit patterns
    /// (including `-0.0` vs `0.0`) digest differently, which is what a
    /// byte-determinism cache key needs.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes a length-prefixed string into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Structural digest of everything [`adequation`] reads: the algorithm
/// graph (ops, kinds, conditions, edges), the architecture (processors,
/// media, transfer tariffs), the WCET table (defaults, overrides,
/// interdictions) and the mapping policy. Two inputs with equal digests
/// produce byte-identical schedules; scenario perturbations that leave
/// all four untouched (plant, period, disturbance) hash identically.
pub fn schedule_digest(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    db: &TimingDb,
    options: AdequationOptions,
) -> u64 {
    let mut h = Fnv1a::new();

    h.write_u64(alg.len() as u64);
    for op in alg.ops() {
        h.write_str(alg.name(op));
        h.write_u64(match alg.kind(op) {
            crate::OpKind::Sensor => 0,
            crate::OpKind::Function => 1,
            crate::OpKind::Actuator => 2,
        });
        match alg.condition(op) {
            None => h.write_u64(u64::MAX),
            Some(c) => {
                h.write_u64(c.variable.index() as u64);
                h.write_u64(c.branch as u64);
            }
        }
    }
    for e in alg.edges() {
        h.write_u64(e.src.index() as u64);
        h.write_u64(e.dst.index() as u64);
        h.write_u64(u64::from(e.data_units));
    }

    h.write_u64(arch.num_processors() as u64);
    for p in arch.processors() {
        h.write_str(arch.proc_name(p));
        h.write_str(arch.proc_kind(p));
    }
    // Tariff sample points: every distinct edge volume in the algorithm
    // graph, plus 0 and 1 so media still separate on an edgeless graph.
    // Sampling only {0, 1} (latency + first difference) is sound for an
    // affine tariff but aliases non-affine media — e.g. two framed buses
    // that agree on sub-frame transfers and diverge exactly at the
    // volumes the scheduler actually prices. The scheduler only ever
    // evaluates `transfer_time` at edge volumes, so media equal at every
    // sample point produce byte-identical schedules.
    let mut volumes: Vec<u32> = alg.edges().iter().map(|e| e.data_units).collect();
    volumes.push(0);
    volumes.push(1);
    volumes.sort_unstable();
    volumes.dedup();

    h.write_u64(arch.num_media() as u64);
    for m in arch.media() {
        h.write_str(arch.medium_name(m));
        h.write_u64(match arch.medium_kind(m) {
            MediumKind::Bus => 0,
            MediumKind::PointToPoint => 1,
        });
        for &p in arch.medium_procs(m) {
            h.write_u64(p.index() as u64);
        }
        for &u in &volumes {
            h.write_u64(u64::from(u));
            h.write_i64(arch.transfer_time(m, u).as_nanos());
        }
    }

    // TimingDb iterates in HashMap order; sort for a canonical digest.
    let mut defaults: Vec<_> = db.iter_defaults().collect();
    defaults.sort_by_key(|&(op, _)| op);
    for (op, t) in defaults {
        h.write_u64(op.index() as u64);
        h.write_i64(t.as_nanos());
    }
    h.write_u64(u64::MAX); // section separator
    let mut specific: Vec<_> = db.iter_specific().collect();
    specific.sort_by_key(|&(op, p, _)| (op, p));
    for (op, p, t) in specific {
        h.write_u64(op.index() as u64);
        h.write_u64(p.index() as u64);
        h.write_i64(t.as_nanos());
    }
    h.write_u64(u64::MAX);
    let mut forbidden: Vec<_> = db.iter_forbidden().collect();
    forbidden.sort();
    for (op, p) in forbidden {
        h.write_u64(op.index() as u64);
        h.write_u64(p.index() as u64);
    }

    match options.policy {
        MappingPolicy::SchedulePressure => h.write_u64(0),
        MappingPolicy::EarliestFinish => h.write_u64(1),
        MappingPolicy::Random { seed } => {
            h.write_u64(2);
            h.write_u64(seed);
        }
    }
    h.0
}

/// A cached schedule plus the number of times it was looked up.
#[derive(Debug)]
struct CacheSlot {
    schedule: Arc<Schedule>,
    lookups: u64,
}

/// Map plus the count of lookups that *observed* a local miss (and so
/// ran the scheduler). Exceeding the number of distinct digests means
/// workers raced to compute the same key and the losers' results were
/// discarded — wasted work that is scheduling-dependent, so it feeds
/// profiler sidecars only, never deterministic artifacts.
#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<u64, CacheSlot>,
    local_misses: u64,
}

/// A thread-safe memo table from [`schedule_digest`] keys to schedules.
///
/// Shared by the sweep workers via `Arc`; the lock is held only around
/// the map lookup/insert, never across the scheduler itself, so a miss
/// on one worker does not serialize the others (two workers may race to
/// compute the same key — both produce the identical deterministic
/// schedule, and the second insert is a no-op).
///
/// The [`hits`](ScheduleCache::hits)/[`misses`](ScheduleCache::misses)
/// counters are *derived from per-digest lookup counts* rather than
/// incremented per observation: `misses` is the number of distinct
/// digests ever looked up and `hits` is every lookup beyond the first of
/// its digest. Under the race above, a per-observation counter would
/// depend on which worker won (worker-count-dependent bytes in sweep
/// summaries); the derived form depends only on the multiset of digests
/// looked up, so it is identical for any worker count and claim order.
/// Which worker *observed* a hit is still reported per lookup by
/// [`get_or_compute_traced`](ScheduleCache::get_or_compute_traced) — that
/// observation belongs in wall-clock profiler sidecars, never in
/// deterministic artifacts.
///
/// # Examples
///
/// ```
/// use ecl_aaa::{AdequationOptions, AlgorithmGraph, ArchitectureGraph, ScheduleCache, TimeNs, TimingDb};
/// # fn main() -> Result<(), ecl_aaa::AaaError> {
/// let mut alg = AlgorithmGraph::new();
/// let s = alg.add_sensor("s");
/// let mut arch = ArchitectureGraph::new();
/// arch.add_processor("ecu", "arm");
/// let mut db = TimingDb::new();
/// db.set_default(s, TimeNs::from_micros(10));
/// let cache = ScheduleCache::new();
/// let a = cache.get_or_compute(&alg, &arch, &db, AdequationOptions::default())?;
/// let b = cache.get_or_compute(&alg, &arch, &db, AdequationOptions::default())?;
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(a.ops(), b.ops());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ScheduleCache {
    state: Mutex<CacheState>,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScheduleCache::default()
    }

    /// The schedule for the given inputs, running [`adequation`] only on
    /// a cache miss.
    ///
    /// # Errors
    ///
    /// Propagates [`adequation`] errors; failures are not cached.
    pub fn get_or_compute(
        &self,
        alg: &AlgorithmGraph,
        arch: &ArchitectureGraph,
        db: &TimingDb,
        options: AdequationOptions,
    ) -> Result<Arc<Schedule>, AaaError> {
        self.get_or_compute_traced(alg, arch, db, options)
            .map(|(schedule, _, _)| schedule)
    }

    /// Like [`get_or_compute`](ScheduleCache::get_or_compute), also
    /// returning the [`schedule_digest`] key and whether *this* lookup
    /// was answered from the cache.
    ///
    /// The hit flag is this caller's local observation: two workers
    /// racing on the same digest both observe a miss, so the flag is
    /// scheduling-dependent and must only feed wall-clock sidecars (the
    /// fleet profiler), never deterministic artifacts — those use the
    /// order-invariant [`hits`](ScheduleCache::hits)/
    /// [`misses`](ScheduleCache::misses) instead.
    ///
    /// # Errors
    ///
    /// Propagates [`adequation`] errors; failures are not cached.
    pub fn get_or_compute_traced(
        &self,
        alg: &AlgorithmGraph,
        arch: &ArchitectureGraph,
        db: &TimingDb,
        options: AdequationOptions,
    ) -> Result<(Arc<Schedule>, u64, bool), AaaError> {
        let key = schedule_digest(alg, arch, db, options);
        if let Some(slot) = self.state.lock().expect("cache lock").map.get_mut(&key) {
            slot.lookups += 1;
            return Ok((Arc::clone(&slot.schedule), key, true));
        }
        // Computed outside the lock: adequation can be the sweep's most
        // expensive non-simulation phase.
        let schedule = Arc::new(adequation(alg, arch, db, options)?);
        let mut state = self.state.lock().expect("cache lock");
        state.local_misses += 1;
        let slot = state.map.entry(key).or_insert_with(|| CacheSlot {
            schedule,
            lookups: 0,
        });
        slot.lookups += 1;
        Ok((Arc::clone(&slot.schedule), key, false))
    }

    /// Counts `n` more lookups of `digest` answered by a caller that kept
    /// the schedule it first looked up (a fleet lane's reused sweep
    /// variant): [`hits`](ScheduleCache::hits) grows by `n`, as if they
    /// had reached the cache. A digest never looked up or seeded is
    /// ignored.
    pub fn note_hits(&self, digest: u64, n: u64) {
        if let Some(slot) = self.state.lock().expect("cache lock").map.get_mut(&digest) {
            slot.lookups += n;
        }
    }

    /// Number of lookups beyond the first of their digest — every lookup
    /// that a serial run would have answered from the cache. Derived from
    /// per-digest lookup counts, so identical for any worker count.
    pub fn hits(&self) -> u64 {
        self.state
            .lock()
            .expect("cache lock")
            .map
            .values()
            .map(|slot| slot.lookups.saturating_sub(1))
            .sum()
    }

    /// Number of distinct digests ever looked up — the lookups a serial
    /// run would have sent to the scheduler. Derived, order-invariant.
    pub fn misses(&self) -> u64 {
        self.len() as u64
    }

    /// Total lookups across all digests (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.state
            .lock()
            .expect("cache lock")
            .map
            .values()
            .map(|slot| slot.lookups)
            .sum()
    }

    /// Racing double-computes: lookups that observed a local miss (and
    /// ran the scheduler) beyond the first of their digest. The losing
    /// workers' schedules were discarded, so this is pure wasted work.
    /// The value depends on thread interleaving — report it only in
    /// wall-clock profiler sidecars, never in deterministic artifacts.
    pub fn races(&self) -> u64 {
        let state = self.state.lock().expect("cache lock");
        state.local_misses.saturating_sub(state.map.len() as u64)
    }

    /// Number of lookups that actually ran the scheduler in *this*
    /// process — unlike [`misses`](ScheduleCache::misses) it excludes
    /// entries answered from a [`seed`](ScheduleCache::seed)ed (on-disk)
    /// schedule, so a warm-started daemon can assert it recomputed
    /// nothing. Includes racing double-computes, so it is
    /// scheduling-dependent and belongs in sidecars only (its zero/
    /// non-zero distinction is deterministic for serial executors).
    pub fn computes(&self) -> u64 {
        self.state.lock().expect("cache lock").local_misses
    }

    /// Inserts a schedule computed by an earlier process under its
    /// [`schedule_digest`] key — the warm-start path of the on-disk
    /// cache layer. Returns `false` (and keeps the resident entry) when
    /// the digest is already cached.
    ///
    /// Seeding does not count as a lookup or a compute: a later lookup
    /// of the digest counts toward [`misses`](ScheduleCache::misses)
    /// exactly as if a prior process had paid the first-of-its-digest
    /// compute, while [`computes`](ScheduleCache::computes) stays at
    /// zero for seeded keys.
    pub fn seed(&self, digest: u64, schedule: Schedule) -> bool {
        let mut state = self.state.lock().expect("cache lock");
        match state.map.entry(digest) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(CacheSlot {
                    schedule: Arc::new(schedule),
                    lookups: 0,
                });
                true
            }
        }
    }

    /// Every cached `(digest, schedule)` pair, sorted by digest — the
    /// write-back path of the on-disk cache layer. Deterministic
    /// ordering, so persisting a snapshot is reproducible.
    pub fn snapshot(&self) -> Vec<(u64, Arc<Schedule>)> {
        let state = self.state.lock().expect("cache lock");
        let mut out: Vec<_> = state
            .map
            .iter()
            .map(|(&digest, slot)| (digest, Arc::clone(&slot.schedule)))
            .collect();
        out.sort_by_key(|&(digest, _)| digest);
        out
    }

    /// Number of distinct schedules currently cached.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock").map.len()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MappingPolicy, TimeNs};

    fn setup() -> (AlgorithmGraph, ArchitectureGraph, TimingDb) {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let f = alg.add_function("f");
        let a = alg.add_actuator("a");
        alg.add_edge(s, f, 1).unwrap();
        alg.add_edge(f, a, 1).unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("p0", "arm");
        let p1 = arch.add_processor("p1", "arm");
        arch.add_bus(
            "bus",
            &[p0, p1],
            TimeNs::from_micros(5),
            TimeNs::from_micros(1),
        )
        .unwrap();
        let mut db = TimingDb::new();
        for op in alg.ops() {
            db.set_default(op, TimeNs::from_micros(100));
        }
        (alg, arch, db)
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        let (alg, arch, db) = setup();
        let opts = AdequationOptions::default();
        let d1 = schedule_digest(&alg, &arch, &db, opts);
        let d2 = schedule_digest(&alg, &arch, &db, opts);
        assert_eq!(d1, d2);

        // A WCET change must change the digest.
        let mut db2 = db.clone();
        db2.set_default(crate::OpId(1), TimeNs::from_micros(101));
        assert_ne!(d1, schedule_digest(&alg, &arch, &db2, opts));

        // A policy change must change the digest.
        let rnd = AdequationOptions {
            policy: MappingPolicy::Random { seed: 1 },
        };
        assert_ne!(d1, schedule_digest(&alg, &arch, &db, rnd));
        let rnd2 = AdequationOptions {
            policy: MappingPolicy::Random { seed: 2 },
        };
        assert_ne!(
            schedule_digest(&alg, &arch, &db, rnd),
            schedule_digest(&alg, &arch, &db, rnd2)
        );

        // An architecture change must change the digest.
        let mut arch2 = ArchitectureGraph::new();
        let p0 = arch2.add_processor("p0", "arm");
        let p1 = arch2.add_processor("p1", "arm");
        arch2
            .add_bus(
                "bus",
                &[p0, p1],
                TimeNs::from_micros(6),
                TimeNs::from_micros(1),
            )
            .unwrap();
        assert_ne!(d1, schedule_digest(&alg, &arch2, &db, opts));
    }

    /// Exhaustive digest sensitivity: flipping any single input the
    /// scheduler reads — every `AdequationOptions` field, every WCET-table
    /// entry (defaults, overrides, interdictions), every architecture
    /// tariff and every algorithm attribute — must change the digest.
    /// All mutated digests are also checked pairwise distinct, so no two
    /// flips alias each other.
    #[test]
    fn digest_flips_on_every_input_field() {
        // Baseline with every digest section populated: per-op defaults,
        // one specific override, one interdiction.
        let build = || {
            let (alg, arch, mut db) = setup();
            let ops: Vec<_> = alg.ops().collect();
            let procs: Vec<_> = arch.processors().collect();
            db.set(ops[1], procs[1], TimeNs::from_micros(90));
            db.forbid(ops[0], procs[1]);
            (alg, arch, db)
        };
        let (alg, arch, db) = build();
        let ops: Vec<_> = alg.ops().collect();
        let procs: Vec<_> = arch.processors().collect();
        let opts = AdequationOptions::default();
        let mut digests = vec![("baseline", schedule_digest(&alg, &arch, &db, opts))];
        let mut check = |label: &'static str, d: u64| {
            for (prev, pd) in &digests {
                assert_ne!(*pd, d, "digest of '{label}' collides with '{prev}'");
            }
            digests.push((label, d));
        };

        // Every AdequationOptions field: the policy discriminant and, for
        // Random, its seed.
        for (label, policy) in [
            ("policy EarliestFinish", MappingPolicy::EarliestFinish),
            ("policy Random{0}", MappingPolicy::Random { seed: 0 }),
            ("policy Random{1}", MappingPolicy::Random { seed: 1 }),
        ] {
            check(
                label,
                schedule_digest(&alg, &arch, &db, AdequationOptions { policy }),
            );
        }

        // Every default WCET entry, bumped by 1 ns, one op at a time.
        let default_labels = ["default wcet s", "default wcet f", "default wcet a"];
        for (i, &op) in ops.iter().enumerate() {
            let (alg2, arch2, mut db2) = build();
            db2.set_default(op, TimeNs::from_nanos(100_001));
            check(
                default_labels[i],
                schedule_digest(&alg2, &arch2, &db2, opts),
            );
        }
        // The specific override: value bump, and a brand-new entry.
        {
            let (alg2, arch2, mut db2) = build();
            db2.set(ops[1], procs[1], TimeNs::from_nanos(90_001));
            check(
                "specific wcet value",
                schedule_digest(&alg2, &arch2, &db2, opts),
            );
        }
        {
            let (alg2, arch2, mut db2) = build();
            db2.set(ops[2], procs[0], TimeNs::from_micros(90));
            check(
                "specific wcet new entry",
                schedule_digest(&alg2, &arch2, &db2, opts),
            );
        }
        // The interdiction set.
        {
            let (alg2, arch2, mut db2) = build();
            db2.forbid(ops[2], procs[1]);
            check("forbidden pair", schedule_digest(&alg2, &arch2, &db2, opts));
        }

        // Architecture attributes: processor name/kind, medium tariffs
        // and medium kind.
        let arch_variant = |name: &str, kind: &str, lat: TimeNs, per: TimeNs, link: bool| {
            let mut a = ArchitectureGraph::new();
            let p0 = a.add_processor(name, kind);
            let p1 = a.add_processor("p1", "arm");
            if link {
                a.add_link("bus", p0, p1, lat, per).unwrap();
            } else {
                a.add_bus("bus", &[p0, p1], lat, per).unwrap();
            }
            a
        };
        let us = TimeNs::from_micros;
        for (label, a2) in [
            ("proc name", arch_variant("p0x", "arm", us(5), us(1), false)),
            (
                "proc kind",
                arch_variant("p0", "sparc", us(5), us(1), false),
            ),
            (
                "medium latency",
                arch_variant("p0", "arm", TimeNs::from_nanos(5_001), us(1), false),
            ),
            (
                "medium per-unit",
                arch_variant("p0", "arm", us(5), TimeNs::from_nanos(1_001), false),
            ),
            ("medium kind", arch_variant("p0", "arm", us(5), us(1), true)),
        ] {
            check(label, schedule_digest(&alg, &a2, &db, opts));
        }

        // Algorithm attributes: op name, edge data volume, conditioning.
        {
            let (mut alg2, arch2, db2) = (AlgorithmGraph::new(), arch.clone(), db.clone());
            let s = alg2.add_sensor("s2");
            let f = alg2.add_function("f");
            let a = alg2.add_actuator("a");
            alg2.add_edge(s, f, 1).unwrap();
            alg2.add_edge(f, a, 1).unwrap();
            check("op name", schedule_digest(&alg2, &arch2, &db2, opts));
        }
        {
            let (mut alg2, arch2, db2) = (AlgorithmGraph::new(), arch.clone(), db.clone());
            let s = alg2.add_sensor("s");
            let f = alg2.add_function("f");
            let a = alg2.add_actuator("a");
            alg2.add_edge(s, f, 2).unwrap();
            alg2.add_edge(f, a, 1).unwrap();
            check(
                "edge data units",
                schedule_digest(&alg2, &arch2, &db2, opts),
            );
        }
        {
            let (mut alg2, arch2, db2) = build();
            let ops2: Vec<_> = alg2.ops().collect();
            // `s` is already a data predecessor of `f`, so conditioning
            // adds no edge — the digest change is the condition alone.
            alg2.set_condition(ops2[1], ops2[0], 1).unwrap();
            check("condition", schedule_digest(&alg2, &arch2, &db2, opts));
        }
    }

    /// Regression for the `{0, 1}`-sampling tariff digest: two media
    /// that agree on transfers of 0 and 1 data units but diverge at the
    /// volumes actually present in the algorithm graph must digest
    /// differently — with first-difference sampling they aliased, so a
    /// sweep could serve a schedule priced on the wrong tariff.
    #[test]
    fn digest_separates_media_that_agree_at_zero_and_one_unit() {
        // An edge actually transferring 3 units: the volume at which the
        // two tariffs below diverge.
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let a = alg.add_actuator("a");
        alg.add_edge(s, a, 3).unwrap();
        let mut db = TimingDb::new();
        for op in alg.ops() {
            db.set_default(op, TimeNs::from_micros(100));
        }

        let affine = |payload: Option<u32>| {
            let mut arch = ArchitectureGraph::new();
            let p0 = arch.add_processor("p0", "arm");
            let p1 = arch.add_processor("p1", "arm");
            match payload {
                None => arch
                    .add_bus(
                        "bus",
                        &[p0, p1],
                        TimeNs::from_micros(5),
                        TimeNs::from_micros(1),
                    )
                    .unwrap(),
                Some(p) => arch
                    .add_framed_bus(
                        "bus",
                        &[p0, p1],
                        TimeNs::from_micros(5),
                        TimeNs::from_micros(1),
                        p,
                    )
                    .unwrap(),
            };
            arch
        };
        let plain = affine(None);
        let framed = affine(Some(1));
        // The tariffs agree at 0 and 1 units (one frame) ...
        let m = crate::MediumId(0);
        assert_eq!(plain.transfer_time(m, 0), framed.transfer_time(m, 0));
        assert_eq!(plain.transfer_time(m, 1), framed.transfer_time(m, 1));
        // ... and diverge at the 3-unit volume the edge transfers.
        assert_ne!(plain.transfer_time(m, 3), framed.transfer_time(m, 3));
        let opts = AdequationOptions::default();
        assert_ne!(
            schedule_digest(&alg, &plain, &db, opts),
            schedule_digest(&alg, &framed, &db, opts)
        );

        // Media equal at every volume the scheduler can price (the
        // payload covers the largest edge) still hash identically:
        // they are indistinguishable to the scheduler by construction.
        let covered = affine(Some(u32::MAX));
        assert_eq!(
            schedule_digest(&alg, &plain, &db, opts),
            schedule_digest(&alg, &covered, &db, opts)
        );
    }

    #[test]
    fn races_are_zero_without_concurrent_misses() {
        let (alg, arch, db) = setup();
        let cache = ScheduleCache::new();
        let opts = AdequationOptions::default();
        for _ in 0..5 {
            cache.get_or_compute(&alg, &arch, &db, opts).unwrap();
        }
        // Serial lookups can never double-compute.
        assert_eq!(cache.races(), 0);
        assert_eq!((cache.hits(), cache.misses()), (4, 1));
    }

    #[test]
    fn cache_hits_return_identical_schedule() {
        let (alg, arch, db) = setup();
        let cache = ScheduleCache::new();
        assert!(cache.is_empty());
        let opts = AdequationOptions::default();
        let a = cache.get_or_compute(&alg, &arch, &db, opts).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache.get_or_compute(&alg, &arch, &db, opts).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b));
        // The cached schedule equals a fresh run.
        let fresh = adequation(&alg, &arch, &db, opts).unwrap();
        assert_eq!(a.ops(), fresh.ops());
        assert_eq!(a.comms(), fresh.comms());
        assert_eq!(cache.len(), 1);

        // A different WCET table is a distinct entry.
        let mut db2 = db.clone();
        db2.set_default(crate::OpId(0), TimeNs::from_micros(50));
        cache.get_or_compute(&alg, &arch, &db2, opts).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cache_is_shareable_across_threads_with_exact_counters() {
        let (alg, arch, db) = setup();
        let cache = Arc::new(ScheduleCache::new());
        let opts = AdequationOptions::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let (alg, arch, db) = (&alg, &arch, &db);
                scope.spawn(move || {
                    for _ in 0..8 {
                        cache.get_or_compute(alg, arch, db, opts).unwrap();
                    }
                });
            }
        });
        // Digest-derived counters are exact even under racing lookups:
        // 32 lookups of one digest are 1 miss + 31 hits, regardless of
        // which thread computed the schedule or how many raced on the
        // initial miss.
        assert_eq!((cache.hits(), cache.misses()), (31, 1));
        assert_eq!(cache.lookups(), 32);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn traced_lookup_reports_digest_and_local_observation() {
        let (alg, arch, db) = setup();
        let cache = ScheduleCache::new();
        let opts = AdequationOptions::default();
        let expected = schedule_digest(&alg, &arch, &db, opts);
        let (a, d1, hit1) = cache.get_or_compute_traced(&alg, &arch, &db, opts).unwrap();
        let (b, d2, hit2) = cache.get_or_compute_traced(&alg, &arch, &db, opts).unwrap();
        assert_eq!((d1, d2), (expected, expected));
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    /// Seeding a cache from a prior process's snapshot answers lookups
    /// without running the scheduler: `computes()` stays zero while the
    /// served schedule is byte-identical to the fresh one.
    #[test]
    fn seeded_cache_serves_without_computing() {
        let (alg, arch, db) = setup();
        let opts = AdequationOptions::default();
        // A first process computes and snapshots.
        let warm = ScheduleCache::new();
        warm.get_or_compute(&alg, &arch, &db, opts).unwrap();
        assert_eq!(warm.computes(), 1);
        let snapshot = warm.snapshot();
        assert_eq!(snapshot.len(), 1);

        // A restarted process seeds from the snapshot (round-tripped
        // through the on-disk byte codec) and never runs the scheduler.
        let cold = ScheduleCache::new();
        for (digest, schedule) in &snapshot {
            let bytes = schedule.to_bytes();
            assert!(cold.seed(*digest, Schedule::from_bytes(&bytes).unwrap()));
            // Re-seeding the same digest is refused.
            assert!(!cold.seed(*digest, Schedule::from_bytes(&bytes).unwrap()));
        }
        let (served, digest, hit) = cold.get_or_compute_traced(&alg, &arch, &db, opts).unwrap();
        assert!(hit, "seeded digest must answer from the cache");
        assert_eq!(digest, snapshot[0].0);
        assert_eq!(cold.computes(), 0);
        let fresh = adequation(&alg, &arch, &db, opts).unwrap();
        assert_eq!(served.ops(), fresh.ops());
        assert_eq!(served.comms(), fresh.comms());
    }

    /// The counters depend only on the multiset of digests looked up,
    /// not on lookup interleaving: replaying the same lookups in reverse
    /// order yields identical hits/misses.
    #[test]
    fn counters_are_order_invariant() {
        let (alg, arch, db) = setup();
        let mut db2 = db.clone();
        db2.set_default(crate::OpId(0), TimeNs::from_micros(50));
        let opts = AdequationOptions::default();
        let run = |tables: &[&TimingDb]| {
            let cache = ScheduleCache::new();
            for t in tables {
                cache.get_or_compute(&alg, &arch, t, opts).unwrap();
            }
            (cache.hits(), cache.misses())
        };
        let forward = run(&[&db, &db, &db2, &db, &db2]);
        let reverse = run(&[&db2, &db, &db2, &db, &db]);
        assert_eq!(forward, (3, 2));
        assert_eq!(forward, reverse);
    }
}
