//! Content-addressed memo tables.
//!
//! Every pure stage of the lifecycle a sweep repeats — adequation, the
//! ideal run, the scheduled co-simulation, the latency extraction — is
//! memoized the same way: keyed by a 64-bit content digest of its
//! inputs, computed outside the lock, counted by digest, warm-started
//! from and written back to the on-disk store. [`DigestMemo`] is that
//! one discipline; each layer wraps it with only its own key and
//! compute.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// A memoized value plus the number of times its digest was looked up.
#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    lookups: u64,
}

/// The map plus the two interleaving-dependent tallies: builds run in
/// this process, and builds whose insert found the digest already
/// present (the loser of a race, or a key seeded while it built).
#[derive(Debug)]
struct State<V> {
    map: HashMap<u64, Slot<V>>,
    computes: u64,
    races: u64,
}

/// A thread-safe memo table from content digests to shared values.
///
/// The lock is held only around the map lookup and insert, never across
/// `build`, so a miss on one worker does not serialize the others. Two
/// workers that miss on the same digest both build; both values are
/// equal by construction (the key is a content digest of a pure
/// function's inputs), the first insert wins and the second is counted
/// as a [race](DigestMemo::races).
///
/// [`hits`](DigestMemo::hits) and [`misses`](DigestMemo::misses) are
/// *derived from per-digest lookup counts* rather than incremented per
/// observation: `misses` is the number of distinct digests held and
/// `hits` is every lookup beyond the first of its digest. They depend
/// only on the multiset of digests looked up, so they are identical for
/// any worker count and claim order. The hit flag a single lookup
/// returns, [`races`](DigestMemo::races) and
/// [`computes`](DigestMemo::computes) depend on thread interleaving:
/// they belong in wall-clock sidecars, never in deterministic artifacts.
///
/// # Examples
///
/// ```
/// use ecl_telemetry::DigestMemo;
///
/// let memo: DigestMemo<String> = DigestMemo::new();
/// let build = || Ok::<_, ()>("seven".to_string());
/// let (a, hit) = memo.get_or_build(7, build).unwrap();
/// assert!(!hit);
/// let (b, hit) = memo.get_or_build(7, build).unwrap();
/// assert!(hit);
/// assert_eq!(a, b);
/// assert_eq!((memo.hits(), memo.misses(), memo.computes()), (1, 1, 1));
/// ```
#[derive(Debug)]
pub struct DigestMemo<V> {
    state: Mutex<State<V>>,
}

impl<V> Default for DigestMemo<V> {
    fn default() -> Self {
        DigestMemo {
            state: Mutex::new(State {
                map: HashMap::new(),
                computes: 0,
                races: 0,
            }),
        }
    }
}

impl<V> DigestMemo<V> {
    /// An empty memo table.
    pub fn new() -> Self {
        DigestMemo::default()
    }

    fn lock(&self) -> MutexGuard<'_, State<V>> {
        self.state.lock().expect("digest memo lock")
    }

    /// The value for `key`, running `build` only on a miss. Also returns
    /// whether *this* lookup was answered from the table — a local
    /// observation (two racing workers both observe a miss), so it may
    /// only feed wall-clock sidecars.
    ///
    /// # Errors
    ///
    /// Propagates `build` errors; failures are not cached.
    pub fn get_or_build<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        if let Some(slot) = self.lock().map.get_mut(&key) {
            slot.lookups += 1;
            return Ok((Arc::clone(&slot.value), true));
        }
        let value = Arc::new(build()?);
        let mut state = self.lock();
        let State {
            map,
            computes,
            races,
        } = &mut *state;
        *computes += 1;
        let slot = match map.entry(key) {
            Entry::Occupied(slot) => {
                *races += 1;
                slot.into_mut()
            }
            Entry::Vacant(slot) => slot.insert(Slot { value, lookups: 0 }),
        };
        slot.lookups += 1;
        Ok((Arc::clone(&slot.value), false))
    }

    /// Counts `n` more lookups of `digest` answered by a caller that kept
    /// the value it first looked up (a fleet lane's reused sweep
    /// variant): [`hits`](DigestMemo::hits) grows by `n`, as if they had
    /// reached the table. A digest never looked up or seeded is ignored.
    pub fn note_hits(&self, digest: u64, n: u64) {
        if let Some(slot) = self.lock().map.get_mut(&digest) {
            slot.lookups += n;
        }
    }

    /// Lookups beyond the first of their digest — every lookup a serial
    /// run would have answered from the table. Derived from per-digest
    /// lookup counts, so identical for any worker count.
    pub fn hits(&self) -> u64 {
        self.lock()
            .map
            .values()
            .map(|slot| slot.lookups.saturating_sub(1))
            .sum()
    }

    /// Distinct digests held — the builds a serial run would have paid
    /// (a seeded digest counts as paid by an earlier process). Derived,
    /// order-invariant.
    pub fn misses(&self) -> u64 {
        self.len() as u64
    }

    /// Total lookups across all digests.
    pub fn lookups(&self) -> u64 {
        self.lock().map.values().map(|slot| slot.lookups).sum()
    }

    /// Builds whose insert found the digest already present: the losing
    /// workers' values were discarded, so this is pure wasted work.
    /// Depends on thread interleaving — sidecar-only.
    pub fn races(&self) -> u64 {
        self.lock().races
    }

    /// Builds run in *this* process, racing ones included. Unlike
    /// [`misses`](DigestMemo::misses) it excludes digests answered from a
    /// [`seed`](DigestMemo::seed)ed value, so a warm-started daemon can
    /// assert it recomputed nothing. Sidecar-only (its zero/non-zero
    /// distinction is deterministic for serial executors).
    pub fn computes(&self) -> u64 {
        self.lock().computes
    }

    /// Inserts a value computed by an earlier process under its digest —
    /// the warm-start path of the on-disk store. Returns `false` and keeps
    /// the resident value when the digest is already held. Seeding is
    /// neither a lookup nor a compute.
    pub fn seed(&self, digest: u64, value: V) -> bool {
        match self.lock().map.entry(digest) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(Slot {
                    value: Arc::new(value),
                    lookups: 0,
                });
                true
            }
        }
    }

    /// Every held `(digest, value)` pair, sorted by digest — the
    /// write-back path of the on-disk store, reproducible because the
    /// order is.
    pub fn snapshot(&self) -> Vec<(u64, Arc<V>)> {
        let mut out: Vec<_> = self
            .lock()
            .map
            .iter()
            .map(|(&digest, slot)| (digest, Arc::clone(&slot.value)))
            .collect();
        out.sort_unstable_by_key(|&(digest, _)| digest);
        out
    }

    /// Number of distinct digests held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` when nothing is held yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    type Memo = DigestMemo<u64>;

    fn ok(v: u64) -> impl FnOnce() -> Result<u64, ()> {
        move || Ok(v)
    }

    #[test]
    fn serial_lookups_count_one_miss_per_digest_and_never_race() {
        let memo = Memo::new();
        assert!(memo.is_empty());
        for _ in 0..5 {
            memo.get_or_build(1, ok(10)).unwrap();
        }
        assert_eq!((memo.hits(), memo.misses(), memo.lookups()), (4, 1, 5));
        assert_eq!((memo.races(), memo.computes(), memo.len()), (0, 1, 1));
    }

    #[test]
    fn hit_returns_the_shared_value_and_flags_it() {
        let memo = Memo::new();
        let (a, hit_a) = memo.get_or_build(3, ok(30)).unwrap();
        let (b, hit_b) = memo
            .get_or_build(3, || -> Result<u64, ()> { panic!("a hit must not build") })
            .unwrap();
        assert_eq!((hit_a, hit_b), (false, true));
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// Four threads hammering one digest: the derived counters are exact
    /// whichever thread built the value and however many raced on it.
    #[test]
    fn derived_counters_are_exact_under_racing_threads() {
        let memo = Memo::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        memo.get_or_build(9, ok(90)).unwrap();
                    }
                });
            }
        });
        assert_eq!((memo.hits(), memo.misses(), memo.lookups()), (31, 1, 32));
        assert_eq!(memo.len(), 1);
        // Every build beyond the first lost a race.
        assert!(memo.races() <= 3);
        assert_eq!(memo.computes(), memo.races() + 1);
    }

    /// The counters depend only on the multiset of digests looked up:
    /// replaying the same lookups in another order gives the same values.
    #[test]
    fn counters_are_order_invariant() {
        let run = |keys: &[u64]| {
            let memo = Memo::new();
            for &k in keys {
                memo.get_or_build(k, ok(k)).unwrap();
            }
            (memo.hits(), memo.misses(), memo.lookups())
        };
        let forward = run(&[1, 1, 2, 1, 2]);
        assert_eq!(forward, (3, 2, 5));
        assert_eq!(forward, run(&[2, 1, 2, 1, 1]));
    }

    #[test]
    fn note_hits_credits_known_digests_only() {
        let memo = Memo::new();
        memo.get_or_build(1, ok(1)).unwrap();
        memo.note_hits(1, 5);
        assert_eq!((memo.hits(), memo.lookups()), (5, 6));
        // An unknown digest is ignored: no entry, no count.
        memo.note_hits(2, 7);
        assert_eq!((memo.hits(), memo.misses(), memo.lookups()), (5, 1, 6));
        // A seeded digest is known.
        memo.seed(3, 3);
        memo.note_hits(3, 2);
        assert_eq!(memo.hits(), 6);
    }

    #[test]
    fn seed_is_neither_a_lookup_nor_a_compute() {
        let memo = Memo::new();
        assert!(memo.seed(4, 40));
        assert!(!memo.seed(4, 41), "re-seeding keeps the resident value");
        assert_eq!((memo.lookups(), memo.computes(), memo.misses()), (0, 0, 1));
        let (v, hit) = memo
            .get_or_build(4, || -> Result<u64, ()> {
                panic!("seeded digests never build")
            })
            .unwrap();
        assert!(hit);
        assert_eq!(*v, 40);
        assert_eq!((memo.hits(), memo.misses(), memo.computes()), (0, 1, 0));
    }

    #[test]
    fn snapshot_is_sorted_by_digest() {
        let memo = Memo::new();
        for k in [42, 7, 1_000, 3] {
            memo.get_or_build(k, ok(k * 2)).unwrap();
        }
        memo.seed(5, 10);
        let snap: Vec<(u64, u64)> = memo.snapshot().into_iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(snap, [(3, 6), (5, 10), (7, 14), (42, 84), (1_000, 2_000)]);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let memo = Memo::new();
        assert_eq!(memo.get_or_build(6, || Err("boom")), Err("boom"));
        assert!(memo.is_empty());
        assert_eq!((memo.lookups(), memo.computes()), (0, 0));
        let (v, hit) = memo.get_or_build(6, || Ok::<_, &str>(60)).unwrap();
        assert_eq!((*v, hit), (60, false));
        assert_eq!((memo.misses(), memo.computes()), (1, 1));
    }

    /// A race on a warm-started table: with digest A seeded, two threads
    /// that both miss on B (the barrier holds each inside `build` until
    /// the other arrives) count exactly one race. Deriving races as
    /// `computes - len` would read 0 here, the seeded A hiding the race.
    #[test]
    fn races_are_counted_at_insert_on_a_seeded_table() {
        let memo = Memo::new();
        memo.seed(0xA, 1);
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    memo.get_or_build(0xB, || {
                        barrier.wait();
                        Ok::<_, ()>(2)
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!((memo.races(), memo.computes()), (1, 2));
        assert_eq!((memo.hits(), memo.misses(), memo.lookups()), (1, 2, 2));
    }
}
