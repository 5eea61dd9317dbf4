//! Closed-form stepping of linear time-invariant blocks between events.
//!
//! When the continuous cone is empty, no stateful block's input can move
//! between events, so each block with [linear
//! dynamics](crate::Block::linear_dynamics) `ẋ = A·x + B·u` has the exact
//! zero-order-hold solution `x(t + h) = Φ(h)·x(t) + Γ(h)·u` across a
//! chunk of length `h`. `[Φ Γ]` is the top `n` rows of
//! `exp([[A, B], [0, 0]]·h)`, one exponential per block. Blocks are
//! decoupled here: every input is frozen, so each block steps on its own.
//!
//! The pairs are cached by chunk length in integer nanoseconds, in a
//! fixed number of slots sized at construction. A miss overwrites the
//! slots round-robin, so the cache never allocates however many distinct
//! lengths a run produces.

use ecl_linalg::{expm_in, ExpmWorkspace};

use crate::error::SimError;
use crate::model::Entry;
use crate::stats::EngineStats;

/// Distinct chunk lengths whose `[Φ Γ]` rows stay cached at once. A
/// periodic schedule yields a few lengths per period (the inter-event
/// gaps plus the `record_dt` chunk), so a hit rate near one needs only
/// a handful of slots; a miss costs one exponential per block.
const SLOTS: usize = 16;

/// One LTI block's place in the flat buffers.
#[derive(Debug, Clone, Copy)]
struct LtiBlock {
    /// Block index in the model.
    block: usize,
    /// States `n` and inputs `m`.
    n: usize,
    m: usize,
    /// Offsets of the block's states in `x` and inputs in the flat
    /// input buffer.
    state_off: usize,
    in_off: usize,
    /// Offset of the block's `n × (n + m)` row-major `[Φ Γ]` in a slot.
    pair_off: usize,
}

/// The `[Φ Γ]` cache and workspace of one simulator.
#[derive(Debug)]
pub(crate) struct ExactStepper {
    blocks: Vec<LtiBlock>,
    /// Floats per slot: `Σ n·(n + m)` over the blocks.
    slot_len: usize,
    /// Chunk length (ns) each slot holds, `None` while empty.
    keys: [Option<i64>; SLOTS],
    /// Slot the next miss overwrites.
    next: usize,
    /// `SLOTS` slots of `slot_len` floats each.
    pairs: Vec<f64>,
    /// The augmented matrix `[[A, B], [0, 0]]·h` and its exponential,
    /// sized for the largest block.
    aug: Vec<f64>,
    aug_exp: Vec<f64>,
    ws: ExpmWorkspace,
    /// The stepped state of one block before it is written back.
    x_new: Vec<f64>,
}

impl ExactStepper {
    /// The stepper for the stateful blocks `stateful` of a model whose
    /// continuous cone is empty, or `None` if one of them declares no
    /// linear dynamics (the model is then integrated).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidModel`] if a block's declared `(A, B)` does not
    /// match its state and input counts.
    pub(crate) fn plan(
        entries: &[Entry],
        stateful: &[usize],
        state_off: &[usize],
        in_off: &[usize],
    ) -> Result<Option<Self>, SimError> {
        let mut blocks = Vec::with_capacity(stateful.len());
        let mut slot_len = 0;
        let mut dim = 0;
        for &b in stateful {
            let Some((a, bm)) = entries[b].block.linear_dynamics() else {
                return Ok(None);
            };
            let n = state_off[b + 1] - state_off[b];
            let m = in_off[b + 1] - in_off[b];
            if a.len() != n * n || bm.len() != n * m {
                return Err(SimError::InvalidModel {
                    reason: format!(
                        "block '{}' declares linear dynamics with {} A and {} B entries \
                         for {n} states and {m} inputs",
                        entries[b].name,
                        a.len(),
                        bm.len()
                    ),
                });
            }
            blocks.push(LtiBlock {
                block: b,
                n,
                m,
                state_off: state_off[b],
                in_off: in_off[b],
                pair_off: slot_len,
            });
            slot_len += n * (n + m);
            dim = dim.max(n + m);
        }
        let max_n = blocks.iter().map(|l| l.n).max().unwrap_or(0);
        Ok(Some(ExactStepper {
            blocks,
            slot_len,
            keys: [None; SLOTS],
            next: 0,
            pairs: vec![0.0; SLOTS * slot_len],
            aug: vec![0.0; dim * dim],
            aug_exp: vec![0.0; dim * dim],
            ws: ExpmWorkspace::new(dim),
            x_new: vec![0.0; max_n],
        }))
    }

    /// Forgets every cached pair: a block's `(A, B)` may have been
    /// retuned since they were computed.
    pub(crate) fn clear(&mut self) {
        self.keys = [None; SLOTS];
        self.next = 0;
    }

    /// Advances every LTI block's state in `x` across a chunk of `len_ns`
    /// nanoseconds starting at `t` (seconds), with the inputs frozen at
    /// their values in `inputs`.
    ///
    /// # Errors
    ///
    /// [`SimError::IntegrationFailure`] if a block withdrew its linear
    /// dynamics, the exponential fails, or the stepped state is not
    /// finite.
    pub(crate) fn step(
        &mut self,
        entries: &[Entry],
        inputs: &[f64],
        x: &mut [f64],
        t: f64,
        len_ns: i64,
        stats: &mut EngineStats,
    ) -> Result<(), SimError> {
        let slot = match self.keys.iter().position(|&k| k == Some(len_ns)) {
            Some(slot) => slot,
            None => {
                let slot = self.next;
                self.next = (slot + 1) % SLOTS;
                self.keys[slot] = None;
                self.discretize(entries, slot, t, len_ns, stats)?;
                self.keys[slot] = Some(len_ns);
                slot
            }
        };
        let pairs = &self.pairs[slot * self.slot_len..(slot + 1) * self.slot_len];
        for l in &self.blocks {
            let (n, w) = (l.n, l.n + l.m);
            let xs = &mut x[l.state_off..l.state_off + n];
            let u = &inputs[l.in_off..l.in_off + l.m];
            for i in 0..n {
                let row = &pairs[l.pair_off + i * w..l.pair_off + (i + 1) * w];
                let mut acc = 0.0;
                for j in 0..n {
                    acc += row[j] * xs[j];
                }
                for j in 0..l.m {
                    acc += row[n + j] * u[j];
                }
                self.x_new[i] = acc;
            }
            if !self.x_new[..n].iter().all(|v| v.is_finite()) {
                return Err(SimError::IntegrationFailure {
                    time: t,
                    reason: format!(
                        "non-finite state after exact step of block '{}'",
                        entries[l.block].name
                    ),
                });
            }
            xs.copy_from_slice(&self.x_new[..n]);
        }
        stats.exact_chunks += 1;
        Ok(())
    }

    /// Fills `slot` with every block's `[Φ Γ]` for a chunk of `len_ns`.
    fn discretize(
        &mut self,
        entries: &[Entry],
        slot: usize,
        t: f64,
        len_ns: i64,
        stats: &mut EngineStats,
    ) -> Result<(), SimError> {
        let h = len_ns as f64 * 1e-9;
        for l in &self.blocks {
            let fail = |reason: String| SimError::IntegrationFailure { time: t, reason };
            let (n, m, d) = (l.n, l.m, l.n + l.m);
            let (a, b) = entries[l.block].block.linear_dynamics().ok_or_else(|| {
                fail(format!(
                    "block '{}' withdrew its linear dynamics",
                    entries[l.block].name
                ))
            })?;
            if a.len() != n * n || b.len() != n * m {
                return Err(fail(format!(
                    "block '{}' changed the shape of its linear dynamics",
                    entries[l.block].name
                )));
            }
            let aug = &mut self.aug[..d * d];
            aug.fill(0.0);
            for i in 0..n {
                for j in 0..n {
                    aug[i * d + j] = a[i * n + j] * h;
                }
                for j in 0..m {
                    aug[i * d + n + j] = b[i * m + j] * h;
                }
            }
            stats.hot_allocs += self.ws.fit(d);
            let e = &mut self.aug_exp[..d * d];
            expm_in(aug, d, e, &mut self.ws).map_err(|err| {
                fail(format!(
                    "exact step of block '{}': {err}",
                    entries[l.block].name
                ))
            })?;
            let dst = slot * self.slot_len + l.pair_off;
            self.pairs[dst..dst + n * d].copy_from_slice(&e[..n * d]);
            stats.discretizations += 1;
        }
        Ok(())
    }
}
