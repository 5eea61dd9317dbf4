//! Distributed executive generation from a static schedule.
//!
//! SynDEx generates, for each processor, a *computation sequence*
//! interleaved with receive/send synchronization, and for each medium a
//! *communication sequence* — the total orders chosen by the adequation.
//! The synchronization preserves those orders, and the generated
//! executives are deadlock-free by construction. This module reproduces
//! that artifact:
//!
//! * [`generate`] extracts per-processor [`Executive`]s and per-medium
//!   [`MediumSequence`]s from a [`Schedule`] (emitting a `Recv` on *every*
//!   processor that consumes data delivered by a broadcast transfer);
//! * [`render`] prints an executive in a SynDEx-macro-like textual form;
//! * [`check_deadlock_free`] verifies the synchronization graph has no
//!   cyclic wait (posting-send / blocking-receive semantics) and, when it
//!   does, names the blocked receives and the wait cycle;
//! * [`replay`] executes the executives and communication sequences
//!   against the architecture's timing and returns every operation's
//!   completion instant — an independent re-derivation of the schedule
//!   that must (and does, see the tests) match it exactly.

use std::collections::{HashMap, HashSet};
use std::fmt;

use ecl_sim::TimeNs;

use crate::algorithm::AlgorithmGraph;
use crate::architecture::{ArchitectureGraph, MediumId, ProcId};
use crate::schedule::Schedule;
use crate::{AaaError, OpId};

/// One executive instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// Execute operation `op` (worst case `wcet`).
    Compute {
        /// The operation to run.
        op: OpId,
        /// Its budgeted worst-case duration.
        wcet: TimeNs,
    },
    /// Post the data of `src_op` for transfer over `medium` (non-blocking:
    /// the communication sequence performs the move).
    Send {
        /// Producer whose output is sent.
        src_op: OpId,
        /// The medium carrying the transfer.
        medium: MediumId,
        /// Receiving processor of the scheduled transfer.
        to: ProcId,
    },
    /// Wait until the data of `src_op` sent by `from` over `medium` has
    /// arrived (blocking).
    Recv {
        /// Producer whose output is received.
        src_op: OpId,
        /// The medium carrying the transfer.
        medium: MediumId,
        /// Sending processor.
        from: ProcId,
    },
}

/// The synchronized instruction sequence of one processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executive {
    /// The processor this executive runs on.
    pub proc: ProcId,
    /// Instructions in execution order (one period of the infinite loop).
    pub instrs: Vec<Instr>,
}

/// One transfer of a medium's communication sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferSlot {
    /// Producer whose output moves.
    pub src_op: OpId,
    /// Sending processor.
    pub from: ProcId,
    /// Scheduled receiving processor (broadcast media deliver to every
    /// connected processor regardless).
    pub to: ProcId,
    /// Data volume in medium units.
    pub data_units: u32,
}

/// The ordered communication sequence of one medium.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediumSequence {
    /// The medium this sequence drives.
    pub medium: MediumId,
    /// Transfers in the order fixed by the adequation.
    pub transfers: Vec<TransferSlot>,
}

/// Everything [`generate`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generated {
    /// One executive per processor (in processor order).
    pub executives: Vec<Executive>,
    /// One communication sequence per medium (in medium order).
    pub comm_sequences: Vec<MediumSequence>,
}

/// Extracts the executives and communication sequences from a schedule.
///
/// Computations are ordered by start instant. A `Send` is placed at the
/// transfer's scheduled start on the sending side; a `Recv` is placed at
/// the transfer's completion on the scheduled receiver **and** on every
/// other processor that consumes the broadcast data without a dedicated
/// transfer of its own.
///
/// # Errors
///
/// Returns [`AaaError::InvalidSchedule`] if the schedule references
/// processors unknown to `arch`.
pub fn generate(
    schedule: &Schedule,
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
) -> Result<Generated, AaaError> {
    for s in schedule.ops() {
        arch.check_proc(s.proc)
            .map_err(|_| AaaError::InvalidSchedule {
                reason: format!("schedule references unknown processor {}", s.proc),
            })?;
    }
    // Which processors need a Recv for each scheduled transfer: the
    // scheduled receiver plus any broadcast beneficiary hosting a consumer
    // of the data that has no dedicated transfer.
    let mut recv_targets: Vec<Vec<ProcId>> = Vec::with_capacity(schedule.comms().len());
    for (i, c) in schedule.comms().iter().enumerate() {
        let mut targets = vec![c.to];
        for q in arch.medium_procs(c.medium) {
            if *q == c.from || *q == c.to {
                continue;
            }
            // q consumes src_op's data?
            let consumes = alg
                .edges()
                .iter()
                .any(|e| e.src == c.src_op && schedule.slot(e.dst).map(|s| s.proc) == Some(*q));
            if !consumes {
                continue;
            }
            // ... and has no dedicated transfer of its own for this data.
            let dedicated = schedule
                .comms()
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && o.src_op == c.src_op && o.to == *q);
            // Only the earliest qualifying broadcast carries the Recv.
            let earliest = schedule
                .comms()
                .iter()
                .enumerate()
                .filter(|(_, o)| o.src_op == c.src_op && arch.medium_procs(o.medium).contains(q))
                .min_by_key(|(_, o)| o.end)
                .map(|(j, _)| j);
            if !dedicated && earliest == Some(i) {
                targets.push(*q);
            }
        }
        recv_targets.push(targets);
    }

    let mut executives = Vec::new();
    for p in arch.processors() {
        // (sort instant, tie rank, instruction): recv < send < compute at
        // equal instants — arriving data is consumed before a computation
        // starts, and produced data is posted (non-blocking) before the
        // next computation begins. A send is anchored at the *producer's
        // completion* (when the data exists), not at the transfer's start:
        // the medium's communication sequence handles the arbitration
        // delay, and posting early is what lets the transfer overlap the
        // processor's subsequent computations (as the schedule assumes).
        let mut items: Vec<(TimeNs, u8, Instr)> = Vec::new();
        for s in schedule.proc_sequence(p) {
            items.push((
                s.start,
                2,
                Instr::Compute {
                    op: s.op,
                    wcet: s.end - s.start,
                },
            ));
        }
        for (i, c) in schedule.comms().iter().enumerate() {
            if c.from == p {
                let data_ready = schedule.slot(c.src_op).map(|s| s.end).unwrap_or(c.start);
                items.push((
                    data_ready,
                    1,
                    Instr::Send {
                        src_op: c.src_op,
                        medium: c.medium,
                        to: c.to,
                    },
                ));
            }
            if recv_targets[i].contains(&p) {
                items.push((
                    c.end,
                    0,
                    Instr::Recv {
                        src_op: c.src_op,
                        medium: c.medium,
                        from: c.from,
                    },
                ));
            }
        }
        items.sort_by_key(|&(t, rank, _)| (t, rank));
        executives.push(Executive {
            proc: p,
            instrs: items.into_iter().map(|(_, _, i)| i).collect(),
        });
    }

    let comm_sequences = arch
        .media()
        .map(|m| MediumSequence {
            medium: m,
            transfers: schedule
                .medium_sequence(m)
                .into_iter()
                .map(|c| TransferSlot {
                    src_op: c.src_op,
                    from: c.from,
                    to: c.to,
                    data_units: c.data_units,
                })
                .collect(),
        })
        .collect();

    Ok(Generated {
        executives,
        comm_sequences,
    })
}

/// Renders one executive in a SynDEx-macro-like textual form.
pub fn render(exec: &Executive, alg: &AlgorithmGraph, arch: &ArchitectureGraph) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "; synchronized executive for processor {} ({})\n",
        arch.proc_name(exec.proc),
        arch.proc_kind(exec.proc)
    ));
    s.push_str(&format!("main_{}:\n  loop:\n", arch.proc_name(exec.proc)));
    for i in &exec.instrs {
        match *i {
            Instr::Compute { op, wcet } => {
                s.push_str(&format!("    compute {} ; wcet {}\n", alg.name(op), wcet));
            }
            Instr::Send { src_op, medium, to } => {
                s.push_str(&format!(
                    "    send    {} on {} -> {}\n",
                    alg.name(src_op),
                    arch.medium_name(medium),
                    arch.proc_name(to)
                ));
            }
            Instr::Recv {
                src_op,
                medium,
                from,
            } => {
                s.push_str(&format!(
                    "    recv    {} on {} <- {}\n",
                    alg.name(src_op),
                    arch.medium_name(medium),
                    arch.proc_name(from)
                ));
            }
        }
    }
    s.push_str("  endloop\n");
    s
}

/// Renders a medium's communication sequence.
pub fn render_comm_sequence(
    seq: &MediumSequence,
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
) -> String {
    let mut s = format!(
        "; communication sequence for medium {}\ncomm_{}:\n  loop:\n",
        arch.medium_name(seq.medium),
        arch.medium_name(seq.medium)
    );
    for t in &seq.transfers {
        s.push_str(&format!(
            "    transfer {} : {} -> {} ({} units)\n",
            alg.name(t.src_op),
            arch.proc_name(t.from),
            arch.proc_name(t.to),
            t.data_units
        ));
    }
    s.push_str("  endloop\n");
    s
}

/// A blocking receive at which a processor's sequence is stuck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedRecv {
    /// The stuck processor.
    pub proc: ProcId,
    /// Index of the blocked `Recv` in the processor's executive.
    pub instr: usize,
    /// Producer whose data the receive waits for.
    pub src_op: OpId,
    /// Processor the data was expected from.
    pub from: ProcId,
    /// Medium of the expected transfer.
    pub medium: MediumId,
}

impl fmt::Display for BlockedRecv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} waits for {} from {} on {}",
            self.proc, self.src_op, self.from, self.medium
        )
    }
}

/// Outcome of [`check_deadlock_free`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockCheck {
    /// Every processor's sequence runs to completion.
    Free,
    /// At least one processor is stuck forever at a blocking receive.
    Deadlocked {
        /// The cyclic wait (each entry waits on the next, the last on the
        /// first), when one exists among the blocked processors. Empty for
        /// acyclic stalls such as an orphan receive whose matching send
        /// appears in no executive.
        cycle: Vec<BlockedRecv>,
        /// Every blocked receive, in processor order.
        blocked: Vec<BlockedRecv>,
    },
}

impl DeadlockCheck {
    /// `true` iff the executives are deadlock-free.
    pub fn is_free(&self) -> bool {
        matches!(self, DeadlockCheck::Free)
    }
}

impl fmt::Display for DeadlockCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlockCheck::Free => write!(f, "deadlock-free"),
            DeadlockCheck::Deadlocked { cycle, blocked } => {
                let list = |rs: &[BlockedRecv]| {
                    rs.iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                };
                if cycle.is_empty() {
                    write!(f, "deadlocked (no send matches): {}", list(blocked))
                } else {
                    write!(f, "deadlocked on cycle: {}", list(cycle))
                }
            }
        }
    }
}

/// Verifies the executives cannot deadlock under posting-send /
/// blocking-receive semantics: `Send` never blocks, `Recv` waits for the
/// matching `Send` to have been posted. Returns [`DeadlockCheck::Free`]
/// iff every processor's sequence runs to completion; otherwise names
/// every blocked receive and extracts the cyclic wait, so a hang is
/// diagnosable before the virtual executive ever launches.
pub fn check_deadlock_free(execs: &[Executive]) -> DeadlockCheck {
    let mut pc = vec![0usize; execs.len()];
    let mut posted: HashSet<(OpId, ProcId, MediumId)> = HashSet::new();
    loop {
        let mut progressed = false;
        for (i, e) in execs.iter().enumerate() {
            while pc[i] < e.instrs.len() {
                match e.instrs[pc[i]] {
                    Instr::Compute { .. } => {
                        pc[i] += 1;
                        progressed = true;
                    }
                    Instr::Send { src_op, medium, .. } => {
                        posted.insert((src_op, e.proc, medium));
                        pc[i] += 1;
                        progressed = true;
                    }
                    Instr::Recv {
                        src_op,
                        medium,
                        from,
                    } => {
                        if posted.contains(&(src_op, from, medium)) {
                            pc[i] += 1;
                            progressed = true;
                        } else {
                            break; // blocked, try another processor
                        }
                    }
                }
            }
        }
        if pc.iter().zip(execs).all(|(&c, e)| c >= e.instrs.len()) {
            return DeadlockCheck::Free;
        }
        if !progressed {
            let blocked: Vec<BlockedRecv> = execs
                .iter()
                .enumerate()
                .filter(|(i, e)| pc[*i] < e.instrs.len())
                .filter_map(|(i, e)| match e.instrs[pc[i]] {
                    Instr::Recv {
                        src_op,
                        medium,
                        from,
                    } => Some(BlockedRecv {
                        proc: e.proc,
                        instr: pc[i],
                        src_op,
                        from,
                        medium,
                    }),
                    _ => None,
                })
                .collect();
            let cycle = wait_cycle(&blocked, execs, &pc);
            return DeadlockCheck::Deadlocked { cycle, blocked };
        }
    }
}

/// Extracts a cyclic wait among the blocked receives: an edge runs from a
/// blocked processor to the blocked processor it waits on, provided the
/// waited-on executive still holds the matching (unreached) `Send`. A
/// receive whose matching send appears nowhere ahead is an orphan, not
/// part of a cycle.
fn wait_cycle(blocked: &[BlockedRecv], execs: &[Executive], pc: &[usize]) -> Vec<BlockedRecv> {
    let index_of: HashMap<ProcId, usize> = blocked
        .iter()
        .enumerate()
        .map(|(i, b)| (b.proc, i))
        .collect();
    let successor = |b: &BlockedRecv| -> Option<usize> {
        let &j = index_of.get(&b.from)?;
        let (ei, e) = execs.iter().enumerate().find(|(_, e)| e.proc == b.from)?;
        let pending_send = e.instrs[pc[ei]..].iter().any(|i| {
            matches!(i, Instr::Send { src_op, medium, .. }
                if *src_op == b.src_op && *medium == b.medium)
        });
        pending_send.then_some(j)
    };
    for start in 0..blocked.len() {
        let mut path = vec![start];
        let mut cur = start;
        while let Some(next) = successor(&blocked[cur]) {
            if let Some(pos) = path.iter().position(|&p| p == next) {
                return path[pos..].iter().map(|&p| blocked[p]).collect();
            }
            path.push(next);
            cur = next;
        }
    }
    Vec::new()
}

/// The timeline produced by [`replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayResult {
    /// Completion instant of every computation, in execution order.
    pub op_end: Vec<(OpId, ProcId, TimeNs)>,
    /// Completion instant of every transfer, in execution order.
    pub comm_end: Vec<(OpId, MediumId, TimeNs)>,
    /// Completion of the last activity.
    pub makespan: TimeNs,
}

/// Executes the executives and communication sequences for one nominal
/// period from instant zero: computations take their WCET, transfers
/// take the medium's latency-plus-rate time and respect the
/// communication sequence's total order, `Recv` blocks until the data
/// has crossed. This is [`execute`] with no deadline and no fault.
///
/// This is an independent re-derivation of the schedule from the
/// *generated code*; for executives produced by [`generate`] from a valid
/// schedule it reproduces the schedule's completion instants exactly.
///
/// # Errors
///
/// Returns [`AaaError::InvalidSchedule`] naming the blocked receives and
/// medium slots if the code stalls — a `Recv` waits for data never sent,
/// or the executives' order contradicts a communication sequence.
/// Impossible for generated code, but the replay guards hand-written
/// executives too.
pub fn replay(generated: &Generated, arch: &ArchitectureGraph) -> Result<ReplayResult, AaaError> {
    let mut op_end = Vec::new();
    let mut comm_end = Vec::new();
    let seqs = &generated.comm_sequences;
    execute(
        generated,
        TimeNs::ZERO,
        None,
        |_| true,
        |si, pos| Some(arch.transfer_time(seqs[si].medium, seqs[si].transfers[pos].data_units)),
        |step| match step {
            Step::Compute { exec, op, end, .. } => {
                op_end.push((op, generated.executives[exec].proc, end));
            }
            Step::Transfer { seq, slot, end, .. } => {
                comm_end.push((seqs[seq].transfers[slot].src_op, seqs[seq].medium, end));
            }
        },
    )
    .map_err(|stall| AaaError::InvalidSchedule {
        reason: format!("executive replay deadlocked: {stall}"),
    })?;
    let makespan = op_end
        .iter()
        .map(|&(_, _, t)| t)
        .chain(comm_end.iter().map(|&(_, _, t)| t))
        .max()
        .unwrap_or(TimeNs::ZERO);
    Ok(ReplayResult {
        op_end,
        comm_end,
        makespan,
    })
}

/// One activity [`execute`] completed, reported in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Executive `exec` (an index into [`Generated::executives`])
    /// computed `op` over `[start, end)`.
    Compute {
        /// Index of the executive.
        exec: usize,
        /// The operation computed.
        op: OpId,
        /// Start instant.
        start: TimeNs,
        /// Completion instant (`start + wcet`).
        end: TimeNs,
        /// `true` if an input never arrived or arrived past the deadline,
        /// so the computation started at the deadline on stale data.
        forced: bool,
    },
    /// Slot `slot` of communication sequence `seq` (an index into
    /// [`Generated::comm_sequences`]) moved its data over `[start, end)`.
    Transfer {
        /// Index of the communication sequence.
        seq: usize,
        /// Position of the transfer in the sequence.
        slot: usize,
        /// Activation instant.
        start: TimeNs,
        /// Arrival instant.
        end: TimeNs,
    },
}

/// Executes one period of the generated code sequentially, on a virtual
/// clock, and reports every computation and transfer to `step` in
/// execution order.
///
/// Every processor clock and every medium starts at `origin`. `Compute`
/// advances the processor's clock by the WCET; `Send` posts the data at
/// the clock without blocking (the first post of a producer on a medium
/// wins); `Recv` waits for the data's arrival and max-merges it into the
/// clock. Each medium moves its sequence in order: a slot starts at
/// `max(data posted, previous slot's arrival)` and lasts what its fate
/// says. The instants are a max/plus fold, so the round-robin order the
/// loop visits processors and media in decides no value.
///
/// * `runs(e)` is `false` for an executive that executes nothing this
///   period (a dead processor), posting nothing.
/// * `fate(seq, slot)` is `None` if the transfer is dropped this period
///   (it posts no arrival), else how long it occupies the medium. It is
///   read more than once per slot, so it must be a function of its slot.
/// * With a `deadline`, a receive whose delivering slots all drop is
///   forced without waiting, as is one whose data arrives past the
///   deadline: the processor's next computation starts at the deadline.
///   A slot after a dropped one, or whose data or predecessor is past
///   the deadline, starts at the deadline. Without a deadline nothing is
///   forced, and a receive of dropped data stalls.
///
/// # Errors
///
/// When no processor and no medium can progress, names every blocked
/// receive and every blocked medium slot: a receive of data no executive
/// sends, or executives whose order contradicts a communication sequence.
pub fn execute(
    generated: &Generated,
    origin: TimeNs,
    deadline: Option<TimeNs>,
    runs: impl Fn(usize) -> bool,
    fate: impl Fn(usize, usize) -> Option<TimeNs>,
    mut step: impl FnMut(Step),
) -> Result<(), String> {
    let execs = &generated.executives;
    let seqs = &generated.comm_sequences;
    // Whether some slot delivers each (producer, sender, medium) this
    // period: under a deadline, a receive whose slots all drop never waits.
    let mut delivers: HashMap<(OpId, ProcId, MediumId), bool> = HashMap::new();
    for (si, seq) in seqs.iter().enumerate() {
        for (pos, t) in seq.transfers.iter().enumerate() {
            let key = (t.src_op, t.from, seq.medium);
            *delivers.entry(key).or_default() |= fate(si, pos).is_some();
        }
    }
    // Posting instant and arrival instant of each (producer, sender, medium).
    let mut posted: HashMap<(OpId, ProcId, MediumId), TimeNs> = HashMap::new();
    let mut arrived: HashMap<(OpId, ProcId, MediumId), TimeNs> = HashMap::new();
    let mut pc: Vec<usize> = execs
        .iter()
        .enumerate()
        .map(|(i, e)| if runs(i) { 0 } else { e.instrs.len() })
        .collect();
    let mut clock = vec![origin; execs.len()];
    // The deadline a processor's next computation is forced to.
    let mut forced_at: Vec<Option<TimeNs>> = vec![None; execs.len()];
    let mut next = vec![0usize; seqs.len()];
    // Arrival of each medium's last delivered slot, and whether the slot
    // after it dropped.
    let mut free = vec![origin; seqs.len()];
    let mut after_drop = vec![false; seqs.len()];

    loop {
        let mut progressed = false;
        for (i, e) in execs.iter().enumerate() {
            while let Some(&ins) = e.instrs.get(pc[i]) {
                match ins {
                    Instr::Compute { op, wcet } => {
                        let forced = forced_at[i].take();
                        let start = forced.unwrap_or(clock[i]);
                        clock[i] = start + wcet;
                        step(Step::Compute {
                            exec: i,
                            op,
                            start,
                            end: clock[i],
                            forced: forced.is_some(),
                        });
                    }
                    Instr::Send { src_op, medium, .. } => {
                        posted.entry((src_op, e.proc, medium)).or_insert(clock[i]);
                    }
                    Instr::Recv {
                        src_op,
                        medium,
                        from,
                    } => {
                        let key = (src_op, from, medium);
                        match (deadline, arrived.get(&key)) {
                            (Some(d), _) if delivers.get(&key) == Some(&false) => {
                                forced_at[i] = Some(d);
                            }
                            (Some(d), Some(&t)) if t > d => forced_at[i] = Some(d),
                            (_, Some(&t)) => clock[i] = clock[i].max(t),
                            (_, None) => break,
                        }
                    }
                }
                pc[i] += 1;
                progressed = true;
            }
        }
        for (si, seq) in seqs.iter().enumerate() {
            while let Some(t) = seq.transfers.get(next[si]) {
                let key = (t.src_op, t.from, seq.medium);
                let Some(duration) = fate(si, next[si]) else {
                    after_drop[si] = true;
                    next[si] += 1;
                    progressed = true;
                    continue;
                };
                let Some(&ready) = posted.get(&key) else {
                    break;
                };
                let start = match deadline {
                    Some(d) if after_drop[si] || free[si] > d || ready > d => d,
                    _ => free[si].max(ready),
                };
                let end = start + duration;
                arrived.entry(key).or_insert(end);
                step(Step::Transfer {
                    seq: si,
                    slot: next[si],
                    start,
                    end,
                });
                free[si] = end;
                after_drop[si] = false;
                next[si] += 1;
                progressed = true;
            }
        }
        if progressed {
            continue;
        }
        // Only a receive blocks a processor, and only a send not yet
        // posted blocks a medium.
        let mut blocked = Vec::new();
        for (i, e) in execs.iter().enumerate() {
            if let Some(&Instr::Recv {
                src_op,
                medium,
                from,
            }) = e.instrs.get(pc[i])
            {
                blocked.push(format!(
                    "{} waits for {src_op} from {from} on {medium}",
                    e.proc
                ));
            }
        }
        for (si, seq) in seqs.iter().enumerate() {
            if let Some(t) = seq.transfers.get(next[si]) {
                let (medium, slot) = (seq.medium, next[si]);
                blocked.push(format!(
                    "{medium} slot {slot} waits for {} from {}",
                    t.src_op, t.from
                ));
            }
        }
        return if blocked.is_empty() {
            Ok(())
        } else {
            Err(blocked.join("; "))
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adequation::{adequation, AdequationOptions};
    use crate::algorithm::AlgorithmGraph;
    use crate::architecture::ArchitectureGraph;
    use crate::timing::TimingDb;

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    fn distributed_case() -> (AlgorithmGraph, ArchitectureGraph, Schedule) {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("sample");
        let f = alg.add_function("control");
        let a = alg.add_actuator("actuate");
        alg.add_edge(s, f, 2).unwrap();
        alg.add_edge(f, a, 2).unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], us(10), us(5)).unwrap();
        let mut db = TimingDb::new();
        db.set(s, p0, us(50));
        db.set(f, p1, us(100));
        db.set(a, p0, us(50));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        schedule.validate(&alg, &arch).unwrap();
        (alg, arch, schedule)
    }

    #[test]
    fn generated_executives_match_schedule_shape() {
        let (alg, arch, schedule) = distributed_case();
        let g = generate(&schedule, &alg, &arch).unwrap();
        assert_eq!(g.executives.len(), 2);
        let e0 = &g.executives[0];
        let count = |f: fn(&Instr) -> bool| e0.instrs.iter().filter(|i| f(i)).count();
        assert_eq!(count(|i| matches!(i, Instr::Compute { .. })), 2, "{e0:?}");
        assert_eq!(count(|i| matches!(i, Instr::Send { .. })), 1);
        assert_eq!(count(|i| matches!(i, Instr::Recv { .. })), 1);
        // One medium sequence with two transfers.
        assert_eq!(g.comm_sequences.len(), 1);
        assert_eq!(g.comm_sequences[0].transfers.len(), 2);
    }

    #[test]
    fn executives_are_deadlock_free() {
        let (alg, arch, schedule) = distributed_case();
        let g = generate(&schedule, &alg, &arch).unwrap();
        assert_eq!(check_deadlock_free(&g.executives), DeadlockCheck::Free);
    }

    #[test]
    fn recv_precedes_dependent_compute() {
        let (alg, arch, schedule) = distributed_case();
        let g = generate(&schedule, &alg, &arch).unwrap();
        let e1 = &g.executives[1];
        let recv_pos = e1
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Recv { .. }))
            .unwrap();
        let comp_pos = e1
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Compute { .. }))
            .unwrap();
        assert!(recv_pos < comp_pos, "{e1:?}");
    }

    #[test]
    fn render_contains_all_mnemonics() {
        let (alg, arch, schedule) = distributed_case();
        let g = generate(&schedule, &alg, &arch).unwrap();
        let text: String = g
            .executives
            .iter()
            .map(|e| render(e, &alg, &arch))
            .collect();
        assert!(text.contains("compute control"));
        assert!(text.contains("send"));
        assert!(text.contains("recv"));
        assert!(text.contains("main_ecu0"));
        assert!(text.contains("endloop"));
        let comm_text = render_comm_sequence(&g.comm_sequences[0], &alg, &arch);
        assert!(comm_text.contains("transfer sample : ecu0 -> ecu1 (2 units)"));
    }

    #[test]
    fn replay_reproduces_schedule_exactly() {
        let (alg, arch, schedule) = distributed_case();
        let g = generate(&schedule, &alg, &arch).unwrap();
        let rep = replay(&g, &arch).unwrap();
        assert_eq!(rep.makespan, schedule.makespan());
        for (op, proc, end) in &rep.op_end {
            let slot = schedule.slot(*op).unwrap();
            assert_eq!(slot.proc, *proc);
            assert_eq!(slot.end, *end, "op {op}");
        }
        for (src, medium, end) in &rep.comm_end {
            let scheduled = schedule
                .comms()
                .iter()
                .find(|c| c.src_op == *src && c.medium == *medium)
                .unwrap();
            assert_eq!(scheduled.end, *end);
        }
    }

    #[test]
    fn broadcast_consumers_get_receives() {
        // Producer on p0; consumers on p1 and p2 sharing the bus: one
        // transfer, but both remote executives must carry a Recv.
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let f1 = alg.add_function("f1");
        let f2 = alg.add_function("f2");
        alg.add_edge(s, f1, 4).unwrap();
        alg.add_edge(s, f2, 4).unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("p0", "arm");
        let p1 = arch.add_processor("p1", "arm");
        let p2 = arch.add_processor("p2", "arm");
        arch.add_bus("bus", &[p0, p1, p2], us(10), us(1)).unwrap();
        let mut db = TimingDb::new();
        db.set(s, p0, us(20));
        db.set(f1, p1, us(30));
        db.set(f2, p2, us(30));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        schedule.validate(&alg, &arch).unwrap();
        let g = generate(&schedule, &alg, &arch).unwrap();
        let recvs_on = |p: usize| {
            g.executives[p]
                .instrs
                .iter()
                .filter(|i| matches!(i, Instr::Recv { .. }))
                .count()
        };
        assert_eq!(recvs_on(1) + recvs_on(2), 2, "{g:?}");
        assert!(check_deadlock_free(&g.executives).is_free());
        // Replay still matches the schedule.
        let rep = replay(&g, &arch).unwrap();
        for (op, _, end) in &rep.op_end {
            assert_eq!(schedule.slot(*op).unwrap().end, *end, "op {op}");
        }
    }

    #[test]
    fn detects_deadlock_in_crossed_receives() {
        // Two processors each waiting first for data the other sends
        // later: a genuine cyclic wait under posting semantics.
        let p0 = ProcId(0);
        let p1 = ProcId(1);
        let m = MediumId(0);
        let a = Executive {
            proc: p0,
            instrs: vec![
                Instr::Recv {
                    src_op: OpId(1),
                    medium: m,
                    from: p1,
                },
                Instr::Send {
                    src_op: OpId(0),
                    medium: m,
                    to: p1,
                },
            ],
        };
        let b = Executive {
            proc: p1,
            instrs: vec![
                Instr::Recv {
                    src_op: OpId(0),
                    medium: m,
                    from: p0,
                },
                Instr::Send {
                    src_op: OpId(1),
                    medium: m,
                    to: p0,
                },
            ],
        };
        let check = check_deadlock_free(&[a.clone(), b]);
        assert!(!check.is_free());
        let DeadlockCheck::Deadlocked { cycle, blocked } = check else {
            panic!("expected deadlock");
        };
        // Both processors are stuck at their first instruction...
        assert_eq!(blocked.len(), 2);
        assert_eq!(blocked[0].proc, p0);
        assert_eq!(blocked[0].instr, 0);
        assert_eq!(blocked[1].proc, p1);
        // ...and the extracted cycle names both waits: p0 waits on p1's
        // data, p1 waits on p0's.
        assert_eq!(cycle.len(), 2);
        let waits: Vec<(ProcId, ProcId, OpId)> =
            cycle.iter().map(|b| (b.proc, b.from, b.src_op)).collect();
        assert!(waits.contains(&(p0, p1, OpId(1))));
        assert!(waits.contains(&(p1, p0, OpId(0))));
        // Each cycle entry waits on the next (circularly).
        for (i, b) in cycle.iter().enumerate() {
            assert_eq!(b.from, cycle[(i + 1) % cycle.len()].proc);
        }
        // A lone receive with no sender at all also deadlocks, but with no
        // cycle to report: it is an orphan wait.
        let check = check_deadlock_free(&[a]);
        let DeadlockCheck::Deadlocked { cycle, blocked } = check else {
            panic!("expected deadlock");
        };
        assert!(cycle.is_empty(), "{cycle:?}");
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].from, p1);
    }

    #[test]
    fn extracts_cycle_in_three_processor_ring() {
        // p0 waits on p1, p1 waits on p2, p2 waits on p0 — and a fourth
        // processor waits on p0 from outside the ring: the cycle holds
        // exactly the ring, the blocked list all four.
        let m = MediumId(0);
        let ring = |proc: usize, from: usize| Executive {
            proc: ProcId(proc),
            instrs: vec![
                Instr::Recv {
                    src_op: OpId(from),
                    medium: m,
                    from: ProcId(from),
                },
                Instr::Send {
                    src_op: OpId(proc),
                    medium: m,
                    to: ProcId((proc + 1) % 3),
                },
            ],
        };
        let outsider = Executive {
            proc: ProcId(3),
            instrs: vec![Instr::Recv {
                src_op: OpId(0),
                medium: m,
                from: ProcId(0),
            }],
        };
        let execs = [ring(0, 1), ring(1, 2), ring(2, 0), outsider];
        let DeadlockCheck::Deadlocked { cycle, blocked } = check_deadlock_free(&execs) else {
            panic!("expected deadlock");
        };
        assert_eq!(blocked.len(), 4);
        assert_eq!(cycle.len(), 3, "{cycle:?}");
        assert!(cycle.iter().all(|b| b.proc.0 < 3), "{cycle:?}");
        for (i, b) in cycle.iter().enumerate() {
            assert_eq!(b.from, cycle[(i + 1) % cycle.len()].proc);
        }
    }

    #[test]
    fn crossed_sends_are_fine_under_posting_semantics() {
        // Both send first, then receive: no deadlock with non-blocking
        // sends (the communication sequences do the moving).
        let p0 = ProcId(0);
        let p1 = ProcId(1);
        let m = MediumId(0);
        let a = Executive {
            proc: p0,
            instrs: vec![
                Instr::Send {
                    src_op: OpId(0),
                    medium: m,
                    to: p1,
                },
                Instr::Recv {
                    src_op: OpId(1),
                    medium: m,
                    from: p1,
                },
            ],
        };
        let b = Executive {
            proc: p1,
            instrs: vec![
                Instr::Send {
                    src_op: OpId(1),
                    medium: m,
                    to: p0,
                },
                Instr::Recv {
                    src_op: OpId(0),
                    medium: m,
                    from: p0,
                },
            ],
        };
        assert!(check_deadlock_free(&[a, b]).is_free());
    }

    #[test]
    fn replay_rejects_orphan_recv() {
        let g = Generated {
            executives: vec![Executive {
                proc: ProcId(0),
                instrs: vec![Instr::Recv {
                    src_op: OpId(0),
                    medium: MediumId(0),
                    from: ProcId(1),
                }],
            }],
            comm_sequences: vec![],
        };
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("p0", "arm");
        let Err(AaaError::InvalidSchedule { reason }) = replay(&g, &arch) else {
            panic!("expected a stalled replay");
        };
        assert!(
            reason.contains("p0 waits for op0 from p1 on m0"),
            "{reason}"
        );
    }

    #[test]
    fn empty_executives_trivially_fine() {
        assert!(check_deadlock_free(&[]).is_free());
        let g = Generated {
            executives: vec![],
            comm_sequences: vec![],
        };
        let arch = ArchitectureGraph::new();
        let rep = replay(&g, &arch).unwrap();
        assert_eq!(rep.makespan, TimeNs::ZERO);
    }
}
