//! In-memory span recording for the traced runs.
//!
//! Each worker owns a [`Recorder`]; spans carry a name, start and end
//! (ns since a shared epoch), the index of their parent span and the
//! scenario or request id they belong to. Nothing is shared on the hot
//! path; recorders merge after the pool joins and are written out at
//! the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `aaa.adequation`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the parent span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Scenario index or request id.
    pub id: u64,
}

/// A per-worker span buffer.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// An empty buffer timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::with_capacity(1 << 14),
            stack: Vec::new(),
        }
    }

    /// ns since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span; close it
    /// with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, id: u64) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let index = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
        });
        self.stack.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn close(&mut self, index: u32) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index as usize].end = self.now();
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.open(name, id);
        let out = f(self);
        self.close(index);
        out
    }

    /// Renames the span opened most recently by [`span`](Self::span)
    /// once its outcome (hit or miss) is known. Call right after it
    /// returns.
    pub fn rename_last_closed(&mut self, name: &'static str) {
        // The last span pushed at the current depth is the one that just
        // closed, or a descendant of it; walk up to the current depth.
        let depth_parent = self.stack.last().copied().unwrap_or(ROOT);
        if let Some(s) = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.parent == depth_parent)
        {
            s.name = name;
        }
    }
}

/// Per-name totals over a set of recorders.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration in µs (0 when the name never occurred).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Aggregates spans by name, with self time computed from each span's
/// direct children.
pub fn aggregate<'a>(
    recorders: impl IntoIterator<Item = &'a Recorder>,
) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, &children) in rec.spans.iter().zip(&child_ns) {
            let a = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(children);
        }
    }
    out
}

/// Writes every span as one tab-separated line:
/// `worker name start_ns end_ns parent id`.
pub fn write_tsv<'a>(
    path: &Path,
    recorders: impl IntoIterator<Item = &'a Recorder>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "worker\tname\tstart_ns\tend_ns\tparent\tid")?;
    for (worker, rec) in recorders.into_iter().enumerate() {
        for s in &rec.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{worker}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.id
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("outer", 1, |rec| {
            rec.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            rec.rename_last_closed("inner.hit");
        });
        let agg = aggregate([&rec]);
        let outer = agg["outer"];
        let inner = agg["inner.hit"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(rec.spans[1].parent, 0);
        assert_eq!(rec.spans[0].parent, ROOT);
    }
}
