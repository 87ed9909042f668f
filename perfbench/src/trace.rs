//! In-memory host-time span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around its
//! calls into each layer (`ClusterBuilder::build`, `GroupBuilder`,
//! `KvDb`, `OpGenerator`, `ShardRouter`, `ShardExecutor`,
//! `Engine::run_*`) and around the benchmark's own callbacks. A span's
//! name is `<layer>.<what>`; the part before the first `.` names the
//! layer its self time is charged to.
//!
//! Recording is off unless [`enable`] was called, and then costs two
//! clock reads and one `Vec` push per span. Each thread records into
//! its own buffer; shard jobs on executor threads hand theirs back with
//! the job result ([`take`]) and the caller grafts them under its own
//! span ([`adopt`]).

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

// A statistic switch set once before any worker thread starts; thread
// spawn orders it, so `Relaxed` publishes nothing else.
static ON: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One recorded span. Times are host nanoseconds since [`enable`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    /// User op the span belongs to (0 when it belongs to none).
    pub op: u64,
    /// Recording thread: 0 for the main thread, `1 + shard` for jobs.
    pub thread: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span's self time is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turn recording on for every thread of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ON.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get().map_or(0, |e| {
        u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

/// Open span guard; the span ends when the guard drops.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<u32>);

impl Guard {
    /// Index of the span in this thread's buffer (`None` when off).
    pub fn id(&self) -> Option<u32> {
        self.0
    }
}

/// Open a span named `name` for user op `op` (0 for none).
pub fn span(name: &'static str, op: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = u32::try_from(l.spans.len()).expect("fewer than 2^32 spans");
        let parent = l.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = now_ns();
        l.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            thread: 0,
        });
        l.stack.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.spans[idx as usize].end_ns = end;
                l.stack.pop();
            });
        }
    }
}

/// Run `f` inside a span.
pub fn timed<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    let _g = span(name, op);
    f()
}

/// Take every span this thread recorded so far.
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Run `f` with a fresh span buffer and return its spans beside its
/// result; the thread's own buffer is untouched. A shard job runs this
/// way whichever thread the executor gives it.
pub fn isolated<R>(f: impl FnOnce() -> R) -> (R, Vec<Span>) {
    let outer = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    let r = f();
    let inner = LOCAL.with(|l| std::mem::replace(&mut *l.borrow_mut(), outer));
    (r, inner.spans)
}

/// Append spans recorded on another thread to this thread's buffer,
/// tagging them with `thread` and hanging their roots under `parent`.
pub fn adopt(spans: Vec<Span>, parent: u32, thread: u32) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let base = u32::try_from(l.spans.len()).expect("fewer than 2^32 spans");
        l.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + base
            };
            s.thread = thread;
            s
        }));
    });
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children on other threads may overlap each other,
/// so the covered part is the union of their intervals).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total duration and count of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
}

/// Write spans as tab-separated lines (index, thread, name, start,
/// end, parent, op) under a header line.
pub fn write_tsv(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "idx\tthread\tname\tstart_ns\tend_ns\tparent\top")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{parent}\t{}",
            s.thread, s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            sp("hl-cluster.exec", 0, 100, NO_PARENT),
            // Two worker threads: [10, 60) and [40, 90) overlap.
            sp("hl-cluster.job", 10, 60, 0),
            sp("hl-cluster.job", 40, 90, 0),
            sp("hl-sim.run", 20, 50, 1),
        ];
        assert_eq!(self_ns(&spans), vec![20, 20, 50, 30]);
    }

    #[test]
    fn isolated_spans_leave_the_callers_buffer_alone() {
        enable();
        let _ = take();
        let outer = span("bench.round", 0);
        let ((), inner) = isolated(|| drop(span("hl-cluster.job", 0)));
        drop(outer);
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].parent, NO_PARENT);
        let mine = take();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "bench.round");
        assert!(mine[0].end_ns >= mine[0].start_ns);
    }

    #[test]
    fn adopted_spans_hang_under_the_given_parent() {
        let theirs = vec![
            sp("hl-cluster.job", 5, 9, NO_PARENT),
            sp("hl-sim.run", 6, 8, 0),
        ];
        let _ = take();
        enable();
        let g = span("hl-cluster.exec", 0);
        let parent = g.id().expect("recording is on");
        adopt(theirs, parent, 3);
        drop(g);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[1].thread), (parent, 3));
        assert_eq!(spans[2].parent, 1);
    }
}
