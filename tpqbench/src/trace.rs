//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder's
//! epoch), the span that caused it, and the operation it belongs to.
//! Spans open on a per-thread stack, so a span started while another is
//! open becomes its child; work handed to another thread names its parent
//! explicitly with [`child_of`]. Nothing is written while the run
//! measures: spans stay in memory until [`drain`].
//!
//! With recording off (the end-to-end runs) every call returns an inert
//! guard without reading the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// Id of the span that caused this one, 0 for an operation's root.
    pub parent: u64,
    /// Operation the span belongs to.
    pub op: u64,
    /// Layer-qualified name, such as `core.cdm`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a span sits: its own id and its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    id: u64,
    op: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn closed() -> &'static Mutex<Vec<SpanRec>> {
    static CLOSED: OnceLock<Mutex<Vec<SpanRec>>> = OnceLock::new();
    CLOSED.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static STACK: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// An open span; it closes (and is recorded) when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    rec: Option<SpanRec>,
}

impl Span {
    fn open(name: &'static str, parent: Option<Ctx>, op: u64) -> Span {
        if !enabled() {
            return Span { rec: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let (parent, op) = match parent {
            Some(p) => (p.id, p.op),
            None => (0, op),
        };
        STACK.with(|s| s.borrow_mut().push(Ctx { id, op }));
        Span { rec: Some(SpanRec { id, parent, op, name, start_ns: now_ns(), end_ns: 0 }) }
    }

    /// This span's context, for handing its children to other threads.
    pub fn ctx(&self) -> Option<Ctx> {
        self.rec.as_ref().map(|r| Ctx { id: r.id, op: r.op })
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            rec.end_ns = now_ns();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|c| c.id == rec.id) {
                    s.remove(pos);
                }
            });
            closed().lock().unwrap_or_else(|p| p.into_inner()).push(rec);
        }
    }
}

/// Open the root span of operation `op`.
pub fn op(name: &'static str, op: u64) -> Span {
    Span::open(name, None, op)
}

/// Open a span under the innermost open span of this thread (an
/// operation root of op 0 when none is open).
pub fn span(name: &'static str) -> Span {
    let parent = STACK.with(|s| s.borrow().last().copied());
    Span::open(name, parent, 0)
}

/// Open a span under an explicit parent, typically on a worker thread.
pub fn child_of(name: &'static str, parent: Option<Ctx>) -> Span {
    Span::open(name, parent, 0)
}

/// Take every closed span recorded so far, in closing order.
pub fn drain() -> Vec<SpanRec> {
    std::mem::take(&mut *closed().lock().unwrap_or_else(|p| p.into_inner()))
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children, as on parallel workers,
/// count once). Returned parallel to `spans`.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered =
                children.get_mut(&s.id).map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStat {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

impl NameStat {
    /// Mean self time per span, microseconds (0 when none ran).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Aggregate spans by name.
pub fn by_name(spans: &[SpanRec], self_ns: &[u64]) -> BTreeMap<&'static str, NameStat> {
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(self_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
    }
    out
}

/// Render spans with their self times as JSON lines.
pub fn to_json_lines(spans: &[SpanRec], self_ns: &[u64]) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_ns) {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, own
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { id, parent, op: 1, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans =
            vec![rec(1, 0, 0, 100), rec(2, 1, 10, 30), rec(3, 1, 50, 60), rec(4, 2, 12, 20)];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel workers under one fan-out span.
        let spans = vec![rec(1, 0, 0, 100), rec(2, 1, 10, 60), rec(3, 1, 40, 90)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![rec(1, 0, 10, 50), rec(2, 1, 0, 20), rec(3, 1, 45, 70)];
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn recorder_nests_and_aggregates() {
        set_enabled(true);
        {
            let root = op("t.root", 7);
            {
                let _a = span("t.child");
            }
            let ctx = root.ctx();
            std::thread::spawn(move || {
                let _w = child_of("t.worker", ctx);
                let _inner = span("t.inner");
            })
            .join()
            .unwrap();
        }
        set_enabled(false);
        let spans: Vec<SpanRec> =
            drain().into_iter().filter(|s| s.name.starts_with("t.")).collect();
        let find = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, child, worker, inner) =
            (find("t.root"), find("t.child"), find("t.worker"), find("t.inner"));
        assert_eq!((root.parent, root.op), (0, 7));
        assert_eq!((child.parent, child.op), (root.id, 7));
        assert_eq!((worker.parent, worker.op), (root.id, 7));
        assert_eq!(inner.parent, worker.id);
        let own = self_times(&spans);
        let stats = by_name(&spans, &own);
        assert_eq!(stats["t.root"].count, 1);
        assert!(stats["t.root"].self_ns <= root.dur_ns());
        assert!(to_json_lines(&spans, &own).lines().count() == 4);
        // Off: no clock reads, nothing recorded.
        let _ = span("t.off");
        assert!(drain().iter().all(|s| s.name != "t.off"));
    }
}
