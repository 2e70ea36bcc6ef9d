//! In-memory span tracing around calls into the library's public API.
//!
//! A span records its name, start, end, the span open on the same thread
//! when it began (its parent), and an optional request id. Spans are kept in
//! memory while the benchmark runs and written out once at the end. When
//! tracing is off, opening a span costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<Span>,
}

/// Opens a span named `name` as a child of the innermost span open on this
/// thread.
pub fn span(name: &'static str) -> Guard {
    open(name, None)
}

/// Like [`span`], tagged with the request it serves.
pub fn span_req(name: &'static str, request: u64) -> Guard {
    open(name, Some(request))
}

fn open(name: &'static str, request: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        open: Some(Span {
            id,
            parent,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            request,
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end_ns = now_ns();
            OPEN.with(|s| s.borrow_mut().retain(|&open| open != span.id));
            SPANS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(span);
        }
    }
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Self time of every span, in nanoseconds, keyed by span id: its duration
/// minus the part of its interval that its children cover. Overlapping
/// children (from threads sharing a parent) are counted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Sum of self time per span name, in nanoseconds, with the span count.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += selfs[&s.id];
        e.1 += 1;
    }
    out
}

/// Spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"request\":{}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            selfs[&s.id],
            s.request.map_or("null".to_string(), |r| r.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 30),
            sp(3, Some(1), 40, 70),
            sp(4, Some(3), 50, 60),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 50);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 20);
        assert_eq!(s[&4], 10);
        // Self times tile the root's interval exactly.
        assert_eq!(s.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let spans = [
            sp(1, None, 100, 200),
            sp(2, Some(1), 90, 150),
            sp(3, Some(1), 120, 160),
            sp(4, Some(1), 190, 250),
        ];
        let s = self_times(&spans);
        // Covered: [100,160) from the first two, [190,200) from the last.
        assert_eq!(s[&1], 30);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let s = self_times(&[sp(7, None, 5, 9)]);
        assert_eq!(s[&7], 4);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        set_enabled(true);
        {
            let _outer = span("outer");
            let _inner = span_req("inner", 42);
        }
        set_enabled(false);
        let _ignored = span("off");
        let spans = take();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(42));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.name != "off"));
    }
}
