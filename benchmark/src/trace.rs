//! In-memory wall-clock spans around the benchmark's calls into each layer,
//! written out at exit as Chrome `trace_event` JSON (loads in Perfetto).
//!
//! Spans are recorded only while tracing is enabled, so the untraced runs
//! that produce the end-to-end numbers pay one relaxed load per call site.
//! Each span carries its run id (one per traced job), its parent (the span
//! open on the same thread, or the one handed to a fleet worker via
//! [`within`]), and the recording thread's track.

use serde::Value;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RUN: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TRACK: Cell<Option<u32>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn track() -> u32 {
    TRACK.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Start recording spans under a fresh run id; returns the id.
pub fn begin_run() -> u64 {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
    RUN.fetch_add(1, Ordering::SeqCst) + 1
}

/// Stop recording.
pub fn end_run() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Time `f` as a span of `layer`. A plain call while tracing is off.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start = epoch().elapsed().as_nanos() as u64;
    let out = f();
    let end = epoch().elapsed().as_nanos() as u64;
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        run: RUN.load(Ordering::Relaxed),
        layer,
        name,
        track: track(),
        start_ns: start,
        end_ns: end,
    };
    SPANS.lock().expect("span store poisoned").push(span);
    out
}

/// The span open on this thread, to hand to work running on other threads.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Run `f` with `parent` as this thread's enclosing span, so spans opened on
/// a fleet worker hang under the batch span that issued the job.
pub fn within<T>(parent: Option<u64>, f: impl FnOnce() -> T) -> T {
    let Some(parent) = parent else { return f() };
    STACK.with(|s| s.borrow_mut().push(parent));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    out
}

/// Remove and return every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children on other tracks may overlap each
/// other, so the covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.as_ref().and_then(|p| index.get(p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Chrome `trace_event` JSON: one complete (`"X"`) event per span, one
/// process per workload (`pid`), one track per recording thread.
pub fn chrome_events(pid: u64, process: &str, spans: &[Span]) -> Vec<Value> {
    let mut events = vec![meta(pid, 0, "process_name", process)];
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in tracks {
        events.push(meta(pid, t, "thread_name", &format!("thread-{t}")));
    }
    for s in spans {
        let mut args = vec![
            ("id".to_string(), Value::U64(s.id)),
            ("run".to_string(), Value::U64(s.run)),
            ("layer".to_string(), Value::Str(s.layer.into())),
        ];
        if let Some(p) = s.parent {
            args.push(("parent".into(), Value::U64(p)));
        }
        events.push(Value::Object(vec![
            ("name".into(), Value::Str(s.name.into())),
            ("cat".into(), Value::Str(s.layer.into())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::F64(s.start_ns as f64 / 1e3)),
            ("dur".into(), Value::F64(s.dur_ns() as f64 / 1e3)),
            ("pid".into(), Value::U64(pid)),
            ("tid".into(), Value::U64(s.track as u64)),
            ("args".into(), Value::Object(args)),
        ]));
    }
    events
}

fn meta(pid: u64, tid: u32, kind: &str, name: &str) -> Value {
    Value::Object(vec![
        ("name".into(), Value::Str(kind.into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::U64(pid)),
        ("tid".into(), Value::U64(tid as u64)),
        ("args".into(), Value::Object(vec![("name".into(), Value::Str(name.into()))])),
    ])
}

/// Wrap trace events into the top-level document.
pub fn chrome_document(events: Vec<Value>) -> Value {
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span { id, parent, run: 1, layer: "l", name: "n", track: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (parallel tracks) cover [10, 60).
        let spans = [s(1, None, 0, 100), s(2, Some(1), 10, 50), s(3, Some(1), 30, 60)];
        assert_eq!(self_times(&spans), vec![50, 40, 30]);
    }
}
