//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer's public
//! functions in [`span`]. While recording is on, each call leaves a
//! [`SpanRec`] (name, start, end, parent span, point id, thread and the
//! thread's allocation count) in a process-wide buffer that is only read
//! when the run ends. While recording is off, [`span`] is a flag check
//! and a direct call, so the untraced passes measure the library alone.

use crate::alloc::thread_allocs;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span, or 0 for a root.
    pub parent: u64,
    /// Layer name, e.g. `sim.simulate`.
    pub name: &'static str,
    /// Index of the workload point the span belongs to, if any.
    pub point: Option<usize>,
    /// Recording thread, numbered in order of first use.
    pub thread: u32,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Allocation calls the thread made inside the span, children included.
    pub allocs: u64,
}

impl SpanRec {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

// Recording publishes nothing through these atomics except the flag and
// counters themselves; the span buffer is behind its own mutex, so
// `Relaxed` suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
/// Parent adopted by the first span of a thread with no open span: the
/// open `sim.sweep` span, whose workers are threads the library spawns.
static ADOPTED_PARENT: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static POINT: Cell<Option<usize>> = const { Cell::new(None) };
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn thread_no() -> u32 {
    THREAD.with(|t| match t.get() {
        Some(n) => n,
        None => {
            let n = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(n));
            n
        }
    })
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Pops the thread's span stack even if the measured call panics.
struct Open;

impl Drop for Open {
    fn drop(&mut self) {
        STACK.with(|s| s.borrow_mut().pop());
    }
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| ADOPTED_PARENT.load(Ordering::Relaxed));
        s.push(id);
        parent
    });
    let guard = Open;
    let a0 = thread_allocs();
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let allocs = thread_allocs() - a0;
    drop(guard);
    let rec = SpanRec {
        id,
        parent,
        name,
        point: POINT.with(Cell::get),
        thread: thread_no(),
        start_ns,
        end_ns,
        allocs,
    };
    SPANS.lock().expect("span buffer poisoned").push(rec);
    out
}

/// Runs `f` as workload point `index`: a `bench.point` span whose
/// descendants carry the point id.
pub fn point<R>(index: usize, f: impl FnOnce() -> R) -> R {
    let before = POINT.with(|p| p.replace(Some(index)));
    let out = span("bench.point", f);
    POINT.with(|p| p.set(before));
    out
}

/// Runs `f` (which fans out over library-spawned worker threads) inside a
/// `sim.sweep` span that the workers' first spans adopt as parent.
pub fn sweep<R>(f: impl FnOnce() -> R) -> R {
    span("sim.sweep", || {
        let id = STACK.with(|s| s.borrow().last().copied()).unwrap_or(0);
        ADOPTED_PARENT.store(id, Ordering::Relaxed);
        let out = f();
        ADOPTED_PARENT.store(0, Ordering::Relaxed);
        out
    })
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Σ duration of the spans named `name`, in ms.
pub fn total_ms(spans: &[SpanRec], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Calls (spans) recorded.
    pub calls: u64,
    /// Σ duration minus the part of it the span's children cover.
    pub self_ns: u64,
    /// Σ allocations minus those of same-thread children.
    pub self_allocs: u64,
}

/// Self time and self allocations per span name.
pub fn totals(spans: &[SpanRec]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let cover = covered(
            kids.iter().map(|k| (k.start_ns, k.end_ns)).collect(),
            s.start_ns,
            s.end_ns,
        );
        let kid_allocs: u64 = kids
            .iter()
            .filter(|k| k.thread == s.thread)
            .map(|k| k.allocs)
            .sum();
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += s.duration_ns() - cover;
        t.self_allocs += s.allocs.saturating_sub(kid_allocs);
    }
    out
}

/// The spans as a JSON array (times in microseconds since the epoch).
pub fn to_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let point = s.point.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"point\": {}, \"thread\": {}, \"start_us\": {}, \"end_us\": {}, \"allocs\": {}}}{}\n",
            s.id,
            s.parent,
            s.name,
            point,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.allocs,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}
