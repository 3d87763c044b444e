//! The flight recorder: always-on span tracing with bounded per-thread
//! ring buffers and Chrome-trace / JSON-lines exporters.
//!
//! The paper's view mechanism makes cost *invisible by design*: a caller
//! cannot tell a stored attribute from a computed one (§2), or a cache hit
//! from a full virtual-class recompute. [`crate::metrics`] aggregates those
//! events into counters; this module keeps the **time dimension** — what
//! every thread was doing, span by span, in the moments before a latency
//! spike. All three crates emit here: store mutations, journal delta
//! serving and index lookups (`ov-oodb`), query stages and compiled scans
//! (`ov-query`), and view binding / population / hide processing
//! (`ov-views`).
//!
//! ## Design
//!
//! * **Disabled path is one relaxed atomic load.** [`span!`](crate::span) checks
//!   [`enabled`] first and returns an inert guard without touching
//!   thread-local state — proved by `disabled_path_touches_nothing` below.
//! * **Bounded.** Each thread owns a ring of the last
//!   [`DEFAULT_THREAD_CAPACITY`] (~64K) completed spans; the oldest are
//!   overwritten, never reallocated past the cap, so the recorder can stay
//!   on in production indefinitely.
//! * **Writers never block.** Every ring has exactly one writer (its owning
//!   thread), so writers never contend with each other. The only reader is
//!   a dump, which briefly holds the ring's lock; an emitting thread that
//!   loses that race `try_lock`s a side buffer instead, and in the
//!   (doubly-rare) worst case drops the span and counts it in
//!   [`TraceRecorder::dropped`]. No emit path ever parks a thread.
//! * **Exporters.** [`TraceRecorder::dump_chrome_trace`] writes the Chrome
//!   trace-event format (loadable in `chrome://tracing` and
//!   [Perfetto](https://ui.perfetto.dev)); [`TraceRecorder::dump_jsonl`]
//!   writes one JSON object per span. Both emit spans and argument keys in
//!   sorted order so dumps diff cleanly across runs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::symbol::Symbol;

/// Default per-thread ring capacity, in spans (~64K).
pub const DEFAULT_THREAD_CAPACITY: usize = 64 * 1024;

/// Maximum key/value fields a span can carry.
pub const MAX_FIELDS: usize = 4;

/// Master switch. Reading it is the *entire* cost of the disabled path.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Span id allocator (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Is tracing enabled? One relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on or off. Spans already recorded are kept.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One value of a span field. Deliberately `Copy`: ring slots are
/// overwritten in place and must not drag heap allocations around.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned quantity (counts, sizes, versions).
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A static label (path names, outcomes).
    Str(&'static str),
    /// An interned identifier (class and attribute names).
    Sym(Symbol),
}

impl FieldValue {
    /// Renders the value as it should appear in JSON (numbers bare,
    /// strings quoted).
    fn to_json(self) -> String {
        match self {
            FieldValue::U64(n) => n.to_string(),
            FieldValue::I64(n) => n.to_string(),
            FieldValue::Str(s) => json_str(s),
            FieldValue::Sym(s) => json_str(s.as_str()),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(n: u64) -> FieldValue {
        FieldValue::U64(n)
    }
}
impl From<usize> for FieldValue {
    fn from(n: usize) -> FieldValue {
        FieldValue::U64(n as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(n: i64) -> FieldValue {
        FieldValue::I64(n)
    }
}
impl From<bool> for FieldValue {
    fn from(b: bool) -> FieldValue {
        FieldValue::Str(if b { "true" } else { "false" })
    }
}
impl From<&'static str> for FieldValue {
    fn from(s: &'static str) -> FieldValue {
        FieldValue::Str(s)
    }
}
impl From<Symbol> for FieldValue {
    fn from(s: Symbol) -> FieldValue {
        FieldValue::Sym(s)
    }
}

/// One span key/value pair.
pub type Field = (&'static str, FieldValue);

/// One completed span, as stored in a ring slot.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Unique span id (process-wide, monotonically increasing).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root span.
    pub parent: u64,
    /// Static span name (`"view.population"`, `"store.insert"`, …).
    pub name: &'static str,
    /// Recorder-assigned thread ordinal (1, 2, …) — stable per thread.
    pub thread: u64,
    /// Start time, in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub dur_ns: u64,
    /// Up to [`MAX_FIELDS`] key/value fields, in insertion order.
    pub fields: [Option<Field>; MAX_FIELDS],
}

impl SpanRecord {
    /// The fields actually set, sorted by key (stable JSON output).
    fn sorted_fields(&self) -> Vec<Field> {
        let mut v: Vec<Field> = self.fields.iter().flatten().copied().collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }
}

/// The bounded span storage of one thread: a ring of the last `capacity`
/// completed spans, oldest overwritten first.
#[derive(Debug)]
struct RingBuf {
    slots: Vec<SpanRecord>,
    /// Next slot to (over)write.
    next: usize,
    /// Has the ring wrapped at least once?
    wrapped: bool,
    capacity: usize,
}

impl RingBuf {
    fn new(capacity: usize) -> RingBuf {
        RingBuf {
            // Grow lazily: a short-lived worker thread that emits a handful
            // of spans must not pay for 64K slots up front.
            slots: Vec::new(),
            next: 0,
            wrapped: false,
            capacity: capacity.max(1),
        }
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.slots.len() < self.capacity {
            self.slots.push(rec);
            self.next = self.slots.len() % self.capacity;
            if self.next == 0 && self.slots.len() == self.capacity {
                self.wrapped = true;
            }
        } else {
            self.slots[self.next] = rec;
            self.next = (self.next + 1) % self.capacity;
            self.wrapped = true;
        }
    }

    /// The retained spans, oldest first.
    fn in_order(&self) -> Vec<SpanRecord> {
        if !self.wrapped || self.slots.len() < self.capacity {
            return self.slots.clone();
        }
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
        out
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.next = 0;
        self.wrapped = false;
    }
}

/// One registered thread's recorder state. Exactly one writer (the owning
/// thread); a dump is the only other reader, so the `try_lock` on `buf`
/// fails for a writer only while a dump is copying this very ring.
#[derive(Debug)]
struct ThreadRing {
    /// Recorder-assigned ordinal, starting at 1.
    ordinal: u64,
    /// The thread's name at registration (for Chrome metadata events).
    name: String,
    buf: Mutex<RingBuf>,
    /// Overflow for spans emitted while a dump holds `buf`; drained into
    /// the ring on the next uncontended emit or dump.
    pending: Mutex<VecDeque<SpanRecord>>,
    /// Spans dropped because both locks were held (a dump raced two deep).
    dropped: AtomicU64,
}

impl ThreadRing {
    /// Non-blocking emit: ring first, side buffer second, drop-and-count
    /// last. Never parks the calling thread.
    fn emit(&self, rec: SpanRecord) {
        if let Some(mut buf) = self.buf.try_lock() {
            if let Some(mut pending) = self.pending.try_lock() {
                for r in pending.drain(..) {
                    buf.push(r);
                }
            }
            buf.push(rec);
        } else if let Some(mut pending) = self.pending.try_lock() {
            pending.push_back(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The retained spans, oldest first (dump path; may block briefly).
    fn snapshot(&self) -> Vec<SpanRecord> {
        let mut buf = self.buf.lock();
        let mut pending = self.pending.lock();
        for r in pending.drain(..) {
            buf.push(r);
        }
        buf.in_order()
    }
}

/// The process-wide flight recorder: the registry of per-thread rings and
/// the exporters. Obtain it with [`recorder`].
#[derive(Debug)]
pub struct TraceRecorder {
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    epoch: Instant,
    thread_capacity: AtomicUsize,
}

/// The process-wide recorder.
pub fn recorder() -> &'static TraceRecorder {
    static GLOBAL: OnceLock<TraceRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| TraceRecorder {
        rings: Mutex::new(Vec::new()),
        epoch: Instant::now(),
        thread_capacity: AtomicUsize::new(DEFAULT_THREAD_CAPACITY),
    })
}

impl TraceRecorder {
    /// Nanoseconds since the recorder epoch (all span timestamps share it).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the per-thread ring capacity for threads registered *after*
    /// this call (existing rings keep theirs).
    #[cfg(test)]
    fn set_thread_capacity(&self, capacity: usize) {
        self.thread_capacity
            .store(capacity.max(1), Ordering::Relaxed);
    }

    /// Number of threads that have ever registered a ring.
    pub fn thread_count(&self) -> usize {
        self.rings.lock().len()
    }

    /// Total spans dropped across all threads (emit raced a dump twice).
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Empties every ring (rings stay registered; ids keep increasing).
    pub fn clear(&self) {
        for ring in self.rings.lock().iter() {
            ring.buf.lock().clear();
            ring.pending.lock().clear();
        }
    }

    fn register_thread(&self) -> Arc<ThreadRing> {
        let mut rings = self.rings.lock();
        let ordinal = rings.len() as u64 + 1;
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{ordinal}"), str::to_owned);
        let ring = Arc::new(ThreadRing {
            ordinal,
            name,
            buf: Mutex::new(RingBuf::new(self.thread_capacity.load(Ordering::Relaxed))),
            pending: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        });
        rings.push(ring.clone());
        ring
    }

    /// Every retained span across all threads, sorted by
    /// `(thread, start_ns, id)` — a deterministic order for exporters and
    /// tests.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let rings: Vec<Arc<ThreadRing>> = self.rings.lock().clone();
        let mut out: Vec<SpanRecord> = rings.iter().flat_map(|r| r.snapshot()).collect();
        out.sort_by_key(|s| (s.thread, s.start_ns, s.id));
        out
    }

    /// Serializes the retained spans in the Chrome trace-event format —
    /// load the result in `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev). Complete (`"ph":"X"`) events
    /// with microsecond timestamps; span fields appear under `args`, keys
    /// sorted.
    pub fn dump_chrome_trace(&self) -> String {
        let spans = self.snapshot();
        let threads: Vec<(u64, String)> = self
            .rings
            .lock()
            .iter()
            .map(|r| (r.ordinal, r.name.clone()))
            .collect();
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        let mut first = true;
        for (tid, name) in &threads {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": {}}}}}",
                json_str(name)
            );
        }
        for s in &spans {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{",
                s.thread,
                json_str(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
            // The span's own id/parent ride along in `args`; merge them
            // with the user fields so the whole object stays key-sorted.
            let mut args: Vec<(&str, String)> = s
                .sorted_fields()
                .into_iter()
                .map(|(k, v)| (k, v.to_json()))
                .collect();
            args.push(("id", s.id.to_string()));
            args.push(("parent", s.parent.to_string()));
            args.sort_by_key(|&(k, _)| k);
            for (i, (k, v)) in args.into_iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{}: {v}", json_str(k));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Serializes the retained spans as JSON lines: one object per span,
    /// keys in sorted order, spans in `(thread, start_ns, id)` order.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            let _ = write!(out, "{{\"dur_ns\": {}, \"fields\": {{", s.dur_ns);
            for (i, (k, v)) in s.sorted_fields().into_iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{}: {}", json_str(k), v.to_json());
            }
            let _ = writeln!(
                out,
                "}}, \"id\": {}, \"name\": {}, \"parent\": {}, \"thread\": {}, \"ts_ns\": {}}}",
                s.id,
                json_str(s.name),
                s.parent,
                s.thread,
                s.start_ns,
            );
        }
        out
    }
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// Quotes and escapes a string for JSON.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-thread recorder state: this thread's ring plus the stack of open
/// span ids (for parent links). Touched only on the *enabled* path.
struct ThreadState {
    ring: Arc<ThreadRing>,
    open: Vec<u64>,
}

thread_local! {
    static THREAD_STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's state, registering the thread on first use.
fn with_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> R {
    THREAD_STATE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(|| ThreadState {
            ring: recorder().register_thread(),
            open: Vec::new(),
        });
        f(state)
    })
}

/// An in-flight span. Created by [`span!`](crate::span) (or [`SpanGuard::begin`]); the
/// span is completed and recorded when the guard drops. When tracing is
/// disabled the guard is inert: no id, no thread-local access, no record.
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard(Option<OpenSpan>);

struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    start_ns: u64,
    fields: [Option<Field>; MAX_FIELDS],
    nfields: usize,
}

impl SpanGuard {
    /// Opens a span named `name`. The disabled path is one relaxed atomic
    /// load and a `None`.
    #[inline]
    pub fn begin(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        SpanGuard::begin_enabled(name)
    }

    /// The enabled slow path, out of line so the disabled branch stays
    /// small at every call site.
    #[cold]
    fn begin_enabled(name: &'static str) -> SpanGuard {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let start_ns = recorder().now_ns();
        let parent = with_state(|s| {
            let parent = s.open.last().copied().unwrap_or(0);
            s.open.push(id);
            parent
        });
        SpanGuard(Some(OpenSpan {
            id,
            parent,
            name,
            start: Instant::now(),
            start_ns,
            fields: [None; MAX_FIELDS],
            nfields: 0,
        }))
    }

    /// Attaches a key/value field (up to [`MAX_FIELDS`]; extras are
    /// silently ignored). No-op on an inert guard.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(open) = &mut self.0 {
            if open.nfields < MAX_FIELDS {
                open.fields[open.nfields] = Some((key, value.into()));
                open.nfields += 1;
            }
        }
    }

    /// Is this guard actually recording? (False when tracing was disabled
    /// at creation.)
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Closes the span now with `dur_ns` as its duration. A site that times
    /// the same scope for another surface — a histogram, an EXPLAIN stage —
    /// hands in that one reading, so the span and the surface agree.
    pub fn finish(mut self, dur_ns: u64) {
        if let Some(open) = self.0.take() {
            open.record(dur_ns);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        open.record(dur_ns);
    }
}

impl OpenSpan {
    /// Completes the span with `dur_ns` and emits it into this thread's ring.
    fn record(self, dur_ns: u64) {
        with_state(|s| {
            // Pop this span (and anything leaked above it, defensively).
            while let Some(top) = s.open.pop() {
                if top == self.id {
                    break;
                }
            }
            s.ring.emit(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                thread: s.ring.ordinal,
                start_ns: self.start_ns,
                dur_ns,
                fields: self.fields,
            });
        });
    }
}

/// Opens a [`SpanGuard`] over the rest of the enclosing scope:
///
/// ```
/// use ov_oodb::span;
/// # fn scan() {}
/// let mut s = span!("store.insert", class = 3u64);
/// scan();
/// s.field("rows", 41u64);
/// // recorded when `s` drops
/// ```
///
/// When tracing is disabled the entire expansion is one relaxed atomic
/// load and an inert guard — fields are not evaluated eagerly into the
/// recorder (their expressions still evaluate; keep them cheap).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::begin($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut __span = $crate::trace::SpanGuard::begin($name);
        if __span.is_recording() {
            $(__span.field(stringify!($key), $value);)+
        }
        __span
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Tracing state is process-global; tests that toggle it serialize
    /// here so they cannot observe each other's spans.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Spans emitted on this thread since `f` started.
    fn spans_of(f: impl FnOnce()) -> Vec<SpanRecord> {
        let before = NEXT_SPAN_ID.load(Ordering::Relaxed);
        f();
        recorder()
            .snapshot()
            .into_iter()
            .filter(|s| s.id >= before)
            .collect()
    }

    #[test]
    fn spans_nest_and_carry_fields() {
        let _guard = test_lock();
        set_enabled(true);
        let spans = spans_of(|| {
            let mut outer = span!("test.outer", n = 3u64);
            {
                let _inner = span!("test.inner", label = "x", flag = true);
            }
            outer.field("late", 9u64);
        });
        set_enabled(false);
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(
            outer.sorted_fields(),
            vec![("late", FieldValue::U64(9)), ("n", FieldValue::U64(3))]
        );
        assert_eq!(
            inner.sorted_fields(),
            vec![
                ("flag", FieldValue::Str("true")),
                ("label", FieldValue::Str("x"))
            ]
        );
        // Inner completed first but started after.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.id > outer.id);
    }

    #[test]
    fn disabled_path_touches_nothing() {
        let _guard = test_lock();
        set_enabled(false);
        // A *fresh* thread emitting with tracing disabled must not even
        // register a ring: the only work the disabled path is allowed to
        // do is the relaxed load in `enabled()`.
        let before = recorder().thread_count();
        std::thread::spawn(|| {
            for _ in 0..1_000 {
                let g = span!("test.disabled", n = 1u64);
                assert!(!g.is_recording());
            }
            let mut event = crate::event::Event::Population.open();
            event.field("n", 1u64);
            assert!(!event.is_recording());
        })
        .join()
        .unwrap();
        assert_eq!(
            recorder().thread_count(),
            before,
            "disabled emit registered a thread ring"
        );
        // And it must be cheap: 1M disabled spans in well under a second
        // (the real cost is ~1-2ns each; the bound is deliberately slack
        // for CI machines).
        let t0 = Instant::now();
        for _ in 0..1_000_000 {
            let _g = span!("test.disabled_hot");
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(500),
            "disabled span path too slow: {:?} for 1M spans",
            t0.elapsed()
        );
    }

    #[test]
    fn ring_wraps_keeping_newest_and_consistent_parents() {
        let _guard = test_lock();
        set_enabled(true);
        recorder().set_thread_capacity(8);
        let spans = std::thread::spawn(|| {
            let before = NEXT_SPAN_ID.load(Ordering::Relaxed);
            // 20 parent/child pairs = 40 spans through a ring of 8.
            for i in 0..20u64 {
                let _p = span!("test.wrap_parent", i = i);
                let _c = span!("test.wrap_child", i = i);
            }
            recorder()
                .snapshot()
                .into_iter()
                .filter(|s| s.id >= before && s.name.starts_with("test.wrap"))
                .collect::<Vec<_>>()
        })
        .join()
        .unwrap();
        set_enabled(false);
        recorder().set_thread_capacity(DEFAULT_THREAD_CAPACITY);
        assert_eq!(spans.len(), 8, "ring must retain exactly its capacity");
        // The survivors are the newest 8, in chronological order.
        let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "snapshot must be oldest-first");
        // Children completed before their parents here (guards drop in
        // reverse order), so each surviving child's parent id must be the
        // id of the matching surviving parent span when present.
        for child in spans.iter().filter(|s| s.name == "test.wrap_child") {
            assert_ne!(child.parent, 0);
            if let Some(parent) = spans.iter().find(|s| s.id == child.parent) {
                assert_eq!(parent.name, "test.wrap_parent");
                assert_eq!(parent.sorted_fields(), child.sorted_fields());
            }
        }
    }

    #[test]
    fn concurrent_emit_under_dumps() {
        let _guard = test_lock();
        set_enabled(true);
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 500;
        let before = NEXT_SPAN_ID.load(Ordering::Relaxed);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        for i in 0..PER_THREAD {
                            let _s = span!("test.concurrent", t = t, i = i);
                        }
                    })
                })
                .collect();
            // Dump concurrently the whole time the workers run: exercises
            // the try_lock emit fallback.
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = recorder().dump_chrome_trace();
                }
            });
            for w in workers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        set_enabled(false);
        let mine: Vec<SpanRecord> = recorder()
            .snapshot()
            .into_iter()
            .filter(|s| s.id >= before && s.name == "test.concurrent")
            .collect();
        let emitted = THREADS as u64 * PER_THREAD;
        let landed = mine.len() as u64 + recorder().dropped();
        assert!(
            landed >= emitted,
            "spans lost without being counted: landed+dropped={landed} < emitted={emitted}"
        );
        // Per-thread ordering survives concurrency.
        for t in 0..THREADS as u64 {
            let ids: Vec<u64> = mine
                .iter()
                .filter(|s| s.sorted_fields().contains(&("t", FieldValue::U64(t))))
                .map(|s| s.id)
                .collect();
            let mut sorted = ids.clone();
            sorted.sort();
            assert_eq!(ids, sorted);
        }
    }

    #[test]
    fn chrome_trace_and_jsonl_are_well_formed_and_sorted() {
        let _guard = test_lock();
        set_enabled(true);
        {
            let _a = span!("test.dump_b", z = 1u64, a = 2u64);
        }
        {
            let _b = span!("test.dump_a");
        }
        set_enabled(false);
        let chrome = recorder().dump_chrome_trace();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"test.dump_b\""));
        assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
        assert_eq!(chrome.matches('[').count(), chrome.matches(']').count());
        // Args keys sorted: "a" before "z".
        let line = chrome.lines().find(|l| l.contains("test.dump_b")).unwrap();
        assert!(line.find("\"a\":").unwrap() < line.find("\"z\":").unwrap());
        let jsonl = recorder().dump_jsonl();
        let line = jsonl.lines().find(|l| l.contains("test.dump_b")).unwrap();
        assert!(line.starts_with("{\"dur_ns\""));
        assert!(line.find("\"a\":").unwrap() < line.find("\"z\":").unwrap());
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }
}
