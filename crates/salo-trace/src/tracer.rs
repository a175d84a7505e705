//! The span tracer: thread-local lanes, RAII spans, explicit intervals.
//!
//! A [`Tracer`] owns one lock-free event ring per traced thread (a *lane*).
//! Spans carry hierarchical identity — a process-unique span id plus the id
//! of the enclosing span on the same thread (0 at the root) — maintained via
//! a per-thread span stack. Emission is wait-free on the hot path: when the
//! tracer is disabled a span costs one relaxed atomic load; when enabled it
//! costs two clock reads and a ring push.
//!
//! Span names and categories are `&'static str` interned into a per-tracer
//! table so ring slots store plain integers; a torn slot can therefore never
//! fabricate an out-of-bounds string, only fail validation and be skipped.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::clock::{interval_since, now_ns};
use crate::ring::{word, EventRing, EVENT_WORDS};

/// Default per-thread ring capacity (events). Override with
/// `SALO_TRACE_BUFFER` for the global tracer.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// One traced thread's state inside a tracer: its ring plus display identity.
struct Lane {
    tid: u64,
    thread_name: String,
    ring: EventRing,
}

/// A completed span copied out of the rings by [`Tracer::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (interned static string).
    pub name: &'static str,
    /// Span category; groups spans in trace viewers ("serve", "engine", "sim").
    pub cat: &'static str,
    /// Trace-local id of the thread that recorded the span.
    pub tid: u64,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root span.
    pub parent: u64,
    /// Start, in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Free-form numeric payload (request id, shard index, token index...).
    pub arg: u64,
}

/// Display identity of a traced thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadInfo {
    /// Trace-local thread id (dense, assigned at first span on the thread).
    pub tid: u64,
    /// OS thread name at registration time, or `thread-<tid>`.
    pub name: String,
}

/// A consistent copy of everything a tracer has observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Completed spans, ordered per-thread oldest-first.
    pub spans: Vec<SpanRecord>,
    /// Threads that recorded at least one span.
    pub threads: Vec<ThreadInfo>,
    /// Exact total of ring-overflow-dropped events across all threads.
    pub dropped_events: u64,
}

struct LaneState {
    tracer_instance: u64,
    lane: Arc<Lane>,
    /// Ids of the open spans on this thread, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static LANES: RefCell<Vec<LaneState>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TRACER_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// A span tracer. Use [`Tracer::global`] in production code; construct
/// instances directly in tests that need isolation.
pub struct Tracer {
    /// Unique per-instance key so thread-local lane caches never alias
    /// across tracer lifetimes.
    instance: u64,
    enabled: AtomicBool,
    ring_capacity: usize,
    next_span_id: AtomicU64,
    next_tid: AtomicU64,
    names: Mutex<Vec<&'static str>>,
    lanes: Mutex<Vec<Arc<Lane>>>,
}

impl Tracer {
    /// Creates a disabled tracer with the given per-thread ring capacity.
    pub fn new(ring_capacity: usize) -> Self {
        Tracer {
            instance: NEXT_TRACER_INSTANCE.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            ring_capacity: ring_capacity.max(16),
            next_span_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(1),
            names: Mutex::new(Vec::new()),
            lanes: Mutex::new(Vec::new()),
        }
    }

    /// The process-global tracer. Enabled at first use when the `SALO_TRACE`
    /// environment variable is `1`/`true`; ring capacity comes from
    /// `SALO_TRACE_BUFFER` (default [`DEFAULT_RING_CAPACITY`]).
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let capacity = std::env::var("SALO_TRACE_BUFFER")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(DEFAULT_RING_CAPACITY);
            let tracer = Tracer::new(capacity);
            if env_flag("SALO_TRACE") {
                tracer.set_enabled(true);
            }
            tracer
        })
    }

    /// Whether spans are being recorded. One relaxed load — safe to call on
    /// hot paths.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Spans created while disabled are no-ops
    /// even if recording is re-enabled before they drop.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span in the default category. Closes (records) when the
    /// returned guard drops.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_with(name, "task", 0)
    }

    /// Opens a span with an explicit category and numeric argument.
    #[inline]
    pub fn span_with(&self, name: &'static str, cat: &'static str, arg: u64) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard { tracer: self, name, cat, arg, id: 0, parent: 0, start_ns: 0 };
        }
        let id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.with_lane(|state| {
            let parent = state.stack.last().copied().unwrap_or(0);
            state.stack.push(id);
            parent
        });
        SpanGuard { tracer: self, name, cat, arg, id, parent, start_ns: now_ns() }
    }

    /// Records a completed interval with explicit endpoints (in ns since the
    /// trace epoch), parented under the current thread's innermost open span.
    ///
    /// This is the tool for cross-thread intervals (queue wait measured at
    /// dequeue) and for synthetic sub-spans reconstructed from accumulated
    /// stage timings. Returns the span id, or 0 when disabled.
    pub fn record_interval(
        &self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        arg: u64,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.next_span_id.fetch_add(1, Ordering::Relaxed);
        let name_idx = self.intern(name);
        let cat_idx = self.intern(cat);
        self.with_lane(|state| {
            let parent = state.stack.last().copied().unwrap_or(0);
            let mut words = [0u64; EVENT_WORDS];
            words[word::NAME] = name_idx;
            words[word::CAT] = cat_idx;
            words[word::START_NS] = start_ns;
            words[word::DUR_NS] = end_ns.saturating_sub(start_ns);
            words[word::ID] = id;
            words[word::PARENT] = parent;
            words[word::ARG] = arg;
            state.lane.ring.push(words);
        });
        id
    }

    /// Records the interval from `start` (an `Instant` captured on any
    /// thread) until now. Convenience wrapper over
    /// [`record_interval`](Self::record_interval) for queue-wait style
    /// measurements.
    pub fn record_since(&self, name: &'static str, cat: &'static str, start: Instant, arg: u64) {
        if !self.enabled() {
            return;
        }
        let (s, e) = interval_since(start);
        self.record_interval(name, cat, s, e, arg);
    }

    /// Exact number of events lost to ring overflow across all threads.
    pub fn dropped_events(&self) -> u64 {
        let lanes = self.lanes.lock().expect("tracer lane registry poisoned");
        lanes.iter().map(|l| l.ring.dropped()).sum()
    }

    /// Copies out all resident spans from every thread's ring.
    pub fn snapshot(&self) -> TraceSnapshot {
        let lanes: Vec<Arc<Lane>> = {
            let guard = self.lanes.lock().expect("tracer lane registry poisoned");
            guard.clone()
        };
        let names: Vec<&'static str> = {
            let guard = self.names.lock().expect("tracer name table poisoned");
            guard.clone()
        };
        let mut snapshot = TraceSnapshot::default();
        for lane in &lanes {
            let (events, dropped) = lane.ring.snapshot();
            snapshot.dropped_events += dropped;
            if events.is_empty() && dropped == 0 {
                continue;
            }
            snapshot.threads.push(ThreadInfo { tid: lane.tid, name: lane.thread_name.clone() });
            for words in events {
                let name_idx = words[word::NAME] as usize;
                let cat_idx = words[word::CAT] as usize;
                // A torn slot that slipped past seq validation can only carry
                // garbage indices; drop it rather than mislabel.
                let (Some(&name), Some(&cat)) = (names.get(name_idx), names.get(cat_idx)) else {
                    continue;
                };
                snapshot.spans.push(SpanRecord {
                    name,
                    cat,
                    tid: lane.tid,
                    id: words[word::ID],
                    parent: words[word::PARENT],
                    start_ns: words[word::START_NS],
                    dur_ns: words[word::DUR_NS],
                    arg: words[word::ARG],
                });
            }
        }
        snapshot
    }

    /// Renders the current snapshot as Chrome trace-event JSON (load it at
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn export_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(&self.snapshot())
    }

    fn intern(&self, s: &'static str) -> u64 {
        let mut names = self.names.lock().expect("tracer name table poisoned");
        if let Some(idx) =
            names.iter().position(|&n| std::ptr::eq(n.as_ptr(), s.as_ptr()) && n.len() == s.len())
        {
            return idx as u64;
        }
        // Same literal text can live at different addresses across codegen
        // units; fall back to a text comparison before growing the table.
        if let Some(idx) = names.iter().position(|&n| n == s) {
            return idx as u64;
        }
        names.push(s);
        (names.len() - 1) as u64
    }

    /// Runs `f` with this thread's lane for this tracer, registering the
    /// lane on first use.
    fn with_lane<R>(&self, f: impl FnOnce(&mut LaneState) -> R) -> R {
        LANES.with(|cell| {
            let mut lanes = cell.borrow_mut();
            if let Some(state) = lanes.iter_mut().find(|s| s.tracer_instance == self.instance) {
                return f(state);
            }
            let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
            let thread_name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let lane =
                Arc::new(Lane { tid, thread_name, ring: EventRing::new(self.ring_capacity) });
            self.lanes.lock().expect("tracer lane registry poisoned").push(Arc::clone(&lane));
            lanes.push(LaneState { tracer_instance: self.instance, lane, stack: Vec::new() });
            f(lanes.last_mut().expect("lane just pushed"))
        })
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
        .unwrap_or(false)
}

/// RAII guard for an open span; records the completed span on drop.
///
/// Guards from a disabled tracer are inert. Dropping guards out of creation
/// order is tolerated (the span is removed from wherever it sits in the
/// thread's open-span stack), though nesting semantics are only meaningful
/// for properly nested lifetimes.
#[must_use = "a span records when the guard drops; binding to _ closes it immediately"]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    cat: &'static str,
    arg: u64,
    /// 0 when the tracer was disabled at creation.
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// The span id (0 for an inert guard).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        let name_idx = self.tracer.intern(self.name);
        let cat_idx = self.tracer.intern(self.cat);
        self.tracer.with_lane(|state| {
            if let Some(pos) = state.stack.iter().rposition(|&id| id == self.id) {
                state.stack.remove(pos);
            }
            let mut words = [0u64; EVENT_WORDS];
            words[word::NAME] = name_idx;
            words[word::CAT] = cat_idx;
            words[word::START_NS] = self.start_ns;
            words[word::DUR_NS] = end_ns.saturating_sub(self.start_ns);
            words[word::ID] = self.id;
            words[word::PARENT] = self.parent;
            words[word::ARG] = self.arg;
            state.lane.ring.push(words);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(64);
        {
            let _s = t.span("noop");
        }
        assert!(t.snapshot().spans.is_empty());
    }

    #[test]
    fn spans_nest_via_parent_ids() {
        let t = Tracer::new(64);
        t.set_enabled(true);
        {
            let outer = t.span("outer");
            let outer_id = outer.id();
            {
                let inner = t.span_with("inner", "test", 7);
                assert_ne!(inner.id(), 0);
            }
            assert_ne!(outer_id, 0);
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.arg, 7);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn record_interval_parents_under_open_span() {
        let t = Tracer::new(64);
        t.set_enabled(true);
        {
            let outer = t.span("outer");
            t.record_interval("queued", "serve", 10, 25, 3);
            assert_ne!(outer.id(), 0);
        }
        let snap = t.snapshot();
        let q = snap.spans.iter().find(|s| s.name == "queued").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(q.parent, outer.id);
        assert_eq!((q.start_ns, q.dur_ns), (10, 15));
    }

    #[test]
    fn threads_get_distinct_tids() {
        let t = Tracer::new(64);
        t.set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _s = t.span("worker");
                });
            }
        });
        let snap = t.snapshot();
        let mut tids: Vec<u64> = snap.threads.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3);
        assert_eq!(snap.spans.len(), 3);
    }

    #[test]
    fn overflow_reports_exact_drop_count() {
        let t = Tracer::new(16);
        t.set_enabled(true);
        for _ in 0..40 {
            let _s = t.span("e");
        }
        assert_eq!(t.dropped_events(), 24);
        let snap = t.snapshot();
        assert_eq!(snap.dropped_events, 24);
        assert_eq!(snap.spans.len(), 16);
    }
}
