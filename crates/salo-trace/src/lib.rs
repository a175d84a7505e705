//! # salo-trace — zero-dependency observability for the SALO stack
//!
//! Three pieces, threaded through every layer of the workspace:
//!
//! 1. **Span tracer** ([`Tracer`]): thread-local spans on a process-wide
//!    monotonic clock, buffered in a lock-free bounded ring per thread,
//!    with hierarchical span ids and an exporter to Chrome trace-event JSON
//!    (loadable in Perfetto / `chrome://tracing`).
//! 2. **Metrics registry** ([`MetricsRegistry`]): named atomic counters and
//!    gauges plus fixed-boundary log₂-bucket histograms ([`LogHistogram`])
//!    whose merge is *exact* across workers and shards.
//! 3. **Kernel stage profiles** ([`StageProfile`]/[`StageTimer`]): cheap
//!    flag-gated per-stage accumulators for the lowered attention datapath.
//!
//! Everything is plain `std` — no external crates, no `unsafe`.
//!
//! ## Enabling
//!
//! The global tracer is off by default (a disabled span costs one relaxed
//! atomic load). Set `SALO_TRACE=1` in the environment, or call
//! [`set_enabled`]`(true)` programmatically. Each thread's ring holds
//! [`DEFAULT_RING_CAPACITY`] (65 536) events; on overflow the oldest
//! events are dropped and counted exactly.
//!
//! ## Quick use
//!
//! ```
//! use salo_trace as trace;
//!
//! trace::set_enabled(true);
//! {
//!     let _outer = trace::span("request");
//!     let _inner = trace::span_with("engine.execute", "engine", 42);
//! } // spans record on drop
//! let json = trace::export_chrome_json();
//! assert!(json.contains("engine.execute"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod clock;
mod metrics;
mod profile;
mod ring;
mod tracer;

pub use chrome::to_chrome_json;
pub use clock::{epoch, interval_since, now_ns};
pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, HistogramSnapshot, LogHistogram, MetricsRegistry,
    NUM_BUCKETS,
};
pub use profile::{StageProfile, StageTimer};
pub use tracer::{SpanGuard, SpanRecord, ThreadInfo, TraceSnapshot, Tracer, DEFAULT_RING_CAPACITY};

use std::time::Instant;

/// Whether the global tracer is recording. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    Tracer::global().enabled()
}

/// Enables or disables the global tracer.
pub fn set_enabled(on: bool) {
    Tracer::global().set_enabled(on);
}

/// Opens a span on the global tracer (category `"task"`).
#[inline]
pub fn span(name: &'static str) -> SpanGuard<'static> {
    Tracer::global().span(name)
}

/// Opens a span on the global tracer with a category and numeric argument.
#[inline]
pub fn span_with(name: &'static str, cat: &'static str, arg: u64) -> SpanGuard<'static> {
    Tracer::global().span_with(name, cat, arg)
}

/// Records an explicit interval on the global tracer.
pub fn record_interval(
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    end_ns: u64,
    arg: u64,
) {
    Tracer::global().record_interval(name, cat, start_ns, end_ns, arg);
}

/// Records the interval from `start` until now on the global tracer.
pub fn record_since(name: &'static str, cat: &'static str, start: Instant, arg: u64) {
    Tracer::global().record_since(name, cat, start, arg);
}

/// Exports the global tracer's snapshot as Chrome trace-event JSON.
pub fn export_chrome_json() -> String {
    Tracer::global().export_chrome_json()
}

/// The global metrics registry ([`MetricsRegistry::global`]).
pub fn metrics() -> &'static MetricsRegistry {
    MetricsRegistry::global()
}
