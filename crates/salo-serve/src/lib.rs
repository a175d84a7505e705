//! A concurrent attention-serving runtime over the SALO accelerator.
//!
//! The one-shot [`Salo`](salo_core::Salo) API re-runs the scheduler's
//! splitting/reordering pass on every call and executes on a single
//! simulated accelerator. That is the wrong shape for serving: SALO's
//! premise is that one compiled hybrid-sparsity dataflow is reused across
//! an entire inference workload, and serving-oriented follow-ups (Salca,
//! SparseAccelerate) show that plan reuse and per-step latency — not
//! kernel speed alone — dominate end-to-end throughput. This crate
//! supplies the missing runtime:
//!
//! * a **[`PlanCache`]** keyed by `(pattern fingerprint, shape,
//!   accelerator fingerprint)` — repeated requests skip the scheduler
//!   pass entirely (one map under one lock, LRU eviction over the whole
//!   cache, hit/miss counters, single-flight compiles);
//! * a **worker pool** of N threads, each one accelerator instance — the
//!   scheduler in front of its array: it owns a
//!   [`LoweredEngine`](salo_core::LoweredEngine), resolves each request's
//!   plan against the cache (compiling on a miss, which stalls that
//!   worker and nobody else) and runs it as a typed
//!   [`AttentionRequest`](salo_core::AttentionRequest) — prefills and
//!   decode-session traffic travel as one request shape, so swapping the
//!   backend never requires a serve rewrite. A request reaches its
//!   worker in one hop: the submitting thread sends it straight to the
//!   least-loaded worker's queue (a session's steps to its pinned
//!   worker's). The worker that
//!   finishes a request sends its result straight to the channel the
//!   request came in with ([`ServeEvent`]) — the steps one fused pass
//!   completes for sessions sharing an [`EventSink`] as one message — and
//!   [`SaloServer::recv`] restores submission order for the server's own
//!   [`submit`](SaloServer::submit) traffic;
//! * a **metrics layer** ([`ServeReport`]): per-request latency
//!   percentiles, queue depth, cache hit rate, decode-session counters,
//!   and aggregate *simulated* cycles/energy from the `salo-sim` timing
//!   model;
//! * **decode sessions** ([`SaloServer::open_session`] /
//!   [`SaloServer::step_session`]): whole autoregressive generations with
//!   per-session K/V state pinned to one worker, compiled causal plans
//!   shared through the cache, and step outputs delivered on per-session
//!   event channels.
//!
//! Served execution is bit-identical to a one-shot engine: workers run
//! each request's heads back to back through the same fixed-point
//! datapath, so a response's output equals a direct
//! [`Engine::execute`](salo_core::Engine::execute) on the same inputs —
//! asserted in the integration tests.
//!
//! # Example
//!
//! ```
//! use salo_kernels::Qkv;
//! use salo_patterns::{longformer, AttentionShape};
//! use salo_serve::{SaloServer, ServeOptions, ServeRequest};
//! use salo_sim::AcceleratorConfig;
//!
//! # fn main() -> Result<(), salo_serve::ServeError> {
//! let server = SaloServer::start(AcceleratorConfig::default(), ServeOptions {
//!     workers: 2,
//!     ..Default::default()
//! });
//! let pattern = longformer(256, 32, 1).expect("valid pattern");
//! let shape = AttentionShape::new(256, 64, 1).expect("valid shape");
//! for i in 0..6 {
//!     server.submit(ServeRequest::new(pattern.clone(), shape, Qkv::random_heads(&shape, i))?)?;
//! }
//! for i in 0..6 {
//!     let response = server.recv()?;
//!     assert_eq!(response.id, i, "responses arrive in submission order");
//!     assert!(response.output().is_ok());
//! }
//! let report = server.shutdown();
//! assert_eq!(report.requests, 6);
//! assert!(report.cache.hit_rate() > 0.0, "one layer, 6 requests: hits");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod error;
mod metrics;
mod request;
mod server;
mod session;
mod worker;

pub use cache::{CacheStats, PlanCache, PlanKey};
pub use error::ServeError;
pub use metrics::ServeReport;
pub use request::{ServeRequest, ServeResponse};
pub use salo_trace::{HistogramSnapshot, MetricsRegistry};
pub use server::{SaloServer, ServeOptions};
pub use session::{
    DecodeSessionHandle, DecodeStep, EventSink, ServeEvent, SessionInfo, SessionRequest, TokenQkv,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlanCache>();
        assert_send_sync::<SaloServer>();
        assert_send_sync::<ServeRequest>();
        assert_send_sync::<ServeResponse>();
        assert_send_sync::<std::sync::Arc<salo_core::CompiledPlan>>();
        assert_send_sync::<salo_core::Salo>();
    }
}
