//! The concurrent serving runtime: dispatcher, worker pool, collector.
//!
//! ```text
//!             submit() / open_session() / step_session()    ingress channel
//!   client ─────────────────────────────────────────────▶ dispatcher
//!                                                        │  plan cache
//!                                                        │  batcher
//!                                                        │  session table (session -> pinned worker)
//!                                              batches   ▼  + session work
//!                                   ┌──────────┬──────────┬──────────┐
//!                                   │ worker 0 │ worker 1 │ worker N │   (one Salo each,
//!                                   └────┬─────┴────┬─────┴────┬─────┘    pinned session states)
//!                                        └──────────┼──────────┘
//!                                                   ▼ completion channel
//!   client ◀──────────────────────────────────── collector (reorders by id,
//!             recv(), in submission order          accumulates metrics)
//!   client ◀───── per-session event channels (step outputs, in generation order)
//! ```
//!
//! The dispatcher resolves each layer request's [`PlanKey`] against the
//! shared [`PlanCache`] (a hit skips the scheduler pass entirely), groups
//! compatible requests into same-plan batches, and ships each batch to the
//! least-loaded worker. Decode sessions are pinned at open time: the
//! session table maps each session id to its worker, and every step routes
//! there, so the session's persistent K/V state never moves or locks.
//! Layer responses return through the ordered collector; step outputs
//! return on per-session channels (a generation is ordered by
//! construction).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use salo_core::{AttentionRequest, PatternHandle, Salo};
use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::AcceleratorConfig;
use salo_trace::{Counter, Gauge, MetricsRegistry};

use crate::batch::{Batcher, InFlight};
use crate::metrics::{LatencyStats, ServeReport, TenantCounters};
use crate::session::{
    DecodeSessionHandle, SessionEvent, SessionRegistry, SessionRequest, SessionTable, TokenQkv,
};
use crate::worker::{Completed, Job, LayerDone, Reply, StepJob, WorkerPool};
use crate::{PlanCache, PlanKey, ServeError, ServeRequest, ServeResponse};

/// Tunables of the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Number of worker threads, each modeling one accelerator instance.
    pub workers: usize,
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// Total compiled plans the cache may hold.
    pub cache_capacity: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Prefill shard count inside each worker's engine (`0` inherits the
    /// `SALO_PARALLELISM` environment default, `1` is sequential).
    /// Bit-transparent: only wall-clock changes, never outputs.
    pub worker_parallelism: usize,
    /// Rows per K/V page in each worker's decode page pool (`None` is
    /// the engine default, [`DEFAULT_PAGE_ROWS`](salo_sim::DEFAULT_PAGE_ROWS)).
    /// Bit-transparent: paging changes memory residency, never outputs.
    pub decode_page_rows: Option<usize>,
    /// Capacity bound, in pages, of each worker's decode page pool
    /// (`None` is unbounded). A full pool refuses further allocations
    /// and the step fails with `PagePoolExhausted`, counted in
    /// [`ServeReport::decode_pool_exhausted`]. When the refusal meets the
    /// step's first head nothing has moved: the session stays live and
    /// the step can be retried once pages free up. When an earlier head
    /// of a multi-head session took the pool's last page and a later one
    /// is refused, the heads are desynced and the session is retired
    /// (a [`SessionEvent::Closed`] follows the error).
    pub decode_pool_pages: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            max_batch: 8,
            cache_capacity: 64,
            cache_shards: 8,
            worker_parallelism: 0,
            decode_page_rows: None,
            decode_pool_pages: None,
        }
    }
}

/// A layer request travelling from `submit` to the dispatcher.
struct Submission {
    id: u64,
    pattern: HybridPattern,
    shape: AttentionShape,
    heads: Vec<salo_kernels::Qkv>,
    submitted: Instant,
}

/// Everything that can enter the dispatcher.
enum Ingress {
    /// A one-shot attention-layer request.
    Layer(Submission),
    /// Open a decode session.
    Open(OpenSubmission),
    /// One decode step of an open session.
    Step { session: u64, token: Vec<TokenQkv>, submitted: Instant },
    /// Close a session and drop its pinned state.
    Close { session: u64 },
}

struct OpenSubmission {
    session: u64,
    request: SessionRequest,
    /// The request pattern's causal clip, built once during front-end
    /// validation (clipping again in the dispatcher would duplicate the
    /// work on every open).
    causal: HybridPattern,
    submitted: Instant,
    events: Sender<SessionEvent>,
}

/// What the collector learned that the server's [`MetricsRegistry`] does
/// not hold: completion counts and latencies go to the registry
/// (`serve.requests`, `serve.errors`, `serve.latency_ns`, ...), which
/// [`SaloServer::shutdown`] builds the [`ServeReport`] from.
#[derive(Debug, Default)]
struct CollectorSummary {
    per_worker: Vec<u64>,
    sim_cycles: u64,
    sim_energy_j: f64,
    first_submit: Option<Instant>,
    last_finish: Option<Instant>,
}

/// A running SALO serving instance.
///
/// Submit layer requests with [`submit`](Self::submit); read responses —
/// in submission order — with [`recv`](Self::recv). Open decode sessions
/// with [`open_session`](Self::open_session), drive them with
/// [`step_session`](Self::step_session) (results arrive on the session's
/// own event channel), and end the runtime with
/// [`shutdown`](Self::shutdown), which drains in-flight work, joins every
/// thread and returns the aggregate [`ServeReport`].
pub struct SaloServer {
    config: AcceleratorConfig,
    ingress: Option<Sender<Ingress>>,
    ordered: Mutex<Receiver<ServeResponse>>,
    cache: Arc<PlanCache>,
    /// In-flight requests: the registry's `serve.queue_depth` gauge.
    depth: Arc<Gauge>,
    next_id: AtomicU64,
    next_session: AtomicU64,
    sessions: Arc<SessionRegistry>,
    batches: Arc<AtomicU64>,
    batched_requests: Arc<AtomicU64>,
    summary: Arc<Mutex<Option<CollectorSummary>>>,
    metrics: Arc<MetricsRegistry>,
    /// Each tenant's `serve.tenant.{id}.requests` counter, resolved by
    /// name on the tenant's first request and by id afterwards.
    tenant_requests: Mutex<HashMap<u64, Arc<Counter>>>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
    /// One-way flag set by [`drain`](Self::drain): new submissions, opens
    /// and steps are refused with [`ServeError::Draining`] while in-flight
    /// work finishes and sessions close out.
    draining: AtomicBool,
}

impl std::fmt::Debug for SaloServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaloServer")
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth())
            .field("sessions", &self.active_sessions())
            .field("cache", &self.cache)
            .finish()
    }
}

impl SaloServer {
    /// Starts the runtime: one dispatcher, `options.workers` workers (each
    /// owning a [`Salo`] built from `config`), and one collector.
    #[must_use]
    pub fn start(config: AcceleratorConfig, options: ServeOptions) -> Self {
        let workers = options.workers.max(1);
        let cache = Arc::new(PlanCache::new(options.cache_capacity, options.cache_shards));
        let batches = Arc::new(AtomicU64::new(0));
        let batched_requests = Arc::new(AtomicU64::new(0));
        let summary = Arc::new(Mutex::new(None));
        let sessions = Arc::new(SessionRegistry::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let depth = metrics.gauge("serve.queue_depth");

        let (ingress_tx, ingress_rx) = std::sync::mpsc::channel::<Ingress>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Completed>();
        let (ordered_tx, ordered_rx) = std::sync::mpsc::channel::<ServeResponse>();

        let compiler = Salo::new(config.clone());
        let pool = WorkerPool::spawn(
            workers,
            options.worker_parallelism,
            options.decode_page_rows,
            options.decode_pool_pages,
            &compiler,
            &done_tx,
            &sessions,
            &metrics,
        );

        let mut threads = Vec::with_capacity(2);
        {
            let cache = Arc::clone(&cache);
            let batches = Arc::clone(&batches);
            let batched_requests = Arc::clone(&batched_requests);
            let registry = Arc::clone(&sessions);
            let max_batch = options.max_batch;
            threads.push(
                std::thread::Builder::new()
                    .name("salo-serve-dispatcher".into())
                    .spawn(move || {
                        // The accelerator configuration is fixed for the
                        // server's lifetime; fingerprint it once instead
                        // of per request.
                        let config_fp = compiler.config().fingerprint();
                        Dispatcher {
                            compiler: &compiler,
                            cache: &cache,
                            pool,
                            batcher: Batcher::new(max_batch),
                            batches: &batches,
                            batched_requests: &batched_requests,
                            done: &done_tx,
                            table: SessionTable::new(),
                            registry: &registry,
                            config_fp,
                        }
                        .run(&ingress_rx);
                    })
                    .expect("spawn dispatcher thread"),
            );
        }
        {
            let summary = Arc::clone(&summary);
            let metrics = Arc::clone(&metrics);
            threads.push(
                std::thread::Builder::new()
                    .name("salo-serve-collector".into())
                    .spawn(move || {
                        collector_loop(&done_rx, &ordered_tx, workers, &summary, &metrics);
                    })
                    .expect("spawn collector thread"),
            );
        }

        Self {
            config,
            ingress: Some(ingress_tx),
            ordered: Mutex::new(ordered_rx),
            cache,
            depth,
            next_id: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            sessions,
            batches,
            batched_requests,
            summary,
            metrics,
            tenant_requests: Mutex::new(HashMap::new()),
            threads,
            workers,
            draining: AtomicBool::new(false),
        }
    }

    /// Starts the runtime with default options.
    #[must_use]
    pub fn with_defaults(config: AcceleratorConfig) -> Self {
        Self::start(config, ServeOptions::default())
    }

    /// The accelerator configuration every worker models.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The tenant untenanted entry points ([`submit`](Self::submit),
    /// [`open_session`](Self::open_session)) account their work under.
    pub const DEFAULT_TENANT: u64 = 0;

    /// Submits a layer request; returns its id. Responses come back
    /// through [`recv`](Self::recv) in increasing-id order, so a client
    /// that submits `k` requests reads exactly `k` responses. Accounted
    /// under [`DEFAULT_TENANT`](Self::DEFAULT_TENANT).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] if the request is internally
    /// inconsistent, [`ServeError::Draining`] while a
    /// [`drain`](Self::drain) is in progress, or [`ServeError::Closed`]
    /// after shutdown.
    pub fn submit(&self, request: ServeRequest) -> Result<u64, ServeError> {
        self.submit_for(Self::DEFAULT_TENANT, request)
    }

    /// [`submit`](Self::submit) on behalf of a tenant: the request counts
    /// toward `tenant`'s entry in [`ServeReport::tenants`] (and the live
    /// `serve.tenant.{id}.requests` counter). Multi-tenant front ends —
    /// the gateway — thread the wire-header tenant id through here.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_for(&self, tenant: u64, request: ServeRequest) -> Result<u64, ServeError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining);
        }
        // Re-validate: the fields are public, so the request may not have
        // come through `ServeRequest::new`.
        let request = ServeRequest::new(request.pattern, request.shape, request.heads)?;
        let ingress = self.ingress.as_ref().ok_or(ServeError::Closed)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let _span = salo_trace::span_with("serve.admission", "serve", id);
        self.count_tenant_request(tenant);
        self.depth.add(1);
        let submission = Submission {
            id,
            pattern: request.pattern,
            shape: request.shape,
            heads: request.heads,
            submitted: Instant::now(),
        };
        if ingress.send(Ingress::Layer(submission)).is_err() {
            self.depth.add(-1);
            return Err(ServeError::Closed);
        }
        Ok(id)
    }

    /// Opens a streaming decode session: the pattern is causally clipped
    /// and compiled (through the shared plan cache — one compiled plan
    /// amortizes across every generation of the same pattern/shape), the
    /// session is pinned to the least-loaded worker, and the prompt is
    /// ingested there. The returned handle's event channel delivers the
    /// open handshake ([`SessionEvent::Opened`]) followed by one
    /// [`SessionEvent::Step`] per [`step_session`](Self::step_session)
    /// call, in order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] on an inconsistent request
    /// (prompt not covering the globals, head mismatches), or
    /// [`ServeError::Closed`] after shutdown. Compile failures arrive
    /// asynchronously in the `Opened` event and deregister the session:
    /// once [`wait_open`](DecodeSessionHandle::wait_open) has reported
    /// the failure, the id is gone and further calls on it return
    /// [`ServeError::UnknownSession`]. Accounted under
    /// [`DEFAULT_TENANT`](Self::DEFAULT_TENANT).
    pub fn open_session(&self, request: SessionRequest) -> Result<DecodeSessionHandle, ServeError> {
        self.open_session_for(Self::DEFAULT_TENANT, request)
    }

    /// [`open_session`](Self::open_session) on behalf of a tenant: the
    /// open counts toward `tenant`'s [`ServeReport::tenants`] entry, and
    /// every accepted step of the session counts toward its
    /// `decode_steps`.
    ///
    /// # Errors
    ///
    /// As [`open_session`](Self::open_session), plus
    /// [`ServeError::Draining`] while a [`drain`](Self::drain) is in
    /// progress.
    pub fn open_session_for(
        &self,
        tenant: u64,
        request: SessionRequest,
    ) -> Result<DecodeSessionHandle, ServeError> {
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let id = self.open_session_into(tenant, request, events_tx)?;
        Ok(DecodeSessionHandle { id, events: events_rx })
    }

    /// [`open_session_for`](Self::open_session_for) reporting into a
    /// channel the caller supplies; returns the session id. A front end
    /// multiplexing many sessions hands every open a clone of one sender
    /// and reads all their events — each carries its session id — from
    /// the single receiver, instead of blocking on a handle per session.
    ///
    /// # Errors
    ///
    /// As [`open_session_for`](Self::open_session_for).
    pub fn open_session_into(
        &self,
        tenant: u64,
        request: SessionRequest,
        events: Sender<SessionEvent>,
    ) -> Result<u64, ServeError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining);
        }
        let causal = request.validated_view()?.into_causal_pattern();
        let ingress = self.ingress.as_ref().ok_or(ServeError::Closed)?;
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        let _span = salo_trace::span_with("serve.session_open", "serve", session);
        self.count_tenant_request(tenant);
        self.depth.add(1);
        // Register before submitting: an asynchronous open failure
        // deregisters the id, and that removal must not race ahead of
        // the insert (a late insert would leak the dead session).
        let decode_steps = self.metrics.counter(&format!("serve.tenant.{tenant}.decode_steps"));
        self.sessions.insert(session, decode_steps);
        let submission =
            OpenSubmission { session, request, causal, submitted: Instant::now(), events };
        if ingress.send(Ingress::Open(submission)).is_err() {
            self.sessions.remove(session);
            self.depth.add(-1);
            return Err(ServeError::Closed);
        }
        Ok(session)
    }

    /// Counts one accepted request toward `serve.tenant.{tenant}.requests`.
    fn count_tenant_request(&self, tenant: u64) {
        let mut tenants = self.tenant_requests.lock().expect("tenant counters poisoned");
        tenants
            .entry(tenant)
            .or_insert_with(|| self.metrics.counter(&format!("serve.tenant.{tenant}.requests")))
            .inc();
    }

    /// Submits one decode step: `token` carries the new position's
    /// `(q, k, v)` rows for every head. The result arrives on the
    /// session handle's event channel.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for a session this server
    /// never opened — or that is no longer live: closed, dropped by a
    /// poisoning step failure, or failed to open. Returns
    /// [`ServeError::Closed`] after shutdown. Execution failures arrive
    /// in the step event; [`SessionEvent::Step`] says which of them
    /// retire the session.
    pub fn step_session(&self, session: u64, token: Vec<TokenQkv>) -> Result<(), ServeError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining);
        }
        let ingress = self.ingress.as_ref().ok_or(ServeError::Closed)?;
        if !self.sessions.count_step(session) {
            return Err(ServeError::UnknownSession { session });
        }
        let _span = salo_trace::span_with("serve.session_step", "serve", session);
        self.depth.add(1);
        if ingress.send(Ingress::Step { session, token, submitted: Instant::now() }).is_err() {
            self.depth.add(-1);
            return Err(ServeError::Closed);
        }
        Ok(())
    }

    /// Closes a decode session, dropping its pinned state. The session's
    /// channel receives a final [`SessionEvent::Closed`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] if the session is not live
    /// — never opened, already closed, or already retired by a failure
    /// (a poisoned session counts as closed; its channel received the
    /// [`SessionEvent::Closed`] at poison time). Returns
    /// [`ServeError::Closed`] after shutdown.
    pub fn close_session(&self, session: u64) -> Result<(), ServeError> {
        if !self.sessions.remove(session) {
            return Err(ServeError::UnknownSession { session });
        }
        let ingress = self.ingress.as_ref().ok_or(ServeError::Closed)?;
        ingress.send(Ingress::Close { session }).map_err(|_| ServeError::Closed)
    }

    /// Number of live sessions: opened and not yet closed — explicitly,
    /// by a poisoning step failure, or by a failed open.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Blocks for the next in-order layer response.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] once the runtime has shut down and
    /// every response has been delivered.
    pub fn recv(&self) -> Result<ServeResponse, ServeError> {
        self.ordered
            .lock()
            .expect("response receiver poisoned")
            .recv()
            .map_err(|_| ServeError::Closed)
    }

    /// Non-blocking variant of [`recv`](Self::recv): `None` when no
    /// response is ready yet — including when another thread currently
    /// holds the response channel inside a blocking [`recv`](Self::recv)
    /// (this method never waits on that reader).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] once the runtime has shut down and
    /// every response has been delivered.
    pub fn try_recv(&self) -> Result<Option<ServeResponse>, ServeError> {
        let Ok(ordered) = self.ordered.try_lock() else {
            return Ok(None); // a blocking reader owns the channel
        };
        match ordered.try_recv() {
            Ok(r) => Ok(Some(r)),
            Err(std::sync::mpsc::TryRecvError::Empty) => Ok(None),
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Err(ServeError::Closed),
        }
    }

    /// Requests currently in flight (submitted, not yet completed),
    /// decode opens and steps included.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.depth.get().max(0) as usize
    }

    /// This server's metrics registry: named counters, gauges and
    /// mergeable log-bucket histograms the collector maintains as
    /// completions stream in (`serve.requests`, `serve.latency_ns`,
    /// `serve.decode.steps`, ...). Per-server — two instances in one
    /// process never mix counts. Export it any time with
    /// [`MetricsRegistry::export_table`] or
    /// [`MetricsRegistry::export_json`]; [`shutdown`](Self::shutdown)
    /// rebuilds the [`ServeReport`] counters from it.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Records one admission rejection on behalf of `tenant`. Rejected
    /// work never enters the runtime, so the front door (the gateway's
    /// bounded queues) reports it here; the count lands in the tenant's
    /// [`ServeReport::tenants`] entry and the live
    /// `serve.tenant.{id}.rejections` counter.
    pub fn record_tenant_rejection(&self, tenant: u64) {
        self.metrics.counter(&format!("serve.tenant.{tenant}.rejections")).inc();
    }

    /// Gracefully drains the runtime: refuses new work, closes every
    /// registered decode session with a terminal
    /// [`SessionEvent::Closed`], and waits — up to `deadline` — for all
    /// in-flight work to complete. Returns `true` when the runtime
    /// drained fully within the deadline.
    ///
    /// After a drain, [`submit`](Self::submit),
    /// [`open_session`](Self::open_session) and
    /// [`step_session`](Self::step_session) report
    /// [`ServeError::Draining`]; [`close_session`](Self::close_session)
    /// and response/event reads keep working so clients can collect what
    /// already completed. Draining is one-way: the runtime's remaining
    /// useful call is [`shutdown`](Self::shutdown), which produces the
    /// final report (drain-then-shutdown is the graceful path; `shutdown`
    /// alone drops session channels without terminal events).
    pub fn drain(&self, deadline: Duration) -> bool {
        let start = Instant::now();
        let _span = salo_trace::span_with("serve.drain", "serve", 0);
        self.draining.store(true, Ordering::Release);
        // Close every live session: each gets its terminal Closed event
        // through the normal close path (remove from the registry first,
        // exactly like close_session, so a concurrent close cannot
        // double-send Ingress::Close).
        if let Some(ingress) = self.ingress.as_ref() {
            for session in self.sessions.live_ids() {
                if self.sessions.remove(session) {
                    let _ = ingress.send(Ingress::Close { session });
                }
            }
        }
        while start.elapsed() < deadline {
            if self.queue_depth() == 0 && self.sessions.len() == 0 {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.queue_depth() == 0 && self.sessions.len() == 0
    }

    /// Stops accepting requests, drains all in-flight work, joins every
    /// thread and returns the session report. Responses not yet read via
    /// [`recv`](Self::recv) are discarded; open decode sessions are
    /// dropped with their channels.
    #[must_use]
    pub fn shutdown(mut self) -> ServeReport {
        self.ingress.take(); // closes ingress: dispatcher → workers → collector wind down
        for handle in self.threads.drain(..) {
            handle.join().expect("serving thread panicked");
        }
        let summary = self.summary.lock().expect("summary poisoned").take().unwrap_or_default();
        let wall_s = match (summary.first_submit, summary.last_finish) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        // Fold the dispatcher-side tallies into the registry, then build
        // the report's counters *from* the registry — the collector has
        // been mirroring its completion counts there all along, so the
        // registry is the single source the report is rebuilt on. The
        // latency histograms ride on the report whole, so reports merge
        // bucket-exactly; the summaries are derived from them.
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        self.metrics.counter("serve.batches").add(batches);
        self.metrics.counter("serve.batched_requests").add(batched);
        let requests = self.metrics.counter("serve.requests").get();
        let latency_hist = self.metrics.histogram("serve.latency_ns").snapshot();
        let decode_step_latency_hist =
            self.metrics.histogram("serve.decode.step_latency_ns").snapshot();
        // The per-tenant counters are dynamically named
        // (`serve.tenant.{id}.{field}`); recover the family by prefix and
        // fold it into the report's map.
        let mut tenants: BTreeMap<u64, TenantCounters> = BTreeMap::new();
        for (name, value) in self.metrics.counters_with_prefix("serve.tenant.") {
            let rest = &name["serve.tenant.".len()..];
            let Some((id, field)) = rest.split_once('.') else { continue };
            let Ok(id) = id.parse::<u64>() else { continue };
            let entry = tenants.entry(id).or_default();
            match field {
                "requests" => entry.requests = value,
                "rejections" => entry.rejections = value,
                "decode_steps" => entry.decode_steps = value,
                _ => {}
            }
        }
        ServeReport {
            requests,
            errors: self.metrics.counter("serve.errors").get(),
            wall_s,
            throughput_rps: if wall_s > 0.0 { requests as f64 / wall_s } else { 0.0 },
            latency: LatencyStats::from_histogram(&latency_hist),
            latency_hist,
            cache: self.cache.stats(),
            batches,
            mean_batch_size: if batches > 0 { batched as f64 / batches as f64 } else { 0.0 },
            max_queue_depth: self.depth.high_water().max(0) as usize,
            sim_cycles: summary.sim_cycles,
            sim_energy_j: summary.sim_energy_j,
            per_worker_requests: summary.per_worker,
            decode_sessions: self.metrics.counter("serve.decode.sessions").get(),
            decode_session_errors: self.metrics.counter("serve.decode.session_errors").get(),
            decode_steps: self.metrics.counter("serve.decode.steps").get(),
            decode_step_errors: self.metrics.counter("serve.decode.step_errors").get(),
            decode_step_latency: LatencyStats::from_histogram(&decode_step_latency_hist),
            decode_step_latency_hist,
            decode_resident_kv_byte_steps: self
                .metrics
                .counter("serve.decode.resident_kv_byte_steps")
                .get(),
            decode_peak_resident_pages: self
                .metrics
                .gauge("serve.decode.resident_pages")
                .high_water()
                .max(0) as u64,
            decode_peak_pool_pages: self
                .metrics
                .gauge("serve.decode.pool_pages")
                .high_water()
                .max(0) as u64,
            decode_page_reclaims: self.metrics.counter("serve.decode.page_reclaims").get(),
            decode_pool_exhausted: self.metrics.counter("serve.decode.pool_exhausted").get(),
            tenants,
        }
    }
}

/// Dispatcher thread state.
///
/// Plan compilation for cache misses runs inline here, on the single
/// dispatcher thread: the cache stays single-writer and a cold key is
/// compiled exactly once. The tradeoff is that one cold-key scheduler
/// pass (~0.4–1.6 ms at paper scale, see `bench_serving`) delays the
/// dispatch of queued cache-hit requests behind it; workloads mixing
/// many novel patterns with hot traffic would want compile shipped to
/// the workers instead.
struct Dispatcher<'a> {
    compiler: &'a Salo,
    cache: &'a PlanCache,
    pool: WorkerPool,
    batcher: Batcher,
    batches: &'a AtomicU64,
    batched_requests: &'a AtomicU64,
    done: &'a Sender<Completed>,
    table: SessionTable,
    registry: &'a SessionRegistry,
    config_fp: u64,
}

impl Dispatcher<'_> {
    fn run(mut self, ingress: &Receiver<Ingress>) {
        // Bound on the opportunistic drain between flushes: under
        // sustained open-loop traffic the submission queue may never run
        // empty, and without this bound an under-filled bucket (and,
        // through ordered delivery, every later response) could be held
        // back indefinitely.
        let drain_limit = self.pool.workers() * self.batcher.max_batch();
        while let Ok(first) = ingress.recv() {
            self.reap_retired();
            let mut next = Some(first);
            let mut drained = 0usize;
            while let Some(msg) = next.take() {
                match msg {
                    Ingress::Layer(sub) => self.handle_layer(sub),
                    Ingress::Open(open) => self.handle_open(open),
                    Ingress::Step { session, token, submitted } => {
                        self.handle_step(session, token, submitted);
                    }
                    Ingress::Close { session } => self.handle_close(session),
                }
                drained += 1;
                next = if drained < drain_limit { ingress.try_recv().ok() } else { None };
            }
            for batch in self.batcher.flush() {
                self.dispatch_batch(batch);
            }
        }
        for batch in self.batcher.flush() {
            self.dispatch_batch(batch);
        }
        debug_assert_eq!(self.batcher.pending(), 0, "every accepted request is dispatched");
        self.pool.close();
        for handle in self.pool.handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
    }

    fn dispatch_batch(&mut self, batch: crate::batch::Batch) {
        let size = batch.len() as u64;
        let batch_size = batch.len();
        let _span = salo_trace::span_with("serve.batch_dispatch", "serve", size);
        // Mint one typed request per member; the pattern/plan pair is one
        // `Arc` clone each.
        let jobs: Vec<Job> = batch
            .requests
            .into_iter()
            .map(|req| Job::Request {
                request: AttentionRequest::Prefill {
                    pattern: PatternHandle::new(
                        Arc::clone(&batch.pattern),
                        Arc::clone(&batch.plan),
                    ),
                    shape: batch.shape,
                    heads: req.heads,
                },
                reply: Reply::Layer {
                    id: req.id,
                    cache_hit: req.cache_hit,
                    batch_size,
                    submitted: req.submitted,
                },
            })
            .collect();
        match self.pool.dispatch(jobs) {
            Ok(()) => {
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.batched_requests.fetch_add(size, Ordering::Relaxed);
            }
            // The routed worker's thread is gone: fail every member
            // request so clients see an error instead of hanging on a
            // response that will never come.
            Err(jobs) => {
                for job in jobs {
                    let Job::Request {
                        reply: Reply::Layer { id, cache_hit, submitted, .. }, ..
                    } = job
                    else {
                        unreachable!("batches carry only layer replies");
                    };
                    let failed = Completed::Layer(LayerDone {
                        id,
                        result: Err(ServeError::WorkerLost),
                        cache_hit,
                        worker: None,
                        batch_size: 0,
                        submitted,
                        finished: Instant::now(),
                    });
                    let _ = self.done.send(failed);
                }
            }
        }
    }

    fn handle_layer(&mut self, sub: Submission) {
        let key = PlanKey {
            pattern_fp: sub.pattern.fingerprint(),
            shape: sub.shape,
            config_fp: self.config_fp,
        };
        let lookup = salo_trace::span_with("serve.plan_lookup", "serve", sub.id);
        let compiled = self.cache.get_or_compile(key, &sub.pattern, self.compiler.config(), || {
            self.compiler.compile(&sub.pattern, &sub.shape)
        });
        drop(lookup);
        match compiled {
            Ok((plan, cache_hit)) => {
                let _form = salo_trace::span_with("serve.batch_form", "serve", sub.id);
                let pattern = Arc::new(sub.pattern);
                let inflight =
                    InFlight { id: sub.id, heads: sub.heads, submitted: sub.submitted, cache_hit };
                if let Some(batch) = self.batcher.push(key, &pattern, &plan, sub.shape, inflight) {
                    self.dispatch_batch(batch);
                }
            }
            Err(e) => {
                let failed = Completed::Layer(LayerDone {
                    id: sub.id,
                    result: Err(e.into()),
                    cache_hit: false,
                    worker: None,
                    batch_size: 0,
                    submitted: sub.submitted,
                    finished: Instant::now(),
                });
                let _ = self.done.send(failed);
            }
        }
    }

    fn handle_open(&mut self, open: OpenSubmission) {
        let OpenSubmission { session, request, causal, submitted, events } = open;
        // Decode sessions compile the *causal* clip of the pattern (built
        // once at validation); its fingerprint keys the cache, so every
        // generation of the same pattern reuses one compiled plan. The
        // compiled program depends only on the pattern and the hardware —
        // per-head K/V state and row dimensions live in the session — so
        // the key uses a canonical single-head, unit-dim shape: sessions
        // differing only in head count or head dimension share one entry
        // instead of double-caching identical programs.
        let shape = match AttentionShape::new(causal.n(), 1, 1) {
            Ok(s) => s,
            Err(e) => {
                let reason = format!("shape: {e}");
                return self.fail_open(
                    session,
                    &events,
                    submitted,
                    ServeError::InvalidRequest { reason },
                );
            }
        };
        let key = PlanKey { pattern_fp: causal.fingerprint(), shape, config_fp: self.config_fp };
        match self.cache.get_or_compile(key, &causal, self.compiler.config(), || {
            self.compiler.compile(&causal, &shape)
        }) {
            Ok((plan, cache_hit)) => {
                let worker = self.place_session();
                let job = Job::Request {
                    request: AttentionRequest::DecodeOpen {
                        session,
                        pattern: PatternHandle::new(Arc::new(causal), plan),
                        head_dim: request.head_dim,
                        num_heads: request.num_heads,
                        prompt: request.prompt,
                    },
                    reply: Reply::Open { session, cache_hit, submitted, events: events.clone() },
                };
                match self.pool.dispatch_to(worker, job) {
                    Ok(()) => self.table.insert(session, worker, events),
                    Err(_) => self.fail_open(session, &events, submitted, ServeError::WorkerLost),
                }
            }
            Err(e) => self.fail_open(session, &events, submitted, e.into()),
        }
    }

    /// Picks the worker a new session is pinned to. Sessions are
    /// long-lived, so the primary signal is how many live sessions each
    /// worker already hosts; transient queue depth only breaks ties
    /// (alone it would be 0 everywhere whenever the queues are idle and
    /// pin every session to worker 0).
    fn place_session(&mut self) -> usize {
        self.reap_retired();
        let pinned = self.table.pinned_per_worker(self.pool.workers());
        (0..self.pool.workers()).min_by_key(|&w| (pinned[w], self.pool.load_of(w), w)).unwrap_or(0)
    }

    /// Drops the routes of sessions the workers have retired (poisoning
    /// step failures, failed opens). Their clients never send another
    /// message for them — `step_session`/`close_session` already report
    /// `UnknownSession` — so without this sweep the routes would leak
    /// until shutdown.
    fn reap_retired(&mut self) {
        for session in self.registry.drain_retired() {
            self.table.remove(session);
        }
    }

    fn fail_open(
        &mut self,
        session: u64,
        events: &Sender<SessionEvent>,
        submitted: Instant,
        error: ServeError,
    ) {
        // Deregister before reporting: once the client has observed the
        // failed handshake, the id is guaranteed gone (steps report
        // `UnknownSession`, `active_sessions` does not count it).
        self.registry.remove(session);
        let _ = events.send(SessionEvent::Opened { session, result: Err(error) });
        let _ = self.done.send(Completed::SessionOpened {
            ok: false,
            submitted,
            finished: Instant::now(),
        });
    }

    fn handle_step(&mut self, session: u64, token: Vec<TokenQkv>, submitted: Instant) {
        let Some(route) = self.table.get(session) else {
            // Closed (or retired) by the time the step arrived — a benign
            // race, not an execution failure. The depth gauge still needs
            // its exit, but the step must not pollute the decode metrics.
            let _ = self.done.send(Completed::StepDropped);
            return;
        };
        // No liveness check here beyond the route: the registry is the
        // *front-end* gate, and consulting it now would let a
        // `close_session` issued after this step was accepted fail the
        // step retroactively (the removal happens on the caller thread,
        // ahead of the queued `Ingress::Close`). A step that still has a
        // route executes; if its session was meanwhile retired
        // worker-side, the worker reports `UnknownSession` on the job's
        // own event channel.
        let job = Job::Step(StepJob { session, token, submitted, events: route.events.clone() });
        if self.pool.dispatch_to(route.worker, job).is_err() {
            // The pinned worker's thread is gone, taking the session
            // state with it: retire the session outright (registry and
            // route), so further steps report `UnknownSession` instead of
            // `WorkerLost` forever — and deliver the terminal Closed
            // event here, since no worker ever will.
            let route = self.table.remove(session).expect("route was just read");
            self.registry.remove(session);
            let _ = route.events.send(SessionEvent::Step {
                session,
                result: Err(ServeError::WorkerLost),
                latency_s: submitted.elapsed().as_secs_f64(),
            });
            // Position unknown — the state died with the worker.
            let _ = route.events.send(SessionEvent::Closed { session, position: None });
            let _ =
                self.done.send(Completed::Step { ok: false, submitted, finished: Instant::now() });
        }
    }

    fn handle_close(&mut self, session: u64) {
        if let Some(route) = self.table.remove(session) {
            let job = Job::Request {
                request: AttentionRequest::DecodeClose { session },
                reply: Reply::Close { session, events: route.events.clone() },
            };
            if self.pool.dispatch_to(route.worker, job).is_err() {
                // The pinned worker died with the session state; it can
                // never send the terminal Closed event, so deliver it
                // here (position unknown) rather than leave the client
                // blocking for it.
                let _ = route.events.send(SessionEvent::Closed { session, position: None });
            }
        }
    }
}

fn collector_loop(
    done: &Receiver<Completed>,
    ordered: &Sender<ServeResponse>,
    workers: usize,
    out: &Mutex<Option<CollectorSummary>>,
    metrics: &MetricsRegistry,
) {
    fn span(submitted: Instant, finished: Instant, summary: &mut CollectorSummary) {
        summary.first_submit = Some(summary.first_submit.map_or(submitted, |t| t.min(submitted)));
        summary.last_finish = Some(summary.last_finish.map_or(finished, |t| t.max(finished)));
    }
    // Fetch the registry handles once; every completion then updates them
    // lock-free. These counters/histograms are what `shutdown` rebuilds
    // the `ServeReport` from.
    let depth = metrics.gauge("serve.queue_depth");
    let requests_c = metrics.counter("serve.requests");
    let errors_c = metrics.counter("serve.errors");
    let latency_h = metrics.histogram("serve.latency_ns");
    let saturation_c = metrics.counter("serve.saturation_events");
    let sessions_c = metrics.counter("serve.decode.sessions");
    let session_errors_c = metrics.counter("serve.decode.session_errors");
    let steps_c = metrics.counter("serve.decode.steps");
    let step_errors_c = metrics.counter("serve.decode.step_errors");
    let step_latency_h = metrics.histogram("serve.decode.step_latency_ns");
    let mut summary = CollectorSummary { per_worker: vec![0; workers], ..Default::default() };
    let mut pending: BTreeMap<u64, ServeResponse> = BTreeMap::new();
    let mut next_id = 0u64;
    while let Ok(completed) = done.recv() {
        depth.add(-1);
        match completed {
            Completed::Layer(layer) => {
                let latency_s = layer.finished.duration_since(layer.submitted).as_secs_f64();
                requests_c.inc();
                latency_h.record_secs(latency_s);
                match &layer.result {
                    Ok(run) => {
                        summary.sim_cycles +=
                            run.heads.iter().map(|h| h.report.timing.cycles.total).sum::<u64>();
                        summary.sim_energy_j += run.total_energy_j;
                        saturation_c
                            .add(run.heads.iter().map(|h| h.report.saturation_events).sum());
                    }
                    Err(_) => errors_c.inc(),
                }
                if let Some(w) = layer.worker {
                    summary.per_worker[w] += 1;
                }
                span(layer.submitted, layer.finished, &mut summary);
                pending.insert(
                    layer.id,
                    ServeResponse {
                        id: layer.id,
                        result: layer.result,
                        cache_hit: layer.cache_hit,
                        worker: layer.worker,
                        batch_size: layer.batch_size,
                        latency_s,
                    },
                );
                while let Some(response) = pending.remove(&next_id) {
                    next_id += 1;
                    // The client may have stopped reading; metrics still
                    // count.
                    let _ = ordered.send(response);
                }
            }
            Completed::SessionOpened { ok, submitted, finished } => {
                sessions_c.inc();
                if !ok {
                    session_errors_c.inc();
                }
                // Opens pay the compile + prompt ingest; their span counts
                // toward the report's wall clock like any other work.
                span(submitted, finished, &mut summary);
            }
            Completed::Step { ok, submitted, finished } => {
                steps_c.inc();
                if !ok {
                    step_errors_c.inc();
                }
                let step_s = finished.duration_since(submitted).as_secs_f64();
                step_latency_h.record_secs(step_s);
                span(submitted, finished, &mut summary);
            }
            // A benign close/step race: the step never executed, so it
            // contributes nothing to the decode counters or latencies
            // (only the depth-gauge exit above).
            Completed::StepDropped => {}
        }
    }
    *out.lock().expect("summary poisoned") = Some(summary);
}
