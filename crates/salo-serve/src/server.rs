//! The concurrent serving runtime: dispatcher and worker pool.
//!
//! ```text
//!     submit_into() / open_session_into() / step_session()    ingress channel
//!   client ─────────────────────────────────────────────▶ dispatcher
//!     (each request names the Sender<ServeEvent>         │  plan cache
//!      its result is owed to)                            │  batcher
//!                                                        │  session table (session -> pinned worker)
//!                                              batches   ▼  + session work
//!                                   ┌──────────┬──────────┬──────────┐
//!                                   │ worker 0 │ worker 1 │ worker N │   (one Salo each,
//!                                   └────┬─────┴────┬─────┴────┬─────┘    pinned session states)
//!                                        │          │          │
//!   client ◀─────────────────────────────┴──────────┴──────────┘
//!     one send, by the worker that finished the request, on the sender it
//!     came in with: Layer / Opened / Step / Closed
//! ```
//!
//! The dispatcher resolves each layer request's [`PlanKey`] against the
//! shared [`PlanCache`] (a hit skips the scheduler pass entirely), groups
//! compatible requests into same-plan batches, and ships each batch to the
//! least-loaded worker. Decode sessions are pinned at open time: the
//! session table maps each session id to its worker, and every step routes
//! there, so the session's persistent K/V state never moves or locks.
//!
//! There is one way out: whoever finishes a request — its worker, or the
//! dispatcher when it fails before reaching one — sends its
//! [`ServeEvent`] on the sender the request came in with. Nothing sits
//! between the workers and the client, so layers arrive in completion
//! order and a session's events in generation order.
//! [`submit`](SaloServer::submit) + [`recv`](SaloServer::recv) is the
//! server as its own client: it keeps the receiver, and `recv` — the one
//! reader that promises submission order — restores it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use salo_core::{AttentionRequest, PatternHandle, Salo};
use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::AcceleratorConfig;
use salo_trace::{Counter, MetricsRegistry};

use crate::batch::{Batcher, InFlight};
use crate::metrics::{LatencyStats, ServeReport, TenantCounters};
use crate::session::{
    DecodeSessionHandle, ServeEvent, SessionRegistry, SessionRequest, SessionTable, TokenQkv,
};
use crate::worker::{Job, LayerTicket, Reply, ServeMetrics, StepJob, WorkerPool};
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
    /// (a [`ServeEvent::Closed`] follows the error).
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

/// Everything that can enter the dispatcher.
enum Ingress {
    /// A one-shot attention-layer request.
    Layer(LayerTicket, ServeRequest),
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
    events: Sender<ServeEvent>,
}

/// The receiving end of the server's own sink: what
/// [`SaloServer::submit_for`] submits into and [`SaloServer::recv`] reads.
struct OwnSink {
    events: Receiver<ServeEvent>,
    /// Responses that arrived ahead of the one `recv` owes next.
    early: BTreeMap<u64, ServeResponse>,
}

/// A running SALO serving instance.
///
/// Submit layer requests with [`submit`](Self::submit); read responses —
/// in submission order — with [`recv`](Self::recv). Open decode sessions
/// with [`open_session`](Self::open_session), drive them with
/// [`step_session`](Self::step_session) (results arrive on the session's
/// own event channel). A front end multiplexing many clients hands
/// [`submit_into`](Self::submit_into) and
/// [`open_session_into`](Self::open_session_into) clones of one sender and
/// reads every result from the one receiver. End the runtime with
/// [`shutdown`](Self::shutdown), which drains in-flight work, joins every
/// thread and returns the aggregate [`ServeReport`].
pub struct SaloServer {
    config: AcceleratorConfig,
    ingress: Option<Sender<Ingress>>,
    /// The server as its own client: `submit_for` submits into
    /// `own_events`, `recv` reads the other end.
    own_events: Sender<ServeEvent>,
    own: Mutex<OwnSink>,
    /// Ids `submit_for` handed out and `recv` has not returned yet, in
    /// increasing order (`submit_into` traffic leaves gaps between them).
    own_ids: Mutex<VecDeque<u64>>,
    cache: Arc<PlanCache>,
    next_id: AtomicU64,
    next_session: AtomicU64,
    sessions: Arc<SessionRegistry>,
    metrics: Arc<MetricsRegistry>,
    /// The registry handles the dispatcher and the workers record through.
    counts: ServeMetrics,
    /// Each tenant's `serve.tenant.{id}.requests` counter, resolved by
    /// name on the tenant's first request and by id afterwards.
    tenant_requests: Mutex<HashMap<u64, Arc<Counter>>>,
    /// Returns the workers' simulated energy (see [`Dispatcher::run`]).
    dispatcher: JoinHandle<f64>,
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
    /// Starts the runtime: one dispatcher and `options.workers` workers
    /// (each owning a [`Salo`] built from `config`).
    #[must_use]
    pub fn start(config: AcceleratorConfig, options: ServeOptions) -> Self {
        let workers = options.workers.max(1);
        let cache = Arc::new(PlanCache::new(options.cache_capacity, options.cache_shards));
        let sessions = Arc::new(SessionRegistry::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let counts = ServeMetrics::new(&metrics, workers);

        let (ingress_tx, ingress_rx) = std::sync::mpsc::channel::<Ingress>();
        let (own_events, own_rx) = std::sync::mpsc::channel();

        let compiler = Salo::new(config.clone());
        let dispatcher = Dispatcher {
            pool: WorkerPool::spawn(workers, &options, &compiler, &sessions, &counts),
            // The accelerator configuration is fixed for the server's
            // lifetime; fingerprint it once instead of per request.
            config_fp: compiler.config().fingerprint(),
            compiler,
            cache: Arc::clone(&cache),
            batcher: Batcher::new(options.max_batch),
            metrics: counts.clone(),
            table: SessionTable::new(),
            registry: Arc::clone(&sessions),
        };
        let dispatcher = std::thread::Builder::new()
            .name("salo-serve-dispatcher".into())
            .spawn(move || dispatcher.run(&ingress_rx))
            .expect("spawn dispatcher thread");

        Self {
            config,
            ingress: Some(ingress_tx),
            own_events,
            own: Mutex::new(OwnSink { events: own_rx, early: BTreeMap::new() }),
            own_ids: Mutex::new(VecDeque::new()),
            cache,
            next_id: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            sessions,
            metrics,
            counts,
            tenant_requests: Mutex::new(HashMap::new()),
            dispatcher,
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
        // Submitted under the lock, so own ids queue in increasing order
        // whoever else is submitting.
        let mut own_ids = self.own_ids.lock().expect("own ids poisoned");
        let id = self.submit_into(tenant, request, self.own_events.clone())?;
        own_ids.push_back(id);
        Ok(id)
    }

    /// [`submit_for`](Self::submit_for) reporting into a channel the
    /// caller supplies — the layer twin of
    /// [`open_session_into`](Self::open_session_into). The response
    /// arrives on `events` as a [`ServeEvent::Layer`] when its worker
    /// finishes it — completion order, not submission order — and never
    /// through [`recv`](Self::recv).
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_into(
        &self,
        tenant: u64,
        request: ServeRequest,
        events: Sender<ServeEvent>,
    ) -> Result<u64, ServeError> {
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
        self.counts.depth.add(1);
        let ticket = LayerTicket { id, submitted: Instant::now(), events };
        if ingress.send(Ingress::Layer(ticket, request)).is_err() {
            self.counts.depth.add(-1);
            return Err(ServeError::Closed);
        }
        Ok(id)
    }

    /// Opens a streaming decode session: the pattern is causally clipped
    /// and compiled (through the shared plan cache — one compiled plan
    /// amortizes across every generation of the same pattern/shape), the
    /// session is pinned to the least-loaded worker, and the prompt is
    /// ingested there. The returned handle's event channel delivers the
    /// open handshake ([`ServeEvent::Opened`]) followed by one
    /// [`ServeEvent::Step`] per [`step_session`](Self::step_session)
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
        events: Sender<ServeEvent>,
    ) -> Result<u64, ServeError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining);
        }
        let causal = request.validated_view()?.into_causal_pattern();
        let ingress = self.ingress.as_ref().ok_or(ServeError::Closed)?;
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        let _span = salo_trace::span_with("serve.session_open", "serve", session);
        self.count_tenant_request(tenant);
        self.counts.depth.add(1);
        // Register before submitting: an asynchronous open failure
        // deregisters the id, and that removal must not race ahead of
        // the insert (a late insert would leak the dead session).
        let decode_steps = self.metrics.counter(&format!("serve.tenant.{tenant}.decode_steps"));
        self.sessions.insert(session, decode_steps);
        let submission =
            OpenSubmission { session, request, causal, submitted: Instant::now(), events };
        if ingress.send(Ingress::Open(submission)).is_err() {
            self.sessions.remove(session);
            self.counts.depth.add(-1);
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
    /// in the step event; [`ServeEvent::Step`] says which of them
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
        self.counts.depth.add(1);
        if ingress.send(Ingress::Step { session, token, submitted: Instant::now() }).is_err() {
            self.counts.depth.add(-1);
            return Err(ServeError::Closed);
        }
        Ok(())
    }

    /// Closes a decode session, dropping its pinned state. The session's
    /// channel receives a final [`ServeEvent::Closed`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] if the session is not live
    /// — never opened, already closed, or already retired by a failure
    /// (a poisoned session counts as closed; its channel received the
    /// [`ServeEvent::Closed`] at poison time). Returns
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

    /// Blocks for the next response to a [`submit`](Self::submit) /
    /// [`submit_for`](Self::submit_for) request, in submission
    /// (increasing-id) order: a response that completed ahead of an
    /// earlier submission waits here until that one has been returned.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] once the runtime has shut down and
    /// every response has been delivered.
    pub fn recv(&self) -> Result<ServeResponse, ServeError> {
        let mut own = self.own.lock().expect("response receiver poisoned");
        loop {
            // Only this method pops, and it holds `own`: the front it
            // reads stays the front until it returns it.
            let mut own_ids = self.own_ids.lock().expect("own ids poisoned");
            if let Some(response) = own_ids.front().and_then(|id| own.early.remove(id)) {
                own_ids.pop_front();
                return Ok(response);
            }
            drop(own_ids);
            if let ServeEvent::Layer(response) =
                own.events.recv().map_err(|_| ServeError::Closed)?
            {
                own.early.insert(response.id, response);
            }
        }
    }

    /// Requests currently in flight (submitted, not yet completed),
    /// decode opens and steps included.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.counts.depth.get().max(0) as usize
    }

    /// This server's metrics registry: named counters, gauges and
    /// mergeable log-bucket histograms that whoever completes a request
    /// updates before sending its result (`serve.requests`,
    /// `serve.latency_ns`, `serve.decode.steps`, ...), so a client that
    /// has seen a result finds it counted. Per-server — two instances in one
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
    /// [`ServeEvent::Closed`], and waits — up to `deadline` — for all
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
        self.ingress.take(); // closes ingress: dispatcher → workers wind down
        let sim_energy_j = self.dispatcher.join().expect("serving thread panicked");
        let wall_s = self.counts.wall_s();
        // Every counter in the report is read back from the registry —
        // whoever completed a request recorded it there. The latency
        // histograms ride on the report whole; the summaries are derived
        // from them.
        let counter = |name: &str| self.metrics.counter(name).get();
        let peak = |name: &str| self.metrics.gauge(name).high_water().max(0) as u64;
        let (batches, batched) = (counter("serve.batches"), counter("serve.batched_requests"));
        let requests = counter("serve.requests");
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
            errors: counter("serve.errors"),
            wall_s,
            throughput_rps: if wall_s > 0.0 { requests as f64 / wall_s } else { 0.0 },
            latency: LatencyStats::from_histogram(&latency_hist),
            latency_hist,
            cache: self.cache.stats(),
            batches,
            mean_batch_size: if batches > 0 { batched as f64 / batches as f64 } else { 0.0 },
            max_queue_depth: peak("serve.queue_depth") as usize,
            sim_cycles: counter("serve.sim_cycles"),
            sim_energy_j,
            per_worker_requests: (0..self.workers)
                .map(|w| counter(&format!("serve.worker.{w}.requests")))
                .collect(),
            decode_sessions: counter("serve.decode.sessions"),
            decode_session_errors: counter("serve.decode.session_errors"),
            decode_steps: counter("serve.decode.steps"),
            decode_step_errors: counter("serve.decode.step_errors"),
            decode_step_latency: LatencyStats::from_histogram(&decode_step_latency_hist),
            decode_step_latency_hist,
            decode_resident_kv_byte_steps: counter("serve.decode.resident_kv_byte_steps"),
            decode_peak_resident_pages: peak("serve.decode.resident_pages"),
            decode_peak_pool_pages: peak("serve.decode.pool_pages"),
            decode_page_reclaims: counter("serve.decode.page_reclaims"),
            decode_pool_exhausted: counter("serve.decode.pool_exhausted"),
            tenants,
        }
    }
}

/// Dispatcher thread state.
///
/// Plan compilation for cache misses runs inline here, on the single
/// dispatcher thread: the cache stays single-writer and a cold key is
/// compiled exactly once. The tradeoff is that one cold-key scheduler
/// pass (`bench/`'s `serve.plan_cache.miss_us`, ~0.4–1.6 ms at paper
/// scale) delays the dispatch of queued cache-hit requests behind it;
/// workloads mixing many novel patterns with hot traffic would want
/// compile shipped to the workers instead.
struct Dispatcher {
    compiler: Salo,
    cache: Arc<PlanCache>,
    pool: WorkerPool,
    batcher: Batcher,
    metrics: ServeMetrics,
    table: SessionTable,
    registry: Arc<SessionRegistry>,
    config_fp: u64,
}

impl Dispatcher {
    /// Serves ingress until it closes, then joins the workers and returns
    /// their simulated energy, summed in worker order.
    fn run(mut self, ingress: &Receiver<Ingress>) -> f64 {
        // Bound on the opportunistic drain between flushes: under
        // sustained open-loop traffic the submission queue may never run
        // empty, and without this bound an under-filled bucket could be
        // held back indefinitely.
        let drain_limit = self.pool.workers() * self.batcher.max_batch();
        while let Ok(first) = ingress.recv() {
            self.reap_retired();
            let mut next = Some(first);
            let mut drained = 0usize;
            while let Some(msg) = next.take() {
                match msg {
                    Ingress::Layer(ticket, request) => self.handle_layer(ticket, request),
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
        self.pool.join()
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
                reply: Reply::Layer { ticket: req.ticket, cache_hit: req.cache_hit, batch_size },
            })
            .collect();
        match self.pool.dispatch(jobs) {
            Ok(()) => self.metrics.count_batch(size),
            // The routed worker's thread is gone: fail every member
            // request so clients see an error instead of hanging on a
            // response that will never come.
            Err(jobs) => {
                for job in jobs {
                    let Job::Request { reply: Reply::Layer { ticket, cache_hit, .. }, .. } = job
                    else {
                        unreachable!("batches carry only layer replies");
                    };
                    let lost = Err(ServeError::WorkerLost);
                    self.metrics.complete_layer(ticket, cache_hit, lost, None, 0);
                }
            }
        }
    }

    fn handle_layer(&mut self, ticket: LayerTicket, request: ServeRequest) {
        let ServeRequest { pattern, shape, heads } = request;
        let key = PlanKey { pattern_fp: pattern.fingerprint(), shape, config_fp: self.config_fp };
        let lookup = salo_trace::span_with("serve.plan_lookup", "serve", ticket.id);
        let compiled = self.cache.get_or_compile(key, &pattern, self.compiler.config(), || {
            self.compiler.compile(&pattern, &shape)
        });
        drop(lookup);
        match compiled {
            Ok((plan, cache_hit)) => {
                let _form = salo_trace::span_with("serve.batch_form", "serve", ticket.id);
                let inflight = InFlight { ticket, heads, cache_hit };
                if let Some(batch) =
                    self.batcher.push(key, &Arc::new(pattern), &plan, shape, inflight)
                {
                    self.dispatch_batch(batch);
                }
            }
            Err(e) => self.metrics.complete_layer(ticket, false, Err(e.into()), None, 0),
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
        events: &Sender<ServeEvent>,
        submitted: Instant,
        error: ServeError,
    ) {
        // Deregister before reporting: once the client has observed the
        // failed handshake, the id is guaranteed gone (steps report
        // `UnknownSession`, `active_sessions` does not count it).
        self.registry.remove(session);
        self.metrics.complete_open(events, session, submitted, Err(error));
    }

    fn handle_step(&mut self, session: u64, token: Vec<TokenQkv>, submitted: Instant) {
        let Some(route) = self.table.get(session) else {
            // Closed (or retired) by the time the step arrived — a benign
            // race, not an execution failure. The depth gauge still needs
            // its exit, but the step must not pollute the decode metrics.
            self.metrics.depth.add(-1);
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
            // Position unknown — the state died with the worker.
            let failed = Err(ServeError::WorkerLost);
            self.metrics.complete_step(&route.events, session, submitted, failed, Some(None));
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
                let _ = route.events.send(ServeEvent::Closed { session, position: None });
            }
        }
    }
}
