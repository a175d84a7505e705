//! The concurrent serving runtime: a front end that routes, and a worker
//! pool that schedules and executes.
//!
//! ```text
//!     submit_into() / open_session_into() / step_session() / close_session()
//!   client ──────────────────────────────────────────────┐  on the calling thread:
//!     (each request names the Sender<ServeEvent>         │  layers -> least-loaded worker
//!      its result is owed to)                            │  sessions -> the one session table
//!                                                        │  (session -> pinned worker, events)
//!                                      one Job, one hop  ▼
//!                                   ┌──────────┬──────────┬──────────┐   (one accelerator each:
//!                                   │ worker 0 │ worker 1 │ worker N │    plan cache lookup /
//!                                   └────┬─────┴────┬─────┴────┬─────┘    compile, then execute;
//!                                        │          │          │          pinned session states)
//!   client ◀─────────────────────────────┴──────────┴──────────┘
//!     one send, by the worker that finished the request, on the sink it
//!     came in with: Layer / Opened / Step / Closed — or, for the steps of
//!     one fused pass owed to one shared sink, one Steps
//! ```
//!
//! There is one way in: the submitting thread picks the worker — the
//! least-loaded one for a layer, the pinned one for a session's step or
//! close — and sends the [`Job`] straight to that worker's queue. The
//! worker is the accelerator instance, scheduler included: it resolves
//! the request's [`PlanKey`](crate::PlanKey) against the shared
//! [`PlanCache`] (a hit skips the scheduler pass entirely, a miss compiles
//! there, stalling that worker and nobody else) and executes. Decode
//! sessions are pinned at open time: the session table maps each session
//! id to its worker, and every step goes there, so the session's
//! persistent K/V state never moves or locks.
//!
//! There is one way out: whoever finishes a request — its worker, or the
//! submitter when the worker's thread is gone — sends its
//! [`ServeEvent`] on the [`EventSink`] the request came in with. Nothing
//! sits between the workers and the client, so layers arrive in
//! completion order and a session's events in generation order.
//! [`submit`](SaloServer::submit) + [`recv`](SaloServer::recv) is the
//! server as its own client: it keeps the receiver, and `recv` — the one
//! reader that promises submission order — restores it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use salo_core::{FixedQkv, Salo};
use salo_sim::AcceleratorConfig;
use salo_trace::MetricsRegistry;

use crate::metrics::ServeReport;
use crate::session::{
    DecodeSessionHandle, EventSink, LiveSession, ServeEvent, SessionRegistry, SessionRequest,
    TokenQkv,
};
use crate::worker::{Job, LayerTicket, ServeMetrics, StepJob, WorkerPool};
use crate::{PlanCache, ServeError, ServeRequest, ServeResponse};

/// Tunables of the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Number of worker threads, each modeling one accelerator instance.
    pub workers: usize,
    /// Not read by anything: the runtime forms no batches, and the
    /// gateway's in-flight window is set by `workers` alone. Kept only
    /// because `bench/` still sets it.
    pub max_batch: usize,
    /// Total compiled plans the cache may hold.
    pub cache_capacity: usize,
    /// Not read by the runtime: the plan cache is one map under one lock,
    /// holding at most `cache_capacity` plans. Kept only because `bench/`
    /// still sets it.
    pub cache_shards: usize,
    /// Not read by the runtime: a prefill runs on its worker's thread,
    /// and a process uses more cores by running more `workers`. Kept only
    /// because `bench/` still sets it.
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
            worker_parallelism: 1,
            decode_page_rows: None,
            decode_pool_pages: None,
        }
    }
}

/// The receiving end of the server's own sink: what
/// [`SaloServer::submit`] submits into and [`SaloServer::recv`] reads.
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
/// [`open_session_into`](Self::open_session_into) clones of one
/// [`EventSink`] and reads every result from the one receiver. The one
/// way to stop is [`shutdown`](Self::shutdown): every worker finishes the
/// jobs already queued to it, every thread is joined, and the aggregate
/// [`ServeReport`] is returned. A front end that owes its sessions a
/// terminal [`ServeEvent::Closed`] closes them first.
pub struct SaloServer {
    config: AcceleratorConfig,
    pool: WorkerPool,
    /// The server as its own client: `submit` submits into
    /// `own_events`, `recv` reads the other end.
    own_events: EventSink,
    own: Mutex<OwnSink>,
    /// Ids `submit` handed out and `recv` has not returned yet, in
    /// increasing order (`submit_into` traffic leaves gaps between them).
    own_ids: Mutex<VecDeque<u64>>,
    cache: Arc<PlanCache>,
    next_id: AtomicU64,
    next_session: AtomicU64,
    sessions: Arc<SessionRegistry>,
    metrics: Arc<MetricsRegistry>,
    /// The registry handles the front end and the workers record through.
    counts: ServeMetrics,
}

impl std::fmt::Debug for SaloServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaloServer")
            .field("workers", &self.pool.workers())
            .field("queue_depth", &self.queue_depth())
            .field("sessions", &self.active_sessions())
            .field("cache", &self.cache)
            .finish()
    }
}

impl SaloServer {
    /// Starts the runtime: `options.workers` workers, each owning a
    /// [`Salo`] built from `config` and sharing one plan cache.
    #[must_use]
    pub fn start(config: AcceleratorConfig, options: ServeOptions) -> Self {
        let workers = options.workers.max(1);
        let cache = Arc::new(PlanCache::new(options.cache_capacity, 1));
        let sessions = Arc::new(SessionRegistry::new(workers));
        let metrics = Arc::new(MetricsRegistry::new());
        let counts = ServeMetrics::new(&metrics, workers);
        let salo = Salo::new(config.clone());
        let pool = WorkerPool::spawn(workers, &options, &salo, &cache, &sessions, &counts);
        let (own_events, own_rx) = std::sync::mpsc::channel();

        Self {
            config,
            pool,
            own_events: own_events.into(),
            own: Mutex::new(OwnSink { events: own_rx, early: BTreeMap::new() }),
            own_ids: Mutex::new(VecDeque::new()),
            cache,
            next_id: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            sessions,
            metrics,
            counts,
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

    /// Submits a layer request; returns its id. Responses come back
    /// through [`recv`](Self::recv) in increasing-id order, so a client
    /// that submits `k` requests reads exactly `k` responses.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] if the request is internally
    /// inconsistent. A request whose worker's thread is gone is accepted
    /// and answered with [`ServeError::WorkerLost`].
    pub fn submit(&self, request: ServeRequest) -> Result<u64, ServeError> {
        // Submitted under the lock, so own ids queue in increasing order
        // whoever else is submitting.
        let mut own_ids = self.own_ids.lock().expect("own ids poisoned");
        let id = self.submit_into(request, self.own_events.clone())?;
        own_ids.push_back(id);
        Ok(id)
    }

    /// [`submit`](Self::submit); the tenant is ignored — the server keeps
    /// no per-tenant state, the gateway counts tenants where it admits
    /// them. Kept only because `bench/` still calls it by this name.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_for(&self, _tenant: u64, request: ServeRequest) -> Result<u64, ServeError> {
        self.submit(request)
    }

    /// [`submit`](Self::submit) reporting into a channel the
    /// caller supplies — the layer twin of
    /// [`open_session_into`](Self::open_session_into). The response
    /// arrives on `events` — a `Sender<ServeEvent>`, or a clone of the
    /// [`EventSink`] a multiplexing front end shares with its sessions — as
    /// a [`ServeEvent::Layer`] when its worker finishes it: completion
    /// order, not submission order, and never through
    /// [`recv`](Self::recv). A layer is always a message of its own.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_into(
        &self,
        request: ServeRequest,
        events: impl Into<EventSink>,
    ) -> Result<u64, ServeError> {
        let events = events.into();
        // Re-validate: the fields are public, so the request may not have
        // come through `ServeRequest::new`.
        let request = ServeRequest::new(request.pattern, request.shape, request.heads)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let _span = salo_trace::span_with("serve.admission", "serve", id);
        self.counts.depth.add(1);
        let ticket = LayerTicket { id, submitted: Instant::now(), events };
        if let Err(job) = self.pool.send(self.pool.least_loaded(), Job::Layer { ticket, request }) {
            job.lose(&self.counts);
        }
        Ok(id)
    }

    /// Opens a streaming decode session: the session is pinned to the
    /// worker hosting the fewest live sessions, and there the pattern is
    /// causally clipped, the clip compiled (through the shared plan
    /// cache — one compiled plan amortizes across every generation of the
    /// same pattern/shape) and the prompt ingested. The returned handle's
    /// event channel delivers the open handshake
    /// ([`ServeEvent::Opened`]) followed by one [`ServeEvent::Step`] per
    /// [`step_session`](Self::step_session) call, in order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] on an inconsistent request
    /// ([`SessionRequest::validate`]: prompt not covering the globals,
    /// head mismatches). A pattern whose causal clip is empty is refused
    /// with [`ServeError::InvalidRequest`] in the `Opened` event instead,
    /// and clip and compile failures arrive there too and deregister the
    /// session:
    /// once [`wait_open`](DecodeSessionHandle::wait_open) has reported
    /// the failure, the id is gone and further calls on it return
    /// [`ServeError::UnknownSession`].
    pub fn open_session(&self, request: SessionRequest) -> Result<DecodeSessionHandle, ServeError> {
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let id = self.open_session_into(request, events_tx)?;
        Ok(DecodeSessionHandle { id, events: events_rx })
    }

    /// [`open_session`](Self::open_session); the tenant is ignored, as
    /// [`submit_for`](Self::submit_for)'s is. Kept only because `bench/`
    /// still calls it by this name.
    ///
    /// # Errors
    ///
    /// As [`open_session`](Self::open_session).
    pub fn open_session_for(
        &self,
        _tenant: u64,
        request: SessionRequest,
    ) -> Result<DecodeSessionHandle, ServeError> {
        self.open_session(request)
    }

    /// [`open_session`](Self::open_session) reporting into a
    /// channel the caller supplies; returns the session id. A front end
    /// multiplexing many sessions hands every open a clone of one
    /// [`EventSink`] and reads all their events — each carries its session
    /// id — from the single receiver, instead of blocking on a handle per
    /// session. The steps one worker pass completes for sessions on that
    /// sink arrive as one [`ServeEvent::Steps`], in the order the pass ran
    /// them, so the receiver wakes once per pass rather than once per
    /// token. A plain `Sender<ServeEvent>` is a sink of its own and sees
    /// each event on its own, as a session handle does.
    ///
    /// The prompt reaches the worker quantized: an `f32` request is
    /// quantized here, on the calling thread, and a request already in
    /// [`FixedQkv`] rows (the gateway's, quantized as its frame was read)
    /// is passed on as it is.
    ///
    /// # Errors
    ///
    /// As [`open_session`](Self::open_session).
    pub fn open_session_into(
        &self,
        request: impl Into<SessionRequest<FixedQkv>>,
        events: impl Into<EventSink>,
    ) -> Result<u64, ServeError> {
        let request = request.into();
        request.validate()?;
        let events = events.into();
        // Placement, registration and the send are one step under the
        // table's lock, so a close — the one thing that removes a live
        // session at the front end — sends to its worker after this open's
        // job, never ahead of it.
        let mut table = self.sessions.lock();
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        let _span = salo_trace::span_with("serve.session_open", "serve", session);
        self.counts.depth.add(1);
        let worker = table.place(|w| self.pool.load_of(w));
        table.insert(session, LiveSession { worker, events: events.clone() });
        let job = Job::Open { session, request, submitted: Instant::now(), events };
        if let Err(job) = self.pool.send(worker, job) {
            table.remove(session);
            drop(table);
            job.lose(&self.counts);
        }
        Ok(session)
    }

    /// Submits one decode step: `token` carries the new position's
    /// `(q, k, v)` rows for every head. The result arrives on the
    /// session handle's event channel.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownSession`] for a session this server
    /// never opened — or that is no longer live: closed, dropped by a
    /// poisoning step failure, or failed to open. Execution failures
    /// arrive in the step event; [`ServeEvent::Step`] says which of them
    /// retire the session, and that every accepted step gets exactly one.
    pub fn step_session(&self, session: u64, token: Vec<TokenQkv>) -> Result<(), ServeError> {
        // The front gate and the route in one lookup. No second liveness
        // check follows: a step accepted here executes if its session is
        // still in the worker's engine when it gets there, and reports
        // the engine's `UnknownSession` on its own event channel if not.
        let (worker, events) = {
            let table = self.sessions.lock();
            let live = table.get(session).ok_or(ServeError::UnknownSession { session })?;
            (live.worker, live.events.clone())
        };
        let _span = salo_trace::span_with("serve.session_step", "serve", session);
        self.counts.depth.add(1);
        let job = Job::Step(StepJob { session, token, submitted: Instant::now(), events });
        if let Err(job) = self.pool.send(worker, job) {
            // The pinned worker's thread is gone, taking the session
            // state with it: retire the session outright, so further
            // steps report `UnknownSession` instead of `WorkerLost`
            // forever.
            self.sessions.lock().remove(session);
            job.lose(&self.counts);
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
    /// [`ServeEvent::Closed`] at poison time).
    pub fn close_session(&self, session: u64) -> Result<(), ServeError> {
        // Removed first, so a concurrent close cannot send a second
        // `Job::Close`.
        let removed = self.sessions.lock().remove(session);
        let LiveSession { worker, events } =
            removed.ok_or(ServeError::UnknownSession { session })?;
        if let Err(job) = self.pool.send(worker, Job::Close { session, events }) {
            job.lose(&self.counts);
        }
        Ok(())
    }

    /// Number of live sessions: opened and not yet closed — explicitly,
    /// by a poisoning step failure, or by a failed open.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Blocks for the next response to a [`submit`](Self::submit)
    /// request, in submission
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

    /// The runtime's one way to stop: closes every worker's queue, lets
    /// each worker run the jobs already queued to it (closes included),
    /// joins every thread and returns the session report. Responses not
    /// yet read via [`recv`](Self::recv) are discarded; sessions still
    /// open are dropped with their channels, without a terminal
    /// [`ServeEvent::Closed`] — close them first to send one.
    #[must_use]
    pub fn shutdown(self) -> ServeReport {
        let workers = self.pool.workers();
        // Closes the workers' queues: each drains what it holds and exits.
        let sim_energy_j = self.pool.join();
        let wall_s = self.counts.wall_s();
        // Every counter in the report is read back from the registry —
        // whoever completed a request recorded it there. The latency
        // histograms ride on the report whole.
        let counter = |name: &str| self.metrics.counter(name).get();
        let peak = |name: &str| self.metrics.gauge(name).high_water().max(0) as u64;
        let (batches, batched) = (counter("serve.batches"), counter("serve.batched_requests"));
        let requests = counter("serve.requests");
        let latency_hist = self.metrics.histogram("serve.latency_ns").snapshot();
        let decode_step_latency_hist =
            self.metrics.histogram("serve.decode.step_latency_ns").snapshot();
        ServeReport {
            requests,
            errors: counter("serve.errors"),
            wall_s,
            throughput_rps: if wall_s > 0.0 { requests as f64 / wall_s } else { 0.0 },
            latency_hist,
            cache: self.cache.stats(),
            batches,
            mean_batch_size: if batches > 0 { batched as f64 / batches as f64 } else { 0.0 },
            max_queue_depth: peak("serve.queue_depth") as usize,
            sim_cycles: counter("serve.sim_cycles"),
            sim_energy_j,
            per_worker_requests: (0..workers)
                .map(|w| counter(&format!("serve.worker.{w}.requests")))
                .collect(),
            decode_sessions: counter("serve.decode.sessions"),
            decode_session_errors: counter("serve.decode.session_errors"),
            decode_steps: counter("serve.decode.steps"),
            decode_step_errors: counter("serve.decode.step_errors"),
            decode_step_latency_hist,
            decode_resident_kv_byte_steps: counter("serve.decode.resident_kv_byte_steps"),
            decode_peak_resident_pages: peak("serve.decode.resident_pages"),
            decode_peak_pool_pages: peak("serve.decode.pool_pages"),
            decode_page_reclaims: counter("serve.decode.page_reclaims"),
            decode_pool_exhausted: counter("serve.decode.pool_exhausted"),
        }
    }
}
