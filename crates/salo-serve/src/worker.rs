//! The worker pool: N execution engines behind channels.
//!
//! Each worker thread owns a [`LoweredEngine`] (modeling one physical
//! accelerator) and consumes [`Job`]s: layers, session opens and closes
//! travel as typed [`AttentionRequest`]s, so their worker body is one
//! `engine.execute(request)` call plus reply routing ([`Reply`]); decode
//! steps travel as [`StepJob`]s, which the scheduler tick below gathers
//! into runs. Decode sessions are *pinned*: their per-head K/V state
//! lives inside the worker's engine for the whole generation, so steps
//! never cross threads and the state is never locked.
//!
//! Three resources amortize across the pool's lifetime: the engines share
//! one set of exponential/reciprocal lookup tables (behind `Arc` inside
//! the accelerator), each engine carries one scratch across every request
//! and step it ever serves, and session K/V pages recycle through each
//! engine's shared page pool.
//!
//! # The scheduler tick
//!
//! Each `recv` on the job channel opens one *scheduler tick*: the worker
//! opportunistically drains whatever else is already queued (bounded by
//! [`TICK_DRAIN_BATCHES`]), then walks the tick's jobs strictly in
//! arrival order. Every maximal contiguous run of decode steps for
//! *distinct* sessions — at most one pending step per ready session, by
//! construction — becomes a single
//! [`AttentionRequest::DecodeStepBatch`], executed as one multi-session
//! pass over the engine's shared scratch. A second step for a session
//! already in the run ends the run and opens the next one, so
//! per-session step order is untouched. A run of one is the same pass at
//! width one — there is no other way for a step to execute — so a token
//! gets the same outcome whether or not a neighbour happened to share
//! its tick: outputs, per-entry errors and retirement are decided by the
//! one engine routine (pinned alone-vs-fused by the root `engines` and
//! `decode` suites).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use salo_core::{AttentionRequest, Engine, LoweredEngine, MultiHeadRun, PrefillOutput, Salo};
use salo_sim::DEFAULT_PAGE_ROWS;
use salo_trace::{Counter, Gauge, MetricsRegistry};

use crate::session::{DecodeStep, SessionEvent, SessionInfo, SessionRegistry, TokenQkv};
use crate::ServeError;

/// Bound on the extra job batches one scheduler tick may drain beyond the
/// blocking `recv` that opened it. Keeps a firehose of submissions from
/// starving the tick's first job while still giving concurrently
/// submitted steps a window to land in the same fused pass.
const TICK_DRAIN_BATCHES: usize = 64;

/// One unit of work travelling to a worker.
pub(crate) enum Job {
    /// A layer, session open or session close: the typed `request` goes
    /// straight into the engine, `reply` says where (and how) the outcome
    /// is reported.
    Request { request: AttentionRequest, reply: Reply },
    /// One decode step, gathered into a run by the scheduler tick.
    Step(StepJob),
}

/// One decode step on its way to the pinned worker: the token payload
/// plus the reply route.
pub(crate) struct StepJob {
    pub session: u64,
    pub token: Vec<TokenQkv>,
    pub submitted: Instant,
    pub events: Sender<SessionEvent>,
}

/// Response routing for a [`Job::Request`] — the only per-kind metadata
/// left outside the typed request itself.
pub(crate) enum Reply {
    /// A layer request: the result enters the ordered response stream.
    Layer { id: u64, cache_hit: bool, batch_size: usize, submitted: Instant },
    /// A decode-session open: the handshake goes to the session channel.
    Open { session: u64, cache_hit: bool, submitted: Instant, events: Sender<SessionEvent> },
    /// A session close: the terminal event goes to the session channel.
    Close { session: u64, events: Sender<SessionEvent> },
}

/// A finished layer request, reported by a worker to the collector.
#[derive(Debug)]
pub(crate) struct LayerDone {
    pub id: u64,
    pub result: Result<MultiHeadRun, ServeError>,
    pub cache_hit: bool,
    /// `None` when the request failed before reaching a worker.
    pub worker: Option<usize>,
    pub batch_size: usize,
    pub submitted: Instant,
    pub finished: Instant,
}

/// Anything a worker (or the dispatcher, for pre-worker failures) reports
/// to the collector.
#[derive(Debug)]
pub(crate) enum Completed {
    /// A layer request finished; enters the ordered response stream.
    Layer(LayerDone),
    /// A decode session finished opening (metrics only — the client hears
    /// through the session channel). Opens pay compile + prompt ingest,
    /// so they carry timestamps and count toward the report's wall span.
    SessionOpened { ok: bool, submitted: Instant, finished: Instant },
    /// A decode step finished (metrics only).
    Step { ok: bool, submitted: Instant, finished: Instant },
    /// A decode step was dropped without executing because its session
    /// was already closed when the dispatcher saw it (a benign
    /// close/step race). Exits the depth gauge but is not a step
    /// execution — it must not count as a decode step or error.
    StepDropped,
}

/// Pre-resolved registry handles for the decode scheduler's telemetry:
/// fetched once at pool spawn, shared by every worker (the underlying
/// counters and gauges are atomic), updated lock-free on the hot path.
#[derive(Clone)]
struct DecodeMetrics {
    /// Scheduler ticks that fused (>= 2 steps in one pass).
    ticks: Arc<Counter>,
    /// Steps executed through fused passes (`fused_steps / ticks` is the
    /// mean fusion width).
    fused_steps: Arc<Counter>,
    /// MAC saturation events over every successful step: clipping is
    /// silent in the outputs, so this is where it shows.
    saturation_events: Arc<Counter>,
    /// Sum over successful steps of the stepped session's resident K/V
    /// bytes — divided by the step count it is the mean paged footprint.
    resident_kv_byte_steps: Arc<Counter>,
    /// Pages currently resident in a worker's pool, sampled every tick;
    /// its high-water mark is the report's peak-resident gauge.
    resident_pages: Arc<Gauge>,
    /// The pools' own lifetime occupancy high-water, mirrored every tick.
    pool_pages: Arc<Gauge>,
    /// Pages proven dead by the reclamation horizon and recycled.
    page_reclaims: Arc<Counter>,
    /// Allocations refused by a bounded pool at capacity.
    pool_exhausted: Arc<Counter>,
}

impl DecodeMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            ticks: registry.counter("serve.decode.ticks"),
            fused_steps: registry.counter("serve.decode.fused_steps"),
            saturation_events: registry.counter("serve.decode.saturation_events"),
            resident_kv_byte_steps: registry.counter("serve.decode.resident_kv_byte_steps"),
            resident_pages: registry.gauge("serve.decode.resident_pages"),
            pool_pages: registry.gauge("serve.decode.pool_pages"),
            page_reclaims: registry.counter("serve.decode.page_reclaims"),
            pool_exhausted: registry.counter("serve.decode.pool_exhausted"),
        }
    }
}

/// Last-published pool counters of one worker, so each tick pushes only
/// the *delta* into the shared registry counters (the pool's own counts
/// are cumulative and per-engine).
#[derive(Default)]
struct PoolWatch {
    reclaimed: u64,
    exhausted: u64,
}

/// Mirrors one worker's page-pool state into the shared registry: gauges
/// take the raw values (their high-water marks are max-merged across
/// workers by construction), counters take deltas since the last publish.
fn publish_pool_stats(engine: &LoweredEngine, metrics: &DecodeMetrics, watch: &mut PoolWatch) {
    let Some(stats) = engine.kv_pool_stats() else { return };
    metrics.resident_pages.set(stats.in_use as i64);
    metrics.pool_pages.set(stats.high_water as i64);
    metrics.page_reclaims.add(stats.reclaimed - watch.reclaimed);
    metrics.pool_exhausted.add(stats.exhausted - watch.exhausted);
    watch.reclaimed = stats.reclaimed;
    watch.exhausted = stats.exhausted;
}

/// Handles to the worker threads plus their load counters.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Vec<Job>>>,
    outstanding: Vec<Arc<AtomicUsize>>,
    pub handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads, each owning an engine built from `salo`.
    /// `parallelism` is the engines' prefill shard count (`0` inherits
    /// the `SALO_PARALLELISM` environment default). `decode_page_rows` /
    /// `decode_pool_pages` configure each engine's K/V page pool (`None`
    /// is `DEFAULT_PAGE_ROWS` rows, unbounded); decode telemetry lands
    /// in `metrics`.
    #[allow(clippy::too_many_arguments)] // one call site, in SaloServer::start
    pub fn spawn(
        workers: usize,
        parallelism: usize,
        decode_page_rows: Option<usize>,
        decode_pool_pages: Option<usize>,
        salo: &Salo,
        done: &Sender<Completed>,
        registry: &Arc<SessionRegistry>,
        metrics: &Arc<MetricsRegistry>,
    ) -> Self {
        let workers = workers.max(1);
        let parallelism = if parallelism == 0 { salo_core::env_parallelism() } else { parallelism };
        let decode_metrics = DecodeMetrics::new(metrics);
        let mut senders = Vec::with_capacity(workers);
        let mut outstanding = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx) = std::sync::mpsc::channel::<Vec<Job>>();
            let load = Arc::new(AtomicUsize::new(0));
            // Engines built from one Salo share its lookup tables.
            let mut engine = salo.engine_with_parallelism(parallelism);
            if decode_page_rows.is_some() || decode_pool_pages.is_some() {
                let rows = decode_page_rows.unwrap_or(DEFAULT_PAGE_ROWS);
                engine.configure_kv_pool(rows, decode_pool_pages);
            }
            let worker_done = done.clone();
            let worker_load = Arc::clone(&load);
            let worker_registry = Arc::clone(registry);
            let worker_metrics = decode_metrics.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("salo-serve-worker-{index}"))
                    .spawn(move || {
                        worker_loop(
                            index,
                            engine,
                            &rx,
                            &worker_done,
                            &worker_load,
                            &worker_registry,
                            &worker_metrics,
                        )
                    })
                    .expect("spawn worker thread"),
            );
            senders.push(tx);
            outstanding.push(load);
        }
        Self { senders, outstanding, handles }
    }

    /// Number of workers in the pool.
    pub fn workers(&self) -> usize {
        self.outstanding.len()
    }

    /// Outstanding work units queued on one worker.
    pub fn load_of(&self, worker: usize) -> usize {
        self.outstanding[worker].load(Ordering::Relaxed)
    }

    /// The worker with the fewest outstanding work units — where the
    /// dispatcher routes batches. (Session pinning additionally weighs
    /// live pinned sessions; see the dispatcher's placement.)
    pub fn least_loaded(&self) -> usize {
        self.outstanding
            .iter()
            .enumerate()
            .min_by_key(|(_, load)| load.load(Ordering::Relaxed))
            .map_or(0, |(i, _)| i)
    }

    /// Sends a batch of jobs to the least-loaded worker (by outstanding
    /// request count). On failure — the chosen worker's thread is gone —
    /// the jobs are handed back so the caller can fail their requests
    /// instead of dropping them.
    pub fn dispatch(&self, jobs: Vec<Job>) -> Result<(), Vec<Job>> {
        let target = self.least_loaded();
        self.outstanding[target].fetch_add(jobs.len(), Ordering::Relaxed);
        match self.senders[target].send(jobs) {
            Ok(()) => Ok(()),
            Err(std::sync::mpsc::SendError(jobs)) => {
                self.outstanding[target].fetch_sub(jobs.len(), Ordering::Relaxed);
                Err(jobs)
            }
        }
    }

    /// Sends one session job to a specific (pinned) worker. Returns the
    /// job back if that worker's thread is gone.
    #[allow(clippy::result_large_err)] // the Err is the undelivered job itself
    pub fn dispatch_to(&self, worker: usize, job: Job) -> Result<(), Job> {
        self.outstanding[worker].fetch_add(1, Ordering::Relaxed);
        match self.senders[worker].send(vec![job]) {
            Ok(()) => Ok(()),
            Err(std::sync::mpsc::SendError(mut jobs)) => {
                self.outstanding[worker].fetch_sub(1, Ordering::Relaxed);
                Err(jobs.pop().expect("one job sent, one returned"))
            }
        }
    }

    /// Closes the submission side; workers drain their queues and exit.
    pub fn close(&mut self) {
        self.senders.clear();
    }
}

fn worker_loop(
    index: usize,
    mut engine: LoweredEngine,
    rx: &Receiver<Vec<Job>>,
    done: &Sender<Completed>,
    load: &AtomicUsize,
    registry: &SessionRegistry,
    metrics: &DecodeMetrics,
) {
    let mut watch = PoolWatch::default();
    while let Ok(mut jobs) = rx.recv() {
        // Open the tick: drain whatever else is already queued (bounded),
        // so steps submitted close together can fuse below.
        let mut drained = 0usize;
        while drained < TICK_DRAIN_BATCHES {
            match rx.try_recv() {
                Ok(more) => {
                    jobs.extend(more);
                    drained += 1;
                }
                Err(_) => break,
            }
        }
        if !run_tick(index, &mut engine, jobs, done, load, registry, metrics) {
            return; // collector is gone; nothing left to report to
        }
        publish_pool_stats(&engine, metrics, &mut watch);
    }
}

/// Processes one scheduler tick's jobs strictly in arrival order, running
/// each maximal contiguous run of distinct-session decode steps as one
/// batched engine pass. Returns `false` once the collector is gone.
#[allow(clippy::too_many_arguments)]
fn run_tick(
    index: usize,
    engine: &mut LoweredEngine,
    jobs: Vec<Job>,
    done: &Sender<Completed>,
    load: &AtomicUsize,
    registry: &SessionRegistry,
    metrics: &DecodeMetrics,
) -> bool {
    let mut run: Vec<StepJob> = Vec::new();
    let flush = |run: &mut Vec<StepJob>, engine: &mut LoweredEngine| -> bool {
        run.is_empty()
            || run_steps(index, engine, std::mem::take(run), done, load, registry, metrics)
    };
    for job in jobs {
        match job {
            Job::Step(step) => {
                if run.iter().any(|s| s.session == step.session) {
                    // A second step for a session already in the run: it
                    // must observe the first step's state, so the run ends
                    // here and this step opens the next one — per-session
                    // order is preserved by construction.
                    if !flush(&mut run, engine) {
                        return false;
                    }
                }
                run.push(step);
            }
            Job::Request { request, reply } => {
                if !flush(&mut run, engine) {
                    return false;
                }
                if !run_job(index, engine, request, reply, done, load, registry) {
                    return false;
                }
            }
        }
    }
    flush(&mut run, engine)
}

/// Executes a run of distinct-session decode steps — one or many — as one
/// [`AttentionRequest::DecodeStepBatch`] pass, then routes every entry's
/// outcome: queue-wait recorded at dequeue, retirement settled and load
/// released before the event sends, one [`Completed::Step`] per entry, in
/// run order.
#[allow(clippy::too_many_arguments)]
fn run_steps(
    index: usize,
    engine: &mut LoweredEngine,
    steps: Vec<StepJob>,
    done: &Sender<Completed>,
    load: &AtomicUsize,
    registry: &SessionRegistry,
    metrics: &DecodeMetrics,
) -> bool {
    let tracer = salo_trace::Tracer::global();
    let tick_span = tracer.span_with("serve.decode.tick", "serve", steps.len() as u64);
    if steps.len() >= 2 {
        metrics.ticks.inc();
        metrics.fused_steps.add(steps.len() as u64);
    }
    let mut routes = Vec::with_capacity(steps.len());
    let mut batch = Vec::with_capacity(steps.len());
    for step in steps {
        tracer.record_since("serve.decode.queue_wait", "serve", step.submitted, step.session);
        // Liveness and position snapshots *before* the pass, per entry.
        let known = engine.has_session(step.session);
        let before = engine.session_position(step.session);
        routes.push((step.session, step.submitted, step.events, known, before));
        batch.push((step.session, step.token));
    }
    let executed = engine
        .execute(AttentionRequest::DecodeStepBatch { steps: batch })
        .and_then(|r| r.into_step_batch());
    let results = match executed {
        Ok(list) => {
            debug_assert!(
                list.len() == routes.len()
                    && list.iter().zip(&routes).all(|((sid, _), (rs, ..))| sid == rs),
                "fused results align with the run, in order"
            );
            list.into_iter().map(|(_, result)| result).collect::<Vec<_>>()
        }
        // The batch itself was rejected (an engine without decode, a
        // malformed request): every member step failed identically.
        Err(e) => routes.iter().map(|_| Err(e.clone())).collect(),
    };
    drop(tick_span);
    for ((session, submitted, events, known, before), result) in routes.into_iter().zip(results) {
        let ok = result.is_ok();
        // Bookkeeping (load, registry retirement) strictly precedes the
        // event sends: a client that has observed a step's outcome must
        // see the worker's state already settled — retired sessions
        // reject further steps, and session placement reads a load this
        // step no longer inflates. A failure that desynced the per-head
        // states made the engine retire the session; propagate that
        // runtime-wide. Pre-mutation validation failures leave it live
        // (and decodable), and steps for sessions this engine never held
        // were retired long ago.
        let poisoned = known && !engine.has_session(session);
        if poisoned {
            registry.retire(session);
        }
        load.fetch_sub(1, Ordering::Relaxed);
        if let Ok(step) = &result {
            metrics.resident_kv_byte_steps.add(step.telemetry.resident_kv_bytes.unwrap_or(0));
            metrics.saturation_events.add(step.telemetry.saturation_events);
        }
        let result = result
            .map(|step| DecodeStep { position: step.position, heads: step.heads, worker: index })
            .map_err(ServeError::from);
        let _reply_span = tracer.span_with("serve.reply", "serve", session);
        let _ = events.send(SessionEvent::Step {
            session,
            result,
            latency_s: submitted.elapsed().as_secs_f64(),
        });
        if poisoned {
            // `before` is the tokens known ingested when the failing step
            // began; the failing token's partial ingest died with the
            // session state.
            let _ = events.send(SessionEvent::Closed { session, position: before });
        }
        if done.send(Completed::Step { ok, submitted, finished: Instant::now() }).is_err() {
            return false;
        }
    }
    true
}

/// Executes one layer, open or close on the worker's engine and routes
/// its outcome. Returns `false` once the collector is gone.
fn run_job(
    index: usize,
    engine: &mut LoweredEngine,
    request: AttentionRequest,
    reply: Reply,
    done: &Sender<Completed>,
    load: &AtomicUsize,
    registry: &SessionRegistry,
) -> bool {
    let tracer = salo_trace::Tracer::global();
    match reply {
        Reply::Layer { id, cache_hit, batch_size, submitted } => {
            // Queue wait: submission to execution start, recorded from
            // this worker's dequeue (it includes the dispatcher's plan
            // lookup and batch formation ahead of the worker queue).
            tracer.record_since("serve.queue_wait", "serve", submitted, id);
            let result = engine
                .execute(request)
                .and_then(|r| r.into_prefill())
                .and_then(PrefillOutput::into_multi_head_run)
                .map_err(ServeError::from);
            load.fetch_sub(1, Ordering::Relaxed);
            let _reply_span = tracer.span_with("serve.reply", "serve", id);
            let completed = Completed::Layer(LayerDone {
                id,
                result,
                cache_hit,
                worker: Some(index),
                batch_size,
                submitted,
                finished: Instant::now(),
            });
            done.send(completed).is_ok()
        }
        Reply::Open { session, cache_hit, submitted, events } => {
            tracer.record_since("serve.queue_wait", "serve", submitted, session);
            let result = engine.execute(request).and_then(|r| r.into_opened());
            load.fetch_sub(1, Ordering::Relaxed);
            let ok = result.is_ok();
            let info = result.map(|opened| SessionInfo {
                worker: index,
                min_step: opened.min_step,
                position: opened.position,
                capacity: opened.capacity,
                cache_hit,
            });
            if !ok {
                // Deregister before reporting, so a client that saw the
                // failed handshake gets `UnknownSession` from any later
                // `step_session` instead of a silent drop; the retirement
                // also queues the dispatcher route for reaping.
                registry.retire(session);
            }
            let _ = events
                .send(SessionEvent::Opened { session, result: info.map_err(ServeError::from) });
            let completed = Completed::SessionOpened { ok, submitted, finished: Instant::now() };
            done.send(completed).is_ok()
        }
        Reply::Close { session, events } => {
            load.fetch_sub(1, Ordering::Relaxed);
            if let Ok(closed) = engine.execute(request).and_then(|r| r.into_closed()) {
                let _ =
                    events.send(SessionEvent::Closed { session, position: Some(closed.position) });
            }
            true
        }
    }
}
