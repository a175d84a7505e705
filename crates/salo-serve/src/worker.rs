//! The worker pool: N accelerator instances behind channels.
//!
//! Each worker thread owns a [`LoweredEngine`] (modeling one physical
//! accelerator) and consumes [`Job`]s the front end sends it directly.
//! SALO is a data scheduler in front of its own spatial array, one unit,
//! and so is a worker: a layer or a session open arrives as the client
//! sent it, the worker resolves its plan against the shared
//! [`PlanCache`] — compiling on a miss — and executes it. A cold compile
//! therefore stalls the worker it runs on and nobody else. Decode
//! sessions are *pinned*: their per-head K/V state lives inside the
//! worker's engine for the whole generation, so steps never cross
//! threads and the state is never locked.
//!
//! Every job carries the [`EventSink`] its request came in with.
//! Whoever completes it (a worker here, the submitter for a job whose
//! worker is gone) does so through [`ServeMetrics`], in one order per
//! message: **metrics, then the message, then the depth exit** — a client
//! that has seen a result finds it counted, and a queue depth of zero
//! means every event was sent.
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
//! [`TICK_DRAIN_JOBS`]), then walks the tick's jobs strictly in
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
//!
//! The array gets a whole pass, and so does the front end: once a run has
//! executed, the steps owed to one sink leave as one message, in run
//! order — a [`ServeEvent::Steps`] when the run held two or more of them,
//! the step's own events when it held one. A front end that reads every
//! session from one receiver is woken once per run, not once per token;
//! a session's own channel never holds two steps of one run, so it sees
//! plain events.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use salo_core::{
    AttentionRequest, CompiledPlan, Engine, FixedQkv, LoweredEngine, MultiHeadRun, PatternHandle,
    PrefillOutput, Salo,
};
use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::{KeySpan, DEFAULT_PAGE_ROWS};
use salo_trace::{Counter, Gauge, LogHistogram, MetricsRegistry};

use crate::session::{
    DecodeStep, EventSink, ServeEvent, SessionInfo, SessionRegistry, SessionRequest, TokenQkv,
};
use crate::{PlanCache, PlanKey, ServeError, ServeOptions, ServeRequest, ServeResponse};

/// Bound on the extra jobs one scheduler tick may drain beyond the
/// blocking `recv` that opened it. Keeps a firehose of submissions from
/// starving the tick's first job while still giving concurrently
/// submitted steps a window to land in the same fused pass.
const TICK_DRAIN_JOBS: usize = 64;

/// One unit of work travelling to a worker, with the sink its outcome is
/// owed on.
pub(crate) enum Job {
    /// A layer request: answered with [`ServeEvent::Layer`].
    Layer { ticket: LayerTicket, request: ServeRequest },
    /// A decode-session open: answered with [`ServeEvent::Opened`].
    Open { session: u64, request: SessionRequest<FixedQkv>, submitted: Instant, events: EventSink },
    /// One decode step, gathered into a run by the scheduler tick.
    Step(StepJob),
    /// A session close: answered with the terminal [`ServeEvent::Closed`].
    Close { session: u64, events: EventSink },
}

impl Job {
    /// Completes a job whose worker's thread is gone, so its client sees
    /// an error instead of hanging on a result that will never come. The
    /// state of a session pinned there died with it: a lost step is
    /// followed by the terminal `Closed` no worker will ever send
    /// (position unknown), and a lost close is answered by it.
    pub fn lose(self, metrics: &ServeMetrics) {
        let lost = ServeError::WorkerLost;
        match self {
            Job::Layer { ticket, .. } => metrics.complete_layer(ticket, false, Err(lost), None),
            Job::Open { session, submitted, events, .. } => {
                metrics.complete_open(&events, session, submitted, Err(lost));
            }
            Job::Step(StepJob { session, submitted, events, .. }) => {
                let (result, retired) = (Err(lost), Some(None));
                let done = StepDone { events, session, submitted, result, retired };
                metrics.complete_steps(vec![done]);
            }
            Job::Close { session, events } => {
                events.send(ServeEvent::Closed { session, position: None });
            }
        }
    }
}

/// One decode step on its way to the pinned worker: the token payload
/// plus the reply route.
pub(crate) struct StepJob {
    pub session: u64,
    pub token: Vec<TokenQkv>,
    pub submitted: Instant,
    pub events: EventSink,
}

/// One decode step's outcome on its way out of the runtime.
pub(crate) struct StepDone {
    pub events: EventSink,
    pub session: u64,
    pub submitted: Instant,
    pub result: Result<DecodeStep, ServeError>,
    /// `Some(position)` when the failure took the session with it: the
    /// terminal [`ServeEvent::Closed`] follows the step event.
    pub retired: Option<Option<usize>>,
}

/// What a layer request carries from submission to completion: its id,
/// when it was submitted, and the sink its response is owed on.
#[derive(Debug, Clone)]
pub(crate) struct LayerTicket {
    pub id: u64,
    pub submitted: Instant,
    pub events: EventSink,
}

/// Pre-resolved registry handles for everything the runtime counts:
/// fetched once at start, shared by the front end and every worker (the
/// underlying counters, gauges and histograms are atomic), updated
/// lock-free on the hot path. Every request finishes through one of the
/// `complete_*` methods.
#[derive(Clone)]
pub(crate) struct ServeMetrics {
    /// `serve.queue_depth`: entered at submission, exited by the
    /// completion — after its event.
    pub depth: Arc<Gauge>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<LogHistogram>,
    /// MAC saturation events over every successful layer.
    saturation_events: Arc<Counter>,
    /// Simulated cycles over every successful layer, all heads.
    sim_cycles: Arc<Counter>,
    /// `serve.worker.{i}.requests`: layers each worker executed.
    worker_requests: Vec<Arc<Counter>>,
    /// Worker ticks that ran at least one layer, and the layers they ran.
    batches: Arc<Counter>,
    batched_requests: Arc<Counter>,
    sessions: Arc<Counter>,
    session_errors: Arc<Counter>,
    steps: Arc<Counter>,
    step_errors: Arc<Counter>,
    step_latency: Arc<LogHistogram>,
    /// The wall span — first submission to last completion — as
    /// nanoseconds since `epoch`, so each end is one atomic min/max.
    epoch: Instant,
    first_submit_ns: Arc<AtomicU64>,
    last_finish_ns: Arc<AtomicU64>,
    /// Scheduler ticks that fused (>= 2 steps in one pass).
    ticks: Arc<Counter>,
    /// Steps executed through fused passes (`fused_steps / ticks` is the
    /// mean fusion width).
    fused_steps: Arc<Counter>,
    /// MAC saturation events over every successful step: clipping is
    /// silent in the outputs, so this is where it shows.
    decode_saturation_events: Arc<Counter>,
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
    /// What each plan-cache miss left resident
    /// ([`CompiledPlan::resident_bytes`]), and how its lowered program
    /// names its keys: ops that are runs, keys that had to be listed.
    plan_bytes: Arc<LogHistogram>,
    plan_run_ops: Arc<Counter>,
    plan_gather_keys: Arc<Counter>,
}

impl ServeMetrics {
    pub fn new(registry: &MetricsRegistry, workers: usize) -> Self {
        Self {
            depth: registry.gauge("serve.queue_depth"),
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            latency: registry.histogram("serve.latency_ns"),
            saturation_events: registry.counter("serve.saturation_events"),
            sim_cycles: registry.counter("serve.sim_cycles"),
            worker_requests: (0..workers)
                .map(|w| registry.counter(&format!("serve.worker.{w}.requests")))
                .collect(),
            batches: registry.counter("serve.batches"),
            batched_requests: registry.counter("serve.batched_requests"),
            sessions: registry.counter("serve.decode.sessions"),
            session_errors: registry.counter("serve.decode.session_errors"),
            steps: registry.counter("serve.decode.steps"),
            step_errors: registry.counter("serve.decode.step_errors"),
            step_latency: registry.histogram("serve.decode.step_latency_ns"),
            epoch: Instant::now(),
            first_submit_ns: Arc::new(AtomicU64::new(u64::MAX)),
            last_finish_ns: Arc::new(AtomicU64::new(0)),
            ticks: registry.counter("serve.decode.ticks"),
            fused_steps: registry.counter("serve.decode.fused_steps"),
            decode_saturation_events: registry.counter("serve.decode.saturation_events"),
            resident_kv_byte_steps: registry.counter("serve.decode.resident_kv_byte_steps"),
            resident_pages: registry.gauge("serve.decode.resident_pages"),
            pool_pages: registry.gauge("serve.decode.pool_pages"),
            page_reclaims: registry.counter("serve.decode.page_reclaims"),
            pool_exhausted: registry.counter("serve.decode.pool_exhausted"),
            plan_bytes: registry.histogram("serve.plan_cache.plan_bytes"),
            plan_run_ops: registry.counter("sim.plan.run_ops"),
            plan_gather_keys: registry.counter("sim.plan.gather_keys"),
        }
    }

    /// Records the cost of a plan this worker just compiled, once the
    /// request that missed has run (an `Open` has lowered the decode
    /// program by then, so it is in the bytes).
    fn plan_compiled(&self, plan: &CompiledPlan) {
        self.plan_bytes.record(plan.resident_bytes() as u64);
        let runs = plan.lowered.ops().iter().filter(|op| matches!(op.keys, KeySpan::Run { .. }));
        self.plan_run_ops.add(runs.count() as u64);
        self.plan_gather_keys.add(plan.lowered.gather_keys().len() as u64);
    }

    /// The one clock read of a completion: the wall span takes it, and
    /// the latency it returns is what the event carries and what the
    /// histogram records.
    fn finish(&self, submitted: Instant) -> f64 {
        let finished = Instant::now();
        // Statistics: the two values publish no other data.
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.first_submit_ns.fetch_min(since(submitted), Ordering::Relaxed);
        self.last_finish_ns.fetch_max(since(finished), Ordering::Relaxed);
        finished.duration_since(submitted).as_secs_f64()
    }

    /// Seconds from the first submission to the last completion so far;
    /// zero before anything completed.
    pub fn wall_s(&self) -> f64 {
        let first = self.first_submit_ns.load(Ordering::Relaxed);
        let last = self.last_finish_ns.load(Ordering::Relaxed);
        last.saturating_sub(first) as f64 / 1e9
    }

    /// Completes a layer request. `worker` is `None` when it never
    /// reached a worker.
    pub(crate) fn complete_layer(
        &self,
        ticket: LayerTicket,
        cache_hit: bool,
        result: Result<MultiHeadRun, ServeError>,
        worker: Option<usize>,
    ) {
        let LayerTicket { id, submitted, events } = ticket;
        let latency_s = self.finish(submitted);
        self.requests.inc();
        self.latency.record_secs(latency_s);
        match &result {
            Ok(run) => {
                self.sim_cycles.add(run.heads.iter().map(|h| h.report.timing.cycles.total).sum());
                self.saturation_events
                    .add(run.heads.iter().map(|h| h.report.saturation_events).sum());
            }
            Err(_) => self.errors.inc(),
        }
        if let Some(worker) = worker {
            self.worker_requests[worker].inc();
        }
        let response = ServeResponse { id, result, cache_hit, worker, latency_s };
        events.send(ServeEvent::Layer(response));
        self.depth.add(-1);
    }

    /// Completes a session open. Opens pay the compile and the prompt
    /// ingest, so they count toward the wall span like any other work.
    pub(crate) fn complete_open(
        &self,
        events: &EventSink,
        session: u64,
        submitted: Instant,
        result: Result<SessionInfo, ServeError>,
    ) {
        self.finish(submitted);
        self.sessions.inc();
        if result.is_err() {
            self.session_errors.inc();
        }
        events.send(ServeEvent::Opened { session, result });
        self.depth.add(-1);
    }

    /// Completes a run of decode steps. The steps owed to one sink leave
    /// as one message, in run order: a [`ServeEvent::Steps`] when there
    /// are several, the step's own events when it is alone. Sinks are
    /// served in the order their first step ran.
    pub(crate) fn complete_steps(&self, run: Vec<StepDone>) {
        // (sink, the events owed on it, how many steps they answer).
        let mut owed: Vec<(EventSink, Vec<ServeEvent>, usize)> = Vec::new();
        for StepDone { events, session, submitted, result, retired } in run {
            let latency_s = self.finish(submitted);
            self.steps.inc();
            if result.is_err() {
                self.step_errors.inc();
            }
            self.step_latency.record_secs(latency_s);
            let at = owed.iter().position(|(sink, ..)| sink.is(&events)).unwrap_or_else(|| {
                owed.push((events, Vec::new(), 0));
                owed.len() - 1
            });
            let (_, message, steps) = &mut owed[at];
            message.push(ServeEvent::Step { session, result, latency_s });
            if let Some(position) = retired {
                message.push(ServeEvent::Closed { session, position });
            }
            *steps += 1;
        }
        for (sink, message, steps) in owed {
            if steps == 1 {
                message.into_iter().for_each(|event| sink.send(event));
            } else {
                sink.send(ServeEvent::Steps(message));
            }
            self.depth.add(-(steps as i64));
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
fn publish_pool_stats(engine: &LoweredEngine, metrics: &ServeMetrics, watch: &mut PoolWatch) {
    let stats = engine.kv_pool_stats();
    metrics.resident_pages.set(stats.in_use as i64);
    metrics.pool_pages.set(stats.high_water as i64);
    metrics.page_reclaims.add(stats.reclaimed - watch.reclaimed);
    metrics.pool_exhausted.add(stats.exhausted - watch.exhausted);
    watch.reclaimed = stats.reclaimed;
    watch.exhausted = stats.exhausted;
}

/// Handles to the worker threads plus their load counters.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Job>>,
    outstanding: Vec<Arc<AtomicUsize>>,
    /// Each worker returns the simulated energy of the layers it ran.
    handles: Vec<JoinHandle<f64>>,
}

impl WorkerPool {
    /// Spawns `workers` threads, each owning an engine built from `salo`
    /// and resolving its plans against `cache`. `options.decode_page_rows`
    /// / `decode_pool_pages` configure each engine's K/V page pool (`None`
    /// is `DEFAULT_PAGE_ROWS` rows, unbounded).
    pub fn spawn(
        workers: usize,
        options: &ServeOptions,
        salo: &Salo,
        cache: &Arc<PlanCache>,
        registry: &Arc<SessionRegistry>,
        metrics: &ServeMetrics,
    ) -> Self {
        let ServeOptions { decode_page_rows, decode_pool_pages, .. } = *options;
        // The accelerator configuration is fixed for the server's
        // lifetime; fingerprint it once instead of per request.
        let config_fp = salo.config().fingerprint();
        let mut senders = Vec::with_capacity(workers);
        let mut outstanding = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx) = std::sync::mpsc::channel::<Job>();
            let load = Arc::new(AtomicUsize::new(0));
            // Engines built from one Salo share its lookup tables.
            let mut engine = salo.engine();
            if decode_page_rows.is_some() || decode_pool_pages.is_some() {
                let rows = decode_page_rows.unwrap_or(DEFAULT_PAGE_ROWS);
                engine.configure_kv_pool(rows, decode_pool_pages);
            }
            let worker = Worker {
                index,
                engine,
                compiler: salo.clone(),
                config_fp,
                cache: Arc::clone(cache),
                load: Arc::clone(&load),
                registry: Arc::clone(registry),
                metrics: metrics.clone(),
                energy_j: 0.0,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("salo-serve-worker-{index}"))
                    .spawn(move || worker.run(&rx))
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

    /// The worker with the fewest outstanding work units — where layers
    /// go. (Session pinning additionally weighs live pinned sessions; see
    /// `Sessions::place`.)
    pub fn least_loaded(&self) -> usize {
        (0..self.workers()).min_by_key(|&w| self.load_of(w)).unwrap_or(0)
    }

    /// Sends one job straight to `worker`'s queue. On failure — that
    /// worker's thread is gone — the job is handed back so the caller can
    /// [`lose`](Job::lose) it instead of dropping it.
    #[allow(clippy::result_large_err)] // the Err is the undelivered job itself
    pub fn send(&self, worker: usize, job: Job) -> Result<(), Job> {
        self.outstanding[worker].fetch_add(1, Ordering::Relaxed);
        self.senders[worker].send(job).map_err(|std::sync::mpsc::SendError(job)| {
            self.outstanding[worker].fetch_sub(1, Ordering::Relaxed);
            job
        })
    }

    /// Closes the submission side — the workers drain their queues and
    /// exit — and returns their simulated energy, summed in worker order.
    pub fn join(self) -> f64 {
        drop(self.senders);
        self.handles.into_iter().map(|h| h.join().expect("worker thread panicked")).sum()
    }
}

/// One worker thread's state: an accelerator instance — the scheduler
/// (`compiler`, behind the shared plan cache) in front of its array
/// (`engine`).
struct Worker {
    index: usize,
    engine: LoweredEngine,
    compiler: Salo,
    config_fp: u64,
    cache: Arc<PlanCache>,
    load: Arc<AtomicUsize>,
    registry: Arc<SessionRegistry>,
    metrics: ServeMetrics,
    /// Simulated energy of the layers executed here. An `f64` sum depends
    /// on its order, so it is per worker, not a shared counter.
    energy_j: f64,
}

impl Worker {
    fn run(mut self, rx: &Receiver<Job>) -> f64 {
        let mut watch = PoolWatch::default();
        let mut jobs = Vec::new();
        while let Ok(first) = rx.recv() {
            // Open the tick: drain whatever else is already queued
            // (bounded), so steps submitted close together can fuse below.
            jobs.push(first);
            jobs.extend(rx.try_iter().take(TICK_DRAIN_JOBS));
            self.run_tick(&mut jobs);
            publish_pool_stats(&self.engine, &self.metrics, &mut watch);
        }
        self.energy_j
    }

    /// Processes one scheduler tick's jobs strictly in arrival order,
    /// running each maximal contiguous run of distinct-session decode
    /// steps as one batched engine pass.
    fn run_tick(&mut self, jobs: &mut Vec<Job>) {
        // The layers of one tick run back to back on this worker: that
        // count is what `serve.batches` / `serve.batched_requests`
        // measure.
        let layers = jobs.iter().filter(|job| matches!(job, Job::Layer { .. })).count();
        if layers > 0 {
            self.metrics.batches.inc();
            self.metrics.batched_requests.add(layers as u64);
        }
        let mut run: Vec<StepJob> = Vec::new();
        for job in jobs.drain(..) {
            match job {
                Job::Step(step) => {
                    if run.iter().any(|s| s.session == step.session) {
                        // A second step for a session already in the run:
                        // it must observe the first step's state, so the
                        // run ends here and this step opens the next one —
                        // per-session order is preserved by construction.
                        self.run_steps(std::mem::take(&mut run));
                    }
                    run.push(step);
                }
                Job::Layer { ticket, request } => {
                    self.run_steps(std::mem::take(&mut run));
                    self.run_layer(ticket, request);
                }
                Job::Open { session, request, submitted, events } => {
                    self.run_steps(std::mem::take(&mut run));
                    self.run_open(session, request, submitted, &events);
                }
                Job::Close { session, events } => {
                    self.run_steps(std::mem::take(&mut run));
                    let closed = self.engine.execute(AttentionRequest::DecodeClose { session });
                    self.load.fetch_sub(1, Ordering::Relaxed);
                    if let Ok(closed) = closed.and_then(|r| r.into_closed()) {
                        events
                            .send(ServeEvent::Closed { session, position: Some(closed.position) });
                    }
                }
            }
        }
        self.run_steps(run);
    }

    /// Executes a run of distinct-session decode steps — one or many — as
    /// one [`AttentionRequest::DecodeStepBatch`] pass, then completes the
    /// run, one message per sink: queue-wait recorded at dequeue, every
    /// entry's retirement settled and load released before the first
    /// message.
    fn run_steps(&mut self, steps: Vec<StepJob>) {
        if steps.is_empty() {
            return;
        }
        let Self { index, engine, load, registry, metrics, .. } = self;
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
        let mut run = Vec::with_capacity(routes.len());
        for ((session, submitted, events, known, before), result) in routes.into_iter().zip(results)
        {
            // Bookkeeping (load, registry retirement) strictly precedes
            // the completion: a client that has observed a step's outcome
            // must see the worker's state already settled — retired
            // sessions reject further steps, and session placement reads
            // a load this step no longer inflates. A failure that desynced
            // the per-head states made the engine retire the session;
            // propagate that runtime-wide. Pre-mutation validation
            // failures leave it live (and decodable), and steps for
            // sessions this engine never held were retired long ago.
            let poisoned = known && !engine.has_session(session);
            if poisoned {
                registry.lock().remove(session);
            }
            load.fetch_sub(1, Ordering::Relaxed);
            if let Ok(step) = &result {
                metrics.resident_kv_byte_steps.add(step.telemetry.resident_kv_bytes.unwrap_or(0));
                metrics.decode_saturation_events.add(step.telemetry.saturation_events);
            }
            let result = result
                .map(|step| DecodeStep {
                    position: step.position,
                    heads: step.heads,
                    worker: *index,
                })
                .map_err(ServeError::from);
            // `before` is the tokens known ingested when a poisoning step
            // began; the failing token's partial ingest died with the
            // session state.
            let retired = poisoned.then_some(before);
            run.push(StepDone { events, session, submitted, result, retired });
        }
        let _reply_span = tracer.span_with("serve.reply", "serve", run.len() as u64);
        metrics.complete_steps(run);
    }

    /// Looks the plan for `(pattern, shape)` up in the shared cache,
    /// running the scheduler pass here — on the instance that will execute
    /// it — when no worker has compiled it yet.
    fn resolve(
        &self,
        id: u64,
        pattern: &HybridPattern,
        shape: AttentionShape,
    ) -> Result<(Arc<CompiledPlan>, bool), ServeError> {
        let key = PlanKey { pattern_fp: pattern.fingerprint(), shape, config_fp: self.config_fp };
        let _lookup = salo_trace::span_with("serve.plan_lookup", "serve", id);
        let compile = || self.compiler.compile(pattern, &shape);
        Ok(self.cache.get_or_compile(key, pattern, self.compiler.config(), compile)?)
    }

    /// Resolves and executes one layer, and completes it on the sender it
    /// came in with.
    fn run_layer(&mut self, ticket: LayerTicket, request: ServeRequest) {
        let tracer = salo_trace::Tracer::global();
        // Queue wait: submission to this worker's dequeue.
        tracer.record_since("serve.queue_wait", "serve", ticket.submitted, ticket.id);
        let ServeRequest { pattern, shape, heads } = request;
        let resolved = self.resolve(ticket.id, &pattern, shape);
        let cache_hit = matches!(resolved, Ok((_, true)));
        let compiled = compiled_now(&resolved);
        let result = resolved.and_then(|(plan, _)| {
            let pattern = PatternHandle::new(Arc::new(pattern), plan);
            self.engine
                .execute(AttentionRequest::Prefill { pattern, shape, heads })
                .and_then(|r| r.into_prefill())
                .and_then(PrefillOutput::into_multi_head_run)
                .map_err(ServeError::from)
        });
        if let Some(plan) = compiled {
            self.metrics.plan_compiled(&plan);
        }
        self.load.fetch_sub(1, Ordering::Relaxed);
        if let Ok(run) = &result {
            self.energy_j += run.total_energy_j;
        }
        let _reply_span = tracer.span_with("serve.reply", "serve", ticket.id);
        self.metrics.complete_layer(ticket, cache_hit, result, Some(self.index));
    }

    /// Clips a session's pattern, resolves its plan, opens it on the
    /// worker's engine and completes the handshake.
    fn run_open(
        &mut self,
        session: u64,
        request: SessionRequest<FixedQkv>,
        submitted: Instant,
        events: &EventSink,
    ) {
        salo_trace::record_since("serve.queue_wait", "serve", submitted, session);
        // Decode sessions compile the *causal* clip of the pattern, built
        // here — once, on the worker, off every front-end lock. A clip
        // that fails (nothing causal in the pattern) is the client's
        // malformed request. The clip's fingerprint keys the cache, so
        // every generation of the same pattern reuses one compiled plan.
        // The compiled program depends only on the pattern and the
        // hardware — per-head K/V state and row dimensions live in the
        // session — so the key uses a canonical single-head, unit-dim
        // shape: sessions differing only in head count or head dimension
        // share one entry instead of double-caching identical programs.
        let resolved = request
            .pattern
            .decode_view()
            .map_err(|e| ServeError::InvalidRequest { reason: format!("pattern: {e}") })
            .and_then(|view| {
                let causal = view.into_causal_pattern();
                let shape = AttentionShape::new(causal.n(), 1, 1)
                    .map_err(|e| ServeError::InvalidRequest { reason: format!("shape: {e}") })?;
                self.resolve(session, &causal, shape)
            });
        let compiled = compiled_now(&resolved);
        let opened = resolved.and_then(|(plan, cache_hit)| {
            self.engine
                .execute(AttentionRequest::DecodeOpenFixed {
                    session,
                    pattern: PatternHandle::from_plan(plan),
                    head_dim: request.head_dim,
                    num_heads: request.num_heads,
                    prompt: request.prompt,
                })
                .and_then(|r| r.into_opened())
                .map(|opened| SessionInfo {
                    worker: self.index,
                    min_step: opened.min_step,
                    position: opened.position,
                    capacity: opened.capacity,
                    cache_hit,
                })
                .map_err(ServeError::from)
        });
        if let Some(plan) = compiled {
            self.metrics.plan_compiled(&plan);
        }
        self.load.fetch_sub(1, Ordering::Relaxed);
        if opened.is_err() {
            // Deregister before reporting: once the client has observed
            // the failed handshake, the id is gone — `step_session`
            // reports `UnknownSession`, `active_sessions` does not count
            // it, and its placement slot is free.
            self.registry.lock().remove(session);
        }
        self.metrics.complete_open(events, session, submitted, opened);
    }
}

/// The plan a lookup had to compile, if it did (a cache miss).
fn compiled_now(
    resolved: &Result<(Arc<CompiledPlan>, bool), ServeError>,
) -> Option<Arc<CompiledPlan>> {
    resolved.as_ref().ok().and_then(|(plan, hit)| (!hit).then(|| Arc::clone(plan)))
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, TryRecvError};

    use salo_kernels::Qkv;
    use salo_patterns::Window;
    use salo_sim::AcceleratorConfig;

    use super::*;
    use crate::session::LiveSession;

    /// One tick, driven on this thread: sessions 0, 1 and 2 report into
    /// one shared sink, session 3 into a channel of its own, and the run is
    /// `[0, 3, 1, 2]`. Session 2 has two heads and its step is refused a
    /// page for the second one, which retires it. The shared sink gets one
    /// message for its three steps, in run order, with the retired
    /// session's `Closed` right behind its `Step`; the private channel
    /// gets its step as a plain event.
    #[test]
    fn a_run_leaves_as_one_message_per_sink_in_run_order() {
        let registry = MetricsRegistry::new();
        let sessions = Arc::new(SessionRegistry::new(1));
        let salo = Salo::new(AcceleratorConfig::default());
        let mut engine = salo.engine();
        // One-row pages: the prompts take 2 rows × 5 heads = 10 pages, the
        // run's first three steps one each, and session 2's head 0 the
        // last one; its head 1 is refused after head 0 moved.
        engine.configure_kv_pool(1, Some(14));
        let mut worker = Worker {
            index: 0,
            engine,
            compiler: salo.clone(),
            config_fp: salo.config().fingerprint(),
            cache: Arc::new(PlanCache::new(4, 1)),
            load: Arc::new(AtomicUsize::new(0)),
            registry: Arc::clone(&sessions),
            metrics: ServeMetrics::new(&registry, 1),
            energy_j: 0.0,
        };
        let (shared_tx, shared) = channel();
        let (private_tx, private) = channel();
        let (shared_tx, private_tx) = (EventSink::from(shared_tx), EventSink::from(private_tx));
        let sink = |session: u64| if session == 3 { &private_tx } else { &shared_tx }.clone();
        let heads = |session: u64| if session == 2 { 2 } else { 1 };
        // What the front end does before a job reaches the worker.
        let enqueue = |worker: &Worker, jobs: usize| {
            worker.metrics.depth.add(jobs as i64);
            worker.load.fetch_add(jobs, Ordering::Relaxed);
        };

        let pattern =
            HybridPattern::builder(16).window(Window::causal(4).unwrap()).build().unwrap();
        let mut opens = Vec::new();
        for session in 0..4 {
            let num_heads = heads(session);
            let prompt = (0..num_heads).map(|h| Qkv::random(2, 4, session * 2 + h as u64));
            let request = SessionRequest {
                pattern: pattern.clone(),
                head_dim: 4,
                num_heads,
                prompt: prompt.collect(),
            };
            sessions.lock().insert(session, LiveSession { worker: 0, events: sink(session) });
            opens.push(Job::Open {
                session,
                request: request.into(),
                submitted: Instant::now(),
                events: sink(session),
            });
        }
        enqueue(&worker, opens.len());
        worker.run_tick(&mut opens);
        let opened = shared.try_iter().chain(private.try_iter());
        let opened = opened.filter(|e| matches!(e, ServeEvent::Opened { result: Ok(_), .. }));
        assert_eq!(opened.count(), 4, "every session opened");

        let token = |session: u64| {
            let row = TokenQkv { q: vec![0.1; 4], k: vec![0.1; 4], v: vec![0.1; 4] };
            vec![row; heads(session)]
        };
        let mut run: Vec<Job> = [0, 3, 1, 2]
            .into_iter()
            .map(|session| {
                let (submitted, events) = (Instant::now(), sink(session));
                Job::Step(StepJob { session, token: token(session), submitted, events })
            })
            .collect();
        enqueue(&worker, run.len());
        worker.run_tick(&mut run);
        assert_eq!(registry.counter("serve.decode.ticks").get(), 1, "one fused run");
        assert_eq!(registry.counter("serve.decode.fused_steps").get(), 4);

        // (session, step outcome or `None` for a close) of each event.
        let outcome = |event: ServeEvent| match event {
            ServeEvent::Step { session, result, .. } => (session, Some(result.is_ok())),
            ServeEvent::Closed { session, position } => {
                assert_eq!(position, Some(2), "the tokens ingested before the poisoning step");
                (session, None)
            }
            other => panic!("not a step or a close: {other:?}"),
        };
        let Ok(ServeEvent::Steps(message)) = shared.try_recv() else {
            panic!("the shared sink's steps are one message")
        };
        let seen: Vec<_> = message.into_iter().map(outcome).collect();
        assert_eq!(seen, [(0, Some(true)), (1, Some(true)), (2, Some(false)), (2, None)]);
        assert_eq!(shared.try_recv().unwrap_err(), TryRecvError::Empty, "and only one");
        assert_eq!(private.try_iter().map(outcome).collect::<Vec<_>>(), [(3, Some(true))]);

        assert_eq!(worker.metrics.depth.get(), 0, "every step exited the queue depth");
        assert_eq!(worker.load.load(Ordering::Relaxed), 0);
        assert!(sessions.lock().get(2).is_none(), "the poisoned session is retired");
        assert_eq!(sessions.lock().len(), 3);
    }
}
