//! The worker pool: N accelerator instances behind channels.
//!
//! Each worker thread owns a [`LoweredEngine`] (modeling one physical
//! accelerator) and consumes [`Job`]s the front end sends it directly.
//! SALO is a data scheduler in front of its own spatial array, one unit,
//! and so is a worker: a layer or a session open arrives as the client
//! sent it, the worker resolves its plan against the shared
//! [`PlanCache`] — compiling on a miss — and executes it by calling the
//! engine it owns ([`LoweredEngine::prefill`], `open`, `step`, `close`)
//! on the quantized rows the job carries. A cold compile
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
//! drains whatever else is already queued (at most [`TICK_DRAIN_JOBS`]
//! more) and walks the tick's jobs strictly in arrival order. A decode
//! step is one [`LoweredEngine::step`] call, run when its job is reached
//! and settled — retirement and the pages it frees included — before the
//! next job starts, as the one PE array runs its passes one after
//! another. So a token gets the same outcome whoever shares its tick:
//! outputs, errors, retirement and pool refusals are what the same jobs
//! get one tick each (pinned by `a_tick_of_steps_equals_one_job_per_tick`
//! below, whose bounded pool refuses a session right before another that
//! needs a page, and by the `decode` suite).
//!
//! Outcomes wait in a *run* of steps for distinct sessions, which
//! completes at the next job that is not a step, at a second step for a
//! session already in it (which opens the next run), and at the end of
//! the tick. The steps a run owes one sink leave as one message, in run
//! order — a [`ServeEvent::Steps`] when it owes two or more, the step's
//! own events when it owes one. A front end that reads every session from
//! one receiver is woken once per run, not once per token; a session's
//! own channel never holds two steps of one run, so it sees plain events.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use salo_core::{
    CompiledPlan, Engine, FixedQkv, FixedToken, LoweredEngine, MultiHeadRun, PatternHandle, Salo,
    SaloError,
};
use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::{DecodePlan, KeySpan, LoweredPlan, DEFAULT_PAGE_ROWS};
use salo_trace::{Counter, Gauge, LogHistogram, MetricsRegistry};

use crate::session::{
    DecodeStep, EventSink, ServeEvent, SessionInfo, SessionRegistry, SessionRequest,
};
use crate::{PlanCache, PlanKey, ServeError, ServeOptions, ServeRequest, ServeResponse};

/// Bound on the extra jobs one scheduler tick may drain beyond the
/// blocking `recv` that opened it. Keeps a firehose of submissions from
/// starving the tick's first job while still giving concurrently
/// submitted steps a window to land in the same run.
const TICK_DRAIN_JOBS: usize = 64;

/// One unit of work travelling to a worker, with the sink its outcome is
/// owed on.
pub(crate) enum Job {
    /// A layer request: answered with [`ServeEvent::Layer`].
    Layer { ticket: LayerTicket, request: ServeRequest<FixedQkv> },
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
    pub token: Vec<FixedToken>,
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
    /// Scheduler ticks that fused (>= 2 steps in one run).
    ticks: Arc<Counter>,
    /// Steps executed in fused runs (`fused_steps / ticks` is the
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
    /// ([`CompiledPlan::resident_bytes`], or [`DecodePlan::resident_bytes`]
    /// for a decode session's entry), and how the lowered program it was
    /// compiled from names its keys: ops that are runs, keys that had to
    /// be listed.
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

    /// Records the cost of an entry this worker just compiled: the
    /// `bytes` the cache keeps of it, and the key split of the program
    /// `lowered` it was compiled through.
    fn plan_compiled(&self, bytes: usize, lowered: &LoweredPlan) {
        self.plan_bytes.record(bytes as u64);
        let runs = lowered.ops().iter().filter(|op| matches!(op.keys, KeySpan::Run { .. }));
        self.plan_run_ops.add(runs.count() as u64);
        self.plan_gather_keys.add(lowered.gather_keys().len() as u64);
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

    /// Processes one scheduler tick's jobs strictly in arrival order. A
    /// step runs as its job is reached; its outcome waits in the run of
    /// distinct-session steps it belongs to, which completes as a whole.
    fn run_tick(&mut self, jobs: &mut Vec<Job>) {
        // The layers of one tick run back to back on this worker: that
        // count is what `serve.batches` / `serve.batched_requests`
        // measure.
        let layers = jobs.iter().filter(|job| matches!(job, Job::Layer { .. })).count();
        if layers > 0 {
            self.metrics.batches.inc();
            self.metrics.batched_requests.add(layers as u64);
        }
        // The run's settled steps, and when its first step began.
        let mut run: Vec<StepDone> = Vec::new();
        let mut began = Instant::now();
        for job in jobs.drain(..) {
            // A run ends at a job that is not a step, and at a second step
            // for a session already in it, which opens the next run: a
            // session's own channel then never holds two steps of one
            // `Steps` message.
            if !matches!(&job, Job::Step(step) if run.iter().all(|s| s.session != step.session)) {
                self.complete_run(std::mem::take(&mut run), began);
            }
            match job {
                Job::Step(step) => {
                    if run.is_empty() {
                        began = Instant::now();
                    }
                    run.push(self.run_step(step));
                }
                Job::Layer { ticket, request } => self.run_layer(ticket, request),
                Job::Open { session, request, submitted, events } => {
                    self.run_open(session, request, submitted, &events);
                }
                Job::Close { session, events } => {
                    let closed = self.engine.close(session);
                    self.load.fetch_sub(1, Ordering::Relaxed);
                    if let Ok(closed) = closed {
                        events
                            .send(ServeEvent::Closed { session, position: Some(closed.position) });
                    }
                }
            }
        }
        self.complete_run(run, began);
    }

    /// Runs one decode step — one [`LoweredEngine::step`] call — and
    /// settles it before the next job runs: queue wait recorded at
    /// dequeue, a retired session removed from the registry, load
    /// released. Settling precedes the completion, so a client that has
    /// seen the outcome finds a retired session refusing further steps and
    /// a placement load this step no longer inflates.
    fn run_step(&mut self, step: StepJob) -> StepDone {
        let StepJob { session, token, submitted, events } = step;
        salo_trace::record_since("serve.decode.queue_wait", "serve", submitted, session);
        // The tokens ingested before the step: what a retired session's
        // `Closed` reports, the failing token's partial ingest having died
        // with the session state.
        let before = self.engine.session_position(session);
        let result = self.engine.step(session, &token);
        // A failure that desynced the heads made the engine retire the
        // session; propagate that runtime-wide. A token refused before any
        // head moved leaves it live, and a session this engine did not
        // hold was retired long ago.
        let retired = (before.is_some() && !self.engine.has_session(session)).then_some(before);
        if retired.is_some() {
            self.registry.lock().remove(session);
        }
        self.load.fetch_sub(1, Ordering::Relaxed);
        if let Ok(step) = &result {
            let metrics = &self.metrics;
            metrics.resident_kv_byte_steps.add(step.telemetry.resident_kv_bytes.unwrap_or(0));
            metrics.decode_saturation_events.add(step.telemetry.saturation_events);
        }
        let result = result
            .map(|step| DecodeStep {
                position: step.position,
                heads: step.heads,
                worker: self.index,
            })
            .map_err(ServeError::from);
        StepDone { events, session, submitted, result, retired }
    }

    /// Completes a run of settled steps that began at `began`, one message
    /// per sink.
    fn complete_run(&self, run: Vec<StepDone>, began: Instant) {
        if run.is_empty() {
            return;
        }
        let tracer = salo_trace::Tracer::global();
        tracer.record_since("serve.decode.tick", "serve", began, run.len() as u64);
        if run.len() >= 2 {
            self.metrics.ticks.inc();
            self.metrics.fused_steps.add(run.len() as u64);
        }
        let _reply_span = tracer.span_with("serve.reply", "serve", run.len() as u64);
        self.metrics.complete_steps(run);
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
        let compile = || {
            let plan = self.compiler.compile(pattern, &shape)?;
            self.metrics.plan_compiled(plan.resident_bytes(), &plan.lowered);
            Ok::<_, SaloError>(plan)
        };
        Ok(self.cache.get_or_compile(key, pattern, self.compiler.config(), compile)?)
    }

    /// [`resolve`](Self::resolve) for a session over the causal clip
    /// `causal`: its entry is the step program alone, lowered here from a
    /// compile that is dropped once it has been.
    fn resolve_decode(
        &self,
        session: u64,
        causal: &HybridPattern,
        shape: AttentionShape,
    ) -> Result<(Arc<DecodePlan>, bool), ServeError> {
        let key = PlanKey { pattern_fp: causal.fingerprint(), shape, config_fp: self.config_fp };
        let _lookup = salo_trace::span_with("serve.plan_lookup", "serve", session);
        let lower = || {
            let compiled = self.compiler.compile(causal, &shape)?;
            let program = compiled.decode_plan()?;
            self.metrics.plan_compiled(program.resident_bytes(), &compiled.lowered);
            Ok::<_, SaloError>(program)
        };
        Ok(self.cache.get_or_lower_decode(key, causal, self.compiler.config(), lower)?)
    }

    /// Resolves and executes one layer, and completes it on the sender it
    /// came in with.
    fn run_layer(&mut self, ticket: LayerTicket, request: ServeRequest<FixedQkv>) {
        let tracer = salo_trace::Tracer::global();
        // Queue wait: submission to this worker's dequeue.
        tracer.record_since("serve.queue_wait", "serve", ticket.submitted, ticket.id);
        let ServeRequest { pattern, shape, heads } = request;
        let resolved = self.resolve(ticket.id, &pattern, shape);
        let cache_hit = matches!(resolved, Ok((_, true)));
        let result = resolved.and_then(|(plan, _)| {
            let pattern = PatternHandle::new(Arc::new(pattern), plan);
            self.engine.prefill(&pattern, &shape, &heads).map_err(ServeError::from)
        });
        self.load.fetch_sub(1, Ordering::Relaxed);
        if let Ok(run) = &result {
            self.energy_j += run.total_energy_j;
        }
        let _reply_span = tracer.span_with("serve.reply", "serve", ticket.id);
        self.metrics.complete_layer(ticket, cache_hit, result, Some(self.index));
    }

    /// Clips a session's pattern, resolves its step program, opens it on
    /// the worker's engine and completes the handshake.
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
        // every generation of the same pattern reuses one step program.
        // The program depends only on the pattern and the hardware —
        // per-head K/V state and row dimensions live in the session — so
        // the key uses a canonical single-head, unit-dim shape: sessions
        // differing only in head count or head dimension share one entry
        // instead of double-caching identical programs.
        let resolved = request
            .pattern
            .decode_view()
            .map_err(|e| ServeError::InvalidRequest { reason: format!("pattern: {e}") })
            .and_then(|view| {
                let causal = view.into_causal_pattern();
                let shape = AttentionShape::new(causal.n(), 1, 1)
                    .map_err(|e| ServeError::InvalidRequest { reason: format!("shape: {e}") })?;
                self.resolve_decode(session, &causal, shape)
            });
        let opened = resolved.and_then(|(program, cache_hit)| {
            let SessionRequest { head_dim, num_heads, prompt, .. } = request;
            self.engine
                .open(session, program, head_dim, num_heads, &prompt)
                .map(|opened| SessionInfo {
                    worker: self.index,
                    min_step: opened.min_step,
                    position: opened.position,
                    capacity: opened.capacity,
                    cache_hit,
                })
                .map_err(ServeError::from)
        });
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

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, TryRecvError};

    use salo_core::SaloError;
    use salo_kernels::{Matrix, Qkv};
    use salo_patterns::Window;
    use salo_scheduler::HardwareMeta;
    use salo_sim::{AcceleratorConfig, KvPoolStats, SimError};

    use super::*;
    use crate::session::LiveSession;
    use crate::TokenQkv;

    /// A worker to drive on this thread, its engine's pool `pool_pages`
    /// one-row pages (`None`: unbounded).
    fn worker(salo: &Salo, pool_pages: Option<usize>) -> Worker {
        let mut engine = salo.engine();
        engine.configure_kv_pool(1, pool_pages);
        Worker {
            index: 0,
            engine,
            compiler: salo.clone(),
            config_fp: salo.config().fingerprint(),
            cache: Arc::new(PlanCache::new(4, 1)),
            load: Arc::new(AtomicUsize::new(0)),
            registry: Arc::new(SessionRegistry::new(1)),
            metrics: ServeMetrics::new(&MetricsRegistry::new(), 1),
            energy_j: 0.0,
        }
    }

    /// One tick of `jobs`, entered into the queue depth and the load as
    /// the front end enters them.
    fn tick(worker: &mut Worker, mut jobs: Vec<Job>) {
        worker.metrics.depth.add(jobs.len() as i64);
        worker.load.fetch_add(jobs.len(), Ordering::Relaxed);
        worker.run_tick(&mut jobs);
    }

    /// One tick, driven in this thread: sessions 0, 1 and 2 report into
    /// one shared sink, session 3 into a channel of its own, and the tick
    /// is `[0, 3, 1, 2, 0]`. Session 2 has two heads and its step is
    /// refused a page for the second one, which retires it. The first run
    /// is `[0, 3, 1, 2]`: the shared sink gets one message for its three
    /// steps, in run order, with the retired session's `Closed` right
    /// behind its `Step`, and the private channel gets its step as a
    /// plain event. Session 0's second step opens the next run, alone, so
    /// the shared sink gets it as a plain event after that message.
    #[test]
    fn a_run_leaves_as_one_message_per_sink_in_run_order() {
        let salo = Salo::new(AcceleratorConfig::default());
        // One-row pages: the prompts take 2 rows × 5 heads = 10 pages, the
        // run's first three steps one each, and session 2's head 0 the
        // last one; its head 1 is refused after head 0 moved.
        let mut worker = worker(&salo, Some(14));
        let (shared_tx, shared) = channel();
        let (private_tx, private) = channel();
        let (shared_tx, private_tx) = (EventSink::from(shared_tx), EventSink::from(private_tx));
        let sink = |session: u64| if session == 3 { &private_tx } else { &shared_tx }.clone();
        let heads = |session: u64| if session == 2 { 2 } else { 1 };

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
            worker
                .registry
                .lock()
                .insert(session, LiveSession { worker: 0, events: sink(session) });
            opens.push(Job::Open {
                session,
                request: request.into(),
                submitted: Instant::now(),
                events: sink(session),
            });
        }
        tick(&mut worker, opens);
        let opened = shared.try_iter().chain(private.try_iter());
        let opened = opened.filter(|e| matches!(e, ServeEvent::Opened { result: Ok(_), .. }));
        assert_eq!(opened.count(), 4, "every session opened");

        let token = |session: u64| {
            let row = TokenQkv { q: vec![0.1; 4], k: vec![0.1; 4], v: vec![0.1; 4] };
            vec![FixedToken::quantize(&row); heads(session)]
        };
        let steps = [0, 3, 1, 2, 0].into_iter().map(|session| {
            let (submitted, events) = (Instant::now(), sink(session));
            Job::Step(StepJob { session, token: token(session), submitted, events })
        });
        tick(&mut worker, steps.collect());
        assert_eq!(worker.metrics.ticks.get(), 1, "one fused run");
        assert_eq!(worker.metrics.fused_steps.get(), 4);

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
            panic!("the shared sink's steps in the first run are one message")
        };
        let seen: Vec<_> = message.into_iter().map(outcome).collect();
        assert_eq!(seen, [(0, Some(true)), (1, Some(true)), (2, Some(false)), (2, None)]);
        let second = shared.try_recv().map(outcome);
        assert_eq!(second, Ok((0, Some(true))), "session 0's second step, plain");
        assert_eq!(shared.try_recv().unwrap_err(), TryRecvError::Empty, "and nothing else");
        assert_eq!(private.try_iter().map(outcome).collect::<Vec<_>>(), [(3, Some(true))]);

        assert_eq!(worker.metrics.depth.get(), 0, "every step exited the queue depth");
        assert_eq!(worker.load.load(Ordering::Relaxed), 0);
        assert!(worker.registry.lock().get(2).is_none(), "the poisoned session is retired");
        assert_eq!(worker.registry.lock().len(), 3);
    }

    /// The causal clip of a sink window, the sequence length and the
    /// canonical shape a decode session's entry is keyed by.
    fn sink_clip() -> (HybridPattern, AttentionShape) {
        let pattern = HybridPattern::builder(48)
            .window(Window::causal(20).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let causal = pattern.decode_view().unwrap().into_causal_pattern();
        (causal, AttentionShape::new(48, 1, 1).unwrap())
    }

    /// One open of `pattern` on `worker`, answered on a channel of its own:
    /// whether its entry came from the cache.
    fn open_on(worker: &mut Worker, session: u64, pattern: &HybridPattern) -> bool {
        let (tx, rx) = channel();
        let events = EventSink::from(tx);
        let prompt = vec![Qkv::random(1, 4, session)];
        let request =
            SessionRequest { pattern: pattern.clone(), head_dim: 4, num_heads: 1, prompt };
        worker.registry.lock().insert(session, LiveSession { worker: 0, events: events.clone() });
        let submitted = Instant::now();
        tick(worker, vec![Job::Open { session, request: request.into(), submitted, events }]);
        match rx.try_recv() {
            Ok(ServeEvent::Opened { result: Ok(info), .. }) => info.cache_hit,
            other => panic!("session {session} did not open: {other:?}"),
        }
    }

    /// One prefill of `pattern` at `shape` on `worker`: whether its plan
    /// came from the cache.
    fn prefill_on(worker: &mut Worker, pattern: &HybridPattern, shape: AttentionShape) -> bool {
        let (tx, rx) = channel();
        let heads = Qkv::random_heads(&shape, 9);
        let request = ServeRequest::new(pattern.clone(), shape, heads).unwrap().into();
        let ticket = LayerTicket { id: 0, submitted: Instant::now(), events: EventSink::from(tx) };
        tick(worker, vec![Job::Layer { ticket, request }]);
        match rx.try_recv() {
            Ok(ServeEvent::Layer(response)) => {
                assert!(response.result.is_ok(), "{:?}", response.result.err());
                response.cache_hit
            }
            other => panic!("the prefill was not answered: {other:?}"),
        }
    }

    #[test]
    fn a_decode_open_caches_its_program_alone_and_counts_its_bytes() {
        let salo = Salo::new(AcceleratorConfig::default());
        let mut worker = worker(&salo, None);
        let (causal, shape) = sink_clip();
        assert!(!open_on(&mut worker, 0, &causal));
        // The program the open lowered, built the same way beside it: the
        // entry's bytes are its bytes, not the compile's it came from.
        let compiled = salo.compile(&causal, &shape).unwrap();
        let program = compiled.decode_plan().unwrap().resident_bytes();
        assert!(program < compiled.resident_bytes());
        let bytes = worker.metrics.plan_bytes.snapshot();
        assert_eq!((bytes.count, bytes.sum), (1, program as u64));
        assert!(open_on(&mut worker, 1, &causal), "the second open hits the program");
        assert_eq!(worker.metrics.plan_bytes.snapshot().count, 1, "a hit records nothing");
    }

    #[test]
    fn a_prefill_and_a_decode_of_one_clip_are_two_entries() {
        // The causal clip prefilled at the canonical decode shape has the
        // decode entry's key; neither is served the other's entry, in
        // either order, and each then hits its own.
        let salo = Salo::new(AcceleratorConfig::default());
        let (causal, shape) = sink_clip();
        for decode_first in [true, false] {
            let mut worker = worker(&salo, None);
            if decode_first {
                assert!(!open_on(&mut worker, 0, &causal));
                assert!(!prefill_on(&mut worker, &causal, shape));
            } else {
                assert!(!prefill_on(&mut worker, &causal, shape));
                assert!(!open_on(&mut worker, 0, &causal));
            }
            assert!(open_on(&mut worker, 1, &causal));
            assert!(prefill_on(&mut worker, &causal, shape));
            let stats = worker.cache.stats();
            assert_eq!((stats.misses, stats.hits, stats.entries), (2, 2, 2), "{decode_first}");
        }
    }

    /// A step or close event, its latency left out.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Step(u64, Result<DecodeStep, ServeError>),
        Closed(u64, Option<usize>),
    }

    /// An event as the outcomes it carries, a `Steps` message flattened.
    fn outcomes(event: ServeEvent) -> Vec<Outcome> {
        match event {
            ServeEvent::Step { session, result, .. } => vec![Outcome::Step(session, result)],
            ServeEvent::Closed { session, position } => vec![Outcome::Closed(session, position)],
            ServeEvent::Steps(events) => events.into_iter().flat_map(outcomes).collect(),
            other => panic!("not a step or a close: {other:?}"),
        }
    }

    /// What a worker looks like after the script: every outcome its one
    /// shared sink received, in order; which sessions the registry holds;
    /// where each stands in the engine (`None` = not live); the page pool.
    #[derive(Debug, PartialEq)]
    struct StepTrace {
        outcomes: Vec<Outcome>,
        registered: Vec<bool>,
        positions: Vec<Option<usize>>,
        pool: KvPoolStats,
    }

    impl StepTrace {
        /// Each step's result, closes left out.
        fn steps(&self) -> Vec<&Result<DecodeStep, ServeError>> {
            self.outcomes
                .iter()
                .filter_map(|o| match o {
                    Outcome::Step(_, result) => Some(result),
                    Outcome::Closed(..) => None,
                })
                .collect()
        }

        /// The indices of the steps that failed.
        fn failed(&self) -> Vec<usize> {
            let steps = self.steps();
            (0..steps.len()).filter(|&i| steps[i].is_err()).collect()
        }
    }

    /// The rows `0..rows` of every matrix of `full`.
    fn prompt_of(full: &Qkv, rows: usize) -> Qkv {
        let d = full.head_dim();
        let first = |m: &Matrix<f32>| Matrix::from_fn(rows, d, |i, j| m.get(i, j));
        Qkv::new(first(&full.q), first(&full.k), first(&full.v)).expect("prompt rows")
    }

    /// Runs the differential's script on a fresh worker whose pool holds
    /// `capacity` one-row pages: five sessions open, three rounds of five
    /// good steps, then one round with every irregularity at once.
    /// `one_tick` hands the worker each round as one tick; otherwise
    /// every job is a tick of its own.
    fn run_step_script(capacity: Option<usize>, one_tick: bool) -> StepTrace {
        let hw = HardwareMeta::new(8, 8, 1, 1).unwrap();
        let mut worker =
            worker(&Salo::new(AcceleratorConfig { hw, ..Default::default() }), capacity);
        let (tx, rx) = channel();
        let sink = EventSink::from(tx);
        let d = 4;
        let plans = [
            HybridPattern::builder(24)
                .window(Window::causal(12).unwrap())
                .global_token(0)
                .build()
                .unwrap(),
            HybridPattern::builder(24).window(Window::dilated(-12, 0, 2).unwrap()).build().unwrap(),
        ];
        // (id, plan, heads): 1, 2, 4 and 5 share one plan, 3 runs the other;
        // 5 has one head, the rest two.
        let sessions = [(1u64, 0usize, 2usize), (2, 0, 2), (3, 1, 2), (4, 0, 2), (5, 0, 1)];
        let data: Vec<Vec<Qkv>> = sessions
            .iter()
            .map(|&(sid, _, heads)| {
                Qkv::random_heads(&AttentionShape::new(24, d, heads).unwrap(), 100 + sid)
            })
            .collect();
        let mut opens = Vec::new();
        for (&(session, plan, num_heads), full) in sessions.iter().zip(&data) {
            let prompt = full.iter().map(|h| prompt_of(h, 2)).collect();
            let request =
                SessionRequest { pattern: plans[plan].clone(), head_dim: d, num_heads, prompt };
            worker.registry.lock().insert(session, LiveSession { worker: 0, events: sink.clone() });
            let (submitted, events) = (Instant::now(), sink.clone());
            opens.push(Job::Open { session, request: request.into(), submitted, events });
        }
        tick(&mut worker, opens);
        let opened =
            rx.try_iter().filter(|e| matches!(e, ServeEvent::Opened { result: Ok(_), .. }));
        assert_eq!(opened.count(), 5, "every capacity tried has room for the opens");
        let token = |s: usize, t: usize| -> Vec<TokenQkv> {
            data[s].iter().map(|h| TokenQkv::from_row(h, t)).collect()
        };

        let mut rounds: Vec<Vec<(u64, Vec<TokenQkv>)>> =
            (2..5).map(|t| (0..5).map(|s| (sessions[s].0, token(s, t))).collect()).collect();
        // The irregular round, at t = 5: session 1 steps; session 2's token
        // has a short row on head 1 (its own step fails); session 4 steps —
        // the one a bounded pool refuses — and session 5, live, on the same
        // plan and needing a page, steps right behind it; 99 was never
        // opened; session 3 runs another plan; session 1 again (it must see
        // its first step, so it opens a second run); session 2 again,
        // well-formed this time.
        let mut malformed = token(1, 5);
        malformed[1].k.truncate(2);
        rounds.push(vec![
            (1, token(0, 5)),
            (2, malformed),
            (4, token(3, 5)),
            (5, token(4, 5)),
            (99, token(3, 5)),
            (3, token(2, 5)),
            (1, token(0, 6)),
            (2, token(1, 5)),
        ]);
        for round in rounds {
            let jobs = round.into_iter().map(|(session, token)| {
                // Quantized where it arrives, as the front end does.
                let token = token.iter().map(FixedToken::quantize).collect();
                Job::Step(StepJob {
                    session,
                    token,
                    submitted: Instant::now(),
                    events: sink.clone(),
                })
            });
            if one_tick {
                tick(&mut worker, jobs.collect());
            } else {
                jobs.for_each(|job| tick(&mut worker, vec![job]));
            }
        }
        // Three rounds of five, then the irregular round's two runs.
        let (ticks, fused_steps) = if one_tick { (5, 23) } else { (0, 0) };
        assert_eq!(
            (worker.metrics.ticks.get(), worker.metrics.fused_steps.get()),
            (ticks, fused_steps)
        );
        assert_eq!(worker.metrics.depth.get(), 0);
        assert_eq!(worker.load.load(Ordering::Relaxed), 0);
        let live =
            |&(session, ..): &(u64, usize, usize)| worker.registry.lock().get(session).is_some();
        StepTrace {
            outcomes: rx.try_iter().flat_map(outcomes).collect(),
            registered: sessions.iter().map(live).collect(),
            positions: sessions.iter().map(|&(s, ..)| worker.engine.session_position(s)).collect(),
            pool: worker.engine.kv_pool_stats(),
        }
    }

    /// A step's outcome does not depend on who shared its tick: each
    /// round of the script as one tick equals every job as its own tick —
    /// every step's position, rows and weights or error, every `Closed`
    /// and its position, the registry, the engine's sessions and the pool
    /// — including everything that can go wrong inside a run.
    #[test]
    fn a_tick_of_steps_equals_one_job_per_tick() {
        // Unbounded pool: of the irregular round (steps 15..) only the
        // malformed token and the unknown id fail; every session is live,
        // at the position its good steps took it to.
        let alone = run_step_script(None, false);
        assert_eq!(alone.failed(), [16, 19]);
        assert!(matches!(alone.steps()[16], Err(ServeError::InvalidRequest { .. })));
        assert!(matches!(alone.steps()[19], Err(ServeError::UnknownSession { session: 99 })));
        assert_eq!(alone.positions, [Some(7), Some(6), Some(6), Some(6), Some(6)]);
        assert_eq!(alone.registered, [true; 5]);
        assert_eq!(run_step_script(None, true), alone);

        // Bounded pool, sized so that the allocation refused is session 4's
        // *second head* in the irregular round: head 0 took the last page,
        // the heads desync, the session is retired and its pages return to
        // the pool before session 5, right behind it, asks for one — so
        // session 5 steps, in a shared tick as alone. The capacity is
        // searched for (downwards from the unbounded peak) rather than
        // derived, so the test does not restate the reclamation horizon.
        let (capacity, alone) = (1..alone.pool.high_water)
            .rev()
            .map(|capacity| (capacity, run_step_script(Some(capacity), false)))
            .find(|(_, trace)| trace.failed() == [16, 17, 19] && trace.positions[3].is_none())
            .expect("some capacity hands the last page to head 0 of a two-head step");
        let exhausted = |r: &Result<DecodeStep, ServeError>| {
            matches!(r, Err(ServeError::Salo(SaloError::Sim(SimError::PagePoolExhausted { .. }))))
        };
        assert!(exhausted(alone.steps()[17]));
        assert_eq!(alone.steps()[18].as_ref().map(|step| step.position), Ok(5));
        assert_eq!(alone.positions, [Some(7), Some(6), Some(6), None, Some(6)]);
        assert_eq!(alone.registered, [true, true, true, false, true]);
        // The retired session's terminal `Closed` follows its step and
        // reports the tokens it had before it.
        let closed = alone.outcomes.iter().position(|o| *o == Outcome::Closed(4, Some(5)));
        assert!(matches!(
            alone.outcomes[closed.expect("session 4 closed") - 1],
            Outcome::Step(4, _)
        ));
        assert_eq!(alone.pool.exhausted, 1);
        assert_eq!(run_step_script(Some(capacity), true), alone);
    }
}
