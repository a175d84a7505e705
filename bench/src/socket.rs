//! The system under test and the closed-loop load generator: one
//! in-process gateway on a real loopback socket, one client thread per
//! connection, set-up (oracles, connects, opens, fixed-count warm-up)
//! followed by a measured phase cut into fixed windows.

use std::net::SocketAddr;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use salo::core::{AttentionRequest, Engine, LoweredEngine, PatternHandle, Salo};
use salo::gateway::wire::{PrefillHead, Request, Response, WireHeadStep};
use salo::gateway::{Gateway, GatewayReport};
use salo::kernels::Qkv;
use salo::sim::AcceleratorConfig;

use crate::client::{Client, Reply, Sent};
use crate::estimate;
use crate::inputs::{self, Churn, ConnScript, PrefillKind, Script, SessionSpec, RING};

/// How long (in windows of the workload's length) and how the measured
/// phase runs. `windows == 0` is a set-up-only run: the connections warm
/// up and leave.
#[derive(Debug, Clone, Copy)]
pub struct PhasePlan {
    pub windows: usize,
    pub traced: bool,
}

/// Requests sent, succeeded and failed in one phase of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCounts {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl PhaseCounts {
    fn add(&mut self, other: &PhaseCounts) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

pub const PHASES: [&str; 3] = ["setup", "measured", "teardown"];

/// Everything one socket run measured.
pub struct SocketRun {
    pub setup_s: f64,
    pub connections: usize,
    /// Per-window `tokens_per_s`, and per-window latency in µs: the
    /// median per request kind, averaged over the kinds (one kind for
    /// most workloads; the median of an even two-kind mix would flip
    /// between the two modes). NaN for a window that lacks a kind.
    pub window_tokens_per_s: Vec<f64>,
    pub window_latency_us: Vec<f64>,
    pub window_samples: Vec<u64>,
    /// Every in-window latency, µs, ascending.
    pub latencies_us: Vec<f64>,
    pub phases: [PhaseCounts; 3],
    /// Replies that differed from the in-process oracle.
    pub mismatches: u64,
    pub compared: u64,
    pub errors: Vec<String>,
    /// Exact counts over the fixed-count warm-up (see README).
    pub wire_bytes_per_token: f64,
    pub sim_cycles_per_token: f64,
    /// Frame sizes (and, for a fixed cycle, simulated cycles) of every
    /// later request equalled its kind's first, and the gateway's own
    /// cycle total equals the sum of the per-reply cycles.
    pub exact_consistent: bool,
    pub inflight_mean: f64,
    pub tenant_share_min: f64,
    pub saturation_events: u64,
    pub gateway: GatewayReport,
    pub queue_wait_p50_us: f64,
    pub queue_wait_p99_us: f64,
    pub decode_ticks: u64,
    pub decode_fused_steps: u64,
}

impl SocketRun {
    pub fn tokens_per_s(&self) -> f64 {
        estimate::quiet_high(&self.window_tokens_per_s)
    }

    pub fn latency_p50_us(&self) -> f64 {
        estimate::quiet_low(&self.window_latency_us)
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    /// Error frames, timeouts, refused requests and bit mismatches.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum::<u64>() + self.mismatches
    }
}

struct Ctx {
    addr: SocketAddr,
    config: AcceleratorConfig,
    plan: PhasePlan,
    window: Duration,
    ready: Barrier,
    go: Barrier,
    start: OnceLock<Instant>,
}

/// Per-connection tallies, merged by [`run`].
struct Recorder {
    phase: usize,
    counts: [PhaseCounts; 3],
    window_ns: u64,
    start: Option<Instant>,
    /// `[window][kind]` latencies in ns.
    window_latencies: Vec<Vec<Vec<u32>>>,
    window_tokens: Vec<u64>,
    /// When the window's last request completed, ns into the phase.
    window_last_ns: Vec<u64>,
    latency_sum_ns: u64,
    mismatches: u64,
    compared: u64,
    errors: Vec<String>,
    /// First-seen `(request bytes, response bytes, cycles)` per kind.
    first_of_kind: Vec<Option<(usize, usize, Option<u64>)>>,
    exact_consistent: bool,
    reference_bytes: u64,
    reference_cycles: u64,
    reference_tokens: u64,
    cycles_total: u64,
    saturation_events: u64,
}

impl Recorder {
    fn new(kinds: usize, ctx: &Ctx) -> Self {
        let plan = &ctx.plan;
        Recorder {
            phase: 0,
            counts: Default::default(),
            window_ns: ctx.window.as_nanos() as u64,
            start: None,
            window_latencies: vec![vec![Vec::new(); kinds]; plan.windows],
            window_tokens: vec![0; plan.windows],
            window_last_ns: vec![0; plan.windows],
            latency_sum_ns: 0,
            mismatches: 0,
            compared: 0,
            errors: Vec::new(),
            first_of_kind: vec![None; kinds],
            exact_consistent: true,
            reference_bytes: 0,
            reference_cycles: 0,
            reference_tokens: 0,
            cycles_total: 0,
            saturation_events: 0,
        }
    }

    fn sent(&mut self) {
        self.counts[self.phase].sent += 1;
    }

    fn fail(&mut self, what: String) {
        self.counts[self.phase].failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn check(&mut self, same: bool, what: impl FnOnce() -> String) {
        self.compared += 1;
        if !same {
            self.mismatches += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
    }

    /// Books one successful request. `cycles` is the reply's simulated
    /// cost when it carries one; `cycles_fixed` says every request of
    /// this kind must cost the same.
    fn complete(
        &mut self,
        kind: usize,
        tokens: u64,
        sent: &Sent,
        reply: &Reply,
        cycles: Option<u64>,
        cycles_fixed: bool,
    ) {
        self.counts[self.phase].ok += 1;
        let sizes = (sent.bytes, reply.bytes, cycles.filter(|_| cycles_fixed));
        match self.first_of_kind[kind] {
            None => self.first_of_kind[kind] = Some(sizes),
            Some(first) => self.exact_consistent &= first == sizes,
        }
        self.cycles_total += cycles.unwrap_or(0);
        if self.phase == 0 {
            // The warm-up is a fixed count of requests, so sums over it
            // repeat exactly from run to run.
            self.reference_bytes += (sent.bytes + reply.bytes) as u64;
            self.reference_cycles += cycles.unwrap_or(0);
            self.reference_tokens += tokens;
        }
        let Some(start) = self.start else { return };
        let finished_ns = reply.finished.duration_since(start).as_nanos() as u64;
        let window = (finished_ns / self.window_ns) as usize;
        if window < self.window_tokens.len() {
            self.window_last_ns[window] = finished_ns;
            let latency = reply.finished.duration_since(sent.started).as_nanos() as u64;
            self.window_tokens[window] += tokens;
            self.window_latencies[window][kind].push(latency.min(u64::from(u32::MAX)) as u32);
            self.latency_sum_ns += latency;
        }
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Raw `i16` rows, Q.16 weights and `f32` bits all equal.
fn same_prefill(got: &[PrefillHead], want: &[PrefillHead]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.raw == w.raw
                && g.weights_q16 == w.weights_q16
                && g.output.shape() == w.output.shape()
                && same_bits(g.output.as_slice(), w.output.as_slice())
        })
}

fn same_step(got: &[WireHeadStep], want: &[WireHeadStep]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.raw == w.raw && g.weight_q16 == w.weight_q16 && same_bits(&g.output, &w.output)
        })
}

/// FNV-1a over a reply's raw rows, weights and `f32` bits: what a churn
/// request keeps for the post-phase comparison instead of the reply.
fn digest(heads: &[PrefillHead]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for head in heads {
        head.raw.as_slice().iter().for_each(|&x| eat(x as u16 as u64));
        head.weights_q16.iter().for_each(|&w| eat(w as u64));
        head.output.as_slice().iter().for_each(|&x| eat(u64::from(x.to_bits())));
    }
    h
}

/// The in-process oracle: the same engine type the serve workers run.
pub fn oracle_engine(config: &AcceleratorConfig) -> LoweredEngine {
    Salo::new(config.clone()).engine_with_parallelism(1)
}

/// Executes a prefill in-process and returns it in wire form.
pub fn oracle_prefill(
    engine: &mut LoweredEngine,
    pattern: PatternHandle,
    shape: salo::patterns::AttentionShape,
    heads: Vec<Qkv>,
) -> Result<Vec<PrefillHead>, String> {
    let out = engine
        .execute(AttentionRequest::Prefill { pattern, shape, heads })
        .and_then(|r| r.into_prefill())
        .map_err(|e| format!("oracle prefill: {e}"))?;
    out.heads
        .into_iter()
        .map(|h| {
            let raw = h.raw.ok_or("oracle emitted no raw rows")?;
            Ok(PrefillHead {
                output: h.output,
                raw: raw.map(|x| x.raw()),
                weights_q16: h.weights_q16.ok_or("oracle emitted no weights")?,
            })
        })
        .collect()
}

/// The first `RING` steps of `spec`, executed in-process.
fn oracle_steps(
    config: &AcceleratorConfig,
    spec: &SessionSpec,
) -> Result<Vec<Vec<WireHeadStep>>, String> {
    let mut engine = oracle_engine(config);
    engine
        .execute(AttentionRequest::DecodeOpen {
            session: 1,
            pattern: PatternHandle::from_pattern(spec.pattern.clone()),
            head_dim: inputs::HEAD_DIM,
            num_heads: spec.num_heads,
            prompt: spec.prompt.clone(),
        })
        .map_err(|e| format!("oracle open: {e}"))?;
    spec.ring
        .iter()
        .map(|token| {
            let step = engine
                .execute(AttentionRequest::DecodeStep { session: 1, token: token.clone() })
                .and_then(|r| r.into_step())
                .map_err(|e| format!("oracle step: {e}"))?;
            Ok(step.heads.iter().map(WireHeadStep::from).collect())
        })
        .collect()
}

fn cycles_of(sim_time_s: f64, config: &AcceleratorConfig) -> u64 {
    (sim_time_s / config.cycle_time_s()).round() as u64
}

/// One request/reply exchange, booked into `rec`. `Ok(None)` is a
/// request the gateway answered with an error frame (booked as failed).
fn exchange(
    client: &mut Client,
    rec: &mut Recorder,
    request: &Request,
) -> Result<Option<(Sent, Reply)>, String> {
    rec.sent();
    let (sent, reply) = client.call(request).map_err(|e| {
        rec.fail(format!("wire: {e}"));
        format!("wire: {e}")
    })?;
    if let Response::Error(frame) = &reply.response {
        rec.fail(format!("{:?}: {}", frame.code, frame.message));
        return Ok(None);
    }
    Ok(Some((sent, reply)))
}

fn deadline(ctx: &Ctx) -> Instant {
    *ctx.start.get().expect("start is set before go") + ctx.window * ctx.plan.windows as u32
}

/// Runs a connection's set-up, meets the other connections at the
/// barriers, then runs its measured phase and teardown.
fn drive(conn: ConnScript, ctx: &Ctx) -> Recorder {
    match conn.script {
        Script::PrefillCycle { kinds, warmup_cycles } => {
            drive_cycle(conn.tenant, kinds, warmup_cycles, ctx)
        }
        Script::PrefillChurn(churn) => drive_churn(conn.tenant, churn, ctx),
        Script::Decode { sessions, warmup_rounds } => {
            drive_decode(conn.tenant, sessions, warmup_rounds, ctx)
        }
    }
}

/// Meets the main thread and the other connections: set-up is over,
/// the measured phase begins. Returns whether there is one.
fn rendezvous(ctx: &Ctx, rec: &mut Recorder) -> bool {
    ctx.ready.wait();
    ctx.go.wait();
    rec.phase = 1;
    rec.start = ctx.start.get().copied();
    ctx.plan.windows > 0
}

fn drive_cycle(tenant: u64, kinds: Vec<PrefillKind>, warmup_cycles: usize, ctx: &Ctx) -> Recorder {
    let mut rec = Recorder::new(kinds.len(), ctx);
    let tokens: Vec<u64> = kinds.iter().map(|k| k.shape.seq_len as u64).collect();
    let setup = || -> Result<_, String> {
        let mut engine = oracle_engine(&ctx.config);
        let oracles = kinds
            .iter()
            .map(|k| {
                let handle = PatternHandle::from_pattern(k.pattern.clone());
                oracle_prefill(&mut engine, handle, k.shape, k.heads.clone())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let client = Client::connect(ctx.addr, tenant).map_err(|e| format!("connect: {e}"))?;
        Ok((oracles, client))
    };
    let mut state = setup();
    let requests: Vec<Request> = kinds
        .into_iter()
        .map(|k| Request::Prefill { pattern: k.pattern, shape: k.shape, heads: k.heads })
        .collect();
    let cycle = |rec: &mut Recorder, state: &mut (Vec<Vec<PrefillHead>>, Client)| {
        for (kind, request) in requests.iter().enumerate() {
            let Some((sent, reply)) = exchange(&mut state.1, rec, request)? else { continue };
            let Response::PrefillDone { heads, sim_time_s, .. } = &reply.response else {
                rec.fail("prefill answered with another frame".into());
                continue;
            };
            rec.check(same_prefill(heads, &state.0[kind]), || {
                format!("prefill kind {kind}: reply differs from the in-process oracle")
            });
            let cycles = cycles_of(*sim_time_s, &ctx.config);
            rec.complete(kind, tokens[kind], &sent, &reply, Some(cycles), true);
        }
        Ok::<(), String>(())
    };
    if let Ok(state) = state.as_mut() {
        for _ in 0..warmup_cycles {
            if let Err(e) = cycle(&mut rec, state) {
                rec.errors.push(e);
                break;
            }
        }
    }
    let measure = rendezvous(ctx, &mut rec);
    match state.as_mut() {
        Err(e) => rec.fail(e.clone()),
        Ok(state) if measure => {
            let end = deadline(ctx);
            // Whole cycles only: every kind is sent equally often.
            while cycle(&mut rec, state).is_ok() && Instant::now() < end {}
        }
        Ok(_) => {}
    }
    rec
}

/// What a sampled churn request keeps for the post-phase comparison.
struct ChurnSample {
    pattern_id: u64,
    ring_slot: usize,
    digest: u64,
}

fn drive_churn(tenant: u64, mut churn: Churn, ctx: &Ctx) -> Recorder {
    let mut rec = Recorder::new(1, ctx);
    let shape = churn.shape();
    let tokens = churn.n as u64;
    let mut client = Client::connect(ctx.addr, tenant).map_err(|e| format!("connect: {e}"));
    let mut samples: Vec<ChurnSample> = Vec::new();
    let mut next = 0u64;
    let mut one = |rec: &mut Recorder, client: &mut Client, churn: &mut Churn, sample: bool| {
        let pattern_id = churn.first_id + next * churn.id_stride;
        let ring_slot = next as usize % churn.heads_ring.len();
        next += 1;
        // The tensor is lent to the request and taken back, not cloned.
        let heads = std::mem::take(&mut churn.heads_ring[ring_slot]);
        let request = Request::Prefill { pattern: churn.pattern(pattern_id), shape, heads };
        let outcome = exchange(client, rec, &request);
        let Request::Prefill { heads, .. } = request else { unreachable!() };
        churn.heads_ring[ring_slot] = heads;
        let Some((sent, reply)) = outcome? else { return Ok(()) };
        let Response::PrefillDone { heads, sim_time_s, .. } = &reply.response else {
            rec.fail("prefill answered with another frame".into());
            return Ok(());
        };
        if sample {
            samples.push(ChurnSample { pattern_id, ring_slot, digest: digest(heads) });
        }
        let cycles = cycles_of(*sim_time_s, &ctx.config);
        rec.complete(0, tokens, &sent, &reply, Some(cycles), false);
        Ok::<(), String>(())
    };
    if let Ok(client) = client.as_mut() {
        for _ in 0..churn.warmup {
            if let Err(e) = one(&mut rec, client, &mut churn, false) {
                rec.errors.push(e);
                break;
            }
        }
    }
    let measure = rendezvous(ctx, &mut rec);
    match client.as_mut() {
        Err(e) => rec.fail(e.clone()),
        Ok(client) if measure => {
            let end = deadline(ctx);
            let mut measured = 0usize;
            loop {
                // Bounded so the post-phase re-execution stays short.
                let sample = measured.is_multiple_of(churn.check_every)
                    && measured / churn.check_every < 256;
                measured += 1;
                if one(&mut rec, client, &mut churn, sample).is_err() || Instant::now() >= end {
                    break;
                }
            }
        }
        Ok(_) => {}
    }
    // After the measured phase: re-execute the sampled requests
    // in-process and compare.
    rec.phase = 2;
    let mut engine = oracle_engine(&ctx.config);
    for sample in samples {
        let handle = PatternHandle::from_pattern(churn.pattern(sample.pattern_id));
        let heads = churn.heads_ring[sample.ring_slot].clone();
        match oracle_prefill(&mut engine, handle, shape, heads) {
            Ok(want) => rec.check(digest(&want) == sample.digest, || {
                format!("churn pattern {}: reply differs from re-execution", sample.pattern_id)
            }),
            Err(e) => rec.check(false, || e),
        }
    }
    rec
}

/// A live wire session and where its generation stands.
struct Live {
    spec: SessionSpec,
    open: Request,
    wire_id: u64,
    position: usize,
    /// Steps taken by this incarnation; indexes the token ring.
    step: usize,
}

fn open_session(client: &mut Client, rec: &mut Recorder, live: &mut Live) -> Result<(), String> {
    let Some((_, reply)) = exchange(client, rec, &live.open)? else {
        return Err("open refused".into());
    };
    let Response::Opened { session, position, .. } = reply.response else {
        rec.fail("open answered with another frame".into());
        return Err("open answered with another frame".into());
    };
    rec.counts[rec.phase].ok += 1;
    live.wire_id = session;
    live.position = position as usize;
    live.step = 0;
    Ok(())
}

fn close_session(client: &mut Client, rec: &mut Recorder, live: &Live) -> Result<(), String> {
    if let Some((_, reply)) = exchange(client, rec, &Request::Close { session: live.wire_id })? {
        match reply.response {
            Response::Closed { .. } => rec.counts[rec.phase].ok += 1,
            _ => rec.fail("close answered with another frame".into()),
        }
    }
    Ok(())
}

fn drive_decode(
    tenant: u64,
    sessions: Vec<SessionSpec>,
    warmup_rounds: usize,
    ctx: &Ctx,
) -> Recorder {
    let mut rec = Recorder::new(1, ctx);
    let setup = |rec: &mut Recorder| -> Result<_, String> {
        // Session 0 of the connection is checked against the oracle for
        // the RING steps its token ring covers before it wraps.
        let oracle = oracle_steps(&ctx.config, &sessions[0])?;
        let mut client = Client::connect(ctx.addr, tenant).map_err(|e| format!("connect: {e}"))?;
        let mut live = Vec::with_capacity(sessions.len());
        for mut spec in sessions {
            let open = Request::Open {
                pattern: spec.pattern.clone(),
                head_dim: inputs::HEAD_DIM,
                num_heads: spec.num_heads,
                prompt: std::mem::take(&mut spec.prompt),
            };
            let mut session = Live { spec, open, wire_id: 0, position: 0, step: 0 };
            open_session(&mut client, rec, &mut session)?;
            live.push(session);
        }
        Ok((oracle, client, live))
    };
    let mut state = setup(&mut rec);
    let mut pending: Vec<Sent> = Vec::new();
    let mut round = |rec: &mut Recorder,
                     (oracle, client, live): &mut (Vec<Vec<WireHeadStep>>, Client, Vec<Live>)|
     -> Result<(), String> {
        pending.clear();
        for session in live.iter_mut() {
            // The token is lent to the request and taken back.
            let slot = session.step % RING;
            let token = std::mem::take(&mut session.spec.ring[slot]);
            let request = Request::Step { session: session.wire_id, token };
            rec.sent();
            let sent = client.send(&request);
            let Request::Step { token, .. } = request else { unreachable!() };
            session.spec.ring[slot] = token;
            pending.push(sent.map_err(|e| {
                rec.fail(format!("wire: {e}"));
                format!("wire: {e}")
            })?);
        }
        for _ in 0..pending.len() {
            let reply = client.recv().map_err(|e| {
                rec.fail(format!("wire: {e}"));
                format!("wire: {e}")
            })?;
            let index = reply.header.request_id.wrapping_sub(pending[0].id) as usize;
            let (Some(sent), Some(session)) = (pending.get(index), live.get_mut(index)) else {
                rec.fail(format!("reply for unknown request {}", reply.header.request_id));
                continue;
            };
            match &reply.response {
                Response::Stepped { position, heads, .. } => {
                    if *position as usize != session.position {
                        rec.check(false, || format!("step produced position {position}"));
                    } else if index == 0 && session.step < RING {
                        let step = session.step;
                        rec.check(same_step(heads, &oracle[step]), || {
                            format!("step {step}: reply differs from the in-process oracle")
                        });
                    }
                    rec.saturation_events += heads.iter().map(|h| h.saturation_events).sum::<u64>();
                    session.position += 1;
                    session.step += 1;
                    rec.complete(0, 1, sent, &reply, None, true);
                }
                Response::Error(frame) => rec.fail(format!("{:?}: {}", frame.code, frame.message)),
                _ => rec.fail("step answered with another frame".into()),
            }
        }
        // Out of capacity: close and reopen, so the session table, the
        // page pool and the plan cache see open/close churn.
        for session in live.iter_mut().filter(|s| s.position >= s.spec.capacity()) {
            close_session(client, rec, session)?;
            open_session(client, rec, session)?;
        }
        Ok(())
    };
    if let Ok(state) = state.as_mut() {
        for _ in 0..warmup_rounds {
            if let Err(e) = round(&mut rec, state) {
                rec.errors.push(e);
                break;
            }
        }
    }
    let measure = rendezvous(ctx, &mut rec);
    match state.as_mut() {
        Err(e) => rec.fail(e.clone()),
        Ok(state) => {
            if measure {
                let end = deadline(ctx);
                while round(&mut rec, state).is_ok() && Instant::now() < end {}
            }
            rec.phase = 2;
            let (_, client, live) = state;
            for session in live.iter() {
                if close_session(client, &mut rec, session).is_err() {
                    break;
                }
            }
        }
    }
    rec
}

/// One complete socket run of `name`: set-up, measured phase, drain.
pub fn run(name: &str, seed: u64, clients: usize, plan: PhasePlan) -> Result<SocketRun, String> {
    let began = Instant::now();
    let workload =
        inputs::generate(name, seed, clients).ok_or_else(|| format!("unknown workload {name}"))?;
    let gateway = Gateway::bind("127.0.0.1:0", workload.config.clone(), workload.options.clone())
        .map_err(|e| format!("bind: {e}"))?;
    let connections = workload.conns.len();
    let ctx = Ctx {
        addr: gateway.local_addr(),
        config: workload.config,
        plan,
        window: workload.window,
        ready: Barrier::new(connections + 1),
        go: Barrier::new(connections + 1),
        start: OnceLock::new(),
    };
    let mut setup_s = 0.0;
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = workload
            .conns
            .into_iter()
            .map(|conn| {
                let ctx = &ctx;
                scope.spawn(move || drive(conn, ctx))
            })
            .collect();
        ctx.ready.wait();
        setup_s = began.elapsed().as_secs_f64();
        salo::trace::set_enabled(plan.traced);
        ctx.start.set(Instant::now()).expect("start is set once");
        ctx.go.wait();
        handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
    });
    salo::trace::set_enabled(false);

    let registry = gateway.metrics();
    let mut queue_wait = salo::serve::HistogramSnapshot::default();
    for tenant in 1..=connections {
        let name = format!("gateway.tenant.{tenant}.queue_wait_ns");
        queue_wait = queue_wait.merged_with(&registry.histogram(&name).snapshot());
    }
    let decode_ticks = registry.counter("serve.decode.ticks").get();
    let decode_fused_steps = registry.counter("serve.decode.fused_steps").get();
    let report = gateway.shutdown();

    let kinds = recorders[0].first_of_kind.len();
    let mut window_tokens_per_s = Vec::new();
    let mut window_latency_us = Vec::new();
    let mut window_samples = Vec::new();
    let mut latencies_us = Vec::new();
    // A connection's tokens of one window took from its last completion
    // before the window to its last completion inside it: rates are not
    // quantised to whole requests per window.
    let mut previous_ns = vec![0u64; recorders.len()];
    for w in 0..plan.windows {
        let mut rate = 0.0;
        for (r, previous) in recorders.iter().zip(&mut previous_ns) {
            if r.window_tokens[w] > 0 {
                rate += r.window_tokens[w] as f64 * 1e9 / (r.window_last_ns[w] - *previous) as f64;
                *previous = r.window_last_ns[w];
            }
        }
        window_tokens_per_s.push(rate);
        let mut medians = Vec::new();
        let mut samples = 0;
        for kind in 0..kinds {
            let mut merged: Vec<f64> = recorders
                .iter()
                .flat_map(|r| r.window_latencies[w][kind].iter().map(|&ns| f64::from(ns) / 1e3))
                .collect();
            merged.sort_by(f64::total_cmp);
            samples += merged.len() as u64;
            medians.extend(estimate::nearest_rank(&merged, 0.5));
            latencies_us.append(&mut merged);
        }
        window_samples.push(samples);
        // A window that lacks a kind would report the other kinds' mode.
        window_latency_us.push(if medians.len() == kinds {
            medians.iter().sum::<f64>() / kinds as f64
        } else {
            f64::NAN
        });
    }
    latencies_us.sort_by(f64::total_cmp);

    let mut phases: [PhaseCounts; 3] = Default::default();
    for r in &recorders {
        for (total, part) in phases.iter_mut().zip(&r.counts) {
            total.add(part);
        }
    }
    let sum = |f: fn(&Recorder) -> u64| recorders.iter().map(f).sum::<u64>();
    let phase_tokens: Vec<u64> = recorders.iter().map(|r| r.window_tokens.iter().sum()).collect();
    let total_tokens: u64 = phase_tokens.iter().sum();
    let reference_tokens = sum(|r| r.reference_tokens).max(1) as f64;
    let cycles_total = sum(|r| r.cycles_total);
    Ok(SocketRun {
        setup_s,
        connections,
        window_tokens_per_s,
        window_latency_us,
        window_samples,
        latencies_us,
        phases,
        mismatches: sum(|r| r.mismatches),
        compared: sum(|r| r.compared),
        errors: recorders.iter().flat_map(|r| r.errors.iter().cloned()).collect(),
        wire_bytes_per_token: sum(|r| r.reference_bytes) as f64 / reference_tokens,
        sim_cycles_per_token: sum(|r| r.reference_cycles) as f64 / reference_tokens,
        exact_consistent: recorders.iter().all(|r| r.exact_consistent)
            && cycles_total == report.serve.sim_cycles,
        inflight_mean: sum(|r| r.latency_sum_ns) as f64
            / (ctx.window.as_nanos() as f64 * plan.windows.max(1) as f64),
        tenant_share_min: phase_tokens.iter().copied().min().unwrap_or(0) as f64
            * connections as f64
            / total_tokens.max(1) as f64,
        saturation_events: sum(|r| r.saturation_events),
        queue_wait_p50_us: queue_wait.quantile(0.5) as f64 / 1e3,
        queue_wait_p99_us: queue_wait.quantile(0.99) as f64 / 1e3,
        decode_ticks,
        decode_fused_steps,
        gateway: report,
    })
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
