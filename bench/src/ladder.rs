//! The outside-in layer ladder of the traced run.
//!
//! The requests the socket phase sent are replayed from outside each
//! layer's public functions, one rung deeper each time:
//!
//! 1. in-process `SaloServer` (`submit`/`recv`, `open_session`/`step_session`),
//! 2. direct `LoweredEngine::execute`,
//! 3. direct `SpatialAccelerator::execute_lowered` / `execute_step` /
//!    `execute_steps`,
//! 4. the `salo-fixed` kernels ([`crate::kernels`]).
//!
//! A layer's self time is its rung's p50 minus the next rung's p50. The
//! compile chain and the four `wire::` codec functions are timed the same
//! way, one span per call. The tracer is on for every rung, exactly as
//! it is for the traced socket phase the rungs are subtracted from (an
//! enabled tracer also turns on the engines' per-stage profiling, so rung
//! 3 profiles too).

use std::sync::Arc;
use std::time::{Duration, Instant};

use salo::core::{AttentionRequest, CompiledPlan, Engine, PatternHandle, Salo};
use salo::gateway::wire::{self, Header, Request, Response, WireHeadStep};
use salo::kernels::Qkv;
use salo::patterns::{AttentionShape, HybridPattern};
use salo::scheduler::ExecutionPlan;
use salo::serve::{PlanCache, PlanKey, SaloServer, ServeRequest, SessionRequest};
use salo::sim::{
    BatchStep, DecodePlan, DecodeState, ExecScratch, KvPagePool, LoweredPlan, SpatialAccelerator,
    StageProfile, DEFAULT_PAGE_ROWS,
};

use crate::estimate;
use crate::inputs::{Script, SessionSpec, Workload, HEAD_DIM, RING};
use crate::kernels::{self, KernelTimes};
use crate::socket::{oracle_engine, oracle_prefill};

/// The compile chain, timed link by link (µs unless named otherwise).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileChain {
    pub pattern_build_us: f64,
    pub fingerprint_ns: f64,
    pub causal_clip_us: f64,
    pub nnz: f64,
    pub scheduler_build_us: f64,
    pub passes: f64,
    pub components: f64,
    pub lower_us: f64,
    pub decode_lower_us: f64,
    pub compile_us: f64,
    pub cache_hit_ns: f64,
    pub cache_miss_us: f64,
}

/// Everything the ladder measured below the socket.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    pub serve_p50_us: f64,
    pub engine_p50_us: f64,
    pub sim_p50_us: f64,
    pub samples: [usize; 3],
    pub open_ms: f64,
    pub is_decode: bool,
    pub chain: CompileChain,
    /// encode request, decode request, encode response, decode response.
    pub wire_ns: [f64; 4],
    pub stages: StageProfile,
    pub tokens_profiled: u64,
    pub sim_profiled_ns: f64,
    pub fused_ns_per_step: f64,
    pub sequential_ns_per_step: f64,
    pub saturation_events: u64,
    pub kernels: KernelTimes,
}

/// Runs `call`, records it as one span, returns its result and duration.
fn timed<T>(name: &'static str, arg: u64, call: impl FnOnce() -> T) -> (T, f64) {
    let span = salo::trace::span_with(name, "bench", arg);
    let t = Instant::now();
    let out = call();
    let ns = t.elapsed().as_nanos() as f64;
    drop(span);
    (out, ns)
}

/// The fastest of `reps` timings of `f`: interference only ever slows a
/// call down, and these calls are too long to repeat by the hundred.
fn fastest_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Times the links of the compile chain for one pattern. `causal` says
/// the pattern is opened as a decode session (clip, then decode-lower).
fn compile_chain(salo: &Salo, pattern: &HybridPattern, causal: bool, reps: usize) -> CompileChain {
    let hw = salo.config().hw;
    let terms = pattern.terms();
    // What the gateway does on every request: rebuild the normalised
    // pattern from its wire terms.
    let pattern_build_us = fastest_of(reps, || {
        timed("ladder.patterns.build", 0, || {
            HybridPattern::from_terms(pattern.n(), terms.clone()).expect("terms round-trip")
        })
        .1 / 1e3
    });
    let fingerprint_ns = fastest_of(reps.max(9), || {
        timed("ladder.patterns.fingerprint", 0, || pattern.fingerprint()).1
    });
    let (executed, causal_clip_us) = if causal {
        let clip = || pattern.decode_view().expect("decodable").into_causal_pattern();
        (clip(), fastest_of(reps, || timed("ladder.patterns.causal_clip", 0, clip).1 / 1e3))
    } else {
        (pattern.clone(), 0.0)
    };
    let shape = AttentionShape::new(executed.n(), HEAD_DIM, 1).expect("valid shape");
    let build = || ExecutionPlan::build(&executed, hw).expect("schedulable");
    let plan = build();
    let scheduler_build_us = fastest_of(reps, || timed("ladder.scheduler.build", 0, build).1 / 1e3);
    let lowered = LoweredPlan::lower(&plan);
    let lower_us =
        fastest_of(reps, || timed("ladder.sim.lower", 0, || LoweredPlan::lower(&plan)).1 / 1e3);
    let decode_lower_us = if causal {
        fastest_of(reps, || {
            timed("ladder.sim.decode_lower", 0, || {
                DecodePlan::lower(&plan, &lowered).expect("causal plan")
            })
            .1 / 1e3
        })
    } else {
        0.0
    };
    let compile = || salo.compile(&executed, &shape).expect("compiles");
    let compile_us = fastest_of(reps, || timed("ladder.core.compile", 0, compile).1 / 1e3);

    // The plan cache from outside: a miss compiles and inserts (evicting
    // once the shard is full), a hit verifies the pattern and bumps the
    // LRU tick.
    let options = salo::serve::ServeOptions::default();
    let cache = PlanCache::new(options.cache_capacity, options.cache_shards);
    let key = PlanKey::new(&executed, &shape, salo.config());
    let cache_miss_us = fastest_of(reps, || {
        cache.clear();
        timed("ladder.serve.cache_miss", 0, || {
            cache.get_or_compile(key, &executed, salo.config(), || salo.compile(&executed, &shape))
        })
        .1 / 1e3
    });
    let cache_hit_ns = fastest_of(201, || {
        timed("ladder.serve.cache_hit", 0, || cache.get(&key, &executed, salo.config())).1
    });
    let stats = plan.stats();
    CompileChain {
        pattern_build_us,
        fingerprint_ns,
        causal_clip_us,
        nnz: executed.nnz() as f64,
        scheduler_build_us,
        passes: (stats.passes + stats.supplemental_passes) as f64,
        components: plan.components().len() as f64,
        lower_us,
        decode_lower_us,
        compile_us,
        cache_hit_ns,
        cache_miss_us,
    }
}

fn mean_chain(chains: &[CompileChain]) -> CompileChain {
    let mean =
        |f: fn(&CompileChain) -> f64| chains.iter().map(f).sum::<f64>() / chains.len() as f64;
    CompileChain {
        pattern_build_us: mean(|c| c.pattern_build_us),
        fingerprint_ns: mean(|c| c.fingerprint_ns),
        causal_clip_us: mean(|c| c.causal_clip_us),
        nnz: mean(|c| c.nnz),
        scheduler_build_us: mean(|c| c.scheduler_build_us),
        passes: mean(|c| c.passes),
        components: mean(|c| c.components),
        lower_us: mean(|c| c.lower_us),
        decode_lower_us: mean(|c| c.decode_lower_us),
        compile_us: mean(|c| c.compile_us),
        cache_hit_ns: mean(|c| c.cache_hit_ns),
        cache_miss_us: mean(|c| c.cache_miss_us),
    }
}

/// Times the four codec functions on one request/response pair.
fn wire_codecs(request: &Request, response: &Response) -> [f64; 4] {
    let header = Header { tenant: 1, request_id: 1 };
    let request_frame = wire::encode_request(header, request);
    let response_frame = wire::encode_response(header, response);
    // Enough repetitions for a median, few enough that the 2 MB prefill
    // frames stay under a tenth of a second per codec.
    let reps = (40_000_000 / (request_frame.len() + response_frame.len())).clamp(9, 501);
    [
        fastest_of(reps, || {
            timed("ladder.wire.encode_request", 0, || wire::encode_request(header, request)).1
        }),
        fastest_of(reps, || {
            timed("ladder.wire.decode_request", 0, || wire::decode_request(&request_frame[4..])).1
        }),
        fastest_of(reps, || {
            timed("ladder.wire.encode_response", 0, || wire::encode_response(header, response)).1
        }),
        fastest_of(reps, || {
            timed("ladder.wire.decode_response", 0, || wire::decode_response(&response_frame[4..]))
                .1
        }),
    ]
}

/// One prefill to replay: its pattern, shape and tensors.
struct PrefillItem {
    pattern: HybridPattern,
    shape: AttentionShape,
    heads: Vec<Qkv>,
}

/// The three replay rungs' samples, taken in one loop in which the
/// rungs take turns, and reduced like the socket phase they are
/// subtracted from: cut into windows of the workload's length (whole
/// rounds only), per window the median per request kind averaged over
/// the kinds, and of those the quiet window. Host interference hits the
/// rungs of one window alike, so a self time (a difference of two rungs)
/// is not a difference of two moments.
struct Rungs {
    /// `[rung][kind]` samples of the open window, ns.
    open: [Vec<Vec<f64>>; 3],
    /// `[rung]` latency of every closed window, µs.
    windows: [Vec<f64>; 3],
    samples: [usize; 3],
    window: Duration,
    window_began: Instant,
    began: Instant,
    budget: Duration,
}

impl Rungs {
    fn new(kinds: usize, window: Duration, budget: Duration) -> Self {
        let now = Instant::now();
        Rungs {
            open: std::array::from_fn(|_| vec![Vec::new(); kinds]),
            windows: Default::default(),
            samples: [0; 3],
            window,
            window_began: now,
            began: now,
            budget,
        }
    }

    fn push(&mut self, rung: usize, kind: usize, ns: f64) {
        self.open[rung][kind].push(ns);
        self.samples[rung] += 1;
    }

    /// Ends a round: closes the window once it is long enough and every
    /// rung has seen every kind.
    fn end_round(&mut self) {
        let complete = self.open.iter().flatten().all(|samples| !samples.is_empty());
        if !complete || self.window_began.elapsed() < self.window {
            return;
        }
        for (rung, closed) in self.open.iter_mut().zip(&mut self.windows) {
            let medians: f64 = rung.iter().map(|kind| estimate::median(kind) / 1e3).sum();
            closed.push(medians / rung.len() as f64);
            rung.iter_mut().for_each(Vec::clear);
        }
        self.window_began = Instant::now();
    }

    /// Whether every rung has enough samples and the budget is spent.
    fn done(&self, rounds: usize) -> bool {
        rounds >= 6 && (self.began.elapsed() >= self.budget || rounds >= 4000)
    }

    fn finish(mut self, ladder: &mut Ladder) {
        // A run too short for one whole window still reports its samples.
        self.window = Duration::ZERO;
        self.end_round();
        let [serve, engine, sim] = &self.windows;
        ladder.serve_p50_us = estimate::quiet_low(serve);
        ladder.engine_p50_us = estimate::quiet_low(engine);
        ladder.sim_p50_us = estimate::quiet_low(sim);
        ladder.samples = self.samples;
    }
}

/// Replays prefill requests at the three rungs. `next(i)` yields the
/// `i`-th request and its kind; `cached` says requests repeat, so plans
/// are prepared once (the hit path) instead of compiled per request
/// (the miss path).
fn prefill_rungs(
    workload: &Workload,
    kinds: usize,
    cached: bool,
    next: &dyn Fn(usize) -> (usize, PrefillItem),
    budget: Duration,
    ladder: &mut Ladder,
) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("ladder prefill: {e}");
    let salo = Salo::new(workload.config.clone());
    let accel = salo.accelerator();
    let server = SaloServer::start(workload.config.clone(), workload.options.serve);
    let mut engine = oracle_engine(&workload.config);
    let mut prepared: Vec<Option<PatternHandle>> = vec![None; kinds];
    let mut compiled: Vec<Option<CompiledPlan>> = vec![None; kinds];
    // Profiling on, as in the engine under an enabled tracer.
    let mut scratch = ExecScratch::new();
    scratch.set_profiling(true);

    let mut rungs = Rungs::new(kinds, workload.window, budget);
    let mut i = 0;
    while !rungs.done(i / kinds) {
        let (kind, item) = next(i);
        // The first sight of a cached kind compiles at every rung: warm-up.
        let warm = !cached || i >= kinds;

        // Rung 1: the in-process server.
        let request = ServeRequest::new(item.pattern.clone(), item.shape, item.heads.clone())
            .map_err(|e| fail(&e))?;
        let (result, ns) = timed("ladder.serve", i as u64, || {
            server.submit_for(1, request).and_then(|_| server.recv())
        });
        result.and_then(|r| r.result).map_err(|e| fail(&e))?;
        if warm {
            rungs.push(0, kind, ns);
        }

        // Rung 2: the engine a serve worker owns. A repeating request
        // brings its plan (the cache-hit path); a new one compiles.
        let pattern = if cached {
            if prepared[kind].is_none() {
                let handle = engine.prepare(&item.pattern, &item.shape).map_err(|e| fail(&e))?;
                prepared[kind] = Some(handle);
            }
            prepared[kind].clone().expect("prepared above")
        } else {
            PatternHandle::from_pattern(item.pattern.clone())
        };
        let request =
            AttentionRequest::Prefill { pattern, shape: item.shape, heads: item.heads.clone() };
        let (result, ns) = timed("ladder.engine", i as u64, || engine.execute(request));
        result.map_err(|e| fail(&e))?;
        if warm {
            rungs.push(1, kind, ns);
        }

        // Rung 3: the simulator's lowered datapath. Compilation is the
        // engine's, so it happens outside the timer.
        if !cached || compiled[kind].is_none() {
            compiled[kind] = Some(salo.compile(&item.pattern, &item.shape).map_err(|e| fail(&e))?);
        }
        let lowered = &compiled[kind].as_ref().expect("compiled above").lowered;
        let scale = SpatialAccelerator::default_scale(item.shape.head_dim);
        let (outputs, ns) = timed("ladder.sim", i as u64, || {
            item.heads
                .iter()
                .map(|h| accel.execute_lowered(lowered, &h.q, &h.k, &h.v, scale, &mut scratch))
                .collect::<Result<Vec<_>, _>>()
        });
        for out in outputs.map_err(|e| fail(&e))? {
            ladder.stages.merge(&out.report.stages.expect("profiling is on"));
            ladder.saturation_events += out.report.saturation_events;
        }
        ladder.tokens_profiled += item.shape.seq_len as u64;
        ladder.sim_profiled_ns += ns;
        if warm {
            rungs.push(2, kind, ns);
        }
        i += 1;
        if i.is_multiple_of(kinds) {
            rungs.end_round();
        }
    }
    let _ = server.shutdown();
    rungs.finish(ladder);
    Ok(())
}

/// One head of one session at rung 3.
struct HeadState {
    state: DecodeState,
    /// Index into the session list, for the token ring.
    session: usize,
    head: usize,
}

fn decode_rungs(
    workload: &Workload,
    sessions: &[SessionSpec],
    budget: Duration,
    ladder: &mut Ladder,
) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("ladder decode: {e}");

    // Rung 1: in-process sessions.
    let server = SaloServer::start(workload.config.clone(), workload.options.serve);
    let mut opens = Vec::new();
    let mut handles = Vec::new();
    for (s, spec) in sessions.iter().enumerate() {
        let request = SessionRequest {
            pattern: spec.pattern.clone(),
            head_dim: HEAD_DIM,
            num_heads: spec.num_heads,
            prompt: spec.prompt.clone(),
        };
        let (handle, ns) = timed("ladder.serve.open", s as u64, || {
            let handle = server.open_session_for(1, request)?;
            handle.wait_open()?;
            Ok::<_, salo::serve::ServeError>(handle)
        });
        handles.push(handle.map_err(|e| fail(&e))?);
        opens.push(ns / 1e6);
    }
    ladder.open_ms = estimate::median(&opens);

    // Rung 2: the engine a serve worker owns.
    let mut engine = oracle_engine(&workload.config);
    for (s, spec) in sessions.iter().enumerate() {
        engine
            .execute(AttentionRequest::DecodeOpen {
                session: s as u64,
                pattern: PatternHandle::from_pattern(spec.pattern.clone()),
                head_dim: HEAD_DIM,
                num_heads: spec.num_heads,
                prompt: spec.prompt.clone(),
            })
            .map_err(|e| fail(&e))?;
    }

    // Rung 3: the simulator's step kernel over its paged K/V, one state
    // per head, profiling on as in the engine under an enabled tracer.
    let salo = Salo::new(workload.config.clone());
    let accel = salo.accelerator();
    let causal = sessions[0].pattern.decode_view().map_err(|e| fail(&e))?.into_causal_pattern();
    let shape = AttentionShape::new(causal.n(), HEAD_DIM, 1).map_err(|e| fail(&e))?;
    let plan: Arc<DecodePlan> =
        salo.compile(&causal, &shape).and_then(|c| c.decode_plan()).map_err(|e| fail(&e))?;
    let scale = SpatialAccelerator::default_scale(HEAD_DIM);
    let mut pool = KvPagePool::new(DEFAULT_PAGE_ROWS);
    let mut scratch = ExecScratch::new();
    let mut heads = Vec::new();
    for (s, spec) in sessions.iter().enumerate() {
        for (h, prompt) in spec.prompt.iter().enumerate() {
            let mut state = DecodeState::new(&plan, HEAD_DIM);
            for t in 0..prompt.seq_len() {
                let (q, k, v) = (prompt.q.row(t), prompt.k.row(t), prompt.v.row(t));
                accel
                    .prime_token(&plan, &mut state, q, k, v, scale, &mut pool, &mut scratch)
                    .map_err(|e| fail(&e))?;
            }
            heads.push(HeadState { state, session: s, head: h });
        }
    }
    scratch.set_profiling(true);
    let _ = scratch.take_profile();

    // One round steps every session once at each rung, the server in the
    // same pipelined shape as over the socket: one step per session
    // submitted, then the events read.
    let mut rungs = Rungs::new(1, workload.window, budget);
    let mut round = 0;
    let mut submitted = Vec::with_capacity(sessions.len());
    while !rungs.done(round) {
        submitted.clear();
        for (spec, handle) in sessions.iter().zip(&handles) {
            let token = spec.ring[round % RING].clone();
            submitted.push(Instant::now());
            server.step_session(handle.id(), token).map_err(|e| fail(&e))?;
        }
        for (handle, &began) in handles.iter().zip(&submitted) {
            handle.next_step().map_err(|e| fail(&e))?;
            salo::trace::record_since("ladder.serve", "bench", began, round as u64);
            rungs.push(0, 0, began.elapsed().as_nanos() as f64);
        }

        for (s, spec) in sessions.iter().enumerate() {
            let token = spec.ring[round % RING].clone();
            let request = AttentionRequest::DecodeStep { session: s as u64, token };
            let (result, ns) = timed("ladder.engine", round as u64, || engine.execute(request));
            result.map_err(|e| fail(&e))?;
            rungs.push(1, 0, ns);
        }

        // Heads of one session are contiguous: one sample per session.
        for chunk in heads.chunk_by_mut(|a, b| a.session == b.session) {
            let token = &sessions[chunk[0].session].ring[round % RING];
            let (result, ns) = timed("ladder.sim", round as u64, || {
                chunk.iter_mut().try_for_each(|hs| {
                    let t = &token[hs.head];
                    let (state, q, k, v) = (&mut hs.state, &t.q, &t.k, &t.v);
                    accel
                        .execute_step(&plan, state, q, k, v, scale, &mut pool, &mut scratch)
                        .map(|out| ladder.saturation_events += out.saturation_events)
                })
            });
            result.map_err(|e| fail(&e))?;
            ladder.sim_profiled_ns += ns;
            ladder.tokens_profiled += 1;
            rungs.push(2, 0, ns);
        }
        round += 1;
        rungs.end_round();
    }
    let _ = server.shutdown();
    ladder.stages = scratch.take_profile();
    rungs.finish(ladder);

    // The fused tick kernel against a loop of single steps, on the same
    // states, alternating so host drift hits both alike.
    let (mut fused_ns, mut sequential_ns) = (Vec::new(), Vec::new());
    for pair in 0..100 {
        for fused in [pair % 2 == 0, pair % 2 != 0] {
            let tokens: Vec<_> =
                heads.iter().map(|hs| &sessions[hs.session].ring[round % RING][hs.head]).collect();
            let ns = if fused {
                let mut batch: Vec<BatchStep<'_>> = heads
                    .iter_mut()
                    .zip(&tokens)
                    .map(|(hs, t)| BatchStep {
                        state: &mut hs.state,
                        q_t: &t.q,
                        k_t: &t.k,
                        v_t: &t.v,
                        scale,
                    })
                    .collect();
                let (results, ns) = timed("ladder.sim.execute_steps", round as u64, || {
                    accel.execute_steps(&plan, &mut batch, &mut pool, &mut scratch)
                });
                results.into_iter().collect::<Result<Vec<_>, _>>().map_err(|e| fail(&e))?;
                ns
            } else {
                let (result, ns) = timed("ladder.sim.execute_step_loop", round as u64, || {
                    heads.iter_mut().zip(&tokens).try_for_each(|(hs, t)| {
                        let (state, q, k, v) = (&mut hs.state, &t.q, &t.k, &t.v);
                        accel
                            .execute_step(&plan, state, q, k, v, scale, &mut pool, &mut scratch)
                            .map(|_| ())
                    })
                });
                result.map_err(|e| fail(&e))?;
                ns
            };
            if fused { &mut fused_ns } else { &mut sequential_ns }.push(ns / heads.len() as f64);
            round += 1;
        }
    }
    ladder.fused_ns_per_step = estimate::quiet_low(&fused_ns);
    ladder.sequential_ns_per_step = estimate::quiet_low(&sequential_ns);
    Ok(())
}

/// Replays connection 0's requests down the ladder, spending `budget`
/// on the replay loop of rungs 1 to 3.
pub fn run(workload: &Workload, budget: Duration) -> Result<Ladder, String> {
    let salo = Salo::new(workload.config.clone());
    let mut ladder = Ladder::default();
    let mut engine = oracle_engine(&workload.config);
    // A request/response pair of the workload's own, for the codecs, and
    // a head and row length for the kernels.
    let (request, response, kernel_head): (Request, Response, Qkv);
    match &workload.conns[0].script {
        Script::PrefillCycle { kinds, .. } => {
            let next = |i: usize| {
                let kind = &kinds[i % kinds.len()];
                let item = PrefillItem {
                    pattern: kind.pattern.clone(),
                    shape: kind.shape,
                    heads: kind.heads.clone(),
                };
                (i % kinds.len(), item)
            };
            prefill_rungs(workload, kinds.len(), true, &next, budget, &mut ladder)?;
            let chains: Vec<_> =
                kinds.iter().map(|k| compile_chain(&salo, &k.pattern, false, 5)).collect();
            ladder.chain = mean_chain(&chains);
            let kind = &kinds[0];
            let heads = oracle_prefill(
                &mut engine,
                PatternHandle::from_pattern(kind.pattern.clone()),
                kind.shape,
                kind.heads.clone(),
            )?;
            request = Request::Prefill {
                pattern: kind.pattern.clone(),
                shape: kind.shape,
                heads: kind.heads.clone(),
            };
            response = Response::PrefillDone { heads, sim_time_s: 1e-4, sim_energy_j: 1e-6 };
            kernel_head = kind.heads[0].clone();
        }
        Script::PrefillChurn(churn) => {
            let next = |i: usize| {
                let item = PrefillItem {
                    pattern: churn.pattern(churn.first_id + i as u64 * churn.id_stride),
                    shape: churn.shape(),
                    heads: churn.heads_ring[i % churn.heads_ring.len()].clone(),
                };
                (0, item)
            };
            prefill_rungs(workload, 1, false, &next, budget, &mut ladder)?;
            let chains: Vec<_> = (0..16)
                .map(|i| compile_chain(&salo, &churn.pattern(churn.first_id + i), false, 3))
                .collect();
            ladder.chain = mean_chain(&chains);
            let (_, item) = next(0);
            let handle = PatternHandle::from_pattern(item.pattern.clone());
            let heads = oracle_prefill(&mut engine, handle, item.shape, item.heads.clone())?;
            kernel_head = item.heads[0].clone();
            request =
                Request::Prefill { pattern: item.pattern, shape: item.shape, heads: item.heads };
            response = Response::PrefillDone { heads, sim_time_s: 1e-4, sim_energy_j: 1e-6 };
        }
        Script::Decode { sessions, .. } => {
            ladder.is_decode = true;
            decode_rungs(workload, sessions, budget, &mut ladder)?;
            ladder.chain = compile_chain(&salo, &sessions[0].pattern, true, 3);
            let spec = &sessions[0];
            let fail = |e: salo::core::SaloError| format!("ladder codec sample: {e}");
            engine
                .execute(AttentionRequest::DecodeOpen {
                    session: 0,
                    pattern: PatternHandle::from_pattern(spec.pattern.clone()),
                    head_dim: HEAD_DIM,
                    num_heads: spec.num_heads,
                    prompt: spec.prompt.clone(),
                })
                .map_err(fail)?;
            let step = engine
                .execute(AttentionRequest::DecodeStep { session: 0, token: spec.ring[0].clone() })
                .and_then(|r| r.into_step())
                .map_err(fail)?;
            request = Request::Step { session: 1, token: spec.ring[0].clone() };
            response = Response::Stepped {
                session: 1,
                position: step.position as u64,
                heads: step.heads.iter().map(WireHeadStep::from).collect(),
            };
            kernel_head = spec.prompt[0].clone();
        }
    }
    ladder.wire_ns = wire_codecs(&request, &response);
    // Keys per op: the row length the datapath's stages typically see.
    let keys_per_op = ladder.stages.keys.checked_div(ladder.stages.ops).unwrap_or(1) as usize;
    let (exp, recip) = salo.accelerator().shared_tables();
    ladder.kernels = kernels::measure(&kernel_head, keys_per_op, exp, recip);
    Ok(ladder)
}
