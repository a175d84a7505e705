//! The fixed-point execution backend, [`LoweredEngine`].
//!
//! One engine runs the accelerator's exact fixed-point arithmetic:
//! compiled-plan resolution, a worker-lifetime [`ExecScratch`], per-session
//! persistent [`DecodeState`]s and one K/V page pool. Its prefill walks the
//! plan's flat pass programs; the event-accurate systolic model
//! ([`SystolicArray`](salo_sim::SystolicArray), through
//! [`SpatialAccelerator::execute_systolic`]) is not an engine but the oracle
//! that `salo-sim`'s differential tests and the root `engines` tests hold
//! this prefill to, bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use salo_fixed::Fix16x8;
use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::{
    DecodePlan, DecodeState, ExecScratch, ExecutionOutput, FixedQkv, FixedStep, KvPagePool,
    KvPoolStats, SimError, SpatialAccelerator, StepOutput, DEFAULT_PAGE_ROWS,
};

use crate::engine::{
    check_open_prompt, check_prefill_heads, check_token, AttentionRequest, AttentionResponse,
    Engine, FixedToken, HeadOutput, HeadStep, PatternHandle, PrefillOutput, SessionClosed,
    SessionId, SessionOpened, StepResult, Telemetry,
};
use crate::{salo::compile_with, CompiledPlan, MultiHeadRun, SaloError};

/// [`LoweredEngine`]'s [`Engine::name`], in its telemetry and errors.
const NAME: &str = "lowered";

/// A decode session resident in the fixed-point engine: the step program
/// shared by every head, one persistent quantized K/V state per head.
#[derive(Debug)]
struct FixedSession {
    decode: Arc<DecodePlan>,
    states: Vec<DecodeState>,
}

impl FixedSession {
    /// Position the next step will produce (heads advance in lockstep).
    fn position(&self) -> usize {
        self.states.first().map_or(0, DecodeState::position)
    }

    /// Whether the session is still fully consistent after a failed step
    /// that began at `position`: no head poisoned, no head advanced. Once
    /// any head advanced while another did not, the heads are desynced
    /// and the session must be retired.
    fn is_intact(&self, position: usize) -> bool {
        self.states.iter().all(|s| !s.is_poisoned() && s.position() == position)
    }

    /// Bytes of quantized K/V the session keeps resident, summed across
    /// its head states.
    fn resident_kv_bytes(&self) -> u64 {
        self.states.iter().map(DecodeState::resident_kv_bytes).sum()
    }

    /// Hands every head's pages back to the pool — mandatory on every
    /// path that drops a session (close, retirement, failed open), or the
    /// pool's occupancy accounting leaks.
    fn release_pages(&mut self, pool: &mut KvPagePool) {
        for state in &mut self.states {
            state.release(pool);
        }
    }
}

/// The default backend: the allocation-free lowered fixed-point datapath.
///
/// Prefill walks the plan's flat pass programs
/// ([`execute_lowered`](SpatialAccelerator::execute_lowered)) head after
/// head with an engine-lifetime scratch; decode drives persistent per-head
/// [`DecodeState`]s through the step programs. This is what the serving
/// runtime's workers run — one engine per worker thread.
#[derive(Debug)]
pub struct LoweredEngine {
    accel: SpatialAccelerator,
    scratch: ExecScratch,
    sessions: HashMap<SessionId, FixedSession>,
    /// The physical K/V pages every decode session of this engine draws
    /// from — one pool per engine, exactly like the scratch.
    kv_pool: KvPagePool,
}

/// Maps a simulator step error onto the unified API's error taxonomy, so
/// the fixed-point engine reports request-level validation failures the
/// same way the `f32` reference engine does (capacity
/// exhaustion and unprimed sessions are `InvalidRequest`, wrong token
/// rows are `ShapeMismatch`) — backends stay interchangeable on errors,
/// not just outputs. Everything else (numeric degeneracy, poisoning)
/// stays a simulator error.
fn normalize_step_error(e: SimError) -> SaloError {
    match e {
        SimError::DecodeCapacity { n } => crate::engine::capacity_error(n),
        SimError::DecodeNotPrimed { position, min_step } => {
            crate::engine::not_primed_error(position, min_step)
        }
        SimError::TokenDim { expected, got } => {
            SaloError::ShapeMismatch { expected: (1, expected), got: (1, got) }
        }
        other => SaloError::Sim(other),
    }
}

impl LoweredEngine {
    /// An engine over `accel` (clones share the lookup tables).
    #[must_use]
    pub fn new(accel: SpatialAccelerator) -> Self {
        Self {
            accel,
            scratch: ExecScratch::new(),
            sessions: HashMap::new(),
            kv_pool: KvPagePool::new(DEFAULT_PAGE_ROWS),
        }
    }

    /// The underlying accelerator.
    #[must_use]
    pub fn accelerator(&self) -> &SpatialAccelerator {
        &self.accel
    }

    /// Occupancy counters of the engine's K/V page pool.
    #[must_use]
    pub fn kv_pool_stats(&self) -> KvPoolStats {
        self.kv_pool.stats()
    }

    /// Reconfigures the engine's K/V page pool (`page_rows` rows per
    /// page; `None` capacity = unbounded). It swaps in the new pool only
    /// while no pages are in use, so no live session's page translation
    /// can change underneath it (the serving runtime calls this right
    /// after spawning workers, before any session opens).
    pub fn configure_kv_pool(&mut self, page_rows: usize, capacity_pages: Option<usize>) {
        if self.kv_pool.pages_in_use() > 0 {
            return;
        }
        self.kv_pool = match capacity_pages {
            Some(capacity) => KvPagePool::bounded(page_rows, capacity),
            None => KvPagePool::new(page_rows),
        };
    }

    /// Resolves a prefill handle into a compiled plan for this engine's
    /// configuration: the attached plan when present (shape-checked),
    /// otherwise a fresh compile of the pattern.
    fn resolve_prefill_plan(
        &self,
        handle: &PatternHandle,
        shape: &AttentionShape,
    ) -> Result<Arc<CompiledPlan>, SaloError> {
        if let Some(plan) = handle.plan() {
            if plan.shape.seq_len != shape.seq_len || plan.shape.head_dim != shape.head_dim {
                return Err(SaloError::ShapeMismatch {
                    expected: (plan.shape.seq_len, plan.shape.head_dim),
                    got: (shape.seq_len, shape.head_dim),
                });
            }
            return Ok(Arc::clone(plan));
        }
        let pattern = handle.require_pattern(NAME)?;
        Ok(Arc::new(compile_with(self.accel.config().hw, pattern, shape)?))
    }

    /// Resolves a decode-open handle into the step program. The attached
    /// plan (when present) must be causal; otherwise the pattern is
    /// causally clipped and compiled at the canonical unit shape — the
    /// decode program depends only on the pattern and the hardware, not
    /// on head count or head dimension.
    fn resolve_decode_plan(&self, handle: &PatternHandle) -> Result<Arc<DecodePlan>, SaloError> {
        if let Some(plan) = handle.plan() {
            match plan.decode_plan() {
                Ok(decode) => return Ok(decode),
                // The attached plan was compiled from the *uncausal*
                // pattern (e.g. a prefill handle reused for decode). If
                // the handle also carries the pattern, clip and compile
                // below; a plan-only handle has nothing to fall back to.
                Err(e) => {
                    if handle.pattern().is_none() {
                        return Err(e);
                    }
                }
            }
        }
        let pattern = handle.require_pattern(NAME)?;
        let causal = pattern.decode_view()?.into_causal_pattern();
        let shape = AttentionShape::new(causal.n(), 1, 1)?;
        let compiled = compile_with(self.accel.config().hw, &causal, &shape)?;
        compiled.decode_plan()
    }

    /// Runs a layer's quantized heads through the lowered datapath, head
    /// after head on the calling thread, as the one PE array runs a
    /// layer's passes in order: the prefill every
    /// [`AttentionRequest::Prefill`] runs after quantizing its heads, and
    /// what a serving worker calls directly. The heads come back as the
    /// datapath's raw rows, weights and reports.
    ///
    /// # Errors
    ///
    /// A head count or head shape that disagrees with `shape`, a plan
    /// that cannot be resolved for it, or a simulator failure.
    pub fn prefill(
        &mut self,
        pattern: &PatternHandle,
        shape: &AttentionShape,
        heads: &[FixedQkv],
    ) -> Result<MultiHeadRun, SaloError> {
        let tracer = salo_trace::Tracer::global();
        let _span = tracer.span_with("engine.prefill", "engine", heads.len() as u64);
        check_prefill_heads(shape, heads)?;
        let plan = self.resolve_prefill_plan(pattern, shape)?;
        // Stage profiling follows the tracer switch: one relaxed load per
        // request, zero per-op cost when off.
        self.scratch.set_profiling(tracer.enabled());
        let heads = heads
            .iter()
            .map(|h| self.accel.execute_lowered_fixed(&plan.lowered, h, &mut self.scratch))
            .collect::<Result<Vec<_>, _>>()?;
        let total_time_s = heads.iter().map(|h| h.report.timing.time_s).sum();
        let total_energy_j = heads.iter().map(|h| h.report.timing.energy_j).sum();
        Ok(MultiHeadRun { heads, total_time_s, total_energy_j })
    }

    /// Opens `session` on the step program `decode` and primes each head
    /// with its quantized prompt: what a serving worker calls with the
    /// program its plan cache holds, and [`AttentionRequest::DecodeOpen`]
    /// after quantizing and resolving its handle.
    ///
    /// # Errors
    ///
    /// A live session of that id, a prompt [`check_open_prompt`] refuses,
    /// or a failure while priming.
    pub fn open(
        &mut self,
        session: SessionId,
        decode: Arc<DecodePlan>,
        head_dim: usize,
        num_heads: usize,
        prompt: &[FixedQkv],
    ) -> Result<SessionOpened, SaloError> {
        let _span = salo_trace::span_with("engine.decode_open", "engine", session);
        if self.sessions.contains_key(&session) {
            return Err(SaloError::SessionInUse { session });
        }
        let prompt_len =
            check_open_prompt(decode.n(), decode.min_step(), head_dim, num_heads, prompt)?;
        let mut states: Vec<DecodeState> =
            (0..num_heads).map(|_| DecodeState::new(&decode, head_dim)).collect();
        let mut prime_err = None;
        'prime: for (state, head) in states.iter_mut().zip(prompt) {
            for t in 0..prompt_len {
                if let Err(e) = self.accel.prime_fixed(
                    &decode,
                    state,
                    head.q().row(t),
                    head.k().row(t),
                    head.v().row(t),
                    &mut self.kv_pool,
                    &mut self.scratch,
                ) {
                    prime_err = Some(e);
                    break 'prime;
                }
            }
        }
        if let Some(e) = prime_err {
            // The session never became live: hand back whatever pages the
            // partial prime drew before reporting the failure.
            for state in &mut states {
                state.release(&mut self.kv_pool);
            }
            return Err(e.into());
        }
        let opened = SessionOpened {
            session,
            min_step: decode.min_step(),
            position: prompt_len,
            capacity: decode.n(),
        };
        self.sessions.insert(session, FixedSession { decode, states });
        Ok(opened)
    }

    /// The one way a decode step runs — a serving worker's step, and
    /// [`AttentionRequest::DecodeStep`] after quantizing. Each step is
    /// settled before the call returns, as the one PE array runs its
    /// passes one after another, so who shares a worker's tick never
    /// changes an outcome:
    ///
    /// * an unknown session, or a token [`check_token`] refuses (head
    ///   count and every head's row lengths, checked before any head
    ///   moves), fails the step and leaves its session where it was;
    /// * otherwise the session's heads run as one
    ///   [`SpatialAccelerator::execute_fixed_steps`] call. A failure there
    ///   that left the heads disagreeing (one advanced or poisoned while
    ///   another did not) retires the session and hands its pages back to
    ///   the pool; any other leaves it live where it was.
    ///
    /// Each head is the datapath's own [`StepOutput`]; the stage profile
    /// is there when the tracer is on.
    pub fn step(
        &mut self,
        session: SessionId,
        token: &[FixedToken],
    ) -> Result<StepResult<StepOutput>, SaloError> {
        let profiling = salo_trace::enabled();
        self.scratch.set_profiling(profiling);
        let live = self.sessions.get_mut(&session).ok_or(SaloError::UnknownSession { session })?;
        let position = live.position();
        let d = live.states.first().map_or(0, DecodeState::head_dim);
        check_token(live.states.len(), d, token)?;
        let mut batch: Vec<FixedStep<'_>> = live
            .states
            .iter_mut()
            .zip(token)
            .map(|(state, tok)| FixedStep { state, q_t: &tok.q, k_t: &tok.k, v_t: &tok.v })
            .collect();
        let heads = self.accel.execute_fixed_steps(
            &live.decode,
            &mut batch,
            &mut self.kv_pool,
            &mut self.scratch,
        );
        drop(batch);
        // Taken whatever the outcome, so a failed entry's partial profile
        // never rides on the next one.
        let stages = profiling.then(|| self.scratch.take_profile());
        // Every head ran, whatever its siblings did: the first failure is
        // the entry's.
        match heads.into_iter().collect::<Result<Vec<StepOutput>, SimError>>() {
            Ok(heads) => Ok(StepResult {
                session,
                position,
                telemetry: Telemetry {
                    engine: NAME,
                    sim_cycles: None,
                    sim_time_s: None,
                    sim_energy_j: None,
                    saturation_events: heads.iter().map(|h| h.saturation_events).sum(),
                    resident_kv_bytes: Some(live.resident_kv_bytes()),
                    stages,
                },
                heads,
            }),
            Err(e) => {
                if !live.is_intact(position) {
                    // A head advanced or poisoned while another did not:
                    // the heads are desynced, so the session is retired
                    // and later steps report `UnknownSession` instead of
                    // silently wrong outputs.
                    let mut retired = self.sessions.remove(&session).expect("the session is live");
                    retired.release_pages(&mut self.kv_pool);
                }
                Err(normalize_step_error(e))
            }
        }
    }

    /// Closes `session` and hands its pages back to the pool.
    ///
    /// # Errors
    ///
    /// [`SaloError::UnknownSession`] when no such session is live.
    pub fn close(&mut self, session: SessionId) -> Result<SessionClosed, SaloError> {
        let _span = salo_trace::span_with("engine.decode_close", "engine", session);
        match self.sessions.remove(&session) {
            Some(mut state) => {
                let position = state.position();
                state.release_pages(&mut self.kv_pool);
                Ok(SessionClosed { session, position })
            }
            None => Err(SaloError::UnknownSession { session }),
        }
    }

    fn prefill_telemetry(heads: &[ExecutionOutput]) -> Telemetry {
        // Per-head stage profiles sum exactly to the layer total.
        let mut stages: Option<salo_sim::StageProfile> = None;
        for head in heads {
            if let Some(s) = &head.report.stages {
                stages.get_or_insert_with(Default::default).merge(s);
            }
        }
        Telemetry {
            engine: NAME,
            sim_cycles: Some(heads.iter().map(|h| h.report.timing.cycles.total).sum()),
            sim_time_s: Some(heads.iter().map(|h| h.report.timing.time_s).sum()),
            sim_energy_j: Some(heads.iter().map(|h| h.report.timing.energy_j).sum()),
            saturation_events: heads.iter().map(|h| h.report.saturation_events).sum(),
            resident_kv_bytes: None,
            stages,
        }
    }
}

/// Converts a simulator [`ExecutionOutput`] into the backend-neutral
/// [`HeadOutput`] (every fixed-point artifact present): the one place a
/// prefill's raw rows are dequantized to `f32`.
fn fixed_head_output(out: ExecutionOutput) -> HeadOutput {
    HeadOutput {
        output: out.raw.map(Fix16x8::to_f32),
        raw: Some(out.raw),
        weights_q16: Some(out.weights_q16),
        report: Some(out.report),
    }
}

/// Converts a step's simulator [`StepOutput`]s into the backend-neutral
/// [`HeadStep`]s: the one place a step's raw rows are dequantized to `f32`.
fn fixed_step_result(
    StepResult { session, position, heads, telemetry }: StepResult<StepOutput>,
) -> StepResult {
    let heads = heads.into_iter().map(|out| HeadStep {
        output: out.raw.iter().map(|&r| r.to_f32()).collect(),
        raw: Some(out.raw),
        weight_q16: Some(out.weight_q16),
        saturation_events: out.saturation_events,
    });
    StepResult { session, position, heads: heads.collect(), telemetry }
}

impl Engine for LoweredEngine {
    fn name(&self) -> &'static str {
        NAME
    }

    /// Compiles for this engine's array geometry and attaches both the
    /// pattern and the plan.
    fn prepare(
        &self,
        pattern: &HybridPattern,
        shape: &AttentionShape,
    ) -> Result<PatternHandle, SaloError> {
        let plan = compile_with(self.accel.config().hw, pattern, shape)?;
        Ok(PatternHandle::new(Arc::new(pattern.clone()), Arc::new(plan)))
    }

    fn execute(&mut self, request: AttentionRequest) -> Result<AttentionResponse, SaloError> {
        // Every request is quantized as the serving runtime's rows are
        // where they arrive, then run by the typed method a worker calls.
        match request {
            // Each `f32` head or token row is dropped as soon as it is
            // quantized, so none is held through a compile or a run.
            AttentionRequest::Prefill { pattern, shape, heads } => {
                let heads: Vec<FixedQkv> =
                    heads.into_iter().map(|h| FixedQkv::quantize(&h)).collect();
                let run = self.prefill(&pattern, &shape, &heads)?;
                Ok(AttentionResponse::Prefill(PrefillOutput {
                    telemetry: Self::prefill_telemetry(&run.heads),
                    heads: run.heads.into_iter().map(fixed_head_output).collect(),
                }))
            }
            AttentionRequest::DecodeOpen { session, pattern, head_dim, num_heads, prompt } => {
                let prompt: Vec<FixedQkv> =
                    prompt.into_iter().map(|h| FixedQkv::quantize(&h)).collect();
                // Refused as `open` refuses it, before paying for a compile.
                if self.sessions.contains_key(&session) {
                    return Err(SaloError::SessionInUse { session });
                }
                let decode = self.resolve_decode_plan(&pattern)?;
                let opened = self.open(session, decode, head_dim, num_heads, &prompt)?;
                Ok(AttentionResponse::DecodeOpened(opened))
            }
            AttentionRequest::DecodeStep { session, token } => {
                let _span = salo_trace::span_with("engine.decode_step", "engine", session);
                let token: Vec<FixedToken> =
                    token.into_iter().map(|t| FixedToken::quantize(&t)).collect();
                Ok(AttentionResponse::DecodeStep(fixed_step_result(self.step(session, &token)?)))
            }
            AttentionRequest::DecodeClose { session } => {
                Ok(AttentionResponse::DecodeClosed(self.close(session)?))
            }
        }
    }

    fn has_session(&self, session: SessionId) -> bool {
        self.sessions.contains_key(&session)
    }

    fn session_position(&self, session: SessionId) -> Option<usize> {
        self.sessions.get(&session).map(FixedSession::position)
    }
}
