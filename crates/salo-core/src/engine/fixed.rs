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

use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::{
    BatchStep, DecodePlan, DecodeState, ExecScratch, ExecutionOutput, FixedQkv, KvPagePool,
    KvPoolStats, SimError, SpatialAccelerator, StepOutput, DEFAULT_PAGE_ROWS,
};

use crate::engine::{
    check_open_prompt, check_prefill_heads, check_token, AttentionRequest, AttentionResponse,
    Engine, HeadOutput, HeadStep, PatternHandle, PrefillOutput, SessionClosed, SessionId,
    SessionOpened, StepResult, Telemetry, TokenQkv,
};
use crate::{salo::compile_with, CompiledPlan, SaloError};

/// [`LoweredEngine`]'s [`Engine::name`], in its telemetry and errors.
const NAME: &str = "lowered";

/// A decode session resident in the fixed-point engine: the step program
/// shared by every head, one persistent quantized K/V state per head.
#[derive(Debug)]
struct FixedSession {
    decode: Arc<DecodePlan>,
    states: Vec<DecodeState>,
    scale: f32,
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

    fn open(
        &mut self,
        session: SessionId,
        handle: &PatternHandle,
        head_dim: usize,
        num_heads: usize,
        prompt: &[FixedQkv],
    ) -> Result<SessionOpened, SaloError> {
        if self.sessions.contains_key(&session) {
            return Err(SaloError::SessionInUse { session });
        }
        let decode = self.resolve_decode_plan(handle)?;
        let prompt_len =
            check_open_prompt(decode.n(), decode.min_step(), head_dim, num_heads, prompt)?;
        let scale = SpatialAccelerator::default_scale(head_dim);
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
        self.sessions.insert(session, FixedSession { decode, states, scale });
        Ok(opened)
    }

    /// The one way a decode step runs: execute one pending step from each
    /// listed session, grouping maximal runs that share a decode-plan
    /// fingerprint into single [`SpatialAccelerator::execute_steps`]
    /// passes (one scratch, one pool, per-dispatch overhead paid once).
    /// [`AttentionRequest::DecodeStep`] is the width-1 case. Results are
    /// per entry, in request order; grouping preserves it (each group is
    /// a contiguous run) and never spans a duplicate session id, so
    /// per-session step ordering is exactly the one-at-a-time order.
    fn step_batch(
        &mut self,
        steps: Vec<(SessionId, Vec<TokenQkv>)>,
    ) -> Vec<(SessionId, Result<StepResult, SaloError>)> {
        let mut results = Vec::with_capacity(steps.len());
        let mut iter = steps.into_iter().peekable();
        while let Some((session, token)) = iter.next() {
            let Some(live) = self.sessions.get(&session) else {
                results.push((session, Err(SaloError::UnknownSession { session })));
                continue;
            };
            let fingerprint = live.decode.fingerprint();
            let mut group = vec![(session, token)];
            while let Some((next, _)) = iter.peek() {
                if group.iter().any(|(sid, _)| sid == next) {
                    break; // a second step for a session starts a new group
                }
                match self.sessions.get(next) {
                    Some(s) if s.decode.fingerprint() == fingerprint => {
                        group.push(iter.next().expect("peeked entry exists"));
                    }
                    _ => break,
                }
            }
            self.run_step_group(group, &mut results);
        }
        results
    }

    /// Executes one group (live sessions sharing a plan, one step each)
    /// and appends the per-session results to `results`.
    ///
    /// Validation is pre-mutation and per entry: head count and every
    /// head's row lengths are checked before any head moves, so a
    /// malformed token fails its own entry and leaves its session live at
    /// the same position. A failure inside the pass is judged afterwards:
    /// a session whose heads no longer agree
    /// ([`is_intact`](FixedSession::is_intact)) is retired and its pages
    /// released; anything else is reinserted as it was.
    fn run_step_group(
        &mut self,
        group: Vec<(SessionId, Vec<TokenQkv>)>,
        results: &mut Vec<(SessionId, Result<StepResult, SaloError>)>,
    ) {
        // One entry per grouped session: taken out of the map (for
        // simultaneous `&mut` access), its pending token, its pre-step
        // position, and any pre-validation error.
        type GroupEntry = (SessionId, FixedSession, Vec<TokenQkv>, usize, Option<SaloError>);
        let mut entries: Vec<GroupEntry> = group
            .into_iter()
            .map(|(sid, token)| {
                let sess = self.sessions.remove(&sid).expect("grouped sessions are live");
                let position = sess.position();
                let d = sess.states.first().map_or(0, DecodeState::head_dim);
                let err = check_token(sess.states.len(), d, &token).err();
                (sid, sess, token, position, err)
            })
            .collect();
        let decode = entries
            .iter()
            .find(|(_, _, _, _, err)| err.is_none())
            .map(|(_, sess, ..)| Arc::clone(&sess.decode));

        let profiling = salo_trace::enabled();
        self.scratch.set_profiling(profiling);
        let mut batch: Vec<BatchStep<'_>> = Vec::new();
        for (_, sess, token, _, err) in &mut entries {
            if err.is_some() {
                continue;
            }
            let scale = sess.scale;
            for (state, tok) in sess.states.iter_mut().zip(token.iter()) {
                batch.push(BatchStep { state, q_t: &tok.q, k_t: &tok.k, v_t: &tok.v, scale });
            }
        }
        let mut outputs = match &decode {
            Some(decode) => {
                self.accel.execute_steps(decode, &mut batch, &mut self.kv_pool, &mut self.scratch)
            }
            None => Vec::new(),
        }
        .into_iter();
        drop(batch);
        // The group shares one scratch, so its stage profile is one
        // aggregate: it rides on the first successful entry, and summing
        // over a group's entries gives its total.
        let mut stages = profiling.then(|| self.scratch.take_profile());

        for (sid, mut sess, _token, position, err) in entries {
            let heads = match err {
                Some(e) => Err(e),
                None => {
                    // Every head of the entry ran, whatever its siblings
                    // did: report the first failure, skip the rest of the
                    // entry's outputs so the next entry reads its own.
                    let mut own = outputs.by_ref().take(sess.states.len());
                    let heads: Result<Vec<StepOutput>, SimError> = own.by_ref().collect();
                    own.for_each(drop);
                    heads.map_err(normalize_step_error)
                }
            };
            let result = heads.map(|heads| StepResult {
                session: sid,
                position,
                telemetry: Telemetry {
                    engine: NAME,
                    sim_cycles: None,
                    sim_time_s: None,
                    sim_energy_j: None,
                    saturation_events: heads.iter().map(|h| h.saturation_events).sum(),
                    resident_kv_bytes: Some(sess.resident_kv_bytes()),
                    stages: stages.take(),
                },
                heads: heads.into_iter().map(fixed_head_step).collect(),
            });
            if result.is_ok() || sess.is_intact(position) {
                self.sessions.insert(sid, sess);
            } else {
                // A head advanced or poisoned while another did not: the
                // heads are desynced, so the session is retired and later
                // steps report `UnknownSession` instead of silently wrong
                // outputs.
                sess.release_pages(&mut self.kv_pool);
            }
            results.push((sid, result));
        }
    }

    fn close(&mut self, session: SessionId) -> Result<SessionClosed, SaloError> {
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
/// [`HeadOutput`] (every fixed-point artifact present).
fn fixed_head_output(out: ExecutionOutput) -> HeadOutput {
    HeadOutput {
        output: out.output,
        raw: Some(out.raw),
        weights_q16: Some(out.weights_q16),
        report: Some(out.report),
    }
}

/// Converts a simulator [`StepOutput`] into the backend-neutral
/// [`HeadStep`].
fn fixed_head_step(out: StepOutput) -> HeadStep {
    HeadStep {
        output: out.output,
        raw: Some(out.raw),
        weight_q16: Some(out.weight_q16),
        saturation_events: out.saturation_events,
    }
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
        let tracer = salo_trace::Tracer::global();
        match request {
            AttentionRequest::Prefill { pattern, shape, heads } => {
                let _span = tracer.span_with("engine.prefill", "engine", heads.len() as u64);
                check_prefill_heads(&shape, &heads)?;
                let plan = self.resolve_prefill_plan(&pattern, &shape)?;
                let scale = SpatialAccelerator::default_scale(shape.head_dim);
                // Stage profiling follows the tracer switch: one relaxed
                // load per request, zero per-op cost when off.
                self.scratch.set_profiling(tracer.enabled());
                // Head after head on the calling thread, as the one PE
                // array runs a layer's passes in order.
                let outputs = heads
                    .iter()
                    .map(|h| {
                        let scratch = &mut self.scratch;
                        self.accel.execute_lowered(&plan.lowered, &h.q, &h.k, &h.v, scale, scratch)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let telemetry = Self::prefill_telemetry(&outputs);
                Ok(AttentionResponse::Prefill(PrefillOutput {
                    heads: outputs.into_iter().map(fixed_head_output).collect(),
                    telemetry,
                }))
            }
            AttentionRequest::DecodeOpen { session, pattern, head_dim, num_heads, prompt } => {
                // Quantized as the serving runtime's prompts are where they
                // arrive, then opened the one way.
                let prompt = prompt.iter().map(FixedQkv::quantize).collect();
                let open = AttentionRequest::DecodeOpenFixed {
                    session,
                    pattern,
                    head_dim,
                    num_heads,
                    prompt,
                };
                self.execute(open)
            }
            AttentionRequest::DecodeOpenFixed { session, pattern, head_dim, num_heads, prompt } => {
                let _span = tracer.span_with("engine.decode_open", "engine", session);
                let opened = self.open(session, &pattern, head_dim, num_heads, &prompt)?;
                Ok(AttentionResponse::DecodeOpened(opened))
            }
            AttentionRequest::DecodeStep { session, token } => {
                let _span = tracer.span_with("engine.decode_step", "engine", session);
                // A step is a batch of one: same validation order, same
                // retirement rule, same telemetry as any fused entry.
                let (_, result) = self
                    .step_batch(vec![(session, token)])
                    .pop()
                    .expect("one result per submitted step");
                Ok(AttentionResponse::DecodeStep(result?))
            }
            AttentionRequest::DecodeStepBatch { steps } => {
                let _span =
                    tracer.span_with("engine.decode_step_batch", "engine", steps.len() as u64);
                Ok(AttentionResponse::DecodeStepBatch(self.step_batch(steps)))
            }
            AttentionRequest::DecodeClose { session } => {
                let _span = tracer.span_with("engine.decode_close", "engine", session);
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
