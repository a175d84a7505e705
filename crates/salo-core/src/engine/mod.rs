//! The unified engine API: typed attention requests over execution
//! backends.
//!
//! Every way of running hybrid sparse attention in this repository —
//! one-shot prefill, streaming decode, the serving runtime's workers —
//! speaks one request shape: an [`AttentionRequest`] goes into an
//! [`Engine`], an [`AttentionResponse`] comes out. Two backends implement
//! the object-safe [`Engine`] trait:
//!
//! * [`LoweredEngine`] — the fast allocation-free fixed-point datapath
//!   (the default; what the serving runtime's workers run);
//! * the reference engine in `salo-paper`'s `oracle` module — plain `f32`
//!   softmax attention, the accuracy yardstick the fixed-point engine is
//!   measured against. It checks requests with this module's validators,
//!   so both answer a malformed request the same way.
//!
//! The event-accurate systolic model is not an engine: it is the oracle
//! the lowered engine's prefill is checked against, called directly
//! ([`SpatialAccelerator::execute_systolic`](salo_sim::SpatialAccelerator::execute_systolic))
//! on the plan the engine compiled:
//!
//! ```
//! use salo_core::{AttentionRequest, Engine, Salo};
//! use salo_kernels::Qkv;
//! use salo_patterns::{longformer, AttentionShape};
//! use salo_sim::SpatialAccelerator;
//!
//! # fn main() -> Result<(), salo_core::SaloError> {
//! let salo = Salo::default_config();
//! let pattern = longformer(64, 8, 1)?;
//! let shape = AttentionShape::new(64, 8, 1)?;
//! let heads = Qkv::random_heads(&shape, 7);
//!
//! let mut engine = salo.engine();
//! let handle = engine.prepare(&pattern, &shape)?;
//! let request =
//!     AttentionRequest::Prefill { pattern: handle.clone(), shape, heads: heads.clone() };
//! let out = engine.execute(request)?.into_prefill()?;
//! // The lowered engine agrees bit for bit with the systolic oracle run on
//! // the plan its handle carries.
//! let plan = handle.plan().expect("the lowered engine attaches its plan");
//! let (h, scale) = (&heads[0], SpatialAccelerator::default_scale(shape.head_dim));
//! let oracle = salo.accelerator().execute_systolic(&plan.plan, &h.q, &h.k, &h.v, scale)?;
//! assert_eq!(out.heads[0].raw.as_ref(), Some(&oracle.raw));
//! # Ok(())
//! # }
//! ```

mod fixed;

use std::fmt;
use std::sync::Arc;

use salo_fixed::Fix16x8;
use salo_kernels::{Matrix, Qkv};
use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::{ExecutionReport, FixedQkv};

use crate::{CompiledPlan, MultiHeadRun, Salo, SaloError};

pub use fixed::LoweredEngine;

/// Identifier of a decode session held inside an engine.
pub type SessionId = u64;

/// One generated token's inputs for a single head: the query, key and
/// value rows of the next position (each `head_dim` elements).
#[derive(Debug, Clone, PartialEq)]
pub struct TokenQkv {
    /// Query row.
    pub q: Vec<f32>,
    /// Key row.
    pub k: Vec<f32>,
    /// Value row.
    pub v: Vec<f32>,
}

impl TokenQkv {
    /// Extracts row `t` of a full-sequence [`Qkv`] as a token — the demo
    /// and test form, where the "generated" sequence is known up front.
    #[must_use]
    pub fn from_row(qkv: &Qkv, t: usize) -> Self {
        Self { q: qkv.q.row(t).to_vec(), k: qkv.k.row(t).to_vec(), v: qkv.v.row(t).to_vec() }
    }
}

/// A pattern, optionally paired with a plan pre-compiled for one
/// accelerator configuration.
///
/// The handle is what [`AttentionRequest`]s carry instead of raw
/// patterns: it lets the serving runtime attach the cache's
/// [`CompiledPlan`] (so engines skip the scheduler pass) while still
/// giving pattern-level engines like the `f32` reference the exact key
/// sets. Build one with [`Engine::prepare`] — each engine attaches
/// whatever it needs — or from parts when the plan is already at hand.
#[derive(Debug, Clone)]
pub struct PatternHandle {
    pattern: Option<Arc<HybridPattern>>,
    plan: Option<Arc<CompiledPlan>>,
}

impl PatternHandle {
    /// A handle carrying only the pattern; engines that need a compiled
    /// plan will compile it themselves.
    #[must_use]
    pub fn from_pattern(pattern: HybridPattern) -> Self {
        Self { pattern: Some(Arc::new(pattern)), plan: None }
    }

    /// A handle carrying only a compiled plan — sufficient for the
    /// fixed-point engine, rejected by pattern-level engines.
    #[must_use]
    pub fn from_plan(plan: Arc<CompiledPlan>) -> Self {
        Self { pattern: None, plan: Some(plan) }
    }

    /// A handle carrying both the pattern and its compiled plan — what
    /// the serving runtime builds from its plan cache.
    #[must_use]
    pub fn new(pattern: Arc<HybridPattern>, plan: Arc<CompiledPlan>) -> Self {
        Self { pattern: Some(pattern), plan: Some(plan) }
    }

    /// The pattern, when the handle carries one.
    #[must_use]
    pub fn pattern(&self) -> Option<&Arc<HybridPattern>> {
        self.pattern.as_ref()
    }

    /// The pre-compiled plan, when the handle carries one.
    #[must_use]
    pub fn plan(&self) -> Option<&Arc<CompiledPlan>> {
        self.plan.as_ref()
    }

    /// The pattern, or an [`SaloError::Unsupported`] naming `engine` —
    /// for engines that cannot work from a compiled plan alone.
    ///
    /// # Errors
    ///
    /// [`SaloError::Unsupported`] when the handle carries only a plan.
    pub fn require_pattern(&self, engine: &'static str) -> Result<&Arc<HybridPattern>, SaloError> {
        self.pattern.as_ref().ok_or_else(|| SaloError::Unsupported {
            engine,
            reason: "request handle carries no pattern (plan-only handles need a \
                     fixed-point engine)"
                .into(),
        })
    }
}

/// A typed attention request — the single entry point every backend
/// serves.
///
/// Prefill is stateless; the three decode variants drive a session whose
/// state (persistent K/V history, one slot per head) lives inside the
/// engine under a caller-chosen [`SessionId`].
#[derive(Debug, Clone)]
pub enum AttentionRequest {
    /// Execute all heads of one attention layer.
    Prefill {
        /// The hybrid pattern (with or without a pre-compiled plan).
        pattern: PatternHandle,
        /// Sequence/head dimensions; `heads.len()` must equal
        /// `shape.num_heads`.
        shape: AttentionShape,
        /// Per-head Q/K/V inputs.
        heads: Vec<Qkv>,
    },
    /// Open a streaming decode session and ingest its prompt.
    DecodeOpen {
        /// Caller-chosen session id; must not collide with a live session.
        session: SessionId,
        /// The pattern over the session's full capacity (prompt plus
        /// generated tokens); the engine clips it causally.
        pattern: PatternHandle,
        /// Head dimension of every token row.
        head_dim: usize,
        /// Number of heads (one persistent state each).
        num_heads: usize,
        /// Per-head prompt rows; each head the same length, covering at
        /// least every global token and leaving capacity to decode. The
        /// fixed-point engine quantizes them ([`FixedQkv::quantize`]) and
        /// open as [`DecodeOpenFixed`](Self::DecodeOpenFixed) does.
        prompt: Vec<Qkv>,
    },
    /// [`DecodeOpen`](Self::DecodeOpen) with the prompt already quantized
    /// — how the serving runtime opens, its prompt quantized where it
    /// arrived. Only the fixed-point engine serves it: quantized rows
    /// cannot be turned back into a float engine's inputs.
    DecodeOpenFixed {
        /// As in [`DecodeOpen`](Self::DecodeOpen).
        session: SessionId,
        /// As in [`DecodeOpen`](Self::DecodeOpen).
        pattern: PatternHandle,
        /// As in [`DecodeOpen`](Self::DecodeOpen).
        head_dim: usize,
        /// As in [`DecodeOpen`](Self::DecodeOpen).
        num_heads: usize,
        /// Per-head prompt rows, quantized.
        prompt: Vec<FixedQkv>,
    },
    /// Decode one token of an open session (all heads) — a
    /// [`DecodeStepBatch`](Self::DecodeStepBatch) of one, answered
    /// unwrapped.
    DecodeStep {
        /// The session to advance.
        session: SessionId,
        /// One [`TokenQkv`] per head.
        token: Vec<TokenQkv>,
    },
    /// Decode one token from each of several open sessions as a single
    /// fused pass — the iteration-level continuous-batching form, and on
    /// the fixed-point engine the one routine every step runs through.
    /// Results are per entry, in request order, and equal to issuing the
    /// entries as individual [`DecodeStep`](Self::DecodeStep)s: an
    /// unknown session, a malformed token (head count and every head's
    /// row lengths are checked before any head moves) or a failure inside
    /// the pass fails its own entry only; a session whose heads a failure
    /// left desynced is retired, any other stays live where it was.
    DecodeStepBatch {
        /// One `(session, per-head token)` entry per session to advance,
        /// in execution order.
        steps: Vec<(SessionId, Vec<TokenQkv>)>,
    },
    /// Close a session, dropping its state.
    DecodeClose {
        /// The session to drop.
        session: SessionId,
    },
}

/// Per-request execution telemetry, tagged with the backend that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// The engine's [`Engine::name`].
    pub engine: &'static str,
    /// Total simulated cycles, when the backend models timing.
    pub sim_cycles: Option<u64>,
    /// Simulated wall time in seconds, when the backend models timing.
    pub sim_time_s: Option<f64>,
    /// Simulated energy in joules, when the backend models energy.
    pub sim_energy_j: Option<f64>,
    /// Fixed-point MAC saturation events (0 for float backends).
    pub saturation_events: u64,
    /// Bytes of quantized K/V the request's session(s) keep resident
    /// after this request, summed across heads. Present on fixed-point
    /// decode steps (whose histories live in pool pages); `None` for
    /// prefill and for backends without paged state.
    pub resident_kv_bytes: Option<u64>,
    /// Host-measured per-stage datapath cost, present on fixed-point
    /// backends when stage profiling is enabled (`SALO_TRACE=1` or
    /// [`salo_trace::set_enabled`]). Summed across the request's heads;
    /// decode steps that ran as one group share one profile, carried by
    /// the group's first successful entry.
    pub stages: Option<salo_sim::StageProfile>,
}

/// One head's prefill output in backend-neutral form.
///
/// Every backend fills `output`; the fixed-point artifacts (`raw`,
/// `weights_q16`, `report`) are `None` on float backends.
#[derive(Debug, Clone)]
pub struct HeadOutput {
    /// The attention output, dequantized to `f32` (or computed in float).
    pub output: Matrix<f32>,
    /// The 16-bit accelerator-format output, on fixed-point backends.
    pub raw: Option<Matrix<Fix16x8>>,
    /// Final per-row softmax weights (Q.16), on fixed-point backends.
    pub weights_q16: Option<Vec<i64>>,
    /// Timing/energy/saturation report, on backends that model them.
    pub report: Option<ExecutionReport>,
}

/// The response to an [`AttentionRequest::Prefill`].
#[derive(Debug, Clone)]
pub struct PrefillOutput {
    /// Per-head outputs, in input order.
    pub heads: Vec<HeadOutput>,
    /// Aggregate execution telemetry.
    pub telemetry: Telemetry,
}

impl PrefillOutput {
    /// Converts to [`MultiHeadRun`], the fixed-point-only form with no
    /// `Option` per artifact — the serving runtime's response type.
    ///
    /// # Errors
    ///
    /// Returns [`SaloError::Unsupported`] when the producing backend did
    /// not emit the fixed-point artifacts (`raw`, `weights_q16`,
    /// `report`) that type requires.
    pub fn into_multi_head_run(self) -> Result<MultiHeadRun, SaloError> {
        let engine = self.telemetry.engine;
        let heads = self
            .heads
            .into_iter()
            .map(|h| match (h.raw, h.weights_q16, h.report) {
                (Some(raw), Some(weights_q16), Some(report)) => {
                    Ok(salo_sim::ExecutionOutput { raw, output: h.output, weights_q16, report })
                }
                _ => Err(SaloError::Unsupported {
                    engine,
                    reason: "backend emits no fixed-point artifacts; MultiHeadRun needs them"
                        .into(),
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let total_time_s = heads.iter().map(|o| o.report.timing.time_s).sum();
        let total_energy_j = heads.iter().map(|o| o.report.timing.energy_j).sum();
        Ok(MultiHeadRun { heads, total_time_s, total_energy_j })
    }
}

/// The response to an [`AttentionRequest::DecodeOpen`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOpened {
    /// The session id now live inside the engine.
    pub session: SessionId,
    /// First decodable position (the prompt covers up to here).
    pub min_step: usize,
    /// Position the next step will produce (the prompt length).
    pub position: usize,
    /// Sequence capacity (prompt plus generated tokens).
    pub capacity: usize,
}

/// One head's decode-step output in backend-neutral form.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadStep {
    /// The position's attention output row, in `f32`.
    pub output: Vec<f32>,
    /// The 16-bit accelerator-format row, on fixed-point backends.
    pub raw: Option<Vec<Fix16x8>>,
    /// The row's softmax weight `W = Σ exp` (Q.16), on fixed-point
    /// backends.
    pub weight_q16: Option<i64>,
    /// MAC saturation events this token caused (0 on float backends).
    pub saturation_events: u64,
}

/// The response to an [`AttentionRequest::DecodeStep`]: one generated
/// token across every head of the session.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResult {
    /// The session that advanced.
    pub session: SessionId,
    /// The position this step produced.
    pub position: usize,
    /// Per-head output rows.
    pub heads: Vec<HeadStep>,
    /// Aggregate execution telemetry.
    pub telemetry: Telemetry,
}

/// The response to an [`AttentionRequest::DecodeClose`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionClosed {
    /// The session that was dropped.
    pub session: SessionId,
    /// Tokens the session had ingested (prompt plus steps).
    pub position: usize,
}

/// The typed response to an [`AttentionRequest`]; variants correspond
/// one-to-one.
#[derive(Debug, Clone)]
pub enum AttentionResponse {
    /// Response to [`AttentionRequest::Prefill`].
    Prefill(PrefillOutput),
    /// Response to [`AttentionRequest::DecodeOpen`].
    DecodeOpened(SessionOpened),
    /// Response to [`AttentionRequest::DecodeStep`].
    DecodeStep(StepResult),
    /// Response to [`AttentionRequest::DecodeStepBatch`]: one entry per
    /// requested step, in request order.
    DecodeStepBatch(Vec<(SessionId, Result<StepResult, SaloError>)>),
    /// Response to [`AttentionRequest::DecodeClose`].
    DecodeClosed(SessionClosed),
}

impl AttentionResponse {
    /// Unwraps a prefill response.
    ///
    /// # Errors
    ///
    /// Returns [`SaloError::ResponseMismatch`] on any other variant.
    pub fn into_prefill(self) -> Result<PrefillOutput, SaloError> {
        match self {
            AttentionResponse::Prefill(out) => Ok(out),
            other => Err(SaloError::ResponseMismatch { got: other.variant_name() }),
        }
    }

    /// Unwraps a decode-open response.
    ///
    /// # Errors
    ///
    /// Returns [`SaloError::ResponseMismatch`] on any other variant.
    pub fn into_opened(self) -> Result<SessionOpened, SaloError> {
        match self {
            AttentionResponse::DecodeOpened(out) => Ok(out),
            other => Err(SaloError::ResponseMismatch { got: other.variant_name() }),
        }
    }

    /// Unwraps a decode-step response.
    ///
    /// # Errors
    ///
    /// Returns [`SaloError::ResponseMismatch`] on any other variant.
    pub fn into_step(self) -> Result<StepResult, SaloError> {
        match self {
            AttentionResponse::DecodeStep(out) => Ok(out),
            other => Err(SaloError::ResponseMismatch { got: other.variant_name() }),
        }
    }

    /// Unwraps a fused decode-step-batch response.
    ///
    /// # Errors
    ///
    /// Returns [`SaloError::ResponseMismatch`] on any other variant.
    #[allow(clippy::type_complexity)] // the per-entry result list IS the shape
    pub fn into_step_batch(
        self,
    ) -> Result<Vec<(SessionId, Result<StepResult, SaloError>)>, SaloError> {
        match self {
            AttentionResponse::DecodeStepBatch(out) => Ok(out),
            other => Err(SaloError::ResponseMismatch { got: other.variant_name() }),
        }
    }

    /// Unwraps a decode-close response.
    ///
    /// # Errors
    ///
    /// Returns [`SaloError::ResponseMismatch`] on any other variant.
    pub fn into_closed(self) -> Result<SessionClosed, SaloError> {
        match self {
            AttentionResponse::DecodeClosed(out) => Ok(out),
            other => Err(SaloError::ResponseMismatch { got: other.variant_name() }),
        }
    }

    /// The variant's name, for error reporting.
    #[must_use]
    fn variant_name(&self) -> &'static str {
        match self {
            AttentionResponse::Prefill(_) => "Prefill",
            AttentionResponse::DecodeOpened(_) => "DecodeOpened",
            AttentionResponse::DecodeStep(_) => "DecodeStep",
            AttentionResponse::DecodeStepBatch(_) => "DecodeStepBatch",
            AttentionResponse::DecodeClosed(_) => "DecodeClosed",
        }
    }
}

/// An execution backend serving [`AttentionRequest`]s.
///
/// The trait is object-safe, and both backends — [`LoweredEngine`] and
/// `salo-paper`'s `f32` reference — serve every method of it: the
/// equivalence tests drive them as `Box<dyn Engine>`, so a new backend
/// needs no edit outside its own module to run requests through the
/// trait. Serving is not generic over it: the serving runtime's workers
/// hold the concrete [`LoweredEngine`], whose K/V page pool they
/// configure and read.
/// Engines are single-threaded objects — `Send` but not `Sync` by
/// contract — mirroring one accelerator instance; run one per worker
/// thread, as the serving pool does.
pub trait Engine: Send + fmt::Debug {
    /// Short stable backend name (`"lowered"`, `"reference"`), used in
    /// telemetry and errors.
    fn name(&self) -> &'static str;

    /// Resolves a pattern into a [`PatternHandle`] ready for requests on
    /// this engine — compiling and attaching whatever the backend needs
    /// (the fixed-point engine attaches a [`CompiledPlan`]; the reference
    /// engine only keeps the pattern).
    ///
    /// # Errors
    ///
    /// Shape/scheduler errors when the pattern cannot be compiled for
    /// this backend.
    fn prepare(
        &self,
        pattern: &HybridPattern,
        shape: &AttentionShape,
    ) -> Result<PatternHandle, SaloError>;

    /// Executes one request.
    ///
    /// # Errors
    ///
    /// Validation errors (shape, head count, unknown session), capability
    /// errors ([`SaloError::Unsupported`]) and execution-layer failures.
    /// A decode step that fails after mutating any head's state retires
    /// the session (it disappears from [`has_session`](Self::has_session)
    /// and further steps report [`SaloError::UnknownSession`]); a
    /// validation failure caught before any mutation leaves the session
    /// decodable.
    fn execute(&mut self, request: AttentionRequest) -> Result<AttentionResponse, SaloError>;

    /// Whether a decode session is currently live inside the engine.
    fn has_session(&self, session: SessionId) -> bool;

    /// The position a live session's next step will produce, or `None`
    /// for unknown sessions.
    fn session_position(&self, session: SessionId) -> Option<usize>;
}

impl Salo {
    /// A fresh [`LoweredEngine`] over this instance's accelerator — the
    /// default backend. Engines built from one `Salo` share its
    /// exponential/reciprocal lookup tables. A prefill runs its heads one
    /// after another on the calling thread, as the one PE array runs a
    /// layer's passes in order; a served process uses more cores by
    /// running more engines (`ServeOptions::workers`).
    #[must_use]
    pub fn engine(&self) -> LoweredEngine {
        LoweredEngine::new(self.accelerator().clone())
    }

    /// [`engine`](Self::engine); the argument is ignored. Kept only
    /// because `bench/` still calls it by this name.
    #[must_use]
    pub fn engine_with_parallelism(&self, _parallelism: usize) -> LoweredEngine {
        self.engine()
    }
}

/// The one wording of decode-capacity exhaustion, shared by every
/// backend so they stay interchangeable on errors, not just outputs.
#[must_use]
pub fn capacity_error(n: usize) -> SaloError {
    SaloError::InvalidRequest {
        reason: format!("decode session exhausted its capacity of {n} positions"),
    }
}

/// The one wording of stepping an unprimed session, shared by every
/// backend.
pub(crate) fn not_primed_error(position: usize, min_step: usize) -> SaloError {
    SaloError::InvalidRequest {
        reason: format!(
            "position {position} is not decodable before {min_step}: the prompt must cover \
             every global token"
        ),
    }
}

// The request rules. Each is stated once, here: the engines, the serving
// runtime's front door and its traffic generators all call these, so a
// malformed request gets the same error and the same wording from every
// entry point.

/// A pattern of length `n` fits a shape: `n` is its sequence length.
///
/// # Errors
///
/// [`SaloError::ShapeMismatch`] when they differ.
pub fn check_pattern_len(n: usize, shape: &AttentionShape) -> Result<(), SaloError> {
    if n != shape.seq_len {
        return Err(SaloError::ShapeMismatch {
            expected: (shape.seq_len, shape.head_dim),
            got: (n, shape.head_dim),
        });
    }
    Ok(())
}

/// A prefill's heads agree with its shape: one per declared head, each
/// `seq_len x head_dim`.
///
/// # Errors
///
/// [`SaloError::HeadCountMismatch`] or [`SaloError::ShapeMismatch`].
pub fn check_prefill_heads(shape: &AttentionShape, heads: &[Qkv]) -> Result<(), SaloError> {
    if heads.len() != shape.num_heads {
        return Err(SaloError::HeadCountMismatch { expected: shape.num_heads, got: heads.len() });
    }
    for h in heads {
        if h.seq_len() != shape.seq_len || h.head_dim() != shape.head_dim {
            return Err(SaloError::ShapeMismatch {
                expected: (shape.seq_len, shape.head_dim),
                got: (h.seq_len(), h.head_dim()),
            });
        }
    }
    Ok(())
}

/// A prompt of `rows` rows fits a session over `n` positions whose first
/// decodable step is `min_step`: the rows cover every global token and
/// leave capacity to decode.
///
/// # Errors
///
/// [`SaloError::InvalidRequest`] when they do not.
pub fn check_prompt_rows(n: usize, min_step: usize, rows: usize) -> Result<(), SaloError> {
    let invalid = |reason: String| Err(SaloError::InvalidRequest { reason });
    if rows < min_step {
        return invalid(format!(
            "prompt of {rows} rows does not cover every global token \
             (first decodable step is {min_step})"
        ));
    }
    if rows >= n {
        return invalid(format!("prompt of {rows} rows leaves no capacity in a sequence of {n}"));
    }
    Ok(())
}

/// One head of a decode open's prompt, as the open rules see it: a
/// `rows x dim` shape. `f32` rows ([`Qkv`]) and rows quantized where they
/// arrived ([`FixedQkv`]) answer to the same rules.
pub trait PromptHead {
    /// `(rows, dim)`.
    fn shape(&self) -> (usize, usize);
}

impl PromptHead for Qkv {
    fn shape(&self) -> (usize, usize) {
        (self.seq_len(), self.head_dim())
    }
}

impl PromptHead for FixedQkv {
    fn shape(&self) -> (usize, usize) {
        (self.seq_len(), self.head_dim())
    }
}

/// A decode open's prompt fits its session over `n` positions whose first
/// decodable step is `min_step`: a non-empty shape, one prompt per head,
/// every head the same `rows x head_dim`, and the rows pass
/// [`check_prompt_rows`]. Returns the prompt length.
///
/// # Errors
///
/// [`SaloError::InvalidRequest`], [`SaloError::HeadCountMismatch`] or
/// [`SaloError::ShapeMismatch`].
pub fn check_open_prompt(
    n: usize,
    min_step: usize,
    head_dim: usize,
    num_heads: usize,
    prompt: &[impl PromptHead],
) -> Result<usize, SaloError> {
    if num_heads == 0 || head_dim == 0 {
        return Err(SaloError::InvalidRequest { reason: "empty session shape".into() });
    }
    if prompt.len() != num_heads {
        return Err(SaloError::HeadCountMismatch { expected: num_heads, got: prompt.len() });
    }
    let prompt_len = prompt.first().map_or(0, |h| h.shape().0);
    check_prompt_rows(n, min_step, prompt_len)?;
    for got in prompt.iter().map(PromptHead::shape) {
        if got != (prompt_len, head_dim) {
            return Err(SaloError::ShapeMismatch { expected: (prompt_len, head_dim), got });
        }
    }
    Ok(prompt_len)
}

/// A decode step's token fits its session: one `(q, k, v)` per head, every
/// row `head_dim` long. Checked before any head moves, so a malformed
/// token fails alone and leaves its session where it was.
///
/// # Errors
///
/// [`SaloError::HeadCountMismatch`], or [`SaloError::ShapeMismatch`]
/// naming the first row of the wrong length.
pub fn check_token(num_heads: usize, head_dim: usize, token: &[TokenQkv]) -> Result<(), SaloError> {
    if token.len() != num_heads {
        return Err(SaloError::HeadCountMismatch { expected: num_heads, got: token.len() });
    }
    match token.iter().flat_map(|t| [&t.q, &t.k, &t.v]).find(|row| row.len() != head_dim) {
        Some(row) => Err(SaloError::ShapeMismatch { expected: (1, head_dim), got: (1, row.len()) }),
        None => Ok(()),
    }
}
