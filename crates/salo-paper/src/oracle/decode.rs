//! Streaming decode sessions driven directly, without an engine.
//!
//! A [`DecodeSession`] packages the execution-level decode machinery
//! (`salo-sim`'s [`DecodePlan`]/[`DecodeState`]) behind the same
//! compile-once/execute-many shape as the rest of the API: opening a
//! session causally clips the pattern, runs the scheduler and lowering
//! passes once, and compiles the step program; every generated token is
//! then one allocation-free [`step`](DecodeSession::step) against the
//! session's persistent K/V arenas.

use std::sync::Arc;

use salo_core::{CompiledPlan, Salo, SaloError};
use salo_kernels::Qkv;
use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::{DecodePlan, DecodeState, ExecScratch, KvPagePool, SpatialAccelerator, StepOutput};

/// One head's autoregressive decode session: a compiled causal plan, the
/// persistent quantized K/V state and the per-step scratch, bound
/// together.
///
/// Opened with [`DecodeSession::new`]. The session holds a clone of
/// the accelerator (clones share the exponential/reciprocal lookup tables
/// behind `Arc`), so it is self-contained and can outlive the `Salo` it
/// came from.
///
/// # Example
///
/// ```
/// use salo_core::Salo;
/// use salo_kernels::Qkv;
/// use salo_paper::oracle::DecodeSession;
/// use salo_patterns::{HybridPattern, Window};
///
/// # fn main() -> Result<(), salo_core::SaloError> {
/// let pattern = HybridPattern::builder(32)
///     .window(Window::causal(8)?)
///     .global_token(0)
///     .build()?;
/// let salo = Salo::default_config();
/// let mut session = DecodeSession::new(&salo, &pattern, 16)?;
///
/// let qkv = Qkv::random(32, 16, 7);
/// session.prime_rows(&qkv, 0..session.min_step())?;
/// for t in session.min_step()..32 {
///     let out = session.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t))?;
///     assert_eq!(out.position, t);
///     assert!(out.weight_q16 > 0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecodeSession {
    accel: SpatialAccelerator,
    compiled: Arc<CompiledPlan>,
    decode: Arc<DecodePlan>,
    state: DecodeState,
    pool: KvPagePool,
    scratch: ExecScratch,
    scale: f32,
}

impl DecodeSession {
    /// Opens a single-head streaming decode session on `salo` for
    /// `pattern` with head dimension `head_dim`.
    ///
    /// The pattern is causally clipped first
    /// ([`HybridPattern::decode_view`]), then compiled and lowered once;
    /// the session's capacity is the pattern's sequence length (prompt
    /// plus generated tokens). Multi-head decoding runs one session per
    /// head, all sharing one compiled plan: take the first session's
    /// [`shared_plan`](Self::shared_plan) and open the rest with
    /// [`DecodeSession::open`].
    ///
    /// # Errors
    ///
    /// Returns a pattern error if nothing survives causal clipping, or a
    /// scheduler error if the clipped pattern yields no work for this
    /// instance.
    pub fn new(salo: &Salo, pattern: &HybridPattern, head_dim: usize) -> Result<Self, SaloError> {
        let view = pattern.decode_view()?;
        let shape = AttentionShape::new(pattern.n(), head_dim, 1)?;
        let compiled = Arc::new(salo.compile(view.causal_pattern(), &shape)?);
        Self::open(salo.accelerator().clone(), compiled)
    }

    /// Opens a session over an already-compiled **causal** plan, sharing
    /// it with every other session opened on it.
    ///
    /// # Errors
    ///
    /// Returns [`SaloError::Sim`] with
    /// [`AnticausalPlan`](salo_sim::SimError::AnticausalPlan) if the plan
    /// was not compiled from a causally clipped pattern.
    pub fn open(accel: SpatialAccelerator, compiled: Arc<CompiledPlan>) -> Result<Self, SaloError> {
        let decode = compiled.decode_plan()?;
        let state = DecodeState::new(&decode, compiled.shape.head_dim);
        let scale = SpatialAccelerator::default_scale(compiled.shape.head_dim);
        Ok(Self {
            accel,
            compiled,
            decode,
            state,
            pool: KvPagePool::default(),
            scratch: ExecScratch::new(),
            scale,
        })
    }

    /// The session's compiled plan, shareable with further sessions via
    /// [`DecodeSession::open`].
    #[must_use]
    pub fn shared_plan(&self) -> Arc<CompiledPlan> {
        Arc::clone(&self.compiled)
    }

    /// The compiled causal plan the session executes.
    #[must_use]
    pub fn compiled(&self) -> &CompiledPlan {
        &self.compiled
    }

    /// The step-indexed decode program.
    #[must_use]
    pub fn decode_plan(&self) -> &DecodePlan {
        &self.decode
    }

    /// Sequence capacity (prompt + generated tokens).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.decode.n()
    }

    /// First decodable position — the prompt must cover `0..min_step()`.
    #[must_use]
    pub fn min_step(&self) -> usize {
        self.decode.min_step()
    }

    /// Position the next token will occupy.
    #[must_use]
    pub fn position(&self) -> usize {
        self.state.position()
    }

    /// Tokens the session can still ingest.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.capacity() - self.position()
    }

    /// Cumulative MAC saturation events over the session.
    #[must_use]
    pub fn saturation_events(&self) -> u64 {
        self.state.saturation_events()
    }

    /// Ingests one prompt token (no output row). Returns the saturation
    /// events it caused.
    ///
    /// # Errors
    ///
    /// Capacity/dimension errors from the simulator layer.
    pub fn prime_token(&mut self, q: &[f32], k: &[f32], v: &[f32]) -> Result<u64, SaloError> {
        Ok(self.accel.prime_token(
            &self.decode,
            &mut self.state,
            q,
            k,
            v,
            self.scale,
            &mut self.pool,
            &mut self.scratch,
        )?)
    }

    /// Ingests a range of rows of a full-sequence [`Qkv`] as prompt
    /// tokens — convenience for tests and demos that hold the whole
    /// sequence up front.
    ///
    /// # Errors
    ///
    /// As [`prime_token`](Self::prime_token); the range must start at the
    /// session's current position.
    pub fn prime_rows(&mut self, qkv: &Qkv, rows: std::ops::Range<usize>) -> Result<(), SaloError> {
        for t in rows {
            self.prime_token(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t))?;
        }
        Ok(())
    }

    /// Decodes one token: ingests `(q, k, v)` at the next position and
    /// returns that position's attention output row, bit-identical to the
    /// corresponding causal-prefill row.
    ///
    /// # Errors
    ///
    /// Capacity, priming, dimension or fixed-point errors from the
    /// simulator layer. A failure that occurs after the token already
    /// entered the history poisons the session
    /// ([`is_poisoned`](Self::is_poisoned)): further steps report
    /// [`PoisonedDecodeState`](salo_sim::SimError::PoisonedDecodeState)
    /// until [`reset`](Self::reset) — never silently wrong outputs.
    pub fn step(&mut self, q: &[f32], k: &[f32], v: &[f32]) -> Result<StepOutput, SaloError> {
        Ok(self.accel.execute_step(
            &self.decode,
            &mut self.state,
            q,
            k,
            v,
            self.scale,
            &mut self.pool,
            &mut self.scratch,
        )?)
    }

    /// The running outputs of the global tokens' rows, as
    /// `(token, raw_row, weight_q16)` — each catches up incrementally as
    /// the history grows and equals the prefill row once the session is
    /// complete.
    #[must_use]
    pub fn global_rows(&self) -> Vec<(usize, Vec<salo_fixed::Fix16x8>, i64)> {
        self.decode
            .globals()
            .iter()
            .enumerate()
            .map(|(gi, &g)| {
                let (raw, weight) = self.state.global_row_output(gi);
                (g as usize, raw, weight)
            })
            .collect()
    }

    /// Whether an earlier failed step left the session inconsistent; a
    /// poisoned session refuses further tokens until
    /// [`reset`](Self::reset).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.state.is_poisoned()
    }

    /// Bytes of quantized K/V the session currently keeps resident — the
    /// pinned pages only, not the full history (the horizon reclaimer
    /// returns dead pages to the session's pool as the generation runs).
    #[must_use]
    pub fn resident_kv_bytes(&self) -> u64 {
        self.state.resident_kv_bytes()
    }

    /// Resets the session to an empty history (clearing any poisoning),
    /// keeping the compiled plan and grown buffers — its pages go back to
    /// the session's pool and are recycled by the next generation. The
    /// cheap way to start a new generation with the same pattern.
    pub fn reset(&mut self) {
        let d = self.compiled.shape.head_dim;
        self.state.reset(&self.decode, d, &mut self.pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::Window;
    use salo_scheduler::HardwareMeta;
    use salo_sim::AcceleratorConfig;

    fn small_salo() -> Salo {
        let config =
            AcceleratorConfig { hw: HardwareMeta::new(8, 8, 1, 1).unwrap(), ..Default::default() };
        Salo::new(config)
    }

    fn sink_pattern(n: usize) -> HybridPattern {
        HybridPattern::builder(n)
            .window(Window::symmetric(9).unwrap())
            .global_token(0)
            .build()
            .unwrap()
    }

    #[test]
    fn session_steps_match_causal_prefill_rows() {
        let salo = small_salo();
        let n = 48;
        let d = 8;
        let pattern = sink_pattern(n);
        let mut session = DecodeSession::new(&salo, &pattern, d).unwrap();
        assert_eq!(session.capacity(), n);
        assert_eq!(session.min_step(), 1);

        // The oracle: one-shot execution of the session's own causal plan.
        let qkv = Qkv::random(n, d, 99);
        let prefill = salo
            .accelerator()
            .execute_lowered(
                &session.compiled().lowered,
                &qkv.q,
                &qkv.k,
                &qkv.v,
                SpatialAccelerator::default_scale(d),
                &mut salo_sim::ExecScratch::new(),
            )
            .unwrap();

        session.prime_rows(&qkv, 0..1).unwrap();
        for t in 1..n {
            let out = session.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t)).unwrap();
            let row: Vec<_> = (0..d).map(|c| prefill.raw.get(t, c)).collect();
            assert_eq!(out.raw, row, "row {t}");
            assert_eq!(out.weight_q16, prefill.weights_q16[t]);
        }
        assert_eq!(session.remaining(), 0);
        let globals = session.global_rows();
        assert_eq!(globals.len(), 1);
        let (g, raw, weight) = &globals[0];
        assert_eq!(*g, 0);
        assert_eq!(*raw, (0..d).map(|c| prefill.raw.get(0, c)).collect::<Vec<_>>());
        assert_eq!(*weight, prefill.weights_q16[0]);
        assert_eq!(session.saturation_events(), prefill.report.saturation_events);
    }

    #[test]
    fn reset_starts_an_identical_generation() {
        let salo = small_salo();
        let pattern = sink_pattern(24);
        let mut session = DecodeSession::new(&salo, &pattern, 4).unwrap();
        let qkv = Qkv::random(24, 4, 3);

        let run = |s: &mut DecodeSession| {
            s.prime_rows(&qkv, 0..1).unwrap();
            (1..24).map(|t| s.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t)).unwrap()).collect()
        };
        let first: Vec<_> = run(&mut session);
        session.reset();
        assert_eq!(session.position(), 0);
        let second: Vec<_> = run(&mut session);
        assert_eq!(first, second, "reset session replays bit-identically");
    }

    #[test]
    fn shared_plan_sessions_decode_identically_without_recompiling() {
        let salo = small_salo();
        let pattern = sink_pattern(24);
        let mut first = DecodeSession::new(&salo, &pattern, 4).unwrap();
        let plan = first.shared_plan();
        let mut second =
            DecodeSession::open(salo.accelerator().clone(), Arc::clone(&plan)).unwrap();
        assert!(Arc::ptr_eq(&plan, &second.shared_plan()), "the plan is shared, not recompiled");

        let qkv = Qkv::random(24, 4, 11);
        first.prime_rows(&qkv, 0..1).unwrap();
        second.prime_rows(&qkv, 0..1).unwrap();
        for t in 1..24 {
            let a = first.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t)).unwrap();
            let b = second.step(qkv.q.row(t), qkv.k.row(t), qkv.v.row(t)).unwrap();
            assert_eq!(a, b, "step {t}");
        }
    }

    #[test]
    fn session_rejects_unprimed_and_overflow() {
        let salo = small_salo();
        let pattern = sink_pattern(12);
        let mut session = DecodeSession::new(&salo, &pattern, 4).unwrap();
        let row = [0.25f32; 4];
        assert!(session.step(&row, &row, &row).is_err(), "global not primed yet");
        session.prime_token(&row, &row, &row).unwrap();
        for _ in 1..12 {
            session.step(&row, &row, &row).unwrap();
        }
        assert!(session.step(&row, &row, &row).is_err(), "capacity exhausted");
    }
}
