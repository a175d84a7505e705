//! The accuracy-yardstick backend: plain floating-point softmax attention.
//!
//! [`ReferenceEngine`] computes exact sparse attention (f64 accumulation,
//! f32 outputs, no quantization, no LUTs) over the same hybrid patterns
//! the fixed-point engine executes. It is the yardstick the accelerator's
//! fixed-point error is measured against: the root `engines` tests pin
//! the lowered engine's outputs to within a documented bound of this
//! engine on random hybrid patterns, prefill and decode alike.

use std::collections::HashMap;

use salo_core::engine::{
    capacity_error, check_open_prompt, check_pattern_len, check_prefill_heads, check_token,
};
use salo_core::{
    AttentionRequest, AttentionResponse, Engine, HeadOutput, HeadStep, PatternHandle,
    PrefillOutput, SaloError, SessionClosed, SessionId, SessionOpened, StepResult, Telemetry,
};
use salo_patterns::{AttentionShape, HybridPattern};
use salo_sim::SpatialAccelerator;

use super::sparse::{attend_row, sparse_attention};

/// One head's float decode state: the growing K/V history.
#[derive(Debug, Clone, Default)]
struct RefHeadState {
    /// Key rows ingested so far, row-major.
    k: Vec<f32>,
    /// Value rows ingested so far, row-major.
    v: Vec<f32>,
}

/// A float decode session: the causal pattern plus per-head histories.
#[derive(Debug, Clone)]
struct RefSession {
    /// The causally clipped pattern (per-step key sets).
    causal: HybridPattern,
    head_dim: usize,
    scale: f32,
    /// Position the next step will produce.
    position: usize,
    heads: Vec<RefHeadState>,
}

/// The floating-point reference backend.
///
/// Outputs are exact softmax attention, not the accelerator's
/// arithmetic. No timing or energy is modeled. Decode is
/// supported by replaying each step's pattern row over the session's
/// K/V history — numerically identical to the same row of a float
/// prefill over the causal pattern.
#[derive(Debug, Default)]
pub struct ReferenceEngine {
    sessions: HashMap<SessionId, RefSession>,
}

impl ReferenceEngine {
    /// A fresh engine with no live sessions.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn telemetry() -> Telemetry {
        Telemetry {
            engine: "reference",
            sim_cycles: None,
            sim_time_s: None,
            sim_energy_j: None,
            saturation_events: 0,
            resident_kv_bytes: None,
            stages: None,
        }
    }
}

impl Engine for ReferenceEngine {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn prepare(
        &self,
        pattern: &HybridPattern,
        _shape: &AttentionShape,
    ) -> Result<PatternHandle, SaloError> {
        // The reference engine works straight off the pattern's key sets;
        // there is nothing to compile.
        Ok(PatternHandle::from_pattern(pattern.clone()))
    }

    fn execute(&mut self, request: AttentionRequest) -> Result<AttentionResponse, SaloError> {
        match request {
            AttentionRequest::Prefill { pattern, shape, heads } => {
                check_prefill_heads(&shape, &heads)?;
                let pattern = pattern.require_pattern(self.name())?;
                check_pattern_len(pattern.n(), &shape)?;
                let scale = SpatialAccelerator::default_scale(shape.head_dim);
                let outputs = heads
                    .iter()
                    .map(|h| {
                        sparse_attention(pattern, &h.q, &h.k, &h.v, scale).map(|output| {
                            HeadOutput { output, raw: None, weights_q16: None, report: None }
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(AttentionResponse::Prefill(PrefillOutput {
                    heads: outputs,
                    telemetry: Self::telemetry(),
                }))
            }
            AttentionRequest::DecodeOpen { session, pattern, head_dim, num_heads, prompt } => {
                if self.sessions.contains_key(&session) {
                    return Err(SaloError::SessionInUse { session });
                }
                let pattern = pattern.require_pattern(self.name())?;
                let view = pattern.decode_view()?;
                let min_step = view.min_step();
                let causal = view.into_causal_pattern();
                let prompt_len =
                    check_open_prompt(causal.n(), min_step, head_dim, num_heads, &prompt)?;
                let heads = prompt
                    .iter()
                    .map(|h| RefHeadState {
                        k: h.k.as_slice().to_vec(),
                        v: h.v.as_slice().to_vec(),
                    })
                    .collect();
                let opened =
                    SessionOpened { session, min_step, position: prompt_len, capacity: causal.n() };
                self.sessions.insert(
                    session,
                    RefSession {
                        causal,
                        head_dim,
                        scale: SpatialAccelerator::default_scale(head_dim),
                        position: prompt_len,
                        heads,
                    },
                );
                Ok(AttentionResponse::DecodeOpened(opened))
            }
            AttentionRequest::DecodeStep { session, token } => {
                let state =
                    self.sessions.get_mut(&session).ok_or(SaloError::UnknownSession { session })?;
                check_token(state.heads.len(), state.head_dim, &token)?;
                let t = state.position;
                if t >= state.causal.n() {
                    return Err(capacity_error(state.causal.n()));
                }
                // No unprimed-step check: `check_open_prompt` pins the
                // prompt at >= min_step and `position` only grows, so
                // every step here is decodable (the fixed engines reach
                // that error only through the simulator's own gate).
                let d = state.head_dim;
                // All-or-nothing from here: the history appends below
                // cannot fail, so heads never desync and float sessions
                // never poison.
                let keys = state.causal.row_keys(t);
                debug_assert!(
                    keys.iter().all(|&j| j <= t),
                    "causal clip guarantees step {t} reads only the past"
                );
                let scale = state.scale;
                let mut heads_out = Vec::with_capacity(token.len());
                for (head, tok) in state.heads.iter_mut().zip(&token) {
                    head.k.extend_from_slice(&tok.k);
                    head.v.extend_from_slice(&tok.v);
                    let mut out = vec![0.0f32; d];
                    attend_row(&tok.q, &keys, &head.k, &head.v, scale, &mut out);
                    heads_out.push(HeadStep {
                        output: out,
                        raw: None,
                        weight_q16: None,
                        saturation_events: 0,
                    });
                }
                state.position += 1;
                Ok(AttentionResponse::DecodeStep(StepResult {
                    session,
                    position: t,
                    heads: heads_out,
                    telemetry: Self::telemetry(),
                }))
            }
            AttentionRequest::DecodeClose { session } => match self.sessions.remove(&session) {
                Some(state) => Ok(AttentionResponse::DecodeClosed(SessionClosed {
                    session,
                    position: state.position,
                })),
                None => Err(SaloError::UnknownSession { session }),
            },
        }
    }

    fn has_session(&self, session: SessionId) -> bool {
        self.sessions.contains_key(&session)
    }

    fn session_position(&self, session: SessionId) -> Option<usize> {
        self.sessions.get(&session).map(|s| s.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_core::TokenQkv;
    use salo_kernels::{Matrix, Qkv};
    use salo_patterns::longformer;

    /// A layer's reference output is each head's own `sparse_attention` at
    /// `1/sqrt(d)`, bit for bit: heads are independent and share the
    /// pattern and the scale.
    #[test]
    fn prefill_is_sparse_attention_per_head_at_the_default_scale() {
        let shape = AttentionShape::new(12, 4, 3).unwrap();
        let pattern = longformer(12, 4, 1).unwrap();
        let heads = Qkv::random_heads(&shape, 3);
        let mut engine = ReferenceEngine::new();
        let handle = engine.prepare(&pattern, &shape).unwrap();
        let request = AttentionRequest::Prefill { pattern: handle, shape, heads: heads.clone() };
        let out = engine.execute(request).unwrap().into_prefill().unwrap();
        assert_eq!(out.heads.len(), 3);
        let scale = SpatialAccelerator::default_scale(shape.head_dim);
        for (ours, head) in out.heads.iter().zip(&heads) {
            let solo = sparse_attention(&pattern, &head.q, &head.k, &head.v, scale).unwrap();
            let bits = |m: &salo_kernels::Matrix<f32>| m.map(f32::to_bits);
            assert_eq!(bits(&ours.output), bits(&solo));
        }
    }

    /// A decode step is the same row of an `f32` prefill over the causal
    /// pattern, bit for bit: both run one row kernel.
    #[test]
    fn decode_steps_are_causal_prefill_rows() {
        let (n, d, prompt_len) = (12, 4, 3);
        let pattern = longformer(n, 4, 1).unwrap();
        let full = Qkv::random(n, d, 5);
        let causal = pattern.decode_view().unwrap().into_causal_pattern();
        let scale = SpatialAccelerator::default_scale(d);
        let prefill = sparse_attention(&causal, &full.q, &full.k, &full.v, scale).unwrap();

        let mut engine = ReferenceEngine::new();
        let handle = engine.prepare(&pattern, &AttentionShape::new(n, d, 1).unwrap()).unwrap();
        let rows = |m: &Matrix<f32>| Matrix::from_fn(prompt_len, d, |r, c| m.get(r, c));
        let prompt = vec![Qkv::new(rows(&full.q), rows(&full.k), rows(&full.v)).unwrap()];
        let open = AttentionRequest::DecodeOpen {
            session: 1,
            pattern: handle,
            head_dim: d,
            num_heads: 1,
            prompt,
        };
        engine.execute(open).unwrap().into_opened().unwrap();
        for t in prompt_len..n {
            let token = vec![TokenQkv::from_row(&full, t)];
            let request = AttentionRequest::DecodeStep { session: 1, token };
            let step = engine.execute(request).unwrap().into_step().unwrap();
            let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&step.heads[0].output), bits(prefill.row(t)), "row {t}");
        }
    }
}
