//! Closed-loop traffic generation over attention layers.
//!
//! A [`TrafficMix`] cycles deterministically through a set of layers — a
//! pattern and its shape, e.g. the Longformer / ViL / BERT presets —
//! producing [`ServeRequest`]s with seeded Q/K/V inputs. Because every
//! request of a given layer shares the same pattern/shape/accelerator
//! triple, a mix of `k` layers exercises exactly `k` plan-cache entries —
//! the steady-state hit rate approaches `1 - k/requests`.

use salo_core::engine::{check_pattern_len, check_prompt_rows};
use salo_kernels::{Matrix, Qkv};
use salo_patterns::{bigbird, longformer, vil_stage, AttentionShape, HybridPattern, Window};

use crate::session::{SessionRequest, TokenQkv};
use crate::{ServeError, ServeRequest};

/// A deterministic round-robin generator over attention layers.
#[derive(Debug, Clone)]
pub struct TrafficMix {
    layers: Vec<(HybridPattern, AttentionShape)>,
}

impl TrafficMix {
    /// Builds a mix from explicit `(pattern, shape)` layers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for an empty mix or a layer
    /// whose pattern length is not its shape's sequence length — the
    /// runtime would refuse every request of it.
    pub fn new(layers: Vec<(HybridPattern, AttentionShape)>) -> Result<Self, ServeError> {
        if layers.is_empty() {
            return Err(ServeError::InvalidRequest { reason: "empty traffic mix".into() });
        }
        for (i, (pattern, shape)) in layers.iter().enumerate() {
            check_pattern_len(pattern.n(), shape)
                .map_err(|e| ServeError::InvalidRequest { reason: format!("layer {i}: {e}") })?;
        }
        Ok(Self { layers })
    }

    /// A scaled-down Longformer + ViL + BERT mix sized for demos and
    /// tests: the same three model families as the paper's Table 2, at
    /// sequence lengths that execute in milliseconds on the functional
    /// simulator. Heads are 64 wide; BERT is dense (a window covering
    /// every key) with 12 heads.
    ///
    /// # Panics
    ///
    /// Never panics; parameters are statically valid.
    #[must_use]
    pub fn demo_mix() -> Self {
        let bert = HybridPattern::builder(64).window(Window::symmetric(128).expect("valid window"));
        Self::new(vec![
            layer(longformer(256, 32, 1), 1),
            layer(vil_stage(16, 16, 5, 5, 1), 1),
            layer(bert.build(), 12),
        ])
        .expect("valid mix")
    }

    /// A scaled-down mix with a BigBird layer in rotation: its seeded
    /// random-block residual exercises the scheduler's gather passes
    /// through the serving runtime, alongside a plain Longformer layer
    /// sharing the same sequence length.
    ///
    /// # Panics
    ///
    /// Never panics; parameters are statically valid.
    #[must_use]
    pub fn bigbird_mix() -> Self {
        Self::new(vec![layer(bigbird(128, 16, 2, 1, 7), 1), layer(longformer(128, 16, 1), 1)])
            .expect("valid mix")
    }

    /// The `(pattern, shape)` layers, in rotation order.
    #[must_use]
    pub fn layers(&self) -> &[(HybridPattern, AttentionShape)] {
        &self.layers
    }

    /// Number of distinct layers (= distinct compiled plans).
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the mix is empty (never true for constructed mixes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The `i`-th request of the closed loop: layer `i % len`, with
    /// inputs seeded by `i` (deterministic across runs and servers).
    #[must_use]
    pub fn request(&self, i: u64) -> ServeRequest {
        let (pattern, shape) = &self.layers[(i % self.layers.len() as u64) as usize];
        // `new` checked the layer; `random_heads` follows the shape.
        ServeRequest { pattern: pattern.clone(), shape: *shape, heads: Qkv::random_heads(shape, i) }
    }
}

/// A preset layer with `heads` heads of width 64 over the pattern's length.
fn layer(
    pattern: Result<HybridPattern, salo_patterns::PatternError>,
    heads: usize,
) -> (HybridPattern, AttentionShape) {
    let pattern = pattern.expect("valid pattern");
    let shape = AttentionShape::new(pattern.n(), 64, heads).expect("valid shape");
    (pattern, shape)
}

/// One generation scenario: the pattern over the session's full capacity,
/// the head shape, and how the capacity splits into prompt and generated
/// tokens.
#[derive(Debug, Clone)]
pub struct GenerationShape {
    /// The hybrid pattern (causally clipped by the runtime at open).
    pub pattern: HybridPattern,
    /// Head dimension.
    pub head_dim: usize,
    /// Number of heads.
    pub num_heads: usize,
    /// Prompt length (must cover every global token).
    pub prompt_len: usize,
}

impl GenerationShape {
    /// Tokens a session of this shape generates (`capacity - prompt`) —
    /// zero when a hand-built shape's prompt exceeds its capacity (the
    /// fields are public; only [`GenerationTraffic::new`] validates).
    #[must_use]
    pub fn steps(&self) -> usize {
        self.pattern.n().saturating_sub(self.prompt_len)
    }
}

/// A deterministic generator of decode-session traffic: chat/generation
/// workloads cycling over a set of [`GenerationShape`]s, each session
/// carrying seeded prompt and token inputs.
///
/// Sessions of the same shape share one causal pattern/shape triple, so a
/// mix of `k` shapes exercises exactly `k` plan-cache entries and every
/// later session opens on a cache hit — the compiled plan amortizes
/// across whole generations.
#[derive(Debug, Clone)]
pub struct GenerationTraffic {
    shapes: Vec<GenerationShape>,
}

impl GenerationTraffic {
    /// Builds a mix from explicit shapes.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for an empty mix or a shape
    /// whose prompt the engines' open rule ([`check_prompt_rows`]) refuses:
    /// one that does not cover its globals or leaves no steps.
    pub fn new(shapes: Vec<GenerationShape>) -> Result<Self, ServeError> {
        if shapes.is_empty() {
            return Err(ServeError::InvalidRequest { reason: "empty generation mix".into() });
        }
        for (i, s) in shapes.iter().enumerate() {
            let invalid = |e: &dyn std::fmt::Display| ServeError::InvalidRequest {
                reason: format!("shape {i}: {e}"),
            };
            let view = s.pattern.decode_view().map_err(|e| invalid(&e))?;
            check_prompt_rows(s.pattern.n(), view.min_step(), s.prompt_len)
                .map_err(|e| invalid(&e))?;
        }
        Ok(Self { shapes })
    }

    /// A scaled-down chat-generation mix: causal sliding windows with an
    /// attention-sink global token (the Salca/MiniCPM-style serving
    /// shape), at lengths that decode in milliseconds on the functional
    /// simulator.
    ///
    /// # Panics
    ///
    /// Never panics; parameters are statically valid.
    #[must_use]
    pub fn demo_mix() -> Self {
        let sink_window = |n: usize, w: usize| {
            HybridPattern::builder(n)
                .window(salo_patterns::Window::causal(w).expect("valid window"))
                .global_token(0)
                .build()
                .expect("valid pattern")
        };
        Self::new(vec![
            GenerationShape {
                pattern: sink_window(96, 24),
                head_dim: 32,
                num_heads: 2,
                prompt_len: 16,
            },
            GenerationShape {
                pattern: sink_window(64, 16),
                head_dim: 16,
                num_heads: 1,
                prompt_len: 8,
            },
        ])
        .expect("valid mix")
    }

    /// The shapes, in rotation order.
    #[must_use]
    pub fn shapes(&self) -> &[GenerationShape] {
        &self.shapes
    }

    /// Number of distinct shapes (= distinct compiled plans).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the mix is empty (never true for constructed mixes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// The `i`-th session of the closed loop: shape `i % len`, with the
    /// whole sequence (prompt rows plus every generated token) seeded by
    /// `i`. Returns the open request and the per-step token stream.
    #[must_use]
    pub fn session(&self, i: u64) -> (SessionRequest, Vec<Vec<TokenQkv>>) {
        self.session_bounded(i, usize::MAX)
    }

    /// Like [`session`](Self::session) but materializes only the rows the
    /// caller will actually feed: the prompt plus the first `max_steps`
    /// generated tokens. The seeded generator is a row-major prefix
    /// stream, so the result is bit-identical to truncating
    /// [`session`](Self::session)'s step list — at `O(prompt + max_steps)`
    /// cost instead of `O(capacity)`, which is the difference between
    /// benching ten thousand 32k-context sessions and allocating their
    /// full token streams up front.
    #[must_use]
    pub fn session_bounded(
        &self,
        i: u64,
        max_steps: usize,
    ) -> (SessionRequest, Vec<Vec<TokenQkv>>) {
        let shape = &self.shapes[(i % self.shapes.len() as u64) as usize];
        let n = shape.pattern.n().min(shape.prompt_len.saturating_add(max_steps));
        let full: Vec<Qkv> = (0..shape.num_heads)
            .map(|h| Qkv::random(n, shape.head_dim, i.wrapping_mul(131).wrapping_add(h as u64)))
            .collect();
        let prompt = full
            .iter()
            .map(|qkv| {
                let rows = |m: &Matrix<f32>| {
                    Matrix::from_fn(shape.prompt_len, shape.head_dim, |r, c| m.get(r, c))
                };
                Qkv::new(rows(&qkv.q), rows(&qkv.k), rows(&qkv.v)).expect("consistent prompt")
            })
            .collect();
        let steps = (shape.prompt_len..n)
            .map(|t| full.iter().map(|qkv| TokenQkv::from_row(qkv, t)).collect())
            .collect();
        let request = SessionRequest {
            pattern: shape.pattern.clone(),
            head_dim: shape.head_dim,
            num_heads: shape.num_heads,
            prompt,
        };
        (request, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mix_rejected() {
        assert!(matches!(TrafficMix::new(Vec::new()), Err(ServeError::InvalidRequest { .. })));
    }

    #[test]
    fn a_layer_whose_pattern_is_not_its_shape_is_rejected() {
        let (pattern, _) = layer(longformer(64, 8, 1), 1);
        let shape = AttentionShape::new(32, 8, 1).unwrap();
        let mismatched = TrafficMix::new(vec![layer(longformer(32, 8, 1), 1), (pattern, shape)]);
        match mismatched {
            Err(ServeError::InvalidRequest { reason }) => {
                assert!(reason.contains("layer 1"), "{reason}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn demo_mix_rotates_and_is_deterministic() {
        let mix = TrafficMix::demo_mix();
        assert_eq!(mix.len(), 3);
        assert!(!mix.is_empty());
        let a = mix.request(0);
        let b = mix.request(3);
        assert_eq!(a.shape, b.shape, "same layer every len() steps");
        assert_ne!(a.heads[0].q, b.heads[0].q, "different seeds, different data");
        let a2 = mix.request(0);
        assert_eq!(a.heads[0].q, a2.heads[0].q, "same index, same data");
    }

    #[test]
    fn demo_mix_requests_validate() {
        let mix = TrafficMix::demo_mix();
        for i in 0..3 {
            let r = mix.request(i);
            assert!(ServeRequest::new(r.pattern, r.shape, r.heads).is_ok());
        }
    }

    #[test]
    fn bigbird_mix_requests_validate() {
        let mix = TrafficMix::bigbird_mix();
        assert_eq!(mix.len(), 2);
        assert!(
            !mix.layers()[0].0.residual().is_empty(),
            "the BigBird layer carries a random-block residual"
        );
        for i in 0..2 {
            let r = mix.request(i);
            assert!(ServeRequest::new(r.pattern, r.shape, r.heads).is_ok());
        }
    }

    #[test]
    fn generation_mix_sessions_validate_and_are_deterministic() {
        let mix = GenerationTraffic::demo_mix();
        assert_eq!(mix.len(), 2);
        assert!(!mix.is_empty());
        for i in 0..2u64 {
            let shape = &mix.shapes()[i as usize];
            let (request, steps) = mix.session(i);
            assert!(request.validate().is_ok(), "session {i} must validate");
            assert_eq!(steps.len(), shape.steps());
            assert_eq!(steps[0].len(), shape.num_heads);
            assert_eq!(steps[0][0].q.len(), shape.head_dim);
        }
        // Same index, same data; shape repeats every len() sessions with
        // fresh data.
        let (a, sa) = mix.session(0);
        let (a2, sa2) = mix.session(0);
        assert_eq!(a.prompt[0].q, a2.prompt[0].q);
        assert_eq!(sa[0], sa2[0]);
        let (b, _) = mix.session(2);
        assert_eq!(a.pattern, b.pattern, "same shape every len() sessions");
        assert_ne!(a.prompt[0].q, b.prompt[0].q, "different seeds");
    }

    #[test]
    fn bounded_session_is_a_prefix_of_the_full_session() {
        let mix = GenerationTraffic::demo_mix();
        for i in 0..2u64 {
            let (full_req, full_steps) = mix.session(i);
            let (bounded_req, bounded_steps) = mix.session_bounded(i, 3);
            assert_eq!(bounded_req.prompt[0].q, full_req.prompt[0].q, "same prompt rows");
            assert_eq!(bounded_req.pattern, full_req.pattern, "full-capacity pattern");
            assert_eq!(bounded_steps.len(), 3);
            assert_eq!(bounded_steps[..], full_steps[..3], "bit-identical step prefix");
        }
        // Asking for more steps than the capacity holds just yields them all.
        let (_, all) = mix.session_bounded(0, usize::MAX);
        assert_eq!(all.len(), mix.shapes()[0].steps());
    }

    #[test]
    fn generation_mix_rejects_uncovered_prompts() {
        let pattern = HybridPattern::builder(16)
            .window(salo_patterns::Window::causal(4).unwrap())
            .global_token(5)
            .build()
            .unwrap();
        // Prompt of 2 rows does not cover global token 5.
        let bad = GenerationTraffic::new(vec![GenerationShape {
            pattern: pattern.clone(),
            head_dim: 4,
            num_heads: 1,
            prompt_len: 2,
        }]);
        assert!(matches!(bad, Err(ServeError::InvalidRequest { .. })));
        // Refused by the engines' open rule, in its wording.
        let rule = check_prompt_rows(16, 6, 2).unwrap_err();
        assert!(
            matches!(&bad, Err(ServeError::InvalidRequest { reason }) if *reason == format!("shape 0: {rule}")),
            "{bad:?}"
        );
        // Prompt filling the whole capacity leaves nothing to generate.
        let full = GenerationTraffic::new(vec![GenerationShape {
            pattern,
            head_dim: 4,
            num_heads: 1,
            prompt_len: 16,
        }]);
        assert!(matches!(full, Err(ServeError::InvalidRequest { .. })));
        assert!(matches!(
            GenerationTraffic::new(Vec::new()),
            Err(ServeError::InvalidRequest { .. })
        ));
    }
}
