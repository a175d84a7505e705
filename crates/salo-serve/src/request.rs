//! Request and response types of the serving runtime.

use salo_core::engine::{check_pattern_len, check_prefill_heads, PromptHead};
use salo_core::{FixedQkv, MultiHeadRun};
use salo_kernels::Qkv;
use salo_patterns::{AttentionShape, HybridPattern};

use crate::ServeError;

/// One attention-layer inference request: a hybrid pattern, its shape and
/// the per-head Q/K/V inputs — as `f32` rows ([`Qkv`], the default), or
/// already quantized where they arrived ([`FixedQkv`] — how the gateway
/// hands a prefill over, and the only form that reaches a worker:
/// [`SaloServer`](crate::SaloServer) quantizes `f32` heads on the caller's
/// thread).
#[derive(Debug, Clone)]
pub struct ServeRequest<H = Qkv> {
    /// The hybrid sparse attention pattern (shared by all heads).
    pub pattern: HybridPattern,
    /// Sequence/head dimensions.
    pub shape: AttentionShape,
    /// Per-head inputs; length must equal `shape.num_heads`.
    pub heads: Vec<H>,
}

impl<H: PromptHead> ServeRequest<H> {
    /// Builds a request, validating it by the engines' own rules
    /// ([`check_pattern_len`], [`check_prefill_heads`]): the pattern's
    /// length is the shape's sequence length, and the heads agree with
    /// the shape.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] on any disagreement, so the
    /// runtime never accepts work it would later fail to execute.
    pub fn new(
        pattern: HybridPattern,
        shape: AttentionShape,
        heads: Vec<H>,
    ) -> Result<Self, ServeError> {
        check_pattern_len(pattern.n(), &shape)?;
        check_prefill_heads(&shape, &heads)?;
        Ok(Self { pattern, shape, heads })
    }
}

impl From<ServeRequest> for ServeRequest<FixedQkv> {
    /// Quantizes the heads one by one ([`FixedQkv::quantize`]), each `f32`
    /// head dropped as soon as it is converted.
    fn from(request: ServeRequest) -> Self {
        let ServeRequest { pattern, shape, heads } = request;
        let heads = heads.into_iter().map(|head| FixedQkv::quantize(&head)).collect();
        ServeRequest { pattern, shape, heads }
    }
}

/// The serving runtime's answer to one [`ServeRequest`].
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Submission id; [`recv`](crate::SaloServer::recv) delivers in
    /// increasing-id order, a supplied sink in completion order.
    pub id: u64,
    /// The multi-head execution result, or the failure that prevented it.
    pub result: Result<MultiHeadRun, ServeError>,
    /// Whether the compiled plan came from the cache.
    pub cache_hit: bool,
    /// Index of the worker (accelerator instance) that executed it;
    /// `None` when the request failed before reaching a worker.
    pub worker: Option<usize>,
    /// Wall-clock latency from submission to completion, in seconds.
    pub latency_s: f64,
}

impl ServeResponse {
    /// The execution result, unwrapped.
    ///
    /// # Errors
    ///
    /// Returns the per-request failure, if any.
    pub fn output(&self) -> Result<&MultiHeadRun, ServeError> {
        self.result.as_ref().map_err(Clone::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::sliding_only;

    #[test]
    fn validates_head_count_and_dims() {
        let pattern = sliding_only(16, 3).unwrap();
        let shape = AttentionShape::new(16, 8, 2).unwrap();
        let ok = ServeRequest::new(pattern.clone(), shape, Qkv::random_heads(&shape, 1));
        assert!(ok.is_ok());

        let wrong_count = ServeRequest::new(pattern.clone(), shape, vec![Qkv::random(16, 8, 1)]);
        assert!(matches!(wrong_count, Err(ServeError::InvalidRequest { .. })));

        let wrong_dim = ServeRequest::new(
            pattern.clone(),
            shape,
            vec![Qkv::random(16, 4, 1), Qkv::random(16, 4, 2)],
        );
        assert!(matches!(wrong_dim, Err(ServeError::InvalidRequest { .. })));

        let wrong_len = ServeRequest::new(
            pattern,
            AttentionShape::new(32, 8, 1).unwrap(),
            vec![Qkv::random(32, 8, 1)],
        );
        assert!(matches!(wrong_len, Err(ServeError::InvalidRequest { .. })));
    }
}
