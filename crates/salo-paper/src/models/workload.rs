use salo_kernels::Qkv;
use salo_patterns::{AttentionShape, HybridPattern, PatternStats};

use crate::baselines::{BaselineWorkload, ExecutionFamily};

/// One evaluation workload: an attention layer with its hybrid sparse
/// pattern, dimensions and baseline execution strategy.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (as used in the paper's figures).
    pub name: String,
    /// The hybrid sparse attention pattern (shared by all heads).
    pub pattern: HybridPattern,
    /// Sequence/head dimensions.
    pub shape: AttentionShape,
    /// How CPU/GPU software executes this pattern.
    pub family: ExecutionFamily,
    nnz: u64,
}

impl Workload {
    /// Builds a workload, computing the pattern's exact `nnz` once.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        pattern: HybridPattern,
        shape: AttentionShape,
        family: ExecutionFamily,
    ) -> Self {
        let nnz = pattern.nnz();
        Self { name: name.into(), pattern, shape, family, nnz }
    }

    /// Builds a workload with a precomputed `nnz` (used by the dense BERT
    /// configuration where `nnz = n^2` by construction).
    #[must_use]
    pub fn with_nnz(
        name: impl Into<String>,
        pattern: HybridPattern,
        shape: AttentionShape,
        family: ExecutionFamily,
        nnz: u64,
    ) -> Self {
        Self { name: name.into(), pattern, shape, family, nnz }
    }

    /// Kept score positions per head.
    #[must_use]
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// Pattern statistics (density, nominal density, widths).
    #[must_use]
    pub fn stats(&self) -> PatternStats {
        self.pattern.stats()
    }

    /// The descriptor the baseline device models consume.
    #[must_use]
    pub fn baseline(&self) -> BaselineWorkload {
        BaselineWorkload {
            name: self.name.clone(),
            seq_len: self.shape.seq_len,
            model_dim: self.shape.model_dim(),
            num_heads: self.shape.num_heads,
            nnz: self.nnz,
            family: self.family,
        }
    }

    /// Deterministic per-head inputs.
    #[must_use]
    pub fn qkv_heads(&self, seed: u64) -> Vec<Qkv> {
        Qkv::random_heads(&self.shape, seed)
    }

    /// The standard attention scale `1/sqrt(d_head)`.
    #[must_use]
    pub fn scale(&self) -> f32 {
        1.0 / (self.shape.head_dim.max(1) as f32).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::longformer;

    #[test]
    fn nnz_cached_and_consistent() {
        let pattern = longformer(128, 16, 1).unwrap();
        let expect = pattern.nnz();
        let w = Workload::new(
            "t",
            pattern,
            AttentionShape::new(128, 16, 2).unwrap(),
            ExecutionFamily::Banded1d,
        );
        assert_eq!(w.nnz(), expect);
        assert_eq!(w.baseline().nnz, expect);
        assert_eq!(w.baseline().model_dim, 32);
    }

    #[test]
    fn qkv_heads_match_shape() {
        let pattern = longformer(32, 8, 1).unwrap();
        let w = Workload::new(
            "t",
            pattern,
            AttentionShape::new(32, 8, 3).unwrap(),
            ExecutionFamily::Banded1d,
        );
        let heads = w.qkv_heads(1);
        assert_eq!(heads.len(), 3);
        assert_eq!(heads[0].seq_len(), 32);
        assert_eq!(heads[0].head_dim(), 8);
        assert!((w.scale() - 1.0 / 8f32.sqrt()).abs() < 1e-7);
    }
}
