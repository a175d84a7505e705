//! BERT-base configurations for the §2.1 motivation experiment.

use salo_patterns::{AttentionShape, HybridPattern, PatternError, Window};

use super::Workload;
use crate::baselines::ExecutionFamily;

/// A dense BERT-base attention layer: hidden 768, 12 heads of 64, full
/// `n x n` attention.
///
/// The "pattern" is a window wide enough to cover the whole sequence, so
/// the same machinery (scheduler, simulator, kernels) runs dense attention
/// unchanged; `nnz` is `n^2` by construction.
///
/// # Errors
///
/// Returns a pattern error if `n == 0`.
pub fn bert_base(n: usize) -> Result<Workload, PatternError> {
    let pattern = bert_base_dense(n)?;
    let shape = AttentionShape::new(n, 64, 12)?;
    Ok(Workload::with_nnz(
        format!("BERT-base (n={n})"),
        pattern,
        shape,
        ExecutionFamily::Dense,
        (n as u64) * (n as u64),
    ))
}

/// The all-covering pattern used by [`bert_base`]: a symmetric window of
/// width `2n` (every query attends every key).
///
/// # Errors
///
/// Returns a pattern error if `n == 0`.
pub fn bert_base_dense(n: usize) -> Result<HybridPattern, PatternError> {
    HybridPattern::builder(n).window(Window::symmetric(2 * n)?).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_pattern_covers_everything() {
        let p = bert_base_dense(16).unwrap();
        for i in 0..16 {
            assert_eq!(p.row_nnz(i), 16);
        }
    }

    #[test]
    fn workload_dimensions() {
        let w = bert_base(2048).unwrap();
        assert_eq!(w.shape.model_dim(), 768);
        assert_eq!(w.nnz(), 2048 * 2048);
        assert_eq!(w.family, ExecutionFamily::Dense);
        assert!(bert_base(0).is_err());
    }

    #[test]
    fn nnz_override_matches_pattern_for_small_n() {
        let w = bert_base(12).unwrap();
        assert_eq!(w.nnz(), w.pattern.nnz());
    }
}
