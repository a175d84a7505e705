//! Additional workload configurations beyond Table 2: the other surveyed
//! pattern families (Fig. 2) and the paper's longest-sequence claim.

use salo_patterns::{bigbird, sparse_transformer, star_transformer, AttentionShape, PatternError};

use super::{longformer_layer, Workload};
use crate::baselines::ExecutionFamily;

/// Longformer at the paper's maximum advertised length ("up to 16384
/// tokens in a sequence", §1), window 512, hidden 768.
///
/// # Panics
///
/// Never panics; parameters are statically valid.
#[must_use]
pub fn longformer_16k() -> Workload {
    let mut w = longformer_layer(16384, 512, 768, 1).expect("valid parameters");
    w.name = "Longformer-16k".into();
    w
}

/// A Star Transformer layer: trigram window plus one relay token.
///
/// # Errors
///
/// Returns a pattern error for `n == 0`.
pub fn star_transformer_layer(n: usize, model_dim: usize) -> Result<Workload, PatternError> {
    let head_dim = 64;
    let heads = (model_dim / head_dim).max(1);
    let pattern = star_transformer(n)?;
    let shape = AttentionShape::new(n, head_dim, heads)?;
    Ok(Workload::new(
        format!("Star Transformer (n={n})"),
        pattern,
        shape,
        ExecutionFamily::Banded1d,
    ))
}

/// A Sparse Transformer layer: causal local window of `stride` plus the
/// strided column reaching back `depth * stride` tokens.
///
/// # Errors
///
/// Returns a pattern error for degenerate parameters.
pub fn sparse_transformer_layer(
    n: usize,
    stride: usize,
    depth: usize,
    model_dim: usize,
) -> Result<Workload, PatternError> {
    let head_dim = 64;
    let heads = (model_dim / head_dim).max(1);
    let pattern = sparse_transformer(n, stride, depth)?;
    let shape = AttentionShape::new(n, head_dim, heads)?;
    Ok(Workload::new(
        format!("Sparse Transformer (n={n}, stride={stride})"),
        pattern,
        shape,
        ExecutionFamily::Banded1d,
    ))
}

/// A BigBird layer: symmetric window, `ng` global tokens, and `blocks`
/// seeded random block keys per row (the residual is executed through the
/// scheduler's gather passes rather than a dense fallback).
///
/// # Errors
///
/// Returns a pattern error for degenerate parameters.
pub fn bigbird_layer(
    n: usize,
    w: usize,
    blocks: usize,
    ng: usize,
    seed: u64,
    model_dim: usize,
) -> Result<Workload, PatternError> {
    let head_dim = 64;
    let heads = (model_dim / head_dim).max(1);
    let pattern = bigbird(n, w, blocks, ng, seed)?;
    let shape = AttentionShape::new(n, head_dim, heads)?;
    Ok(Workload::new(
        format!("BigBird (n={n}, w={w}, r={blocks})"),
        pattern,
        shape,
        ExecutionFamily::Banded1d,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longformer_16k_dimensions() {
        let w = longformer_16k();
        assert_eq!(w.shape.seq_len, 16384);
        assert_eq!(w.shape.num_heads, 12);
        // Linear-complexity check: nnz/n stays near the window size.
        let per_row = w.nnz() as f64 / 16384.0;
        assert!((per_row - 512.0).abs() < 20.0, "per-row keys {per_row}");
    }

    #[test]
    fn star_layer_structure() {
        let w = star_transformer_layer(256, 128).unwrap();
        assert_eq!(w.shape.num_heads, 2);
        assert_eq!(w.pattern.globals(), &[0]);
        assert!(star_transformer_layer(0, 64).is_err());
    }

    #[test]
    fn bigbird_layer_structure() {
        let w = bigbird_layer(256, 16, 2, 2, 11, 128).unwrap();
        assert_eq!(w.shape.num_heads, 2);
        assert_eq!(w.pattern.globals(), &[0, 1]);
        assert!(!w.pattern.residual().is_empty(), "random blocks live in the residual");
        assert!(bigbird_layer(0, 16, 2, 2, 11, 128).is_err());
    }

    #[test]
    fn strided_layer_structure() {
        let w = sparse_transformer_layer(512, 8, 16, 64).unwrap();
        assert_eq!(w.pattern.windows().len(), 2);
        assert!(w.pattern.windows().iter().any(salo_patterns::Window::is_dilated));
        assert!(sparse_transformer_layer(512, 0, 4, 64).is_err());
    }
}
