//! Longformer workload configurations.

use salo_patterns::{longformer, AttentionShape, PatternError};

use super::Workload;
use crate::baselines::ExecutionFamily;

/// A Longformer attention layer with arbitrary hyper-parameters.
///
/// `model_dim` must be a multiple of 64 (the head dimension of the BERT
/// family); heads are `model_dim / 64`.
///
/// # Errors
///
/// Returns a pattern error for degenerate parameters.
pub fn longformer_layer(
    n: usize,
    window: usize,
    model_dim: usize,
    ng: usize,
) -> Result<Workload, PatternError> {
    let head_dim = 64;
    let heads = (model_dim / head_dim).max(1);
    let pattern = longformer(n, window, ng)?;
    let shape = AttentionShape::new(n, head_dim, heads)?;
    Ok(Workload::new(
        format!("Longformer (n={n}, w={window})"),
        pattern,
        shape,
        ExecutionFamily::Banded1d,
    ))
}

/// The paper's Longformer-Base-4096 layer (Table 2 row 1): sequence 4096,
/// window 512, hidden 768 (12 heads of 64), one global token.
///
/// # Panics
///
/// Never panics; parameters are statically valid.
#[must_use]
pub fn longformer_base_4096() -> Workload {
    let mut w = longformer_layer(4096, 512, 768, 1).expect("valid parameters");
    w.name = "Longformer".into();
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row1_parameters() {
        let w = longformer_base_4096();
        assert_eq!(w.shape.seq_len, 4096);
        assert_eq!(w.shape.model_dim(), 768);
        assert_eq!(w.shape.num_heads, 12);
        assert_eq!(w.pattern.globals(), &[0]);
        let s = w.stats();
        assert_eq!(s.window_width, 512);
        // Paper's sparsity column: 0.125.
        assert!((s.nominal_density - 0.125).abs() < 0.002, "sparsity {}", s.nominal_density);
    }

    #[test]
    fn custom_layer_scales() {
        let w = longformer_layer(1024, 128, 256, 2).unwrap();
        assert_eq!(w.shape.num_heads, 4);
        assert_eq!(w.pattern.globals().len(), 2);
        assert!(longformer_layer(0, 128, 256, 1).is_err());
    }
}
