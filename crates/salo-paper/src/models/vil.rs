//! Vision Longformer (ViL) workload configurations.
//!
//! ViL-Medium-Wide processes an image as a pyramid of patch grids; the
//! paper evaluates the first two stages, whose attention uses a 15 x 15
//! 2-D sliding window plus one global (CLS) token (Table 2).

use salo_patterns::{vil_stage, AttentionShape, PatternError};

use super::Workload;
use crate::baselines::ExecutionFamily;

/// A ViL attention layer on an `h x w` patch grid with a `wh x ww` window,
/// `model_dim` hidden size (heads of 64) and `ng` global tokens.
///
/// # Errors
///
/// Returns a pattern error for degenerate parameters (even window sizes,
/// zero extents).
pub fn vil_stage_layer(
    h: usize,
    w: usize,
    wh: usize,
    ww: usize,
    model_dim: usize,
    ng: usize,
) -> Result<Workload, PatternError> {
    let head_dim = 64;
    let heads = (model_dim / head_dim).max(1);
    let pattern = vil_stage(h, w, wh, ww, ng)?;
    let shape = AttentionShape::new(h * w, head_dim, heads)?;
    Ok(Workload::new(
        format!("ViL ({h}x{w}, window {wh}x{ww})"),
        pattern,
        shape,
        ExecutionFamily::Windowed2d,
    ))
}

/// ViL-Medium-Wide stage 1 (Table 2 row 2): 56 x 56 patches, 15 x 15
/// window, hidden 192, one global token.
#[must_use]
pub fn vil_stage1() -> Workload {
    let mut w = vil_stage_layer(56, 56, 15, 15, 192, 1).expect("valid parameters");
    w.name = "ViL-stage1".into();
    w
}

/// ViL-Medium-Wide stage 2 (Table 2 row 3): 28 x 28 patches, 15 x 15
/// window, hidden 384, one global token.
#[must_use]
pub fn vil_stage2() -> Workload {
    let mut w = vil_stage_layer(28, 28, 15, 15, 384, 1).expect("valid parameters");
    w.name = "ViL-stage2".into();
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row2_parameters() {
        let w = vil_stage1();
        assert_eq!(w.shape.seq_len, 56 * 56);
        assert_eq!(w.shape.model_dim(), 192);
        assert_eq!(w.shape.num_heads, 3);
        let s = w.stats();
        assert_eq!(s.window_width, 225);
        assert!((s.nominal_density - 0.072).abs() < 0.002, "sparsity {}", s.nominal_density);
    }

    #[test]
    fn table2_row3_parameters() {
        let w = vil_stage2();
        assert_eq!(w.shape.seq_len, 784);
        assert_eq!(w.shape.model_dim(), 384);
        assert_eq!(w.shape.num_heads, 6);
        let s = w.stats();
        assert!((s.nominal_density - 0.288).abs() < 0.004, "sparsity {}", s.nominal_density);
    }

    #[test]
    fn family_is_2d() {
        assert_eq!(vil_stage1().family, ExecutionFamily::Windowed2d);
        assert!(vil_stage_layer(8, 8, 4, 3, 64, 0).is_err(), "even window rejected");
    }
}
