//! The golden model of the accelerator's fixed-point attention.
//!
//! This kernel computes sparse attention with *exactly* the arithmetic of
//! the SALO datapath — Q.4 quantized inputs (scale folded into the query),
//! Q.8 scores from the stage-1 MAC chain, the piecewise-linear exponential,
//! the LUT reciprocal, Q.15 probabilities and the Q.19 stage-5 accumulator —
//! in the accelerator's accumulation order (keys ascending). The simulator
//! is validated against it: identical results for unsplit rows, and within
//! weighted-sum merge tolerance when the scheduler splits windows.

use salo_fixed::{
    fixed_softmax_parts, qk_dot, quantize, quantize_with_scale, sv_mac, ExpLut, Fix16x8, Fix8x4,
    MacSaturation, RecipUnit,
};
use salo_kernels::{KernelError, Matrix, Qkv};
use salo_patterns::HybridPattern;

/// Configuration of the fixed-point attention datapath.
#[derive(Debug, Clone)]
pub struct FixedAttention {
    /// The piecewise-linear exponential unit.
    pub exp: ExpLut,
    /// The reciprocal unit.
    pub recip: RecipUnit,
    /// Score scale folded into query quantization (usually `1/sqrt(d)`).
    pub scale: f32,
}

impl FixedAttention {
    /// Default datapath for a head dimension: 32-segment exp LUT, 64-entry
    /// reciprocal LUT, `1/sqrt(d)` scaling.
    #[must_use]
    pub fn new(head_dim: usize) -> Self {
        Self {
            exp: ExpLut::new(32),
            recip: RecipUnit::new(64),
            scale: 1.0 / (head_dim.max(1) as f32).sqrt(),
        }
    }
}

/// The result of the fixed-point attention kernel.
#[derive(Debug, Clone)]
pub struct FixedAttentionOutput {
    /// 16-bit outputs in the accelerator's Q.8 output format.
    pub out: Matrix<Fix16x8>,
    /// Per-row softmax weights `W = Σ exp` (Q.16), used to cross-check the
    /// weighted-sum module.
    pub weights_q16: Vec<i64>,
    /// Saturation events observed across all MACs.
    pub saturation: MacSaturation,
}

impl FixedAttentionOutput {
    /// The output dequantized to `f32`.
    #[must_use]
    pub fn to_f32(&self) -> Matrix<f32> {
        self.out.map(Fix16x8::to_f32)
    }
}

/// Computes sparse attention in the accelerator's fixed-point arithmetic.
///
/// Rows with no kept keys produce zero output and zero weight.
///
/// # Errors
///
/// Returns a dimension error if shapes disagree, or a fixed-point error if
/// a softmax denominator underflows (impossible with the default LUTs).
pub fn fixed_sparse_attention(
    pattern: &HybridPattern,
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
    datapath: &FixedAttention,
) -> Result<FixedAttentionOutput, KernelError> {
    Qkv::check_shapes(q, k, v)?;
    let (n, d) = q.shape();
    if pattern.n() != n {
        return Err(KernelError::PatternLengthMismatch { pattern_n: pattern.n(), rows: n });
    }

    // Quantize once: scale folds into Q (the hardware quantizes at load).
    let qq: Vec<Vec<Fix8x4>> =
        (0..n).map(|i| quantize_with_scale(q.row(i), datapath.scale)).collect();
    let kq: Vec<Vec<Fix8x4>> = (0..n).map(|i| quantize(k.row(i))).collect();
    let vq: Vec<Vec<Fix8x4>> = (0..n).map(|i| quantize(v.row(i))).collect();

    let mut out = Matrix::filled(n, d, Fix16x8::ZERO);
    let mut weights = vec![0i64; n];
    let mut saturation = MacSaturation::default();

    for i in 0..n {
        let keys = pattern.row_keys(i);
        if keys.is_empty() {
            continue;
        }
        // Stage 1: one score per kept key, keys ascending.
        let scores: Vec<i32> =
            keys.iter().map(|&j| qk_dot(&qq[i], &kq[j], &mut saturation)).collect();
        // Stages 2-4.
        let (probs, weight, _) = fixed_softmax_parts(&scores, &datapath.exp, &datapath.recip)?;
        weights[i] = weight;
        // Stage 5: weight-stationary accumulation, keys ascending.
        let mut acc = vec![0i64; d];
        for (&j, &p) in keys.iter().zip(&probs) {
            for (a, &ve) in acc.iter_mut().zip(&vq[j]) {
                *a = sv_mac(*a, p, ve, &mut saturation);
            }
        }
        for (c, &a) in acc.iter().enumerate() {
            out.set(i, c, Fix16x8::from_q19_acc(a));
        }
    }
    Ok(FixedAttentionOutput { out, weights_q16: weights, saturation })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::sparse_attention;
    use salo_kernels::gaussian_matrix;
    use salo_patterns::{longformer, sliding_only};

    fn workload(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        (
            gaussian_matrix(seed, n, d, 0.0, 1.0),
            gaussian_matrix(seed + 1, n, d, 0.0, 1.0),
            gaussian_matrix(seed + 2, n, d, 0.0, 1.0),
        )
    }

    #[test]
    fn close_to_f32_reference_on_gaussian_inputs() {
        let n = 32;
        let d = 16;
        let p = longformer(n, 8, 1).unwrap();
        let (q, k, v) = workload(n, d, 100);
        let dp = FixedAttention::new(d);
        let fixed = fixed_sparse_attention(&p, &q, &k, &v, &dp).unwrap();
        let exact = sparse_attention(&p, &q, &k, &v, dp.scale).unwrap();
        let approx = fixed.to_f32();
        let diff = approx.max_abs_diff(&exact);
        // Outputs are convex combinations of ±3-ish values; the Q.4 input
        // grid (score perturbations of ~0.1 after the dot product) dominates
        // the error budget, giving worst-case deviations around 0.2.
        assert!(diff < 0.25, "max abs diff {diff}");
        assert!(approx.mse(&exact) < 5e-3, "mse {}", approx.mse(&exact));
        assert!(!fixed.saturation.saturated());
    }

    #[test]
    fn deterministic() {
        let n = 16;
        let p = sliding_only(n, 5).unwrap();
        let (q, k, v) = workload(n, 8, 7);
        let dp = FixedAttention::new(8);
        let a = fixed_sparse_attention(&p, &q, &k, &v, &dp).unwrap();
        let b = fixed_sparse_attention(&p, &q, &k, &v, &dp).unwrap();
        assert_eq!(a.out, b.out);
        assert_eq!(a.weights_q16, b.weights_q16);
    }

    #[test]
    fn weights_match_window_sizes_for_zero_scores() {
        // Q = 0 -> all exponentials ~1 -> weight ~ row nnz.
        let n = 12;
        let p = sliding_only(n, 5).unwrap();
        let q = Matrix::zeros(n, 4);
        let k = gaussian_matrix(3, n, 4, 0.0, 1.0);
        let v = gaussian_matrix(4, n, 4, 0.0, 1.0);
        let fixed = fixed_sparse_attention(&p, &q, &k, &v, &FixedAttention::new(4)).unwrap();
        for i in 0..n {
            let expect = p.row_nnz(i) as f64;
            let w = fixed.weights_q16[i] as f64 / 65536.0;
            assert!((w - expect).abs() < 0.1 * expect, "row {i}: {w} vs {expect}");
        }
    }

    #[test]
    fn pattern_length_mismatch_detected() {
        let p = sliding_only(8, 3).unwrap();
        let m = Matrix::zeros(4, 2);
        assert!(matches!(
            fixed_sparse_attention(&p, &m, &m, &m, &FixedAttention::new(2)),
            Err(KernelError::PatternLengthMismatch { .. })
        ));
    }

    #[test]
    fn argmax_agreement_with_reference() {
        // Quantization must not flip which value row dominates.
        let n = 24;
        let d = 8;
        let p = longformer(n, 6, 1).unwrap();
        let (q, k, v) = workload(n, d, 55);
        let dp = FixedAttention::new(d);
        let fixed = fixed_sparse_attention(&p, &q, &k, &v, &dp).unwrap().to_f32();
        let exact = sparse_attention(&p, &q, &k, &v, dp.scale).unwrap();
        let mut agree = 0;
        for i in 0..n {
            let am = |row: &[f32]| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(idx, _)| idx)
                    .unwrap()
            };
            if am(fixed.row(i)) == am(exact.row(i)) {
                agree += 1;
            }
        }
        assert!(agree >= n - 2, "argmax agreement {agree}/{n}");
    }
}
