//! Exact sparse attention restricted to a hybrid pattern.

use salo_fixed::{quantize_iter, softmax_f64, Fix8x4};
use salo_kernels::{KernelError, Matrix, Qkv};
use salo_patterns::HybridPattern;

/// Computes exact sparse attention: for each query `i`, softmax over only
/// the keys the pattern keeps, then the weighted sum of the corresponding
/// value rows.
///
/// Rows whose pattern coverage is empty (possible when every window offset
/// falls outside the sequence) produce zero output rows.
///
/// # Errors
///
/// Returns a dimension error if matrices disagree or the pattern length
/// does not match.
pub fn sparse_attention(
    pattern: &HybridPattern,
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
    scale: f32,
) -> Result<Matrix<f32>, KernelError> {
    Qkv::check_shapes(q, k, v)?;
    let n = q.rows();
    if pattern.n() != n {
        return Err(KernelError::PatternLengthMismatch { pattern_n: pattern.n(), rows: n });
    }
    let mut out = Matrix::zeros(n, q.cols());
    for i in 0..n {
        let keys = pattern.row_keys(i);
        attend_row(q.row(i), &keys, k.as_slice(), v.as_slice(), scale, out.row_mut(i));
    }
    Ok(out)
}

/// How far the fixed-point datapath's output may stray from
/// [`on_grid_attention`]: the error of the datapath itself (exponential
/// and reciprocal LUT steps, Q.19 merges, 16-bit output rows), with the
/// input format's error taken out. Measured: the largest of the 63
/// comparisons in the root `scheduler_sim` and `end_to_end` suites
/// (d = 4 to 16, presets and 48 random patterns) is 0.0239, so 0.05 is a
/// margin of 2.1×. The `f32`-reference bounds beside them are 0.3 to 0.4.
pub const ON_GRID_BOUND: f32 = 0.05;

/// [`sparse_attention`] on the inputs as the datapath holds them: `q`
/// quantized with `scale` folded in, `k` and `v` quantized (the load's
/// rounding, [`quantize_iter`]), all three dequantized, and scale 1.
/// Against the datapath it measures the datapath's own error
/// ([`ON_GRID_BOUND`]); against [`sparse_attention`] on the `f32` inputs,
/// the input format's.
///
/// # Errors
///
/// As [`sparse_attention`].
pub fn on_grid_attention(
    pattern: &HybridPattern,
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
    scale: f32,
) -> Result<Matrix<f32>, KernelError> {
    let on_grid = |m: &Matrix<f32>, scale: f32| {
        let values = quantize_iter(m.as_slice(), scale).map(Fix8x4::to_f32).collect();
        Matrix::from_vec(m.rows(), m.cols(), values)
    };
    sparse_attention(pattern, &on_grid(q, scale)?, &on_grid(k, 1.0)?, &on_grid(v, 1.0)?, 1.0)
}

/// One query row of exact sparse attention, added into `out`: softmax over
/// `keys` of `q . k[j] * scale` in f64, then `out += p * v[j]` per key, in
/// key order. `k` and `v` are row-major with `out.len()` columns; the
/// reference engine's prefill and decode step both run this row.
pub(crate) fn attend_row(
    q: &[f32],
    keys: &[usize],
    k: &[f32],
    v: &[f32],
    scale: f32,
    out: &mut [f32],
) {
    let d = out.len();
    let scores: Vec<f64> = keys
        .iter()
        .map(|&j| {
            let kj = &k[j * d..(j + 1) * d];
            let dot: f64 = q.iter().zip(kj).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
            dot * f64::from(scale)
        })
        .collect();
    let probs = softmax_f64(&scores);
    for (&j, &p) in keys.iter().zip(&probs) {
        for (o, &ve) in out.iter_mut().zip(&v[j * d..(j + 1) * d]) {
            *o += (p * f64::from(ve)) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_kernels::gaussian_matrix;
    use salo_patterns::{longformer, sliding_only, HybridPattern, Window};

    #[test]
    fn pattern_length_checked() {
        let p = sliding_only(8, 3).unwrap();
        let m = Matrix::zeros(9, 2);
        assert!(matches!(
            sparse_attention(&p, &m, &m, &m, 1.0),
            Err(KernelError::PatternLengthMismatch { pattern_n: 8, rows: 9 })
        ));
    }

    #[test]
    fn masked_keys_do_not_influence_output() {
        let n = 10;
        let p = sliding_only(n, 3).unwrap();
        let q = gaussian_matrix(4, n, 4, 0.0, 1.0);
        let k = gaussian_matrix(5, n, 4, 0.0, 1.0);
        let mut v1 = gaussian_matrix(6, n, 4, 0.0, 1.0);
        let out1 = sparse_attention(&p, &q, &k, &v1, 0.5).unwrap();
        // Perturb a value row far outside every window of row 5.
        for j in 0..4 {
            v1.set(0, j, 1000.0);
        }
        let out2 = sparse_attention(&p, &q, &k, &v1, 0.5).unwrap();
        // Row 5 attends keys {4,5,6} only: unchanged.
        for j in 0..4 {
            assert_eq!(out1.get(5, j), out2.get(5, j));
        }
        // Row 0 attends key 0: changed.
        assert!(out1.max_abs_diff(&out2) > 100.0);
    }

    #[test]
    fn global_token_sees_everything() {
        let n = 8;
        let p = longformer(n, 3, 1).unwrap();
        let q = Matrix::zeros(n, 2); // uniform attention
        let k = gaussian_matrix(7, n, 2, 0.0, 1.0);
        let v = Matrix::from_fn(n, 2, |i, _| i as f32);
        let out = sparse_attention(&p, &q, &k, &v, 1.0).unwrap();
        // Global row 0 averages all value rows: (0+..+7)/8 = 3.5.
        assert!((out.get(0, 0) - 3.5).abs() < 1e-5);
        // Row 4 averages rows {0 (global col), 3, 4, 5}: (0+3+4+5)/4 = 3.
        assert!((out.get(4, 0) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn empty_rows_produce_zeros() {
        // Window entirely out of range for every row except none.
        let p = HybridPattern::builder(4)
            .window(Window::sliding(10, 12).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let q = gaussian_matrix(8, 4, 2, 0.0, 1.0);
        let k = gaussian_matrix(9, 4, 2, 0.0, 1.0);
        let v = gaussian_matrix(10, 4, 2, 0.0, 1.0);
        let out = sparse_attention(&p, &q, &k, &v, 1.0).unwrap();
        // Rows 1..3 attend only the global column 0 -> exactly v[0].
        for i in 1..4 {
            for j in 0..2 {
                assert!((out.get(i, j) - v.get(0, j)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn sparse_equals_dense_with_large_negative_mask() {
        // Cross-check the gather implementation against dense attention
        // where masked scores are forced to -inf.
        let n = 9;
        let p = longformer(n, 3, 1).unwrap();
        let q = gaussian_matrix(11, n, 3, 0.0, 1.0);
        let k = gaussian_matrix(12, n, 3, 0.0, 1.0);
        let v = gaussian_matrix(13, n, 3, 0.0, 1.0);
        let sparse = sparse_attention(&p, &q, &k, &v, 0.7).unwrap();

        // Manual masked-dense computation.
        let mut expected = Matrix::zeros(n, 3);
        for i in 0..n {
            let scores: Vec<f64> = (0..n)
                .map(|j| {
                    if p.allows(i, j) {
                        q.row(i)
                            .iter()
                            .zip(k.row(j))
                            .map(|(&a, &b)| a as f64 * b as f64)
                            .sum::<f64>()
                            * 0.7
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect();
            let probs = salo_fixed::softmax_f64(&scores);
            for (j, &pj) in probs.iter().enumerate() {
                if pj > 0.0 {
                    for c in 0..3 {
                        let cur = expected.get(i, c);
                        expected.set(i, c, cur + (pj * v.get(j, c) as f64) as f32);
                    }
                }
            }
        }
        assert!(sparse.max_abs_diff(&expected) < 1e-5);
    }
}
