//! The vanilla dense attention reference (Fig. 1 of the paper).

use salo_fixed::softmax_f64;
use salo_kernels::{KernelError, Matrix, Qkv};

/// Computes exact dense attention: `softmax(Q K^T * scale) V`.
///
/// `scale` is usually `1/sqrt(d)`; pass `1.0` to disable scaling. All three
/// matrices are `n x d`. The softmax is numerically stabilized.
///
/// # Errors
///
/// Returns a dimension error if the matrices disagree in shape.
pub fn dense_attention(
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
    scale: f32,
) -> Result<Matrix<f32>, KernelError> {
    Qkv::check_shapes(q, k, v)?;
    let (n, d) = q.shape();
    let mut out = Matrix::zeros(n, d);
    let mut scores = vec![0.0f64; n];
    for i in 0..n {
        let qi = q.row(i);
        for (j, score) in scores.iter_mut().enumerate() {
            let kj = k.row(j);
            let dot: f64 = qi.iter().zip(kj).map(|(&a, &b)| a as f64 * b as f64).sum();
            *score = dot * scale as f64;
        }
        let probs = softmax_f64(&scores);
        let out_row = out.row_mut(i);
        for (j, &p) in probs.iter().enumerate() {
            let vj = v.row(j);
            for (o, &ve) in out_row.iter_mut().zip(vj) {
                *o += (p * ve as f64) as f32;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::sparse_attention;
    use salo_kernels::gaussian_matrix;
    use salo_patterns::sliding_only;

    #[test]
    fn shape_validation() {
        let a = Matrix::zeros(4, 2);
        let b = Matrix::zeros(4, 3);
        assert!(dense_attention(&a, &b, &a, 1.0).is_err());
        assert!(dense_attention(&a, &a, &b, 1.0).is_err());
    }

    #[test]
    fn uniform_scores_average_values() {
        // Q = 0 -> all scores zero -> output row = mean of V rows.
        let q = Matrix::zeros(3, 2);
        let k = gaussian_matrix(1, 3, 2, 0.0, 1.0);
        let v = Matrix::from_fn(3, 2, |i, _| i as f32);
        let out = dense_attention(&q, &k, &v, 1.0).unwrap();
        for j in 0..2 {
            assert!((out.get(0, j) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn one_hot_attention_selects_value_row() {
        // A huge score on one key makes softmax a delta.
        let mut q = Matrix::zeros(2, 2);
        q.set(0, 0, 50.0);
        let mut k = Matrix::zeros(2, 2);
        k.set(1, 0, 50.0); // only key 1 matches query 0's direction
        let v = Matrix::from_fn(2, 2, |i, j| (10 * i + j) as f32);
        let out = dense_attention(&q, &k, &v, 1.0).unwrap();
        assert!((out.get(0, 0) - 10.0).abs() < 1e-4);
        assert!((out.get(0, 1) - 11.0).abs() < 1e-4);
    }

    #[test]
    fn output_rows_are_convex_combinations() {
        let q = gaussian_matrix(2, 8, 4, 0.0, 1.0);
        let k = gaussian_matrix(3, 8, 4, 0.0, 1.0);
        let v = gaussian_matrix(4, 8, 4, 0.0, 1.0);
        let out = dense_attention(&q, &k, &v, 0.5).unwrap();
        // Each output element lies within [min, max] of the value column.
        for j in 0..4 {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for i in 0..8 {
                lo = lo.min(v.get(i, j));
                hi = hi.max(v.get(i, j));
            }
            for i in 0..8 {
                let o = out.get(i, j);
                assert!(o >= lo - 1e-4 && o <= hi + 1e-4, "({i},{j}): {o} not in [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn full_window_matches_dense() {
        let n = 12;
        let p = sliding_only(n, 2 * n + 1).unwrap(); // covers everything
        let q = gaussian_matrix(1, n, 4, 0.0, 1.0);
        let k = gaussian_matrix(2, n, 4, 0.0, 1.0);
        let v = gaussian_matrix(3, n, 4, 0.0, 1.0);
        let sparse = sparse_attention(&p, &q, &k, &v, 0.5).unwrap();
        let dense = dense_attention(&q, &k, &v, 0.5).unwrap();
        assert!(sparse.max_abs_diff(&dense) < 1e-5);
    }

    #[test]
    fn scale_changes_sharpness() {
        let q = gaussian_matrix(5, 6, 4, 0.0, 1.0);
        let k = gaussian_matrix(6, 6, 4, 0.0, 1.0);
        let v = gaussian_matrix(7, 6, 4, 0.0, 1.0);
        let soft = dense_attention(&q, &k, &v, 0.01).unwrap();
        let sharp = dense_attention(&q, &k, &v, 10.0).unwrap();
        // Sharper attention is farther from the uniform average.
        let uniform = dense_attention(&Matrix::zeros(6, 4), &k, &v, 1.0).unwrap();
        assert!(sharp.max_abs_diff(&uniform) > soft.max_abs_diff(&uniform));
    }
}
