//! Raw attention-output error between `f32` and fixed-point kernels.

use salo_kernels::{KernelError, Qkv};

use crate::{fixed_sparse_attention, oracle::sparse_attention, FixedAttention};
use salo_patterns::HybridPattern;

/// Error metrics of the fixed-point attention against the `f32` reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionErrorReport {
    /// Mean squared output error.
    pub mse: f64,
    /// Largest absolute output error.
    pub max_abs: f64,
    /// Signal-to-quantization-noise ratio (dB).
    pub sqnr_db: f64,
    /// Fraction of rows whose arg-max output coordinate is unchanged.
    pub argmax_agreement: f64,
    /// Number of fixed-point saturation events (should be zero on
    /// normalized inputs).
    pub saturation_events: u64,
}

/// Runs both kernels on standard-normal inputs and compares outputs.
///
/// # Errors
///
/// Propagates kernel errors (dimension mismatches).
pub fn attention_error(
    pattern: &HybridPattern,
    head_dim: usize,
    seed: u64,
) -> Result<AttentionErrorReport, KernelError> {
    let qkv = Qkv::random(pattern.n(), head_dim, seed);
    let datapath = FixedAttention::new(head_dim);
    let exact = sparse_attention(pattern, &qkv.q, &qkv.k, &qkv.v, datapath.scale)?;
    let fixed = fixed_sparse_attention(pattern, &qkv.q, &qkv.k, &qkv.v, &datapath)?;
    let approx = fixed.to_f32();

    let n = pattern.n();
    let mut sq_err = 0.0f64;
    let mut sq_sig = 0.0f64;
    let mut max_abs = 0.0f64;
    let mut agree = 0usize;
    for i in 0..n {
        let (er, ar) = (exact.row(i), approx.row(i));
        let mut best_e = 0usize;
        let mut best_a = 0usize;
        for c in 0..head_dim {
            let d = (ar[c] - er[c]) as f64;
            sq_err += d * d;
            sq_sig += (er[c] as f64) * (er[c] as f64);
            max_abs = max_abs.max(d.abs());
            if er[c] > er[best_e] {
                best_e = c;
            }
            if ar[c] > ar[best_a] {
                best_a = c;
            }
        }
        if best_e == best_a {
            agree += 1;
        }
    }
    let count = (n * head_dim) as f64;
    Ok(AttentionErrorReport {
        mse: sq_err / count,
        max_abs,
        sqnr_db: if sq_err > 0.0 { 10.0 * (sq_sig / sq_err).log10() } else { f64::INFINITY },
        argmax_agreement: agree as f64 / n as f64,
        saturation_events: fixed.saturation.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::{grid_2d, longformer};

    #[test]
    fn error_is_small_on_normalized_inputs() {
        let p = longformer(64, 16, 1).unwrap();
        let r = attention_error(&p, 16, 3).unwrap();
        assert!(r.sqnr_db > 15.0, "sqnr {}", r.sqnr_db);
        assert!(r.max_abs < 0.3, "max {}", r.max_abs);
        assert!(r.argmax_agreement > 0.9, "argmax {}", r.argmax_agreement);
        assert_eq!(r.saturation_events, 0);
    }

    #[test]
    fn works_on_2d_patterns() {
        let p = grid_2d(8, 8, 3, 3, 1).unwrap();
        let r = attention_error(&p, 8, 9).unwrap();
        assert!(r.mse < 0.01, "mse {}", r.mse);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = longformer(32, 8, 1).unwrap();
        let a = attention_error(&p, 8, 5).unwrap();
        let b = attention_error(&p, 8, 5).unwrap();
        assert_eq!(a, b);
        let c = attention_error(&p, 8, 6).unwrap();
        assert_ne!(a.mse, c.mse);
    }
}
