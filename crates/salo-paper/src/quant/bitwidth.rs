//! Fraction-bit sweep: why SALO picked Q.4.
//!
//! An 8-bit fixed-point format splits its bits between range and
//! resolution: `f` fraction bits give a step of `2^-f` but a range of
//! `±2^(7-f)`. Too few fraction bits and quantization noise dominates;
//! too many and normalized attention inputs (±3-4 sigma) clip. This sweep
//! quantizes Q/K/V at each split, runs *exact* attention on the
//! dequantized values, and measures output fidelity against the
//! unquantized reference — isolating the input-format choice from the
//! rest of the datapath. The resulting curve peaks at 4–5 fraction bits
//! for unit-normal inputs, which is the paper's Q.4 (§6.4).

use salo_kernels::{KernelError, Matrix, Qkv};
use salo_patterns::HybridPattern;

use crate::oracle::sparse_attention;

/// One point of the fraction-bit sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitwidthPoint {
    /// Fraction bits of the 8-bit input format.
    pub frac_bits: u32,
    /// Representable range `±2^(7-f)` (approximately).
    pub range: f64,
    /// Output signal-to-noise ratio vs the unquantized reference (dB).
    pub sqnr_db: f64,
    /// Largest absolute output error.
    pub max_abs: f64,
    /// Fraction of inputs that clipped at the format's range.
    pub clipped: f64,
}

/// Quantizes a matrix to an 8-bit format with `frac_bits` fraction bits,
/// returning the dequantized values and the clip count.
fn quantize_matrix(m: &Matrix<f32>, frac_bits: u32) -> (Matrix<f32>, usize) {
    let scale = 2.0f32.powi(frac_bits as i32);
    let mut clipped = 0usize;
    let out = m.map(|x| {
        let raw = (x * scale).round();
        let clamped = raw.clamp(f32::from(i8::MIN), f32::from(i8::MAX));
        if clamped != raw {
            clipped += 1;
        }
        clamped / scale
    });
    (out, clipped)
}

/// Sweeps fraction bits `bits` over one pattern/head, returning a fidelity
/// point per configuration.
///
/// # Errors
///
/// Propagates kernel errors.
pub fn sweep_fraction_bits(
    pattern: &HybridPattern,
    head_dim: usize,
    seed: u64,
    bits: &[u32],
) -> Result<Vec<BitwidthPoint>, KernelError> {
    let qkv = Qkv::random(pattern.n(), head_dim, seed);
    let scale = 1.0 / (head_dim.max(1) as f32).sqrt();
    let reference = sparse_attention(pattern, &qkv.q, &qkv.k, &qkv.v, scale)?;
    let total_inputs = (3 * pattern.n() * head_dim) as f64;

    let mut points = Vec::with_capacity(bits.len());
    for &f in bits {
        let (q, c1) = quantize_matrix(&qkv.q, f);
        let (k, c2) = quantize_matrix(&qkv.k, f);
        let (v, c3) = quantize_matrix(&qkv.v, f);
        let out = sparse_attention(pattern, &q, &k, &v, scale)?;
        let mse = out.mse(&reference);
        let signal = reference.frobenius().powi(2) / reference.as_slice().len().max(1) as f64;
        points.push(BitwidthPoint {
            frac_bits: f,
            range: f64::from(2.0f32).powi(7 - f as i32),
            sqnr_db: if mse > 0.0 { 10.0 * (signal / mse).log10() } else { f64::INFINITY },
            max_abs: f64::from(out.max_abs_diff(&reference)),
            clipped: (c1 + c2 + c3) as f64 / total_inputs,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::longformer;

    fn sweep() -> Vec<BitwidthPoint> {
        let p = longformer(96, 16, 1).unwrap();
        sweep_fraction_bits(&p, 16, 5, &[1, 2, 3, 4, 5, 6, 7]).unwrap()
    }

    #[test]
    fn fidelity_peaks_in_the_middle() {
        let points = sweep();
        let best = points.iter().max_by(|a, b| a.sqnr_db.total_cmp(&b.sqnr_db)).expect("non-empty");
        // Unit-normal inputs: the sweet spot is 4-6 fraction bits — the
        // paper's Q.4 sits on the plateau.
        assert!((4..=6).contains(&best.frac_bits), "peak at {} fraction bits", best.frac_bits);
        // Both extremes are visibly worse.
        let at = |f: u32| points.iter().find(|p| p.frac_bits == f).unwrap().sqnr_db;
        assert!(best.sqnr_db > at(1) + 3.0, "coarse end");
        assert!(best.sqnr_db > at(7) - 1e-9, "clipped end");
    }

    #[test]
    fn clipping_grows_with_fraction_bits() {
        let points = sweep();
        let clip = |f: u32| points.iter().find(|p| p.frac_bits == f).unwrap().clipped;
        assert_eq!(clip(2), 0.0, "range ±32 never clips normals");
        assert!(clip(7) > 0.05, "range ±1 clips plenty: {}", clip(7));
        assert!(clip(7) > clip(5));
    }

    #[test]
    fn range_column_is_correct() {
        let points = sweep();
        let p4 = points.iter().find(|p| p.frac_bits == 4).unwrap();
        assert!((p4.range - 8.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic() {
        assert_eq!(sweep(), sweep());
    }
}
