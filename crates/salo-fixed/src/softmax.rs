//! Fixed-point softmax: the per-row computation of pipeline stages 2–4.
//!
//! Given a row of Q.8 scores, a PE row (a) evaluates the piecewise-linear
//! exponential of each score, (b) accumulates the exponentials left to
//! right, (c) inverts the sum once with the reciprocal unit, and
//! (d) multiplies each exponential by the broadcast inverse to obtain Q.15
//! probabilities. This module packages that sequence so the simulator, the
//! golden reference kernel and the quantization study share one
//! bit-deterministic implementation.

use crate::exp::EXP_FRAC;
use crate::{ExpLut, FixedError, Recip, RecipUnit};

/// Fraction bits of the probability format (Q.15).
pub const PROB_FRAC: u32 = 15;

/// Raw representation of probability 1.0.
pub const PROB_ONE: u16 = 1 << PROB_FRAC;

/// Computes a fixed-point softmax over Q.8 scores, returning Q.15
/// probabilities, exactly as the PE row datapath does.
///
/// # Errors
///
/// Returns [`FixedError::EmptySoftmaxRow`] for an empty row, or
/// [`FixedError::NonPositiveReciprocal`] if every exponential underflows to
/// zero (scores far below the LUT domain).
pub fn fixed_softmax(
    scores_q8: &[i32],
    exp: &ExpLut,
    recip: &RecipUnit,
) -> Result<Vec<u16>, FixedError> {
    let (probs, _, _) = fixed_softmax_parts(scores_q8, exp, recip)?;
    Ok(probs)
}

/// Like [`fixed_softmax`] but also returns the row weight `W = Σ exp(S_ij)`
/// (Q.16) and the reciprocal used — the quantities the weighted-sum module
/// needs for renormalization across window splits (Eq. 2 of the paper).
///
/// # Errors
///
/// Same as [`fixed_softmax`].
pub fn fixed_softmax_parts(
    scores_q8: &[i32],
    exp: &ExpLut,
    recip: &RecipUnit,
) -> Result<(Vec<u16>, i64, Recip), FixedError> {
    let mut exps = Vec::with_capacity(scores_q8.len());
    let mut probs = Vec::with_capacity(scores_q8.len());
    let (sum, inv) = fixed_softmax_parts_into(scores_q8, exp, recip, &mut exps, &mut probs)?;
    Ok((probs, sum, inv))
}

/// The buffered form of [`fixed_softmax_parts`]: one PE row's stages 2–4
/// as one primitive, writing the probabilities into a caller-owned buffer
/// (resized to the row) instead of allocating. This is the execution hot
/// path's entry point — zero heap traffic once the buffers have grown to
/// the row length.
///
/// `exps` is working memory: the row's exponentials as the LUT's table
/// holds them (Q.16 in 32 bits, padded with zeros to whole vectors of
/// sixteen), or untouched when the LUT has no table and the row takes the
/// per-element definition.
///
/// # Errors
///
/// Same as [`fixed_softmax`].
pub fn fixed_softmax_parts_into(
    scores_q8: &[i32],
    exp: &ExpLut,
    recip: &RecipUnit,
    exps: &mut Vec<u32>,
    probs: &mut Vec<u16>,
) -> Result<(i64, Recip), FixedError> {
    if scores_q8.is_empty() {
        return Err(FixedError::EmptySoftmaxRow);
    }
    // Every element is written below: only growth is worth a fill.
    probs.resize(scores_q8.len(), 0);
    // Stage 2 + 3: exponentials (Q.16) over the whole row in one table
    // sweep (bit-identical to per-element `eval_q8` accumulated left to
    // right), then one reciprocal. Stage 4: the broadcast multiply; no
    // exponential exceeds the row sum.
    if let Some(sum) = exp.tabulated_row_into(scores_q8, exps) {
        let inv = recip.recip(sum, EXP_FRAC)?;
        inv.scale_to_probs_into(exps, sum, EXP_FRAC, probs);
        return Ok((sum, inv));
    }
    // No table (a domain too wide for one, or values past 32 bits): the
    // definition, element by element.
    let mut sum = 0i64;
    for &s in scores_q8 {
        sum += exp.eval_q8(s);
    }
    let inv = recip.recip(sum, EXP_FRAC)?;
    for (p, &s) in probs.iter_mut().zip(scores_q8) {
        *p = inv.scale_to_prob(exp.eval_q8(s), EXP_FRAC);
    }
    Ok((sum, inv))
}

/// Exact `f64` softmax (numerically stabilized), the reference the fixed
/// datapath is compared against.
#[must_use]
pub fn softmax_f64(scores: &[f64]) -> Vec<f64> {
    if scores.is_empty() {
        return Vec::new();
    }
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// Evaluates the fixed-point softmax on `f64` scores (quantizing them to
/// Q.8 first) and returns `f64` probabilities — convenience for error
/// studies.
///
/// # Errors
///
/// Same as [`fixed_softmax`].
pub fn fixed_softmax_f64(
    scores: &[f64],
    exp: &ExpLut,
    recip: &RecipUnit,
) -> Result<Vec<f64>, FixedError> {
    let q8: Vec<i32> = scores.iter().map(|&s| (s * 256.0).round() as i32).collect();
    let probs = fixed_softmax(&q8, exp, recip)?;
    Ok(probs.iter().map(|&p| p as f64 / PROB_ONE as f64).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units() -> (ExpLut, RecipUnit) {
        (ExpLut::new(32), RecipUnit::new(64))
    }

    #[test]
    fn empty_row_is_an_error() {
        let (e, r) = units();
        assert!(matches!(fixed_softmax(&[], &e, &r), Err(FixedError::EmptySoftmaxRow)));
    }

    #[test]
    fn uniform_scores_give_uniform_probs() {
        let (e, r) = units();
        let probs = fixed_softmax(&[256; 8], &e, &r).unwrap();
        for &p in &probs {
            assert!((p as f64 / PROB_ONE as f64 - 0.125).abs() < 2e-3, "p {p}");
        }
    }

    #[test]
    fn matches_f64_softmax_within_tolerance() {
        let (e, r) = units();
        let scores = vec![0.5, -1.25, 2.0, 0.0, 1.5, -3.0];
        let approx = fixed_softmax_f64(&scores, &e, &r).unwrap();
        let exact = softmax_f64(&scores);
        for (a, b) in approx.iter().zip(&exact) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn probabilities_sum_close_to_one() {
        let (e, r) = units();
        let scores: Vec<i32> = (-20..20).map(|k| k * 32).collect();
        let probs = fixed_softmax(&scores, &e, &r).unwrap();
        let total: f64 = probs.iter().map(|&p| p as f64 / PROB_ONE as f64).sum();
        assert!((total - 1.0).abs() < 0.01, "sum {total}");
    }

    #[test]
    fn parts_expose_row_weight() {
        let (e, r) = units();
        let scores = vec![0, 0, 0, 0];
        let (_, w, inv) = fixed_softmax_parts(&scores, &e, &r).unwrap();
        // Four exp(0) ~ 4.0 in Q.16.
        assert!((w as f64 / 65536.0 - 4.0).abs() < 0.1, "W {w}");
        // inv is 1/W in value terms: inv * (w / 2^16) ~ 1... inv already
        // accounts for the fraction bits, so check the product via probs.
        let p = inv.scale_to_prob(w, 16);
        assert!((p as f64 / 32768.0 - 1.0).abs() < 0.01);
    }

    #[test]
    fn deeply_negative_single_score_still_normalizes() {
        let (e, r) = units();
        // exp(-8) in Q.16 is small but nonzero, so a singleton row yields
        // probability one.
        let probs = fixed_softmax(&[-100 * 256], &e, &r).unwrap();
        assert!((probs[0] as f64 / PROB_ONE as f64 - 1.0).abs() < 0.05, "p {:?}", probs);
    }

    #[test]
    fn softmax_f64_is_stable_for_large_scores() {
        let p = softmax_f64(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!(softmax_f64(&[]).is_empty());
    }

    #[test]
    fn argmax_preserved() {
        let (e, r) = units();
        let scores = vec![-2.0, 0.3, 3.1, 1.0];
        let approx = fixed_softmax_f64(&scores, &e, &r).unwrap();
        let exact = softmax_f64(&scores);
        let am = |v: &[f64]| v.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i);
        assert_eq!(am(&approx), am(&exact));
    }
}
