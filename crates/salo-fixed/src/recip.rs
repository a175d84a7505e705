//! Normalized reciprocal unit (pipeline stage 3).
//!
//! SALO avoids per-PE dividers: the softmax denominator is inverted *once*
//! per row at the right edge of the PE array and the inverse is broadcast
//! back (§5.1, stage 3: "the circuits of divider is complex, causing
//! significant cycle time and area costs"). The PE diagram shows the
//! implementation: normalize the operand to `m ∈ [1, 2)` with a shifter,
//! look up `1/m` in a small table ("LUT Frac" + "Shift" + "Inv"), and refine
//! with one Newton–Raphson step so a small table suffices.
//!
//! The broadcast multiply that follows (stage 4) is
//! [`Recip::scale_to_prob`] per element by definition. A softmax row runs
//! it as one sweep over the row's `u32` exponentials
//! (`Recip::scale_to_probs_into`): the mantissa is below `2^16`, so `u32 ×
//! mant` is a 32 × 32 → 64-bit product that cannot overflow, and the sweep
//! is multiply, shift, `min 32768`, narrow to `u16` — sixteen
//! probabilities a vector in builds that target AVX-512 (the `lanes`
//! module), a plain loop of the same shape everywhere else. One test per
//! row still sends rows that need it (a non-negative shift, a sum of `2^47`
//! or more) through the wide per-element form.

use crate::exp::ROW_LANES;
use crate::FixedError;

/// A normalized reciprocal: `1/x = mant / 2^15 * 2^exp2` with
/// `mant ∈ [2^14, 2^15]` (i.e. `1/m ∈ [0.5, 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recip {
    /// Mantissa of the reciprocal in Q.15 (`16384..=32768`).
    pub mant: u32,
    /// Binary exponent: `1/x = mant * 2^(exp2 - 15)`.
    pub exp2: i32,
}

impl Recip {
    /// The reciprocal as `f64` (for tests and error studies).
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.mant as f64 * ((self.exp2 - 15) as f64).exp2()
    }

    /// Multiplies a non-negative fixed-point value (`frac` fraction bits)
    /// by this reciprocal, returning a Q.15 probability clamped to
    /// `[0, 32768]`.
    ///
    /// This is the stage-4 operation: `S'_ij = exp(S_ij) * (Σ exp)^-1`,
    /// where both operands live in the Q.16 exponential domain.
    #[inline]
    #[must_use]
    pub fn scale_to_prob(self, raw: i64, frac: u32) -> u16 {
        debug_assert!(raw >= 0, "exponentials are non-negative");
        // value * 2^-frac * mant * 2^(exp2-15) * 2^15 = value * mant * 2^(exp2-frac)
        let shift = self.exp2 - frac as i32;
        if shift < 0 && raw < (1 << 47) {
            // mant < 2^16 and raw < 2^47: the product is i64-exact, and a
            // right shift of 63+ of a non-negative value is 0 either way —
            // bit-identical to the wide path below, without the i128 ops.
            let prob = (raw * self.mant as i64) >> (-shift).min(63);
            return prob.clamp(0, 32768) as u16;
        }
        let wide = raw as i128 * self.mant as i128;
        let prob = if shift >= 0 {
            wide.checked_shl(shift as u32).unwrap_or(i128::MAX)
        } else {
            wide >> (-shift) as u32
        };
        prob.clamp(0, 32768) as u16
    }

    /// [`scale_to_prob`](Self::scale_to_prob) over a whole row of `u32`
    /// exponentials, written to `probs`: the stage-4 broadcast multiply.
    /// `exps` is the row as `ExpLut::tabulated_row_into` leaves it — one
    /// exponential per probability, then zeros up to a whole vector.
    ///
    /// `bound` must be at least every element of `exps` (a softmax row
    /// passes its sum: exponentials are non-negative, so none exceeds
    /// it). That turns the per-element choice between the narrow and the
    /// wide product into one test for the row, and the common case into a
    /// branch-free multiply-shift-clamp sweep.
    ///
    /// # Panics
    ///
    /// Panics if `exps` is not `probs.len()` padded to a whole vector.
    pub(crate) fn scale_to_probs_into(
        self,
        exps: &[u32],
        bound: i64,
        frac: u32,
        probs: &mut [u16],
    ) {
        assert_eq!(exps.len(), probs.len().next_multiple_of(ROW_LANES), "a padded row");
        debug_assert!(exps.iter().all(|&e| i64::from(e) <= bound), "bound below the row");
        let shift = self.exp2 - frac as i32;
        if shift < 0 && bound < (1 << 47) {
            // `(e * mant) >> down` clamped to 32768, as `scale_to_prob`
            // computes it: the product is below 2^48 and non-negative.
            scale_row(exps, self.mant, (-shift).min(63) as u32, probs);
        } else {
            for (p, &e) in probs.iter_mut().zip(exps) {
                *p = self.scale_to_prob(i64::from(e), frac);
            }
        }
    }
}

/// The reciprocal lookup-table unit.
///
/// `entries` controls the table size (64 in the default configuration);
/// one Newton–Raphson iteration (`y <- y * (2 - m*y)`) doubles the accuracy
/// of the raw table, exactly as a hardware implementation would.
#[derive(Debug, Clone)]
pub struct RecipUnit {
    entries: usize,
    /// Q.15 approximations of `1/m` for `m` at each table point in `[1, 2)`.
    table: Vec<u32>,
    newton_steps: u32,
}

impl RecipUnit {
    /// Builds a reciprocal unit with `entries` table entries and one Newton
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`; use [`RecipUnit::with_entries`] to handle
    /// the error.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        Self::with_entries(entries, 1).expect("entries must be non-zero")
    }

    /// Fallible constructor with a configurable Newton-step count.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::EmptyLut`] if `entries == 0`.
    pub fn with_entries(entries: usize, newton_steps: u32) -> Result<Self, FixedError> {
        if entries == 0 {
            return Err(FixedError::EmptyLut);
        }
        let table = (0..entries)
            .map(|i| {
                // Table point at the segment midpoint for balanced error.
                let m = 1.0 + (i as f64 + 0.5) / entries as f64;
                ((1.0 / m) * 32768.0).round() as u32
            })
            .collect();
        Ok(Self { entries, table, newton_steps })
    }

    /// Number of table entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Table storage in bits (16-bit entries), for area modelling.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.entries * 16
    }

    /// Computes the reciprocal of a positive value given as raw fixed point
    /// with `frac` fraction bits.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::NonPositiveReciprocal`] for `raw <= 0`.
    pub fn recip(&self, raw: i64, frac: u32) -> Result<Recip, FixedError> {
        if raw <= 0 {
            return Err(FixedError::NonPositiveReciprocal { raw });
        }
        // Normalize: raw = m * 2^e with m in [1, 2) as Q.15.
        // bits = floor(log2 raw); mantissa in Q.15 is raw * 2^(15 - bits).
        let bits = 63 - raw.leading_zeros() as i32;
        let m_q15 =
            if bits >= 15 { (raw >> (bits - 15)) as u64 } else { (raw << (15 - bits)) as u64 };
        debug_assert!((32768..65536).contains(&m_q15), "m {m_q15}");
        // Table lookup on the fractional part of m.
        let frac_part = m_q15 - 32768; // in [0, 32768)
        let idx = (frac_part as usize * self.entries) >> 15;
        // Q.15 approximation of 1/m from the table.
        let mut y = self.table[idx.min(self.entries - 1)] as u64;
        // Newton iterations: y <- y * (2 - m*y), all Q.15.
        for _ in 0..self.newton_steps {
            let my = (m_q15 * y) >> 15; // Q.15
            let two_minus = (2u64 << 15).saturating_sub(my);
            y = (y * two_minus) >> 15;
        }
        // 1/raw = (1/m) * 2^-e, with raw in units of 2^-frac:
        // 1/x = 1/(raw * 2^-frac) = (1/m) * 2^(frac - e)
        Ok(Recip { mant: y.clamp(1, 65535) as u32, exp2: frac as i32 - bits })
    }

    /// Maximum relative error of `recip` sampled over several decades.
    #[must_use]
    pub fn max_relative_error(&self) -> f64 {
        let mut worst = 0.0f64;
        for raw in (1..4096u64).chain((1..64).map(|k| k * 65536)) {
            let r = self.recip(raw as i64, 8).expect("positive");
            let approx = r.mant as f64 * ((r.exp2 - 15) as f64).exp2();
            let exact = 256.0 / raw as f64;
            let rel = (approx - exact).abs() / exact;
            if rel > worst {
                worst = rel;
            }
        }
        worst
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use lanes::scale_row;

/// `probs[i] = min((exps[i] * mant) >> down, 32768)`: the portable body of
/// the stage-4 sweep; `down` is at most 63 and `exps` is at least as long
/// as `probs`. A plain loop over the pre-sized row, not `extend(map(..))` —
/// the adaptor's `fold` stayed out of line in the served binary.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline]
fn scale_row(exps: &[u32], mant: u32, down: u32, probs: &mut [u16]) {
    for (p, &e) in probs.iter_mut().zip(exps) {
        *p = ((u64::from(e) * u64::from(mant)) >> down).min(32768) as u16;
    }
}

/// The stage-4 sweep in explicit 512-bit lanes: sixteen exponentials times
/// the broadcast mantissa as two vectors of 32 × 32 → 64-bit products,
/// shifted, clamped and narrowed to sixteen `u16` probabilities.
///
/// Compiled only when the build itself targets AVX-512, as `mac.rs`'s lanes
/// are; every other build has the plain loop above and nothing else. What
/// the `unsafe` buys is recorded in EXPERIMENTS.md ("The kernel's other
/// half").
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod lanes {
    use crate::exp::ROW_LANES;
    use std::arch::x86_64::*;

    /// `probs[i] = min((exps[i] * mant) >> down, 32768)`; `down` is at most
    /// 63 and `exps` is `probs.len()` elements padded to whole vectors.
    #[inline]
    pub(super) fn scale_row(exps: &[u32], mant: u32, down: u32, probs: &mut [u16]) {
        assert_eq!(exps.len(), probs.len().next_multiple_of(ROW_LANES));
        // SAFETY: this module exists only in builds whose target features
        // include the one the callee enables (the `cfg` on the module).
        unsafe { scale_row_avx512(exps, mant, down, probs) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn scale_row_avx512(exps: &[u32], mant: u32, down: u32, probs: &mut [u16]) {
        let mant = _mm512_set1_epi64(i64::from(mant));
        let down = _mm_cvtsi32_si128(down as i32);
        let one = _mm512_set1_epi64(32768);
        // One vector of exponentials in, a probability out per element of
        // `probs` (at most sixteen).
        let vector = |exps: &[u32; ROW_LANES], probs: &mut [u16]| {
            let keys = ((1u32 << probs.len().min(ROW_LANES)) - 1) as __mmask16;
            // SAFETY: sixteen readable elements.
            let e = unsafe { _mm512_loadu_si512(exps.as_ptr().cast()) };
            // The even 32-bit lanes are the low halves `mul_epu32` reads;
            // the odd ones are shifted down into place.
            let even = _mm512_mul_epu32(e, mant);
            let odd = _mm512_mul_epu32(_mm512_srli_epi64::<32>(e), mant);
            let even = _mm512_min_epu64(_mm512_srl_epi64(even, down), one);
            let odd = _mm512_min_epu64(_mm512_srl_epi64(odd, down), one);
            let p = _mm512_or_si512(even, _mm512_slli_epi64::<32>(odd));
            // SAFETY: `keys` has a lane per element of `probs` and no
            // more; masked-off lanes are not written.
            unsafe { _mm512_mask_cvtepi32_storeu_epi16(probs.as_mut_ptr().cast(), keys, p) };
        };
        // Whole vectors (their mask folds to a constant), then the ragged
        // tail.
        let mut exps = exps.chunks_exact(ROW_LANES);
        let mut whole = probs.chunks_exact_mut(ROW_LANES);
        for (probs, exps) in whole.by_ref().zip(exps.by_ref()) {
            vector(exps.try_into().expect("a whole vector"), probs);
        }
        if let Some(exps) = exps.next() {
            vector(exps.try_into().expect("a whole vector"), whole.into_remainder());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_inputs() {
        let u = RecipUnit::new(64);
        assert!(matches!(u.recip(0, 8), Err(FixedError::NonPositiveReciprocal { raw: 0 })));
        assert!(matches!(u.recip(-5, 8), Err(FixedError::NonPositiveReciprocal { .. })));
        assert!(RecipUnit::with_entries(0, 1).is_err());
    }

    #[test]
    fn reciprocal_of_one() {
        let u = RecipUnit::new(64);
        // 1.0 in Q.8 is raw 256.
        let r = u.recip(256, 8).unwrap();
        let value = r.mant as f64 * ((r.exp2 - 15) as f64).exp2();
        assert!((value - 1.0).abs() < 1e-3, "1/1 = {value}");
    }

    #[test]
    fn newton_step_tightens_error() {
        let raw = RecipUnit::with_entries(16, 0).unwrap().max_relative_error();
        let refined = RecipUnit::with_entries(16, 1).unwrap().max_relative_error();
        assert!(refined < raw / 4.0, "newton {refined} vs raw {raw}");
    }

    #[test]
    fn error_under_permille_with_defaults() {
        let err = RecipUnit::new(64).max_relative_error();
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    fn scale_to_prob_basics() {
        let u = RecipUnit::new(64);
        // sum = 4.0 (raw 1024 in Q.8); element = 1.0 (raw 256) -> prob 0.25.
        let r = u.recip(1024, 8).unwrap();
        let p = r.scale_to_prob(256, 8);
        assert!((p as f64 / 32768.0 - 0.25).abs() < 1e-3, "prob {p}");
        // Clamped at 1.0.
        let p = r.scale_to_prob(1 << 40, 8);
        assert_eq!(p, 32768);
        // Zero exponential -> zero probability.
        assert_eq!(r.scale_to_prob(0, 8), 0);
    }

    #[test]
    fn row_scaling_matches_per_element_scaling() {
        // The hoisted row test must pick, for every row, arithmetic that
        // agrees with the per-element form: sums on both sides of the
        // 2^47 product bound, and non-negative shifts (a sum of one raw
        // unit, or a value scaled at fewer fraction bits than it was
        // inverted at, where the wide path shifts left).
        let u = RecipUnit::new(64);
        // (row sum, fraction bits inverted at, fraction bits scaled at)
        let rows: [(i64, u32, u32); 8] = [
            (1 << 20, 16, 16),
            ((1 << 47) - 1, 16, 16),
            (1 << 47, 16, 16),
            ((1 << 47) + 12_345, 16, 16),
            (1 << 55, 16, 16),
            (1, 16, 16), // shift == 0
            (1, 8, 8),
            (3, 16, 8), // shift > 0
        ];
        let mut non_negative_shifts = 0;
        for (sum, recip_frac, frac) in rows {
            let inv = u.recip(sum, recip_frac).unwrap();
            non_negative_shifts += usize::from(inv.exp2 - frac as i32 >= 0);
            // Elements of the row as far up as 32 bits go, past a whole
            // vector of them so lanes and ragged tail both run.
            let top = sum.min(i64::from(u32::MAX));
            let exps: Vec<u32> = [0, 1, top / 3, top / 2, top - 1, top]
                .into_iter()
                .cycle()
                .take(21)
                .map(|e| u32::try_from(e.max(0)).unwrap())
                .collect();
            let mut probs = vec![7u16; exps.len()];
            let mut padded = exps.clone();
            padded.resize(exps.len().next_multiple_of(ROW_LANES), 0);
            inv.scale_to_probs_into(&padded, sum, frac, &mut probs);
            let scalar: Vec<u16> =
                exps.iter().map(|&e| inv.scale_to_prob(i64::from(e), frac)).collect();
            assert_eq!(probs, scalar, "sum {sum} frac {recip_frac}/{frac}");
        }
        assert_eq!(non_negative_shifts, 3, "the shift >= 0 rows are what they claim");
    }

    #[test]
    fn scale_to_prob_q16_domain() {
        let u = RecipUnit::new(64);
        // Q.16: sum = 2.0 (raw 131072); element = 0.5 (raw 32768) -> 0.25.
        let r = u.recip(131072, 16).unwrap();
        let p = r.scale_to_prob(32768, 16);
        assert!((p as f64 / 32768.0 - 0.25).abs() < 1e-3, "prob {p}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let u = RecipUnit::new(64);
        let exps: Vec<i64> = vec![256, 512, 1024, 128, 64];
        let sum: i64 = exps.iter().sum();
        let r = u.recip(sum, 8).unwrap();
        let total: f64 = exps.iter().map(|&e| r.scale_to_prob(e, 8) as f64 / 32768.0).sum();
        assert!((total - 1.0).abs() < 5e-3, "sum {total}");
    }

    #[test]
    fn wide_dynamic_range() {
        let u = RecipUnit::new(64);
        for &raw in &[1i64, 7, 255, 256, 257, 65535, 1 << 20, (1 << 30) + 12345] {
            let r = u.recip(raw, 8).unwrap();
            let approx = r.mant as f64 * ((r.exp2 - 15) as f64).exp2();
            let exact = 256.0 / raw as f64;
            assert!(((approx - exact) / exact).abs() < 1e-3, "raw {raw}: {approx} vs {exact}");
        }
    }

    #[test]
    fn storage_accounting() {
        assert_eq!(RecipUnit::new(64).storage_bits(), 1024);
        assert_eq!(RecipUnit::new(64).entries(), 64);
    }
}
