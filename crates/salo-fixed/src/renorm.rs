//! The weighted-sum module's renormalization arithmetic (§4.2 / §5.3).
//!
//! Window splitting divides one query's attention row into parts `T_1, T_2,
//! ...`; each part yields a locally-normalized output `output_i^k` and a
//! weight `W_k = Σ_{j∈T_k} exp(S_ij)`. Equation 2 of the paper recovers the
//! unsplit result:
//!
//! ```text
//! output_i = W_1/(W_1+W_2) * output_i^1 + W_2/(W_1+W_2) * output_i^2
//! ```
//!
//! The hardware realizes this with two multipliers and one adder per PE row,
//! plus the shared reciprocal unit for `1/(W_1+W_2)`. This module implements
//! the same arithmetic on Q-format integers so the simulator and tests agree
//! bit for bit. Weights live in the Q.16 exponential domain
//! ([`crate::ExpLut`] outputs), outputs in the Q.19 stage-5 accumulator
//! format.
//!
//! A PE row hands its module each part as the 32-bit row stage 5 writes
//! ([`sv_rows_mac`](crate::sv_rows_mac)), and [`merge_part_into`] blends
//! it into the module's `i64` accumulator as it is: the first part of a row
//! is widened in, and every later one blended. The blend itself —
//! `(o_acc · α + o_part · β) >> 15` per output element — is by definition a
//! 128-bit computation. Every datapath output fits 32 bits, so only the
//! accumulator needs a test (once for the whole row: an OR-fold, no early
//! exit) before the blend runs in signed 32 × 32 → 64-bit products: eight
//! elements a vector in builds that target AVX-512 (the `lanes` module), a
//! plain loop of the same shape everywhere else. An accumulator that fails
//! the test takes the 128-bit form and rounds identically.
//!
//! [`merge_partials_into`] is the same body for a part held as a
//! [`PartialRow`] — the systolic oracle's and the public API's form: its
//! `i64` row is tested as the accumulator is, and blends as the 32-bit row
//! it then is.

use crate::exp::EXP_FRAC;
use crate::{FixedError, RecipUnit};

/// A partially-computed output row: the locally-normalized stage-5 output
/// (Q.19 elements) together with its softmax weight `W` (Q.16).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialRow {
    /// Row weight `W = Σ exp(S_ij)` over this part, Q.16.
    pub weight_q16: i64,
    /// Locally-normalized output elements, Q.19.
    pub out_q19: Vec<i64>,
}

impl PartialRow {
    /// An identity element for merging: zero weight, zero output.
    #[must_use]
    pub fn empty(dim: usize) -> Self {
        Self { weight_q16: 0, out_q19: vec![0; dim] }
    }

    /// Whether this partial carries no mass.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weight_q16 == 0
    }

    /// Output as `f64` values.
    #[must_use]
    pub fn to_f64(&self) -> Vec<f64> {
        self.out_q19.iter().map(|&o| o as f64 / (1u64 << 19) as f64).collect()
    }
}

/// Computes the Q.15 blend weights `W1/(W1+W2)` and `W2/(W1+W2)` from Q.16
/// row weights.
///
/// # Errors
///
/// Returns [`FixedError::NonPositiveReciprocal`] if both weights are zero.
pub fn merge_weights(
    w1_q16: i64,
    w2_q16: i64,
    recip: &RecipUnit,
) -> Result<(u16, u16), FixedError> {
    let inv = recip.recip(w1_q16 + w2_q16, EXP_FRAC)?;
    Ok((inv.scale_to_prob(w1_q16, EXP_FRAC), inv.scale_to_prob(w2_q16, EXP_FRAC)))
}

/// Merges one op's part — its weight `W_part` (Q.16) and the 32-bit row
/// stage 5 writes (Q.19) — into `acc` per Eq. 2, in place: `acc` becomes
/// the partial with weight `W_acc + W_part`. This is the weighted-sum
/// module: one pair of multipliers and an adder per PE row.
///
/// An empty accumulator takes the part, widened — even a zero-weight part,
/// whose row can be nonzero when a coarse exp LUT clamps to 0 — and an
/// empty part is then the identity.
///
/// # Errors
///
/// Returns [`FixedError::PartialLengthMismatch`] if the rows have different
/// dimensions, or [`FixedError::NonPositiveReciprocal`] if a non-empty
/// accumulator's weight and a nonzero part's sum to zero or less (a
/// negative weight: no datapath weight is one).
pub fn merge_part_into(
    acc: &mut PartialRow,
    weight_q16: i64,
    part: &[i32],
    recip: &RecipUnit,
) -> Result<(), FixedError> {
    merge_into(acc, weight_q16, part, recip)
}

/// Merges `part` into `acc` per Eq. 2, in place, by the same body as
/// [`merge_part_into`]: a part row whose elements all fit 32 bits — every
/// part the datapath produces — blends as that 32-bit row would, and any
/// other takes the 128-bit form, which rounds identically. Bit-identical to
/// [`merge_partials`], without its allocation.
///
/// # Errors
///
/// As [`merge_part_into`].
pub fn merge_partials_into(
    acc: &mut PartialRow,
    part: &PartialRow,
    recip: &RecipUnit,
) -> Result<(), FixedError> {
    merge_into(acc, part.weight_q16, &part.out_q19, recip)
}

/// An element of a part row: the `i32` stage 5 writes, or the `i64` of a
/// [`PartialRow`].
trait PartElement: Copy + Into<i64> {
    /// Whether every element of `row` is an `i32` value.
    fn fits_i32(row: &[Self]) -> bool;

    /// The first eight elements of `chunk` in 64-bit lanes, zero in the
    /// lanes it lacks.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    fn lanes(chunk: &[Self]) -> std::arch::x86_64::__m512i;
}

impl PartElement for i32 {
    fn fits_i32(_: &[i32]) -> bool {
        true
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[inline]
    fn lanes(chunk: &[i32]) -> std::arch::x86_64::__m512i {
        lanes::load_i32(chunk)
    }
}

impl PartElement for i64 {
    fn fits_i32(row: &[i64]) -> bool {
        fits_i32(row)
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[inline]
    fn lanes(chunk: &[i64]) -> std::arch::x86_64::__m512i {
        lanes::load(chunk)
    }
}

/// The one body of both merges.
#[inline]
fn merge_into<P: PartElement>(
    acc: &mut PartialRow,
    weight_q16: i64,
    part: &[P],
    recip: &RecipUnit,
) -> Result<(), FixedError> {
    if acc.out_q19.len() != part.len() {
        return Err(FixedError::PartialLengthMismatch {
            expected: acc.out_q19.len(),
            actual: part.len(),
        });
    }
    if acc.is_empty() {
        acc.weight_q16 = weight_q16;
        for (o, &p) in acc.out_q19.iter_mut().zip(part) {
            *o = p.into();
        }
        return Ok(());
    }
    if weight_q16 == 0 {
        return Ok(());
    }
    let (alpha, beta) = merge_weights(acc.weight_q16, weight_q16, recip)?;
    // Every datapath part and accumulator fits 32 bits (a stage-5 row of
    // at most 2^22 magnitude, blended by weights of at most 2^15 that sum
    // to at most one), so after one test for the whole row the blend is a
    // branch-free sweep of 32x32 -> 64-bit multiplies — a quarter of the
    // work of a full 64-bit multiply per lane. The narrow and the wide form
    // compute the same exact integer (products below 2^46, sum below
    // 2^47), so rows that do not fit take the 128-bit form and round
    // identically.
    if fits_i32(&acc.out_q19) && P::fits_i32(part) {
        blend_narrow(&mut acc.out_q19, part, alpha, beta);
    } else {
        let (alpha, beta) = (i128::from(alpha), i128::from(beta));
        for (oa, &ob) in acc.out_q19.iter_mut().zip(part) {
            *oa = ((i128::from(*oa) * alpha + i128::from(ob.into()) * beta) >> 15) as i64;
        }
    }
    acc.weight_q16 += weight_q16;
    Ok(())
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use lanes::{blend_narrow, fits_i32};

/// Whether every element of the row is an `i32` value: the portable body
/// of the row test. An OR-fold rather than `all` — no early exit, so the
/// test is itself a vector sweep; the fold is zero iff every value fits.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline]
fn fits_i32(row: &[i64]) -> bool {
    let mut beyond = 0;
    for &o in row {
        beyond |= (o as u64).wrapping_add(1 << 31) >> 32;
    }
    beyond == 0
}

/// `acc[e] = (acc[e] * alpha + part[e] * beta) >> 15` on rows of `i32`
/// values and one length: the portable body of the blend.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline]
fn blend_narrow<P: PartElement>(acc: &mut [i64], part: &[P], alpha: u16, beta: u16) {
    let (alpha, beta) = (i64::from(alpha), i64::from(beta));
    for (oa, &ob) in acc.iter_mut().zip(part) {
        *oa = (i64::from(*oa as i32) * alpha + ob.into() * beta) >> 15;
    }
}

/// The row test and the narrow blend in explicit 512-bit lanes, eight
/// elements a vector: `vpmuldq` reads the low 32 bits of each 64-bit lane
/// as a signed value, which is the whole element once the row has passed
/// the test — for both operands, a 32-bit part's elements sign-extended
/// into their lanes.
///
/// Compiled only when the build itself targets AVX-512, as `mac.rs`'s lanes
/// are; every other build has the plain loops above and nothing else. What
/// the `unsafe` buys is recorded in EXPERIMENTS.md ("The kernel's other
/// half"): the compiler finds the 32 × 32 form for one operand and
/// sign-extends and `vpmullq`s (three micro-ops) the other.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod lanes {
    use super::PartElement;
    use std::arch::x86_64::*;

    /// Elements per vector.
    const W: usize = 8;

    /// A lane per element of a chunk of at most `W`.
    #[inline]
    fn lanes_of<T>(chunk: &[T]) -> __mmask8 {
        ((1u32 << chunk.len().min(W)) - 1) as __mmask8
    }

    /// The first `W` elements of `chunk`, zero in the lanes it lacks.
    #[inline]
    pub(super) fn load(chunk: &[i64]) -> __m512i {
        // SAFETY: the module's target features include the intrinsic's
        // (the `cfg` on the module); the mask has a lane per element of
        // `chunk` and no more, and masked-off lanes are not read.
        unsafe { _mm512_maskz_loadu_epi64(lanes_of(chunk), chunk.as_ptr()) }
    }

    /// The first `W` elements of `chunk`, sign-extended to 64-bit lanes,
    /// zero in the lanes it lacks.
    #[inline]
    pub(super) fn load_i32(chunk: &[i32]) -> __m512i {
        // SAFETY: as in `load`.
        unsafe { _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(lanes_of(chunk), chunk.as_ptr())) }
    }

    /// Whether every element of the row is an `i32` value.
    #[inline]
    pub(super) fn fits_i32(row: &[i64]) -> bool {
        // SAFETY: this module exists only in builds whose target features
        // include the one the callee enables (the `cfg` on the module).
        unsafe { fits_i32_avx512(row) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn fits_i32_avx512(row: &[i64]) -> bool {
        // `(o + 2^31) >> 32` is zero iff `o` is an `i32` value; OR-folded
        // over the row, no early exit. Whole vectors (their mask folds to a
        // constant), then the ragged tail.
        let bias = _mm512_set1_epi64(1 << 31);
        let mut beyond = _mm512_setzero_si512();
        let mut fold = |chunk: &[i64]| {
            let o = _mm512_add_epi64(load(chunk), bias);
            beyond = _mm512_or_si512(beyond, _mm512_srli_epi64::<32>(o));
        };
        let whole = row.chunks_exact(W);
        let ragged = whole.remainder();
        whole.for_each(&mut fold);
        if !ragged.is_empty() {
            fold(ragged);
        }
        _mm512_test_epi64_mask(beyond, beyond) == 0
    }

    /// `acc[e] = (acc[e] * alpha + part[e] * beta) >> 15` on rows of `i32`
    /// values and one length.
    #[inline]
    pub(super) fn blend_narrow<P: PartElement>(acc: &mut [i64], part: &[P], alpha: u16, beta: u16) {
        assert_eq!(acc.len(), part.len());
        // SAFETY: as in `fits_i32`.
        unsafe { blend_narrow_avx512(acc, part, alpha, beta) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn blend_narrow_avx512<P: PartElement>(acc: &mut [i64], part: &[P], alpha: u16, beta: u16) {
        let alpha = _mm512_set1_epi64(i64::from(alpha));
        let beta = _mm512_set1_epi64(i64::from(beta));
        let vector = |acc: &mut [i64], part: &[P]| {
            let sum = _mm512_add_epi64(
                _mm512_mul_epi32(load(acc), alpha),
                _mm512_mul_epi32(P::lanes(part), beta),
            );
            let blend = _mm512_srai_epi64::<15>(sum);
            // SAFETY: the mask has a lane per element of `acc` and no
            // more; masked-off lanes are not written.
            unsafe { _mm512_mask_storeu_epi64(acc.as_mut_ptr(), lanes_of(acc), blend) };
        };
        // Whole vectors (their mask folds to a constant), then the ragged
        // tail.
        let mut whole = acc.chunks_exact_mut(W);
        let part_whole = part.chunks_exact(W);
        let part_ragged = part_whole.remainder();
        for (acc, part) in whole.by_ref().zip(part_whole) {
            vector(acc, part);
        }
        let ragged = whole.into_remainder();
        if !ragged.is_empty() {
            vector(ragged, part_ragged);
        }
    }
}

/// Merges two partial rows per Eq. 2, returning a partial with weight
/// `W1 + W2`. Merging with an empty partial returns the other operand
/// unchanged (the module's initialization behaviour).
///
/// Thin allocating wrapper over [`merge_partials_into`].
///
/// # Errors
///
/// Returns [`FixedError::PartialLengthMismatch`] if the rows have different
/// dimensions.
pub fn merge_partials(
    a: &PartialRow,
    b: &PartialRow,
    recip: &RecipUnit,
) -> Result<PartialRow, FixedError> {
    let mut acc = a.clone();
    merge_partials_into(&mut acc, b, recip)?;
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PROB_ONE;

    fn recip() -> RecipUnit {
        RecipUnit::new(64)
    }

    fn q19(values: &[f64]) -> Vec<i64> {
        values.iter().map(|&v| (v * (1u64 << 19) as f64).round() as i64).collect()
    }

    #[test]
    fn equal_weights_average() {
        let a = PartialRow { weight_q16: 131072, out_q19: q19(&[1.0, 2.0]) };
        let b = PartialRow { weight_q16: 131072, out_q19: q19(&[3.0, 4.0]) };
        let m = merge_partials(&a, &b, &recip()).unwrap();
        let out = m.to_f64();
        assert!((out[0] - 2.0).abs() < 0.01, "{out:?}");
        assert!((out[1] - 3.0).abs() < 0.01);
        assert_eq!(m.weight_q16, 262144);
    }

    #[test]
    fn skewed_weights() {
        // W1 = 3, W2 = 1 -> 0.75/0.25 blend.
        let a = PartialRow { weight_q16: 3 << 16, out_q19: q19(&[4.0]) };
        let b = PartialRow { weight_q16: 1 << 16, out_q19: q19(&[0.0]) };
        let m = merge_partials(&a, &b, &recip()).unwrap();
        assert!((m.to_f64()[0] - 3.0).abs() < 0.02);
    }

    #[test]
    fn empty_is_identity() {
        let a = PartialRow { weight_q16: 100, out_q19: q19(&[1.5, -2.5]) };
        let e = PartialRow::empty(2);
        assert!(e.is_empty());
        assert_eq!(merge_partials(&a, &e, &recip()).unwrap(), a);
        assert_eq!(merge_partials(&e, &a, &recip()).unwrap(), a);
    }

    #[test]
    fn both_empty_short_circuits() {
        let e = PartialRow::empty(3);
        let m = merge_partials(&e, &e, &recip()).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn length_mismatch_detected() {
        let a = PartialRow { weight_q16: 10, out_q19: vec![0; 3] };
        let b = PartialRow { weight_q16: 10, out_q19: vec![0; 4] };
        assert!(matches!(
            merge_partials(&a, &b, &recip()),
            Err(FixedError::PartialLengthMismatch { expected: 3, actual: 4 })
        ));
    }

    #[test]
    fn merge_weights_sum_to_about_one() {
        let (alpha, beta) = merge_weights(7 << 16, 3 << 16, &recip()).unwrap();
        let total = alpha as i32 + beta as i32;
        assert!((total - PROB_ONE as i32).abs() <= 64, "alpha {alpha} beta {beta}");
        assert!((alpha as f64 / PROB_ONE as f64 - 0.7).abs() < 0.01);
    }

    #[test]
    fn matches_eq2_against_floating_point() {
        // Reference: out = (W1*o1 + W2*o2)/(W1+W2) in f64.
        let cases = [
            (1i64 << 16, 4i64 << 16, [0.5, -1.0], [2.0, 3.0]),
            (64 << 16, 1 << 16, [7.0, 7.0], [-7.0, 0.0]),
            (100 << 8, 100 << 8, [0.0, 0.0], [1.0, -1.0]),
        ];
        for (w1, w2, o1, o2) in cases {
            let a = PartialRow { weight_q16: w1, out_q19: q19(&o1) };
            let b = PartialRow { weight_q16: w2, out_q19: q19(&o2) };
            let m = merge_partials(&a, &b, &recip()).unwrap().to_f64();
            for k in 0..2 {
                let exact = (w1 as f64 * o1[k] + w2 as f64 * o2[k]) / (w1 as f64 + w2 as f64);
                assert!((m[k] - exact).abs() < 0.02, "{} vs {}", m[k], exact);
            }
        }
    }

    #[test]
    fn merge_into_empty_identity_both_sides() {
        let a = PartialRow { weight_q16: 100, out_q19: q19(&[1.5, -2.5]) };
        let e = PartialRow::empty(2);
        // Empty part: accumulator unchanged.
        let mut acc = a.clone();
        merge_partials_into(&mut acc, &e, &recip()).unwrap();
        assert_eq!(acc, a);
        // Empty accumulator: takes the part's value.
        let mut acc = PartialRow::empty(2);
        merge_partials_into(&mut acc, &a, &recip()).unwrap();
        assert_eq!(acc, a);
        // Both empty: still empty.
        let mut acc = PartialRow::empty(2);
        merge_partials_into(&mut acc, &PartialRow::empty(2), &recip()).unwrap();
        assert!(acc.is_empty());
    }

    #[test]
    fn merge_into_bit_matches_allocating_merge() {
        // Fold a chain of partials both ways; every intermediate must be
        // bit-identical, since the hot path replaces the allocating form.
        let parts: Vec<PartialRow> =
            [(3i64 << 16, 1.0f64), (5 << 16, -2.0), (0, 0.0), (2 << 16, 4.0), (8 << 16, 0.5)]
                .iter()
                .map(|&(w, v)| PartialRow { weight_q16: w, out_q19: q19(&[v, -v]) })
                .collect();
        let r = recip();
        let mut acc = PartialRow::empty(2);
        let mut reference = PartialRow::empty(2);
        for p in &parts {
            reference = merge_partials(&reference, p, &r).unwrap();
            merge_partials_into(&mut acc, p, &r).unwrap();
            assert_eq!(acc, reference);
        }
    }

    #[test]
    fn zero_weight_part_into_empty_accumulator_takes_its_output() {
        // An empty accumulator adopts even a zero-weight part's output —
        // the exact precedence of the allocating merge (a coarse exp LUT
        // can clamp a part's weight to zero while stage 5 still wrote v).
        let part = PartialRow { weight_q16: 0, out_q19: q19(&[1.0, -2.0]) };
        let mut acc = PartialRow::empty(2);
        merge_partials_into(&mut acc, &part, &recip()).unwrap();
        assert_eq!(acc, part);
        assert_eq!(merge_partials(&PartialRow::empty(2), &part, &recip()).unwrap(), part);
        // On a non-empty accumulator the same part is the identity.
        let a = PartialRow { weight_q16: 5 << 16, out_q19: q19(&[0.5, 0.5]) };
        let mut acc = a.clone();
        merge_partials_into(&mut acc, &part, &recip()).unwrap();
        assert_eq!(acc, a);
    }

    #[test]
    fn merge_into_length_mismatch_detected() {
        let mut acc = PartialRow { weight_q16: 10, out_q19: vec![0; 3] };
        let b = PartialRow { weight_q16: 10, out_q19: vec![0; 4] };
        assert!(matches!(
            merge_partials_into(&mut acc, &b, &recip()),
            Err(FixedError::PartialLengthMismatch { expected: 3, actual: 4 })
        ));
    }

    /// Every element through the 128-bit blend — the definition both
    /// forms of `merge_partials_into` are pinned against.
    fn wide_blend(a: &[i64], b: &[i64], alpha: u16, beta: u16) -> Vec<i64> {
        a.iter()
            .zip(b)
            .map(|(&oa, &ob)| {
                ((oa as i128 * i128::from(alpha) + ob as i128 * i128::from(beta)) >> 15) as i64
            })
            .collect()
    }

    #[test]
    fn whole_row_blend_matches_wide_reference_around_the_i32_threshold() {
        // Rows whose largest magnitude sits at, just below and just above
        // what 32 bits hold, on either operand and either sign, plus far
        // beyond (where an i64 product would wrap): the whole-row choice
        // must agree with the all-i128 blend bit for bit.
        let r = recip();
        let dim = 19;
        let (w1, w2) = (5i64 << 16, 3i64 << 16);
        let (alpha, beta) = merge_weights(w1, w2, &r).unwrap();
        let small = |e: usize| (e as i64 - 9) << 18;
        let edges = [
            i64::from(i32::MAX) - 1,
            i64::from(i32::MAX),
            i64::from(i32::MAX) + 1,
            i64::from(i32::MIN) + 1,
            i64::from(i32::MIN),
            i64::from(i32::MIN) - 1,
            (1 << 50) + 7,
            -(1 << 50) - 7,
            i64::MAX,
            i64::MIN,
        ];
        for edge in edges {
            for edge_in_acc in [true, false] {
                let mut a_vals: Vec<i64> = (0..dim).map(small).collect();
                let mut b_vals: Vec<i64> = (0..dim).map(|e| -small(e) + 3).collect();
                if edge_in_acc {
                    a_vals[7] = edge;
                } else {
                    b_vals[11] = edge;
                }
                let mut acc = PartialRow { weight_q16: w1, out_q19: a_vals.clone() };
                let part = PartialRow { weight_q16: w2, out_q19: b_vals.clone() };
                merge_partials_into(&mut acc, &part, &r).unwrap();
                assert_eq!(acc.out_q19, wide_blend(&a_vals, &b_vals, alpha, beta), "edge {edge}");
                assert_eq!(acc.weight_q16, w1 + w2);
            }
        }
    }

    #[test]
    fn merge_is_associative_within_tolerance() {
        let parts: Vec<PartialRow> =
            [(3i64 << 16, 1.0f64), (5 << 16, -2.0), (2 << 16, 4.0), (8 << 16, 0.5)]
                .iter()
                .map(|&(w, v)| PartialRow { weight_q16: w, out_q19: q19(&[v]) })
                .collect();
        let r = recip();
        // Left fold.
        let mut left = parts[0].clone();
        for p in &parts[1..] {
            left = merge_partials(&left, p, &r).unwrap();
        }
        // Pairwise tree.
        let ab = merge_partials(&parts[0], &parts[1], &r).unwrap();
        let cd = merge_partials(&parts[2], &parts[3], &r).unwrap();
        let tree = merge_partials(&ab, &cd, &r).unwrap();
        assert!((left.to_f64()[0] - tree.to_f64()[0]).abs() < 0.02);
        assert_eq!(left.weight_q16, tree.weight_q16);
    }
}
