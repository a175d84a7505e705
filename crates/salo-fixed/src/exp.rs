//! Piecewise-linear exponential unit (pipeline stage 2).
//!
//! SALO follows Softermax: `exp(x)` is approximated by a piecewise-linear
//! function whose slopes and y-intercepts live in two lookup tables indexed
//! by the segment of `x`; the evaluation itself is one MAC
//! (`y = slope * x + intercept`), reusing the PE's multiplier (§5.1,
//! stage 2). This module builds the tables at configuration time and
//! evaluates them with pure integer arithmetic.
//!
//! Scores enter in Q.8; exponentials leave in Q.16 ([`EXP_FRAC`]) so that
//! the small values produced by strongly negative scores remain
//! representable — their relative weight in the softmax depends on it.
//!
//! # The row sweep reads one `u32` table
//!
//! The scalar [`ExpLut::eval_q8`] is the definition. The datapath does not
//! run it per score: at construction the LUT tabulates it over the clamped
//! Q.8 domain — 4 097 entries for the default `[-8, 8]` — and a row of
//! scores becomes clamp-and-offset, one table read per key, and a widening
//! add into the `i64` row sum ([`ExpLut::tabulated_row_into`]). The entries
//! are `u32`: the largest exponential of the default domain is `e^8 · 2^16
//! < 2^28`, so 28 bits hold every value, the table is 16 KiB where `i64`
//! entries made it 32, and stage 4 can multiply sixteen of them by the broadcast reciprocal in
//! one vector of 32 × 32 → 64-bit products. A LUT whose values do not all
//! fit 32 bits (a custom domain reaching past `ln 2^16 ≈ 11`), or whose
//! domain is wider than the table bound, has **no** table — never a
//! truncated one — and its rows take the per-element definition.
//!
//! The table index is in range by construction, not by a check per key:
//! the table's length is `hi_raw − lo_raw + 1` (asserted once, when it is
//! built) and the index is `min(max(s, lo_raw) − lo_raw, len − 1)`. Builds
//! that target AVX-512 run the sweep sixteen keys at a time (the `lanes`
//! module: one gather per vector); every other build runs the plain loop of
//! the same shape, to the same bits.

use crate::FixedError;

/// Fraction bits of exponential outputs and row sums (Q.16).
pub const EXP_FRAC: u32 = 16;

/// Number of fraction bits used to store segment slopes.
const SLOPE_FRAC: u32 = 18;

/// Exponentials per 512-bit vector: a tabulated row of exponentials is
/// padded with zeros to a multiple of this.
pub(crate) const ROW_LANES: usize = 16;

/// The piecewise-linear `exp` lookup table.
///
/// Input is Q.8 fixed point (raw = value × 256); output is Q.16. The input
/// domain is `[-8, +8]`; values outside are clamped, mirroring hardware
/// saturation. The number of segments is configurable (32 in the default
/// SALO configuration) and trades LUT area against accuracy: the unit test
/// `more_segments_reduce_error` holds the accuracy side, and `bench/`'s
/// `fixed.exp_ns_per_elem` measures the cost at the served count.
#[derive(Debug, Clone)]
pub struct ExpLut {
    segments: usize,
    x_lo: f64,
    x_hi: f64,
    /// Domain bounds in the Q.8 input format, precomputed at build time.
    lo_raw: i64,
    hi_raw: i64,
    /// When the Q.8 segment width `span / segments` is an exact power of
    /// two (true for the default `[-8, 8]` domain at any power-of-two
    /// segment count), segment indexing reduces to this right shift —
    /// bit-identical to the division, without the per-score `div`.
    index_shift: Option<u32>,
    /// Per-segment slope in Q.18 (value units out per unit in).
    slopes: Vec<i64>,
    /// Per-segment y-intercept in Q.16.
    intercepts: Vec<i64>,
    /// [`eval_q8`](Self::eval_q8) tabulated over the clamped Q.8 domain:
    /// `table[x - lo_raw]` for every `x` in `lo_raw..=hi_raw` (4 097
    /// entries for the default `[-8, 8]`), so its length is `hi_raw -
    /// lo_raw + 1` whenever it is not empty. The row sweep reads this
    /// instead of re-deriving segment, slope and intercept per score.
    /// Empty when the domain spans more than [`Self::TABLE_MAX_SPAN`] Q.8
    /// steps or some value needs more than 32 bits; rows then evaluate
    /// `eval_q8` per element.
    table: Vec<u32>,
}

impl ExpLut {
    /// Default input domain lower bound.
    pub const X_LO: f64 = -8.0;
    /// Default input domain upper bound.
    pub const X_HI: f64 = 8.0;
    /// Widest domain, in Q.8 steps, that gets a tabulated row sweep: the
    /// default domain exactly, a 16 KiB table.
    const TABLE_MAX_SPAN: i64 = 1 << 12;

    /// Builds a LUT with `segments` linear segments over `[-8, 8]`.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0`; use [`ExpLut::with_domain`] for a
    /// fallible constructor.
    #[must_use]
    pub fn new(segments: usize) -> Self {
        Self::with_segments(segments).expect("segments must be non-zero")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::EmptyLut`] if `segments == 0`.
    fn with_segments(segments: usize) -> Result<Self, FixedError> {
        Self::with_domain(segments, Self::X_LO, Self::X_HI)
    }

    /// Builds a LUT over a custom domain `[x_lo, x_hi]`.
    ///
    /// Each segment interpolates `exp` exactly at its endpoints, which keeps
    /// the approximation continuous and slightly over-estimating (chord
    /// above a convex function) — the same construction Softermax uses.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::EmptyLut`] if `segments == 0` or the domain is
    /// empty.
    pub fn with_domain(segments: usize, x_lo: f64, x_hi: f64) -> Result<Self, FixedError> {
        if segments == 0 || x_hi <= x_lo {
            return Err(FixedError::EmptyLut);
        }
        let width = (x_hi - x_lo) / segments as f64;
        let mut slopes = Vec::with_capacity(segments);
        let mut intercepts = Vec::with_capacity(segments);
        let scale = f64::from(1u32 << EXP_FRAC);
        for s in 0..segments {
            let x0 = x_lo + s as f64 * width;
            let x1 = x0 + width;
            let (y0, y1) = (x0.exp(), x1.exp());
            let slope = (y1 - y0) / width;
            let intercept = y0 - slope * x0;
            slopes.push((slope * f64::from(1u32 << SLOPE_FRAC)).round() as i64);
            intercepts.push((intercept * scale).round() as i64);
        }
        let lo_raw = (x_lo * 256.0) as i64;
        let hi_raw = (x_hi * 256.0) as i64;
        let span = hi_raw - lo_raw;
        // A domain narrower than one Q.8 step collapses to zero raw span:
        // every input would clamp to the same point and the fallback index
        // division would divide by zero. Reject it like an empty domain.
        if span <= 0 {
            return Err(FixedError::EmptyLut);
        }
        // floor(u * segments / span) == u >> k exactly when span ==
        // segments << k: the division by `segments * 2^k` cancels the
        // multiplication and leaves the shift.
        let index_shift = (span % segments as i64 == 0)
            .then(|| span / segments as i64)
            .filter(|w| w.count_ones() == 1)
            .map(|w| w.trailing_zeros());
        let mut lut = Self {
            segments,
            x_lo,
            x_hi,
            lo_raw,
            hi_raw,
            index_shift,
            slopes,
            intercepts,
            table: Vec::new(),
        };
        if span <= Self::TABLE_MAX_SPAN {
            // All of the values in 32 bits, or no table at all.
            let table: Option<Vec<u32>> =
                (lo_raw..=hi_raw).map(|x| u32::try_from(lut.eval_q8(x as i32)).ok()).collect();
            lut.table = table.unwrap_or_default();
            // What puts every clamped, offset score inside the table
            // without a check per key (`tabulated_row_into`).
            assert!(
                lut.table.is_empty() || lut.table.len() as i64 == span + 1,
                "one table entry per Q.8 step of the domain"
            );
        }
        Ok(lut)
    }

    /// Number of segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Size of the two LUTs in bits (slope + intercept, 32 bits each per
    /// segment), for area modelling.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.segments * (32 + 32)
    }

    /// Segment index of a clamped raw input: floor((x - lo) * segments /
    /// (hi - lo)), reduced to a right shift when the Q.8 segment width is
    /// a power of two, clamped so the domain's upper endpoint lands in the
    /// last segment.
    #[inline]
    fn segment_index(&self, x: i64) -> usize {
        let idx = match self.index_shift {
            Some(shift) => ((x - self.lo_raw) >> shift) as usize,
            None => self.segment_index_by_division(x),
        };
        idx.min(self.segments - 1)
    }

    /// The division form of the index computation — the fallback for
    /// non-power-of-two segment widths, and the reference the shift fast
    /// path is asserted against (both paths must agree on every segment,
    /// the last one included).
    #[inline]
    fn segment_index_by_division(&self, x: i64) -> usize {
        let span = self.hi_raw - self.lo_raw;
        ((x - self.lo_raw) * self.segments as i64 / span) as usize
    }

    /// Evaluates `exp(x)` for a Q.8 input, returning a Q.16 output.
    ///
    /// Inputs outside the domain are clamped to its endpoints; the result
    /// is always non-negative.
    #[inline]
    #[must_use]
    pub fn eval_q8(&self, x_raw: i32) -> i64 {
        let x = (x_raw as i64).clamp(self.lo_raw, self.hi_raw);
        let idx = self.segment_index(x);
        // y = slope * x + intercept:
        // slope Q.18 * x Q.8 -> Q.26, shift by 10 to reach Q.16.
        let y = ((self.slopes[idx] * x) >> (SLOPE_FRAC + 8 - EXP_FRAC)) + self.intercepts[idx];
        y.max(0)
    }

    /// Stages 2 + 3a over a whole row through the table: `exps[i] =
    /// eval_q8(scores_q8[i])` and the Q.16 row sum returned — or `None`,
    /// `exps` untouched, when this LUT has no table. `exps` is resized to
    /// the row padded with zeros to whole vectors of [`ROW_LANES`], so the
    /// lanes store and reload it without a masked tail.
    ///
    /// Bit-identical to mapping [`eval_q8`](Self::eval_q8) over the row
    /// and summing left to right: each element is a clamp and one read of
    /// the table built from `eval_q8` at construction, and integer
    /// addition is exact, so the order the sum is folded in cannot change
    /// it (at most `2^31` keys of less than `2^32` each: far inside
    /// `i64`). Pinned by a full-raw-range golden test, `tests/row_kernel.rs`
    /// and the simulator's oracle suites.
    #[inline]
    pub(crate) fn tabulated_row_into(&self, scores_q8: &[i32], exps: &mut Vec<u32>) -> Option<i64> {
        if self.table.is_empty() {
            return None;
        }
        // Every element is rewritten below, padding included: only growth
        // is worth a fill.
        exps.resize(scores_q8.len().next_multiple_of(ROW_LANES), 0);
        // The bound fits `i32`: the table exists only for small spans.
        Some(table_row(&self.table, self.lo_raw as i32, scores_q8, exps))
    }

    /// Evaluates `exp(x)` from an `f64`, via the fixed-point path
    /// (convenience for tests and error studies).
    #[must_use]
    pub fn eval_f64(&self, x: f64) -> f64 {
        self.eval_q8((x * 256.0).round() as i32) as f64 / f64::from(1u32 << EXP_FRAC)
    }

    /// Maximum relative error against `f64::exp` sampled on the Q.8 grid
    /// over the domain. Errors are measured relative to
    /// `max(exp(x), 1e-2)`: a numerator below 0.01 contributes under a
    /// percent of probability mass next to O(1) competitors, so errors
    /// there are immaterial — matching how Softermax assesses its
    /// approximation.
    #[must_use]
    pub fn max_relative_error(&self) -> f64 {
        let lo = (self.x_lo * 256.0) as i32;
        let hi = (self.x_hi * 256.0) as i32;
        let mut worst = 0.0f64;
        let mut x = lo;
        while x <= hi {
            let approx = self.eval_q8(x) as f64 / f64::from(1u32 << EXP_FRAC);
            let exact = (x as f64 / 256.0).exp();
            let rel = (approx - exact).abs() / exact.max(1e-2);
            if rel > worst {
                worst = rel;
            }
            x += 8; // sample every 1/32
        }
        worst
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use lanes::table_row;

/// `exps[i] = table[min(max(scores[i], lo) - lo, table.len() - 1)]` and the
/// sum of the row: the portable body of the table sweep; `table` is not
/// empty and `exps` is at least as long as `scores`, its padding zeroed.
///
/// A plain loop over a pre-sized row, not `extend(map(..))` (the adaptor's
/// `fold` may stay out of line). `max(s, lo) - lo` is in `0..2^32` whatever
/// `s` is, so the wrapping difference read as `u32` is exact; the `min` is
/// the clamp's upper side and what proves the index in range, so the loop
/// carries no bounds check.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline]
fn table_row(table: &[u32], lo: i32, scores: &[i32], exps: &mut [u32]) -> i64 {
    assert!(!table.is_empty() && scores.len() <= exps.len());
    let last = table.len() - 1;
    let (exps, padding) = exps.split_at_mut(scores.len());
    padding.fill(0);
    let mut sum = 0i64;
    for (e, &s) in exps.iter_mut().zip(scores) {
        *e = table[(s.max(lo).wrapping_sub(lo) as u32 as usize).min(last)];
        sum += i64::from(*e);
    }
    sum
}

/// The table sweep in explicit 512-bit lanes: sixteen scores clamped and
/// offset, one gather, sixteen exponentials stored and folded into the row
/// sum per step.
///
/// Compiled only when the build itself targets AVX-512 (`-C
/// target-cpu=native` on such a host), as `mac.rs`'s lanes are; every other
/// build has the plain loop above and nothing else — there is no run-time
/// switch. What the `unsafe` buys is recorded in
/// EXPERIMENTS.md ("The kernel's other half"): left to itself the compiler
/// reads the table one key at a time, nine instructions a key.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod lanes {
    use super::ROW_LANES;
    use std::arch::x86_64::*;

    /// `exps[i] = table[min(max(scores[i], lo) - lo, table.len() - 1)]`
    /// and the sum of the row; `table` is not empty and `exps` is `scores`
    /// padded to whole vectors, the padding left zero.
    #[inline]
    pub(super) fn table_row(table: &[u32], lo: i32, scores: &[i32], exps: &mut [u32]) -> i64 {
        assert!(!table.is_empty() && exps.len() == scores.len().next_multiple_of(ROW_LANES));
        // SAFETY: this module exists only in builds whose target features
        // include the one the callee enables (the `cfg` on the module).
        unsafe { table_row_avx512(table, lo, scores, exps) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn table_row_avx512(table: &[u32], lo: i32, scores: &[i32], exps: &mut [u32]) -> i64 {
        let lo = _mm512_set1_epi32(lo);
        // `TABLE_MAX_SPAN` keeps the length far below `i32::MAX`.
        let last = _mm512_set1_epi32((table.len() - 1) as i32);
        // Even and odd 32-bit lanes, zero-extended into 64-bit sums.
        let (mut even, mut odd) = (_mm512_setzero_si512(), _mm512_setzero_si512());
        let low_half = _mm512_set1_epi64(0xffff_ffff);
        // One vector of exponentials: one per score (at most sixteen),
        // zero in the lanes past them.
        let mut vector = |scores: &[i32], exps: &mut [u32; ROW_LANES]| {
            let keys = ((1u32 << scores.len().min(ROW_LANES)) - 1) as __mmask16;
            // SAFETY: `keys` has a lane per element of `scores` and no
            // more, and masked-off lanes are not read. Every gathered
            // index is at most `table.len() - 1` (the unsigned `min`), so
            // the gather — scale 4, the size of an entry — stays inside
            // `table`. `exps` is sixteen writable elements.
            let e = unsafe {
                let s = _mm512_maskz_loadu_epi32(keys, scores.as_ptr());
                let index = _mm512_min_epu32(_mm512_sub_epi32(_mm512_max_epi32(s, lo), lo), last);
                let zero = _mm512_setzero_si512();
                let e = _mm512_mask_i32gather_epi32::<4>(zero, keys, index, table.as_ptr().cast());
                _mm512_storeu_si512(exps.as_mut_ptr().cast(), e);
                e
            };
            even = _mm512_add_epi64(even, _mm512_and_si512(e, low_half));
            odd = _mm512_add_epi64(odd, _mm512_srli_epi64::<32>(e));
        };
        // Whole vectors (their mask folds to a constant), then the ragged
        // tail. Its store is a whole vector all the same — zeros in the
        // padding — so stage 4's load of it forwards from the store buffer
        // instead of waiting for a masked store to retire.
        let mut exps = exps.chunks_exact_mut(ROW_LANES);
        let mut whole = scores.chunks_exact(ROW_LANES);
        for (scores, exps) in whole.by_ref().zip(exps.by_ref()) {
            vector(scores, exps.try_into().expect("a whole vector"));
        }
        if let Some(exps) = exps.next() {
            vector(whole.remainder(), exps.try_into().expect("a whole vector"));
        }
        _mm512_reduce_add_epi64(_mm512_add_epi64(even, odd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_empty_configurations() {
        assert!(ExpLut::with_segments(0).is_err());
        assert!(ExpLut::with_domain(4, 1.0, 1.0).is_err());
        assert!(ExpLut::with_domain(4, 2.0, 1.0).is_err());
    }

    #[test]
    fn rejects_domains_narrower_than_one_q8_step() {
        // A sub-LSB domain collapses to zero raw span; building it used to
        // arm a division-by-zero in the fallback index path on the first
        // evaluation. It must be rejected at construction instead.
        assert!(matches!(ExpLut::with_domain(4, 0.0001, 0.002), Err(FixedError::EmptyLut)));
        assert!(matches!(ExpLut::with_domain(8, -0.001, 0.0), Err(FixedError::EmptyLut)));
        // One full Q.8 step is the smallest buildable domain, and it must
        // evaluate without panicking at both endpoints.
        let lut = ExpLut::with_domain(2, 0.0, 1.0 / 256.0).unwrap();
        assert!(lut.eval_q8(0) > 0);
        assert!(lut.eval_q8(1) > 0);
    }

    #[test]
    fn index_paths_agree_on_every_boundary_segment() {
        // Power-of-two width with a non-power-of-two segment count: the
        // shift fast path applies (width 3072/24 = 128 = 2^7) and must
        // agree with the division fallback everywhere, last segment
        // included.
        let lut = ExpLut::with_domain(24, -6.0, 6.0).unwrap();
        assert!(lut.index_shift.is_some(), "width 128 should take the shift path");
        for x in lut.lo_raw..=lut.hi_raw {
            let by_shift = lut.segment_index(x);
            let by_div = lut.segment_index_by_division(x).min(lut.segments - 1);
            assert_eq!(by_shift, by_div, "paths disagree at raw {x}");
        }
        // The exact upper endpoint belongs to the last segment on both
        // paths (the raw index overflows to `segments` and is clamped).
        assert_eq!(lut.segment_index(lut.hi_raw), lut.segments - 1);
        assert_eq!(lut.segment_index_by_division(lut.hi_raw), lut.segments);

        // Non-power-of-two width (4096/24 is fractional): only the
        // division path exists, and it must stay in range at the ends.
        let lut = ExpLut::with_domain(24, -8.0, 8.0).unwrap();
        assert!(lut.index_shift.is_none());
        assert_eq!(lut.segment_index(lut.lo_raw), 0);
        assert_eq!(lut.segment_index(lut.hi_raw), lut.segments - 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The shift fast path and the division fallback agree on the
        /// segment of every representable raw input — in-domain,
        /// out-of-domain (clamped) and at both endpoints — for every
        /// configuration where the fast path is available.
        #[test]
        fn index_shift_matches_division_across_raw_range(
            segs_log2 in 1u32..8,
            half_domain in 1i32..9,
            x_raw in -4096i32..4097,
        ) {
            let segments = 1usize << segs_log2;
            let lut = ExpLut::with_domain(segments, -f64::from(half_domain), f64::from(half_domain))
                .expect("valid domain");
            prop_assume!(lut.index_shift.is_some());
            let x = (i64::from(x_raw)).clamp(lut.lo_raw, lut.hi_raw);
            let by_shift = lut.segment_index(x);
            let by_div = lut.segment_index_by_division(x).min(lut.segments - 1);
            prop_assert_eq!(by_shift, by_div);
            prop_assert!(by_shift < lut.segments);
            // And the evaluation built on it stays total and non-negative.
            prop_assert!(lut.eval_q8(x_raw) >= 0);
        }
    }

    #[test]
    fn slice_eval_golden_matches_scalar_across_full_raw_range() {
        // The row sweep must reproduce the scalar `eval_q8` bit for bit on
        // every representable raw input — in-domain, out-of-domain
        // (clamped) and at both endpoints — whether the table was built
        // through the shift index path or the division path; its returned
        // sum must equal the left-to-right fold.
        let shift_lut = ExpLut::new(32);
        assert!(shift_lut.index_shift.is_some() && !shift_lut.table.is_empty());
        let div_lut = ExpLut::with_domain(24, -8.0, 8.0).unwrap();
        assert!(div_lut.index_shift.is_none() && !div_lut.table.is_empty());
        for lut in [&shift_lut, &div_lut] {
            let lo = (lut.lo_raw - 300) as i32;
            let hi = (lut.hi_raw + 300) as i32;
            let scores: Vec<i32> = (lo..=hi).chain([i32::MIN, i32::MAX]).collect();
            let mut row = Vec::new();
            let sum = lut.tabulated_row_into(&scores, &mut row).expect("tabulated");
            let scalar: Vec<i64> = scores.iter().map(|&s| lut.eval_q8(s)).collect();
            let (exps, padding) = row.split_at(scores.len());
            assert!(exps.iter().map(|&e| i64::from(e)).eq(scalar.iter().copied()));
            assert!(padding.len() < ROW_LANES && padding.iter().all(|&e| e == 0));
            assert_eq!(sum, scalar.iter().sum::<i64>());
        }
        assert_eq!(shift_lut.table.len(), 4097, "default domain: one entry per Q.8 step");
        assert!(shift_lut.table.iter().all(|&e| e < 1 << 28), "e^8 in Q.16 is below 2^28");
        // Reuse resizes to the row, padded with zeros to a whole vector.
        let mut row = vec![99u32; 40];
        let sum = shift_lut.tabulated_row_into(&[0], &mut row).expect("tabulated");
        assert_eq!(row.len(), ROW_LANES);
        assert_eq!(i64::from(row[0]), sum);
        assert!(row[1..].iter().all(|&e| e == 0));
        assert_eq!(sum, shift_lut.eval_q8(0));
    }

    #[test]
    fn a_lut_without_a_table_says_so_and_leaves_the_row_alone() {
        // Too wide a domain, and values that 32 bits cannot hold: neither
        // gets a table — a truncated entry would be a wrong exponential.
        let wide = ExpLut::with_domain(32, -12.0, 12.0).unwrap();
        assert!(wide.table.is_empty(), "a 6 144-step domain is past the table bound");
        let tall = ExpLut::with_domain(4, 8.0, 12.0).unwrap();
        assert!(tall.hi_raw - tall.lo_raw <= ExpLut::TABLE_MAX_SPAN);
        assert!(tall.eval_q8(12 * 256) > i64::from(u32::MAX), "e^12 in Q.16 needs 34 bits");
        assert!(tall.table.is_empty());
        for lut in [&wide, &tall] {
            let mut row = vec![7u32; 3];
            assert_eq!(lut.tabulated_row_into(&[0, 1], &mut row), None);
            assert_eq!(row, [7, 7, 7]);
        }
    }

    #[test]
    fn exact_at_zero_neighbourhood() {
        let lut = ExpLut::new(32);
        let y = lut.eval_f64(0.0);
        assert!((y - 1.0).abs() < 0.02, "exp(0) ~ {y}");
    }

    #[test]
    fn default_32_segments_under_four_percent_error() {
        // Chord interpolation with segment width 0.5 bounds the relative
        // error by h^2/8 ~ 3.1%.
        let lut = ExpLut::new(32);
        let err = lut.max_relative_error();
        assert!(err < 0.04, "max relative error {err}");
    }

    #[test]
    fn more_segments_reduce_error() {
        let coarse = ExpLut::new(8).max_relative_error();
        let fine = ExpLut::new(64).max_relative_error();
        assert!(fine < coarse, "fine {fine} vs coarse {coarse}");
        assert!(fine < 0.01, "64 segments should be under 1%: {fine}");
    }

    #[test]
    fn clamps_out_of_domain_inputs() {
        let lut = ExpLut::new(32);
        let below = lut.eval_q8(-100 * 256);
        let at_lo = lut.eval_q8(-8 * 256);
        assert_eq!(below, at_lo);
        let above = lut.eval_q8(100 * 256);
        let at_hi = lut.eval_q8(8 * 256);
        assert_eq!(above, at_hi);
    }

    #[test]
    fn monotone_nondecreasing_on_grid() {
        let lut = ExpLut::new(32);
        let mut prev = -1i64;
        let mut x = -8 * 256;
        while x <= 8 * 256 {
            let y = lut.eval_q8(x);
            // Allow 1 LSB of slack at segment boundaries (table rounding).
            assert!(y + 1 >= prev, "non-monotone at {x}: {y} after {prev}");
            prev = y;
            x += 16;
        }
    }

    #[test]
    fn small_values_remain_representable() {
        let lut = ExpLut::new(32);
        // exp(-7) = 0.000912: must be nonzero in Q.16 (raw ~60).
        let y = lut.eval_q8(-7 * 256);
        assert!(y > 0, "exp(-7) flushed to zero");
        let approx = y as f64 / 65536.0;
        assert!((approx - (-7.0f64).exp()).abs() < 5e-4, "approx {approx}");
    }

    #[test]
    fn output_is_nonnegative_everywhere() {
        let lut = ExpLut::new(4); // coarse: intercepts could dip negative
        let mut x = -8 * 256;
        while x <= 8 * 256 {
            assert!(lut.eval_q8(x) >= 0);
            x += 1;
        }
    }

    #[test]
    fn storage_accounting() {
        assert_eq!(ExpLut::new(32).storage_bits(), 32 * 64);
    }

    #[test]
    fn eval_f64_round_trips_scale() {
        let lut = ExpLut::new(64);
        assert!((lut.eval_f64(1.0) - 1f64.exp()).abs() / 1f64.exp() < 0.02);
        assert!((lut.eval_f64(-3.0) - (-3f64).exp()).abs() < 0.05);
    }
}
