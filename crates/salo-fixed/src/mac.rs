//! The PE's multiply-accumulate primitives.
//!
//! Each SALO PE contains one fixed-point MAC reused across all five pipeline
//! stages (§5.1). Two accumulation flavours appear in the datapath:
//!
//! * **stage 1** (`Q x K^T`, output stationary): 8-bit Q.4 operands,
//!   products carry 8 fraction bits and accumulate in a 32-bit register —
//!   [`qk_mac`];
//! * **stage 5** (`S' x V`, weight stationary): a Q.15 probability times a
//!   Q.4 value element, accumulated with 19 fraction bits — [`sv_mac`].
//!
//! Both saturate rather than wrap, and report saturation so simulations can
//! flag numerically degenerate configurations.
//!
//! The per-element forms are the definition. [`qk_dot`], [`sv_row_mac`] and
//! [`sv_row_mac_i32`] are their whole-row sweeps, and [`qk_dot_rows`] /
//! [`sv_rows_mac`] sweep all the keys of one op — what the simulator's
//! datapath calls, specialised by head dimension; [`sv_rows_mac`] writes
//! the op's part as the 32-bit row a PE row hands its weighted-sum module,
//! and [`sv_rows_mac_add`] adds a later piece of an op whose keys come in
//! pieces.

use crate::format::Fix8x4;

/// Whether a MAC chain saturated at any point.
///
/// Hardware saturation silently clips; the simulator records it so tests and
/// experiments can verify configurations stay within range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MacSaturation {
    /// Number of saturating accumulations observed.
    pub events: u64,
}

impl MacSaturation {
    /// True if any accumulation saturated.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.events > 0
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: MacSaturation) {
        self.events += other.events;
    }
}

/// One stage-1 MAC: `acc += q * k` where `q`/`k` are Q.4 inputs and `acc`
/// is a 32-bit accumulator with 8 fraction bits. Saturates on overflow.
#[inline]
#[must_use]
pub fn qk_mac(acc: i32, q: Fix8x4, k: Fix8x4, sat: &mut MacSaturation) -> i32 {
    let product = q.raw() as i32 * k.raw() as i32; // exact, 8 frac bits
    match acc.checked_add(product) {
        Some(v) => v,
        None => {
            sat.events += 1;
            if product > 0 {
                i32::MAX
            } else {
                i32::MIN
            }
        }
    }
}

/// One stage-5 MAC: `acc += prob * v` where `prob` is a Q.15 probability
/// (raw `0..=32768`) and `v` a Q.4 value element; `acc` carries 19 fraction
/// bits. Saturates on overflow.
#[inline]
#[must_use]
pub fn sv_mac(acc: i64, prob: u16, v: Fix8x4, sat: &mut MacSaturation) -> i64 {
    let product = prob as i64 * v.raw() as i64; // 15 + 4 = 19 frac bits
    match acc.checked_add(product) {
        Some(v) => v,
        None => {
            sat.events += 1;
            if product > 0 {
                i64::MAX
            } else {
                i64::MIN
            }
        }
    }
}

/// Largest head dimension for which a stage-1 dot product provably cannot
/// saturate: each product's magnitude is at most `128 * 128 = 2^14`, so
/// any accumulation of up to this many terms stays inside `i32`.
pub const QK_DOT_SAFE_DIM: usize = (i32::MAX / (128 * 128)) as usize;

/// A full stage-1 dot product between a query row and a key row, as the PE
/// performs it: element by element in index order.
///
/// For dimensions up to [`QK_DOT_SAFE_DIM`] (every realistic head — the
/// bound is above 131 000) no accumulation step can overflow, so the
/// per-step saturation check of [`qk_mac`] reduces to a plain sum: a
/// straight-line fold the autovectorizer widens into multiply-accumulate
/// lanes. How wide depends on what it knows: with a run-time length it
/// stays at 128-bit lanes and re-derives the trip count per call; inlined
/// over constant-length rows ([`qk_dot_rows`]) the fold unrolls fully and
/// the query's widening hoists out of the key loop. Larger dimensions
/// fall back to the checked per-step form.
#[inline]
#[must_use]
pub fn qk_dot(q: &[Fix8x4], k: &[Fix8x4], sat: &mut MacSaturation) -> i32 {
    debug_assert_eq!(q.len(), k.len(), "query/key dimension mismatch");
    if q.len() <= QK_DOT_SAFE_DIM {
        let mut acc = 0i32;
        for (&qe, &ke) in q.iter().zip(k) {
            acc += i32::from(qe.raw()) * i32::from(ke.raw());
        }
        acc
    } else {
        let mut acc = 0i32;
        for (&qe, &ke) in q.iter().zip(k) {
            acc = qk_mac(acc, qe, ke, sat);
        }
        acc
    }
}

/// One stage-5 accumulation over a whole output row: `out[e] += prob *
/// v[e]` for every element, as the weight-stationary flow performs it.
///
/// Bit-identical to folding [`sv_mac`] element-wise whenever every
/// accumulator has at least `2^22` of headroom to the `i64` limits — true
/// for any chain that started from zero and has performed fewer than
/// `2^41` accumulations, i.e. every datapath use (a debug assertion
/// enforces it). Skipping the per-step saturation check lets the row
/// loop vectorize.
///
/// # Panics
///
/// Panics if `out` and `v` have different lengths.
#[inline]
pub fn sv_row_mac(out: &mut [i64], prob: u16, v: &[Fix8x4]) {
    assert_eq!(out.len(), v.len(), "output/value dimension mismatch");
    for (o, &ve) in out.iter_mut().zip(v) {
        debug_assert!(
            o.unsigned_abs() <= (i64::MAX as u64) - (1 << 22),
            "stage-5 accumulator out of headroom"
        );
        *o += i64::from(prob) * i64::from(ve.raw());
    }
}

/// Largest key count per output part for which the whole stage-5
/// accumulation chain fits a 32-bit register: every `prob * v` product has
/// magnitude at most `2^15 * 2^7 = 2^22`.
pub const SV_I32_SAFE_KEYS: usize = (i32::MAX >> 22) as usize;

/// Stage-5 accumulation over a whole output row into a 32-bit accumulator:
/// `out[e] += prob * v[e]`.
///
/// For chains of at most [`SV_I32_SAFE_KEYS`] keys starting from zero, no
/// step can leave `i32`, so this is bit-identical to the `i64` form of
/// [`sv_row_mac`] (widen the result afterwards) while vectorizing at twice
/// the lane width. Callers must bound the chain length; a debug assertion
/// checks the headroom.
///
/// # Panics
///
/// Panics if `out` and `v` have different lengths.
#[inline]
pub fn sv_row_mac_i32(out: &mut [i32], prob: u16, v: &[Fix8x4]) {
    assert_eq!(out.len(), v.len(), "output/value dimension mismatch");
    for (o, &ve) in out.iter_mut().zip(v) {
        debug_assert!(
            o.unsigned_abs() <= (i32::MAX as u32) - (1 << 22),
            "stage-5 i32 accumulator out of headroom"
        );
        *o += i32::from(prob) * i32::from(ve.raw());
    }
}

/// Stage 1 over a whole op of `len` keys: `scores[i] = q · row(i)`,
/// appended to `scores` in key order — [`qk_dot`] per key.
///
/// `row` maps a position in the op, `0..len`, to that key's quantized row.
/// How the position becomes a key (run arithmetic, an index list) and the
/// key a row (a flat arena, a page table) is the caller's business, decided
/// once per op and inlined here; every row must have `q.len()` elements.
///
/// The body is instantiated at the serving head dimensions (32 / 64 / 128)
/// and once more with the dimension left to run time; `q.len()` — a
/// property of the request — picks the instantiation. With the dimension a
/// constant the fold has a fixed trip count and the query is widened once
/// per op instead of once per key. Builds that target AVX-512 VNNI run the
/// 64- and 128-wide instantiations in explicit lanes (the `lanes` module)
/// — same integers, a third of the time.
///
/// # Panics
///
/// Panics if a row is shorter than the query.
#[inline]
pub fn qk_dot_rows<'a>(
    q: &[Fix8x4],
    len: usize,
    row: impl Fn(usize) -> &'a [Fix8x4],
    scores: &mut Vec<i32>,
    sat: &mut MacSaturation,
) {
    match q.len() {
        32 => qk_dot_rows_at::<32>(q, len, row, scores, sat),
        64 => qk_dot_rows_at::<64>(q, len, row, scores, sat),
        128 => qk_dot_rows_at::<128>(q, len, row, scores, sat),
        _ => qk_dot_rows_at::<0>(q, len, row, scores, sat),
    }
}

/// [`qk_dot_rows`] with the dimension fixed at compile time (`D > 0`,
/// equal to `q.len()`) or left to run time (`D == 0`).
fn qk_dot_rows_at<'a, const D: usize>(
    q: &[Fix8x4],
    len: usize,
    row: impl Fn(usize) -> &'a [Fix8x4],
    scores: &mut Vec<i32>,
    sat: &mut MacSaturation,
) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512bw", target_feature = "avx512vnni"))]
    if D == 64 || D == 128 {
        return lanes::qk_dot_rows(q, len, row, scores);
    }
    let d = if D == 0 { q.len() } else { D };
    // A by-value copy of the query: loop-invariant registers rather than
    // memory the score stores might alias.
    let mut q_fixed = [Fix8x4::ZERO; D];
    let q: &[Fix8x4] = if D == 0 {
        q
    } else {
        q_fixed.copy_from_slice(q);
        &q_fixed
    };
    // A plain loop over a pre-sized tail, not `extend(map(..))`: the
    // adaptor's `fold` may stay out of line, and then sees `d` as data.
    let start = scores.len();
    scores.resize(start + len, 0);
    for (i, score) in scores[start..].iter_mut().enumerate() {
        *score = qk_dot(q, &row(i)[..d], sat);
    }
}

/// Stage 5 over a whole op: `out[e] = Σ_i probs[i] * row(i)[e]`, written
/// over `out` — the `i64` chain of [`sv_row_mac`] over the op's keys in
/// order, held as the 32-bit row a PE row hands its weighted-sum module.
/// One probability per key; `row` maps a position in the op to that key's
/// row, as in [`qk_dot_rows`].
///
/// Keys are taken [`SV_I32_SAFE_KEYS`] at a time: that many provably fit an
/// `i32` chain ([`sv_row_mac_i32`]) whatever the probabilities, and an op
/// of more keys sums its chains in `i64` before the row is narrowed.
/// Integer addition is exact, so the regrouping is bit-identical to the one
/// long `i64` chain; every array-shaped op is a single chain.
///
/// The row itself fits 32 bits whenever the probabilities sum below
/// `2^24` — `|Σ p v| <= 128 Σ p` — and a softmax row's sum to at most 4/3
/// of [`PROB_ONE`](crate::PROB_ONE) (the reciprocal unit never overshoots
/// by more). An op of at most [`SV_I32_SAFE_KEYS`] keys fits whatever the
/// probabilities.
///
/// The output row is produced in column blocks of `B` lanes whose
/// accumulator is a local array — vector registers across the chain's
/// keys, where a heap row would be reloaded and stored per key. The
/// serving dimensions are instantiated with `B` equal to the dimension
/// (one block, compile-time trip counts); any other dimension runs the
/// same body in 32-lane blocks.
///
/// # Panics
///
/// Panics if a row is shorter than `out`, or if an op of more than
/// [`SV_I32_SAFE_KEYS`] keys sums to a value outside `i32`.
#[inline]
pub fn sv_rows_mac<'a>(probs: &[u16], row: impl Fn(usize) -> &'a [Fix8x4], out: &mut [i32]) {
    sv_rows_mac_dim::<false>(probs, row, out);
}

/// [`sv_rows_mac`] added into `out` instead of written over it: `out[e] +=
/// Σ_i probs[i] * row(i)[e]`.
///
/// An op whose keys arrive in pieces (a run across K/V pages) writes its
/// first piece and adds each later one. Every prefix of a softmax row sums
/// inside `i32` for the reason its whole row does, so the regrouping is
/// exact and the row is the one sweep's, bit for bit.
///
/// # Panics
///
/// As [`sv_rows_mac`]; a sum past `i32` in `out` is the caller's to rule
/// out (debug builds check it).
#[inline]
pub fn sv_rows_mac_add<'a>(probs: &[u16], row: impl Fn(usize) -> &'a [Fix8x4], out: &mut [i32]) {
    sv_rows_mac_dim::<true>(probs, row, out);
}

/// The two stage-5 sweeps, by dimension.
#[inline]
fn sv_rows_mac_dim<'a, const ADD: bool>(
    probs: &[u16],
    row: impl Fn(usize) -> &'a [Fix8x4],
    out: &mut [i32],
) {
    match out.len() {
        32 => sv_rows_mac_at::<32, true, ADD>(probs, row, out),
        64 => sv_rows_mac_at::<64, true, ADD>(probs, row, out),
        128 => sv_rows_mac_at::<128, true, ADD>(probs, row, out),
        _ => sv_rows_mac_at::<32, false, ADD>(probs, row, out),
    }
}

/// Why an op of more than one chain narrows its `i64` sums: the bound its
/// row rests on.
const ROW_FITS: &str = "an op's stage-5 row fits i32 (its probabilities sum below 2^24)";

/// Writes (`ADD` false) or adds (`ADD` true) one column block's sums.
#[inline(always)]
fn settle<const ADD: bool>(out: &mut [i32], sums: &[i32]) {
    for (o, &sum) in out.iter_mut().zip(sums) {
        *o = if ADD { *o + sum } else { sum };
    }
}

/// [`settle`] for the `i64` sums of an op of several chains.
#[inline(always)]
fn settle_wide<const ADD: bool>(out: &mut [i32], sums: &[i64]) {
    for (o, &sum) in out.iter_mut().zip(sums) {
        let sum = if ADD { i64::from(*o) + sum } else { sum };
        *o = i32::try_from(sum).expect(ROW_FITS);
    }
}

/// [`sv_rows_mac`] (`ADD` false) or [`sv_rows_mac_add`] in column blocks
/// of `B` lanes; `EXACT` promises `out.len() == B`.
fn sv_rows_mac_at<'a, const B: usize, const EXACT: bool, const ADD: bool>(
    probs: &[u16],
    row: impl Fn(usize) -> &'a [Fix8x4],
    out: &mut [i32],
) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512bw", target_feature = "avx512vnni"))]
    if EXACT && (B == 64 || B == 128) {
        return lanes::sv_rows_mac::<ADD>(probs, row, out);
    }
    let d = if EXACT { B } else { out.len() };
    for base in (0..d).step_by(B) {
        let width = if EXACT { B } else { B.min(d - base) };
        let out = &mut out[base..base + width];
        let chain = |c: usize, probs: &[u16]| {
            let mut chain = [0i32; B];
            for (i, &p) in probs.iter().enumerate() {
                let v = row(c * SV_I32_SAFE_KEYS + i);
                sv_row_mac_i32(&mut chain[..width], p, &v[base..base + width]);
            }
            chain
        };
        if probs.len() <= SV_I32_SAFE_KEYS {
            settle::<ADD>(out, &chain(0, probs));
        } else {
            let mut total = [0i64; B];
            for (c, probs) in probs.chunks(SV_I32_SAFE_KEYS).enumerate() {
                for (t, &sum) in total.iter_mut().zip(&chain(c, probs)) {
                    *t += i64::from(sum);
                }
            }
            settle_wide::<ADD>(out, &total);
        }
    }
}

/// The two whole-op MAC sweeps in explicit 512-bit VNNI lanes, for rows of
/// whole 64-byte vectors (d = 64, 128).
///
/// Compiled only when the build itself targets AVX-512 BW + VNNI (`-C
/// target-cpu=native` on such a host); every other build has the safe
/// bodies above and nothing else — there is no run-time switch. Same exact
/// integer results: the 8-bit dot-product instruction does not saturate,
/// and every regrouping below is of exact integer sums. What the `unsafe`
/// buys is recorded in EXPERIMENTS.md ("Kernel at serving dimensions"):
/// the autovectorizer never leaves 128-bit lanes for stage 1 and spends
/// two multiply micro-ops per eight columns in stage 5.
///
/// Neither sweep passes a closure of its own to a generic library
/// function (`map`, `from_fn`, ...): code compiled for these target
/// features cannot inline into a callee compiled without them, and an
/// out-of-line call in the key loop spills every accumulator.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512bw", target_feature = "avx512vnni"))]
mod lanes {
    use super::{Fix8x4, SV_I32_SAFE_KEYS};
    use std::arch::x86_64::*;

    /// Bytes per vector.
    const W: usize = 64;

    /// Vector `n` of a quantized row.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(row: &[Fix8x4], n: usize) -> __m512i {
        let bytes: &[Fix8x4; W] = row[n * W..][..W].try_into().expect("a 64-element chunk");
        // SAFETY: `bytes` is 64 readable, initialized bytes (`Fix8x4` is
        // `repr(transparent)` over `i8`); `loadu` has no alignment
        // requirement.
        unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
    }

    /// The sixteen 32-bit lanes of a vector.
    #[inline]
    fn lanes_of(v: __m512i) -> [i32; 16] {
        // SAFETY: both types are 64 bytes of plain integers; every bit
        // pattern is valid for either.
        unsafe { std::mem::transmute(v) }
    }

    #[inline]
    pub(super) fn qk_dot_rows<'a>(
        q: &[Fix8x4],
        len: usize,
        row: impl Fn(usize) -> &'a [Fix8x4],
        scores: &mut Vec<i32>,
    ) {
        // SAFETY: this module exists only in builds whose target features
        // include the ones the callee enables (the `cfg` on the module).
        unsafe {
            match q.len() / W {
                1 => dot_rows::<1>(q, len, row, scores),
                _ => dot_rows::<2>(q, len, row, scores),
            }
        }
    }

    #[inline]
    pub(super) fn sv_rows_mac<'a, const ADD: bool>(
        probs: &[u16],
        row: impl Fn(usize) -> &'a [Fix8x4],
        out: &mut [i32],
    ) {
        // SAFETY: as in `qk_dot_rows`.
        unsafe {
            match out.len() / W {
                1 => mac_rows::<1, ADD>(probs, row, out),
                _ => mac_rows::<2, ADD>(probs, row, out),
            }
        }
    }

    /// The positions `base..base + len` four at a time; a ragged last quad
    /// repeats its last position (whose lanes are then computed and
    /// dropped, or weighted zero).
    #[inline]
    fn quads(base: usize, len: usize) -> impl Iterator<Item = [usize; 4]> {
        (0..len.div_ceil(4)).map(move |q| {
            let quad = [4 * q, 4 * q + 1, 4 * q + 2, 4 * q + 3].map(|i| base + i);
            if 4 * q + 4 <= len {
                quad
            } else {
                quad.map(|i| i.min(base + len - 1))
            }
        })
    }

    /// Stage 1 for rows of `N` vectors.
    ///
    /// The VNNI byte form multiplies unsigned by signed bytes, so the key
    /// bytes are biased to unsigned (`k + 128`, one XOR) and the surplus
    /// `128 * Σq` — a constant of the op — comes off every score:
    /// `Σ (k + 128) q = Σ k q + 128 Σ q`. Keys go four at a time so the
    /// horizontal sum is a shared transpose-and-add tree rather than one
    /// full reduction per key.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn dot_rows<'a, const N: usize>(
        q: &[Fix8x4],
        len: usize,
        row: impl Fn(usize) -> &'a [Fix8x4],
        scores: &mut Vec<i32>,
    ) {
        let bias = _mm512_set1_epi8(i8::MIN);
        let mut qv = [_mm512_setzero_si512(); N];
        let mut q_sum = _mm512_setzero_si512();
        for (n, qv) in qv.iter_mut().enumerate() {
            *qv = load(q, n);
            q_sum = _mm512_dpbusd_epi32(q_sum, _mm512_set1_epi8(1), *qv);
        }
        let surplus = _mm_set1_epi32(128 * _mm512_reduce_add_epi32(q_sum));
        // Whole quads of scores; a ragged quad's surplus lanes are cut off
        // at the end.
        let start = scores.len();
        scores.resize(start + len.next_multiple_of(4), 0);
        for (quad, quad_scores) in quads(0, len).zip(scores[start..].chunks_exact_mut(4)) {
            let mut a = [_mm512_setzero_si512(); 4];
            for (a, &key) in a.iter_mut().zip(&quad) {
                let k = row(key);
                for (n, &qv) in qv.iter().enumerate() {
                    *a = _mm512_dpbusd_epi32(*a, _mm512_xor_si512(load(k, n), bias), qv);
                }
            }
            // Per 128-bit group: [a0, a1 | a0, a1] then [a0, a1, a2, a3],
            // each the sum of that key's four lanes in the group; then the
            // four groups fold together.
            let s01 = _mm512_add_epi32(
                _mm512_unpacklo_epi32(a[0], a[1]),
                _mm512_unpackhi_epi32(a[0], a[1]),
            );
            let s23 = _mm512_add_epi32(
                _mm512_unpacklo_epi32(a[2], a[3]),
                _mm512_unpackhi_epi32(a[2], a[3]),
            );
            let s =
                _mm512_add_epi32(_mm512_unpacklo_epi64(s01, s23), _mm512_unpackhi_epi64(s01, s23));
            let s = _mm256_add_epi32(_mm512_castsi512_si256(s), _mm512_extracti64x4_epi64::<1>(s));
            let s = _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s));
            let s = _mm_sub_epi32(s, surplus);
            quad_scores.copy_from_slice(&[
                _mm_extract_epi32::<0>(s),
                _mm_extract_epi32::<1>(s),
                _mm_extract_epi32::<2>(s),
                _mm_extract_epi32::<3>(s),
            ]);
        }
        scores.truncate(start + len);
    }

    /// Stage 5 for rows of `N` vectors.
    ///
    /// A Q.15 probability is two bytes, `p = 256 * hi + lo` with both
    /// halves in `0..=255` (`hi` is 128 at probability one), so `Σ p v =
    /// 256 * Σ hi v + Σ lo v` — two unsigned-by-signed byte dot products.
    /// Four value rows are byte-transposed so each 32-bit lane holds one
    /// column's four values, and one VNNI instruction per half
    /// accumulates four keys into sixteen columns. The transposition
    /// leaves the columns in a fixed permuted order, undone once per
    /// chain; a one-chain op's row then goes to `out` in whole vectors.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn mac_rows<'a, const N: usize, const ADD: bool>(
        probs: &[u16],
        row: impl Fn(usize) -> &'a [Fix8x4],
        out: &mut [i32],
    ) {
        /// Keys of an array-shaped op on the default 32-column array.
        const SHORT: usize = 32;
        // Whole quads per chain, so only the op's last quad is ragged.
        const CHAIN: usize = SV_I32_SAFE_KEYS / 4 * 4;
        let chain = if probs.len() <= SHORT {
            mac_chain::<N, SHORT>(probs, 0, &row)
        } else if probs.len() <= CHAIN {
            mac_chain::<N, CHAIN>(probs, 0, &row)
        } else {
            // Past one chain: the chains' rows summed in `i64`, then
            // narrowed. Only ops longer than the array (a global row's
            // keys) come here.
            let mut total = [0i64; 2 * W];
            for (c, probs) in probs.chunks(CHAIN).enumerate() {
                let sums = mac_chain::<N, CHAIN>(probs, c * CHAIN, &row);
                for (total, &v) in total.chunks_exact_mut(16).zip(sums.iter().flatten()) {
                    for (t, sum) in total.iter_mut().zip(lanes_of(v)) {
                        *t += i64::from(sum);
                    }
                }
            }
            return super::settle_wide::<ADD>(out, &total);
        };
        for (v, out) in chain.iter().flatten().zip(out.chunks_exact_mut(16)) {
            let out: &mut [i32; 16] = out.try_into().expect("16 columns");
            // SAFETY: `out` is sixteen writable `i32`; `loadu` / `storeu`
            // have no alignment requirement.
            unsafe {
                let v =
                    if ADD { _mm512_add_epi32(_mm512_loadu_epi32(out.as_ptr()), *v) } else { *v };
                _mm512_storeu_epi32(out.as_mut_ptr(), v);
            }
        }
    }

    /// One chain of at most `CAP` keys (a multiple of four) — the op's
    /// positions from `base` on: vector `g` of row vector `n` holds
    /// columns `64n + 16g ..` of the chain's sums, in order.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    fn mac_chain<'a, const N: usize, const CAP: usize>(
        probs: &[u16],
        base: usize,
        row: &impl Fn(usize) -> &'a [Fix8x4],
    ) -> [[__m512i; 4]; N] {
        // The probabilities' byte halves, one vector sweep each; the tail
        // stays zero, which is what weights a ragged last quad's padding.
        let (mut p_hi, mut p_lo) = ([0u8; CAP], [0u8; CAP]);
        for ((hi, lo), &p) in p_hi.iter_mut().zip(&mut p_lo).zip(probs) {
            (*hi, *lo) = ((p >> 8) as u8, p as u8);
        }
        let mut hi = [[_mm512_setzero_si512(); 4]; N];
        let mut lo = [[_mm512_setzero_si512(); 4]; N];
        let words = p_hi.chunks_exact(4).zip(p_lo.chunks_exact(4));
        for (quad, (p_hi, p_lo)) in quads(base, probs.len()).zip(words) {
            // Key `i` of the quad in byte `i` of every 32-bit lane.
            let word = |bytes: &[u8]| {
                let word: [u8; 4] = bytes.try_into().expect("four bytes");
                _mm512_set1_epi32(i32::from_le_bytes(word))
            };
            let (p_hi, p_lo) = (word(p_hi), word(p_lo));
            let rows = [row(quad[0]), row(quad[1]), row(quad[2]), row(quad[3])];
            for n in 0..N {
                let (a, b) = (load(rows[0], n), load(rows[1], n));
                let (c, d) = (load(rows[2], n), load(rows[3], n));
                let (ab_lo, ab_hi) = (_mm512_unpacklo_epi8(a, b), _mm512_unpackhi_epi8(a, b));
                let (cd_lo, cd_hi) = (_mm512_unpacklo_epi8(c, d), _mm512_unpackhi_epi8(c, d));
                // Lane `w` of 128-bit group `g` of `t[i]` holds column
                // `64n + 16g + 4i + w` of the four rows.
                let t = [
                    _mm512_unpacklo_epi16(ab_lo, cd_lo),
                    _mm512_unpackhi_epi16(ab_lo, cd_lo),
                    _mm512_unpacklo_epi16(ab_hi, cd_hi),
                    _mm512_unpackhi_epi16(ab_hi, cd_hi),
                ];
                for i in 0..4 {
                    hi[n][i] = _mm512_dpbusd_epi32(hi[n][i], p_hi, t[i]);
                    lo[n][i] = _mm512_dpbusd_epi32(lo[n][i], p_lo, t[i]);
                }
            }
        }
        let mut sums = [[_mm512_setzero_si512(); 4]; N];
        for n in 0..N {
            let mut s = [_mm512_setzero_si512(); 4];
            for (s, (&hi, &lo)) in s.iter_mut().zip(hi[n].iter().zip(&lo[n])) {
                *s = _mm512_add_epi32(_mm512_slli_epi32::<8>(hi), lo);
            }
            // Group `g` of `s[i]` is columns `16g + 4i ..`: a 4 x 4
            // transpose of 128-bit groups puts group `i` of vector `g` there.
            let (a, b) = (
                _mm512_shuffle_i32x4::<0x44>(s[0], s[1]),
                _mm512_shuffle_i32x4::<0x44>(s[2], s[3]),
            );
            let (c, e) = (
                _mm512_shuffle_i32x4::<0xEE>(s[0], s[1]),
                _mm512_shuffle_i32x4::<0xEE>(s[2], s[3]),
            );
            sums[n] = [
                _mm512_shuffle_i32x4::<0x88>(a, b),
                _mm512_shuffle_i32x4::<0xDD>(a, b),
                _mm512_shuffle_i32x4::<0x88>(c, e),
                _mm512_shuffle_i32x4::<0xDD>(c, e),
            ];
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qk_mac_matches_float() {
        let mut sat = MacSaturation::default();
        let q = Fix8x4::from_f32(1.5);
        let k = Fix8x4::from_f32(-2.25);
        let acc = qk_mac(0, q, k, &mut sat);
        // 1.5 * -2.25 = -3.375; Q.8 raw = -864
        assert_eq!(acc, -864);
        assert!((acc as f32 / 256.0 + 3.375).abs() < f32::EPSILON);
        assert!(!sat.saturated());
    }

    #[test]
    fn qk_dot_order_is_deterministic() {
        let mut sat = MacSaturation::default();
        let q: Vec<Fix8x4> = [1.0, 2.0, 3.0].iter().map(|&x| Fix8x4::from_f32(x)).collect();
        let k: Vec<Fix8x4> = [0.5, -0.5, 1.0].iter().map(|&x| Fix8x4::from_f32(x)).collect();
        let acc = qk_dot(&q, &k, &mut sat);
        // 0.5 - 1.0 + 3.0 = 2.5 -> raw 640
        assert_eq!(acc, 640);
    }

    #[test]
    fn qk_mac_saturates_instead_of_wrapping() {
        let mut sat = MacSaturation::default();
        let q = Fix8x4::MAX;
        let acc = qk_mac(i32::MAX - 1, q, q, &mut sat);
        assert_eq!(acc, i32::MAX);
        assert!(sat.saturated());
        let acc = qk_mac(i32::MIN + 1, Fix8x4::MIN, Fix8x4::MAX, &mut sat);
        assert_eq!(acc, i32::MIN);
        assert_eq!(sat.events, 2);
    }

    #[test]
    fn sv_mac_scale() {
        let mut sat = MacSaturation::default();
        // prob = 0.5 (Q.15 raw 16384), v = 2.0 (raw 32): product value 1.0
        let acc = sv_mac(0, 16384, Fix8x4::from_f32(2.0), &mut sat);
        assert_eq!(acc, 1 << 19);
        assert!(!sat.saturated());
    }

    #[test]
    fn sv_mac_saturates() {
        let mut sat = MacSaturation::default();
        let acc = sv_mac(i64::MAX - 1, u16::MAX, Fix8x4::MAX, &mut sat);
        assert_eq!(acc, i64::MAX);
        assert!(sat.saturated());
    }

    #[test]
    fn saturation_merge() {
        let mut a = MacSaturation { events: 2 };
        a.merge(MacSaturation { events: 3 });
        assert_eq!(a.events, 5);
    }

    #[test]
    fn worst_case_dot_product_fits_i32() {
        // d = 128 extreme elements cannot overflow the Q.8 i32 accumulator.
        let mut sat = MacSaturation::default();
        let q = vec![Fix8x4::MIN; 128];
        let k = vec![Fix8x4::MAX; 128];
        let _ = qk_dot(&q, &k, &mut sat);
        assert!(!sat.saturated());
    }

    /// The checked per-step fold — the reference the chunked fast path is
    /// pinned against at the overflow boundary.
    fn qk_dot_checked(q: &[Fix8x4], k: &[Fix8x4], sat: &mut MacSaturation) -> i32 {
        let mut acc = 0i32;
        for (&qe, &ke) in q.iter().zip(k) {
            acc = qk_mac(acc, qe, ke, sat);
        }
        acc
    }

    #[test]
    fn qk_dot_at_safe_dim_boundary_matches_checked_path() {
        // Exactly at QK_DOT_SAFE_DIM the chunked fast path applies and the
        // worst-case sum (every product +2^14) is 131071 * 16384 =
        // i32::MAX - 16383: no wrap, no saturation, bit-identical to the
        // checked fold.
        let q = vec![Fix8x4::MIN; QK_DOT_SAFE_DIM];
        let k = vec![Fix8x4::MIN; QK_DOT_SAFE_DIM];
        let mut fast_sat = MacSaturation::default();
        let fast = qk_dot(&q, &k, &mut fast_sat);
        let mut ref_sat = MacSaturation::default();
        let reference = qk_dot_checked(&q, &k, &mut ref_sat);
        assert_eq!(fast, reference);
        assert_eq!(fast, 131_071 * 16_384);
        assert_eq!(fast_sat.events, ref_sat.events);
        assert!(!fast_sat.saturated());

        // Mixed-sign data at the boundary dimension too.
        let q: Vec<Fix8x4> = (0..QK_DOT_SAFE_DIM)
            .map(|i| Fix8x4::from_raw(((i as i64 * 37 + 11) % 255 - 127) as i8))
            .collect();
        let k: Vec<Fix8x4> = (0..QK_DOT_SAFE_DIM)
            .map(|i| Fix8x4::from_raw(((i as i64 * 53 + 5) % 255 - 127) as i8))
            .collect();
        let mut fast_sat = MacSaturation::default();
        let mut ref_sat = MacSaturation::default();
        assert_eq!(qk_dot(&q, &k, &mut fast_sat), qk_dot_checked(&q, &k, &mut ref_sat));
        assert_eq!(fast_sat.events, 0);
        assert_eq!(ref_sat.events, 0);
    }

    #[test]
    fn qk_dot_one_past_safe_dim_takes_checked_path_and_saturates() {
        // One past the bound the worst-case sum exceeds i32::MAX, so
        // qk_dot must route to the checked fold: it saturates (once, on
        // the final step) instead of wrapping, and agrees with the
        // reference fold including the event count.
        let dim = QK_DOT_SAFE_DIM + 1;
        let q = vec![Fix8x4::MIN; dim];
        let k = vec![Fix8x4::MIN; dim];
        let mut sat = MacSaturation::default();
        let acc = qk_dot(&q, &k, &mut sat);
        let mut ref_sat = MacSaturation::default();
        let reference = qk_dot_checked(&q, &k, &mut ref_sat);
        assert_eq!(acc, reference);
        assert_eq!(acc, i32::MAX);
        assert_eq!(sat.events, ref_sat.events);
        assert_eq!(sat.events, 1);
    }

    #[test]
    fn sv_row_mac_i32_full_safe_chain_matches_i64_form() {
        // A full SV_I32_SAFE_KEYS-long chain of extreme products, run in
        // the narrow i32 accumulator against the i64 form: both agree bit
        // for bit and nothing wraps.
        let d = 5;
        let prob = PROB_ONE_TEST;
        let v = vec![Fix8x4::MIN; d];
        let mut narrow = vec![0i32; d];
        let mut wide = vec![0i64; d];
        for _ in 0..SV_I32_SAFE_KEYS {
            sv_row_mac_i32(&mut narrow, prob, &v);
            sv_row_mac(&mut wide, prob, &v);
        }
        assert!(narrow.iter().zip(&wide).all(|(&b, &w)| i64::from(b) == w));
        // The chain really is at the edge: magnitude 511 * 2^22, inside
        // i32 by 16383.
        assert_eq!(i64::from(narrow[0]), -(SV_I32_SAFE_KEYS as i64) * (1 << 22));
    }

    /// Probability 1.0 raw value, kept local to avoid a crate-level import
    /// cycle in tests.
    const PROB_ONE_TEST: u16 = 1 << 15;

    /// `n` rows of `d` elements: extreme-heavy, deterministic, every row
    /// different.
    fn arena(n: usize, d: usize, salt: usize) -> Vec<Fix8x4> {
        (0..n * d)
            .map(|i| {
                let x = (i * 2_654_435_761 + salt * 40_503) >> 7;
                Fix8x4::from_raw(match x % 5 {
                    0 => i8::MIN,
                    1 => i8::MAX,
                    _ => (x % 255) as u8 as i8,
                })
            })
            .collect()
    }

    /// Dimensions on both sides of every instantiation, and key counts on
    /// both sides of a quad, of the short-op bound and of the 32-bit chain
    /// bound.
    const DIMS: [usize; 10] = [1, 7, 31, 32, 33, 48, 64, 100, 128, 192];
    const KEY_COUNTS: [usize; 12] = [0, 1, 3, 4, 5, 31, 32, 33, 508, 511, 512, 1100];

    #[test]
    fn qk_dot_rows_is_qk_dot_per_key() {
        for d in DIMS {
            let (q, k) = (arena(1, d, 1), arena(64, d, 2));
            for count in KEY_COUNTS {
                // Scattered, repeating keys: rows need not be contiguous.
                let keys: Vec<u32> = (0..count).map(|i| (i * 37 % 64) as u32).collect();
                let row = |j: u32| &k[j as usize * d..][..d];
                let mut sat = MacSaturation::default();
                let mut scores = vec![-7]; // appended to, not cleared
                qk_dot_rows(&q, count, |i| row(keys[i]), &mut scores, &mut sat);
                let per_key: Vec<i32> =
                    keys.iter().map(|&j| qk_dot(&q, row(j), &mut sat)).collect();
                assert_eq!(scores[0], -7);
                assert_eq!(scores[1..], per_key, "d = {d}, {count} keys");
                assert_eq!(sat.events, 0);
            }
        }
    }

    #[test]
    fn sv_rows_mac_is_the_i64_chain() {
        for d in DIMS {
            let v = arena(64, d, 3);
            for count in KEY_COUNTS {
                let keys: Vec<u32> = (0..count).map(|i| (i * 29 % 64) as u32).collect();
                // Probability one, zero, and both byte halves saturated.
                let probs: Vec<u16> = (0..count)
                    .map(|i| match i % 4 {
                        0 => PROB_ONE_TEST,
                        1 => 0,
                        2 => 0x7fff,
                        _ => (i * 7919 % 32768) as u16,
                    })
                    .collect();
                let row = |j: u32| &v[j as usize * d..][..d];
                let mut out = vec![i32::MIN; d]; // written over, not added to
                sv_rows_mac(&probs, |i| row(keys[i]), &mut out);
                let mut chain = vec![0i64; d];
                for (&p, &j) in probs.iter().zip(&keys) {
                    sv_row_mac(&mut chain, p, row(j));
                }
                let out: Vec<i64> = out.into_iter().map(i64::from).collect();
                assert_eq!(out, chain, "d = {d}, {count} keys");
            }
        }
    }

    #[test]
    fn sv_rows_mac_add_in_pieces_is_one_sweep() {
        // An op's keys cut anywhere, the pieces added one after the other
        // onto a row that already holds something: that row plus the sweep.
        for d in DIMS {
            let v = arena(64, d, 4);
            let row = |i: usize| &v[i % 64 * d..][..d];
            for count in KEY_COUNTS {
                let probs: Vec<u16> = (0..count).map(|i| (i * 7919 % 32769) as u16).collect();
                let mut whole = vec![0i32; d];
                sv_rows_mac(&probs, row, &mut whole);
                for cut in [0, 1, 3, count / 2, count.saturating_sub(1), count] {
                    let (head, tail) = probs.split_at(cut.min(count));
                    let mut out: Vec<i32> = (0..d as i32).map(|e| e - 3).collect();
                    sv_rows_mac_add(head, row, &mut out);
                    sv_rows_mac_add(tail, |i| row(head.len() + i), &mut out);
                    let expected: Vec<i32> = (0..).zip(&whole).map(|(e, &w)| w + e - 3).collect();
                    assert_eq!(out, expected, "d = {d}, {count} keys cut at {}", head.len());
                }
            }
        }
    }

    #[test]
    fn sv_rows_mac_holds_the_worst_case_chain() {
        // Every product at its extreme, past the 32-bit chain bound, to a
        // row at the edge of what 32 bits hold: a full chain at
        // probability one, then the probabilities up to a sum of 2^24 - 1.
        // The chains must neither wrap nor lose anything against the i64
        // chain, and the row sits 128 inside `i32::MIN`.
        for d in [32, 64, 100] {
            let v = vec![Fix8x4::MIN; d];
            let mut probs = vec![PROB_ONE_TEST; SV_I32_SAFE_KEYS];
            probs.extend([PROB_ONE_TEST - 1, 0, 0, 0, 0]);
            probs.resize(3 * SV_I32_SAFE_KEYS + 2, 0);
            let mut out = vec![0i32; d];
            sv_rows_mac(&probs, |_| &v[..], &mut out);
            assert!(out.iter().all(|&o| o == i32::MIN + 128), "d = {d}");
        }
    }

    #[test]
    #[should_panic(expected = "fits i32")]
    fn sv_rows_mac_refuses_a_row_past_i32() {
        // Two probability LSBs more than the row above: 128 past `i32::MIN`.
        let (d, v) = (64, vec![Fix8x4::MIN; 64]);
        let mut probs = vec![PROB_ONE_TEST; SV_I32_SAFE_KEYS + 1];
        probs.push(1);
        probs.resize(2 * SV_I32_SAFE_KEYS, 0);
        sv_rows_mac(&probs, |_| &v[..], &mut vec![0i32; d]);
    }

    #[test]
    fn qk_dot_rows_past_the_safe_dimension_counts_saturation() {
        let d = QK_DOT_SAFE_DIM + 1;
        let (q, k) = (vec![Fix8x4::MIN; d], vec![Fix8x4::MIN; d]);
        let mut sat = MacSaturation::default();
        let mut scores = Vec::new();
        qk_dot_rows(&q, 2, |_| &k[..], &mut scores, &mut sat);
        assert_eq!(scores, [i32::MAX, i32::MAX]);
        assert_eq!(sat.events, 2);
    }
}
