//! The row primitive (stages 2–4) and the weighted-sum blend against their
//! scalar definitions, bit for bit.
//!
//! `fixed_softmax_parts_into` sweeps a row through the LUT's `u32` table
//! and multiplies by the broadcast reciprocal in 32-bit lanes;
//! `merge_part_into` blends a 32-bit part into an `i64` accumulator in
//! 32 × 32 → 64-bit products, and `merge_partials_into` is it for a part
//! held as a `PartialRow`. Both have an
//! explicit-lane body (builds that target AVX-512) and a portable body
//! (every other build), and a wide fallback each. The definitions they are
//! held to here share no sweep with them: `ExpLut::eval_q8` per element
//! summed left to right, `Recip::scale_to_prob` per element, and the
//! 128-bit blend written out below.
//!
//! CI runs this file in `--release` under every variant, beside the
//! simulator's `kernel_bits`: whichever body the build has is the one held
//! to the definition, and the `portable-kernel` variant builds the other.

use proptest::prelude::*;
use salo_fixed::{
    fixed_softmax_parts_into, merge_part_into, merge_partials_into, merge_weights, ExpLut,
    FixedError, PartialRow, Recip, RecipUnit, EXP_FRAC, SV_I32_SAFE_KEYS,
};

/// Stages 2–4 by definition. Also says whether stage 4 would shift right
/// (`false`: the row has to take the wide per-element form).
fn definition(
    scores: &[i32],
    exp: &ExpLut,
    recip: &RecipUnit,
) -> Result<(Vec<u16>, i64, Recip, bool), FixedError> {
    if scores.is_empty() {
        return Err(FixedError::EmptySoftmaxRow);
    }
    let exps: Vec<i64> = scores.iter().map(|&s| exp.eval_q8(s)).collect();
    let mut sum = 0i64;
    for &e in &exps {
        sum += e;
    }
    let inv = recip.recip(sum, EXP_FRAC)?;
    let probs = exps.iter().map(|&e| inv.scale_to_prob(e, EXP_FRAC)).collect();
    Ok((probs, sum, inv, inv.exp2 - (EXP_FRAC as i32) < 0))
}

/// The row primitive through reused buffers, as the datapath calls it.
struct Row {
    exps: Vec<u32>,
    probs: Vec<u16>,
}

impl Row {
    fn new() -> Self {
        // Stale contents of another length: the primitive must not care.
        Self { exps: vec![9; 5], probs: vec![9; 700] }
    }

    /// Runs the primitive on `scores` and holds it to the definition;
    /// returns the definition's answer.
    fn check(
        &mut self,
        scores: &[i32],
        exp: &ExpLut,
        recip: &RecipUnit,
        what: &str,
    ) -> Result<(Vec<u16>, i64, Recip, bool), FixedError> {
        let got = fixed_softmax_parts_into(scores, exp, recip, &mut self.exps, &mut self.probs);
        let want = definition(scores, exp, recip);
        match (&got, &want) {
            (Ok((sum, inv)), Ok((probs, want_sum, want_inv, _))) => {
                assert_eq!(sum, want_sum, "{what}: row sum");
                assert_eq!(inv, want_inv, "{what}: reciprocal");
                assert_eq!(&self.probs, probs, "{what}: probabilities");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{what}: error"),
            _ => panic!("{what}: {got:?} against the definition's {:?}", want.as_ref().err()),
        }
        want
    }
}

/// Deterministic scores: a third anywhere in `i32`, a third just around
/// the default domain's two ends, a third inside it.
fn scores(len: usize, salt: u64) -> Vec<i32> {
    let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let r = (x >> 16) as i32;
            match x % 3 {
                0 => r,
                1 => [-2048, 2048][(x >> 8) as usize % 2] + r % 40,
                _ => r % 2049,
            }
        })
        .collect()
}

#[test]
fn every_row_length_matches_the_definition() {
    // Lengths 1..=600: every `n mod 16` many times over (whole vectors, a
    // ragged tail, a tail alone) and one past `SV_I32_SAFE_KEYS`; the
    // default LUT (shift-indexed table) and one built through the division
    // index path.
    let recip = RecipUnit::new(64);
    let luts = [ExpLut::new(32), ExpLut::with_domain(24, -8.0, 8.0).expect("domain")];
    const { assert!(SV_I32_SAFE_KEYS < 600) };
    let mut row = Row::new();
    for (l, exp) in luts.iter().enumerate() {
        for len in 1..=600 {
            let scores = scores(len, (len * 2 + l) as u64);
            let (probs, ..) = row
                .check(&scores, exp, &recip, &format!("lut {l}, {len} keys"))
                .expect("a default-domain row has a positive sum");
            assert_eq!(probs.len(), len);
        }
    }
}

#[test]
fn the_whole_raw_range_and_both_clamp_sides_match_the_definition() {
    let (exp, recip) = (ExpLut::new(32), RecipUnit::new(64));
    let mut row = Row::new();
    // Every raw score from below the domain to above it, and the ends of
    // `i32`, in one row; then each clamp side alone, and a row of extremes.
    let sweep: Vec<i32> = (-2400..=2400).chain([i32::MIN, i32::MAX, i32::MIN + 1]).collect();
    row.check(&sweep, &exp, &recip, "sweep").expect("positive sum");
    for (what, fill) in [("below", i32::MIN), ("above", i32::MAX), ("low end", -2048)] {
        let (probs, sum, ..) = row.check(&[fill; 37], &exp, &recip, what).expect("positive sum");
        assert_eq!(sum, 37 * exp.eval_q8(fill));
        assert!(probs.iter().all(|&p| p == probs[0]));
    }
    let extremes: Vec<i32> =
        (0..100).map(|i| if i % 2 == 0 { i32::MIN } else { i32::MAX }).collect();
    row.check(&extremes, &exp, &recip, "extremes").expect("positive sum");
    // An empty row is the same typed error.
    assert_eq!(row.check(&[], &exp, &recip, "empty").err(), Some(FixedError::EmptySoftmaxRow));
}

#[test]
fn a_row_of_zero_exponentials_is_the_same_non_positive_reciprocal() {
    // A domain so far down that every tabulated value rounds to zero.
    let exp = ExpLut::with_domain(4, -20.0, -12.0).expect("domain");
    assert!((-5200..=-3000).all(|s| exp.eval_q8(s) == 0));
    let recip = RecipUnit::new(64);
    let mut row = Row::new();
    for len in [1, 16, 33] {
        let err = row.check(&scores(len, 5), &exp, &recip, "all zero").err();
        assert_eq!(err, Some(FixedError::NonPositiveReciprocal { raw: 0 }));
    }
}

#[test]
fn a_sum_of_one_takes_the_wide_form() {
    // One exponential of exactly 1 among zeros: the reciprocal's exponent
    // equals the fraction bits, stage 4 does not shift right, and the row
    // must take the wide per-element form rather than the 32-bit sweep.
    let exp = ExpLut::with_domain(8, -14.0, -10.0).expect("domain");
    let raws = -14 * 256..=-10 * 256;
    let one = raws.clone().find(|&s| exp.eval_q8(s) == 1).expect("a value of 1 in the table");
    let zero = raws.clone().find(|&s| exp.eval_q8(s) == 0).expect("a value of 0 in the table");
    let recip = RecipUnit::new(64);
    let mut row = Row::new();
    for len in [1, 17, 40] {
        let mut scores = vec![zero; len];
        scores[len / 2] = one;
        let (probs, sum, _, shifts_right) =
            row.check(&scores, &exp, &recip, "sum of one").expect("positive sum");
        assert_eq!(sum, 1);
        assert!(!shifts_right, "a sum of one inverts to an exponent of {EXP_FRAC}");
        assert_eq!(probs.iter().filter(|&&p| p > 0).count(), 1);
    }
    // And the ordinary case does shift right: the suite runs both forms.
    let (_, _, _, shifts_right) =
        row.check(&[0; 20], &ExpLut::new(32), &recip, "ordinary").expect("positive sum");
    assert!(shifts_right);
}

#[test]
fn luts_without_a_table_take_the_per_element_path() {
    let recip = RecipUnit::new(64);
    let mut row = Row::new();
    // Too wide for a table: 24 units is 6 144 Q.8 steps.
    let wide = ExpLut::with_domain(32, -12.0, 12.0).expect("domain");
    // Narrow enough for one, but e^12 in Q.16 needs 34 bits: a `u32` table
    // would have to truncate it, so there must be none.
    let tall = ExpLut::with_domain(4, 8.0, 12.0).expect("domain");
    assert!(tall.eval_q8(i32::MAX) > i64::from(u32::MAX));
    for (what, exp) in [("wide", &wide), ("tall", &tall)] {
        for len in [1, 15, 16, 17, 100] {
            let (probs, sum, ..) =
                row.check(&scores(len, 11), exp, &recip, what).expect("positive sum");
            assert_eq!(probs.len(), len);
            assert!(sum > 0);
        }
    }
    // Forty values of e^12: a sum past 2^38 that only the definition's
    // arithmetic gets right.
    let (_, sum, ..) = row.check(&[i32::MAX; 40], &tall, &recip, "tall row").expect("positive");
    assert!(sum > 1 << 38);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any buildable LUT — tabulated or not, shift- or division-indexed —
    /// any reciprocal table, any row: the primitive is the definition.
    #[test]
    fn the_row_primitive_is_its_definition(
        segments in 1usize..70,
        // Up to e^19: past it the scalar definition itself leaves `i64`.
        lo in -16i32..8,
        width in 1i32..12,
        entries in 1usize..80,
        newton in 0u32..3,
        row in prop::collection::vec(any::<i32>(), 1..80),
        squeeze in 0u32..24,
    ) {
        let exp = ExpLut::with_domain(segments, f64::from(lo), f64::from(lo + width))
            .expect("a whole-unit domain is buildable");
        let recip = RecipUnit::with_entries(entries, newton).expect("non-empty table");
        // Squeezed towards zero so that rows land inside the domain as
        // often as outside it.
        let row: Vec<i32> = row.iter().map(|&s| s >> squeeze).collect();
        let got = fixed_softmax_parts_into(&row, &exp, &recip, &mut Vec::new(), &mut vec![3; 7]);
        let want = definition(&row, &exp, &recip);
        match (got, want) {
            (Ok((sum, inv)), Ok((_, want_sum, want_inv, _))) => {
                prop_assert_eq!(sum, want_sum);
                prop_assert_eq!(inv, want_inv);
            }
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(false, "{got:?} against {:?}", want.err()),
        }
    }

    /// As above, probabilities included (through one reused pair of
    /// buffers, so a stale tail would show).
    #[test]
    fn the_probabilities_are_their_definition(
        segments in 1usize..70,
        lo in -16i32..4,
        width in 1i32..16,
        rows in prop::collection::vec(prop::collection::vec(-6000i32..6000, 1..70), 1..4),
    ) {
        let exp = ExpLut::with_domain(segments, f64::from(lo), f64::from(lo + width))
            .expect("a whole-unit domain is buildable");
        let recip = RecipUnit::new(64);
        let (mut exps, mut probs) = (Vec::new(), Vec::new());
        for row in &rows {
            let got = fixed_softmax_parts_into(row, &exp, &recip, &mut exps, &mut probs);
            match (got, definition(row, &exp, &recip)) {
                (Ok(_), Ok((want, ..))) => prop_assert_eq!(&probs, &want),
                (Err(got), Err(want)) => prop_assert_eq!(got, want),
                (got, want) => prop_assert!(false, "{got:?} against {:?}", want.err()),
            }
        }
    }
}

// ------------------------------------------------------------------ blend

/// The blend by definition: every element through 128 bits.
fn wide_blend(a: &[i64], b: &[i64], alpha: u16, beta: u16) -> Vec<i64> {
    a.iter()
        .zip(b)
        .map(|(&oa, &ob)| {
            ((i128::from(oa) * i128::from(alpha) + i128::from(ob) * i128::from(beta)) >> 15) as i64
        })
        .collect()
}

/// `merge_partials_into` against the definition on one pair of rows.
fn check_merge(a: &PartialRow, b: &PartialRow, recip: &RecipUnit, what: &str) {
    let (alpha, beta) = merge_weights(a.weight_q16, b.weight_q16, recip).expect("positive weights");
    let mut acc = a.clone();
    merge_partials_into(&mut acc, b, recip).expect("equal lengths");
    assert_eq!(acc.out_q19, wide_blend(&a.out_q19, &b.out_q19, alpha, beta), "{what}");
    assert_eq!(acc.weight_q16, a.weight_q16 + b.weight_q16, "{what}: weight");
}

const DIMS: [usize; 6] = [1, 8, 32, 48, 64, 128];

/// A datapath-sized row: every element inside 32 bits, both signs.
fn out_row(d: usize, salt: i64) -> Vec<i64> {
    (0..d as i64).map(|e| ((e * 2_654_435_761 + salt * 40_503) % (1 << 30)) - (1 << 29)).collect()
}

#[test]
fn the_blend_matches_the_wide_form_around_the_i32_threshold() {
    // A value at each end of `i32`, one beyond either, and far beyond
    // (where a 64-bit product would wrap), in either operand, in the first
    // vector, the last and a ragged tail: the whole-row choice between the
    // 32-bit sweep and the 128-bit form must never show.
    let recip = RecipUnit::new(64);
    let (w1, w2) = (5i64 << 16, 3i64 << 16);
    let edges = [
        i64::from(i32::MAX),
        i64::from(i32::MIN),
        i64::from(i32::MAX) + 1,
        i64::from(i32::MIN) - 1,
        (1 << 50) + 7,
        -(1 << 50) - 7,
        i64::MAX,
        i64::MIN,
    ];
    for d in DIMS {
        // No edge at all: the narrow form on every lane.
        let a = PartialRow { weight_q16: w1, out_q19: out_row(d, 1) };
        let b = PartialRow { weight_q16: w2, out_q19: out_row(d, 2) };
        check_merge(&a, &b, &recip, &format!("d {d}, no edge"));
        for edge in edges {
            for at in [0, d / 2, d - 1] {
                for edge_in_acc in [true, false] {
                    let (mut a, mut b) = (a.clone(), b.clone());
                    if edge_in_acc {
                        a.out_q19[at] = edge;
                    } else {
                        b.out_q19[at] = edge;
                    }
                    check_merge(&a, &b, &recip, &format!("d {d}, {edge} at {at}"));
                }
            }
        }
    }
}

#[test]
fn blend_weights_of_zero_and_one_match_the_wide_form() {
    // A table read without a Newton step can overestimate, so a weight
    // ratio near one clamps to 32768 exactly while the other side rounds
    // to 0 — the two ends of the multiplier's operand range.
    let recip = RecipUnit::with_entries(4, 0).expect("non-empty table");
    let heavy = 635i64 << 31; // mantissa 1.24: the end of the first table segment
    assert_eq!(merge_weights(heavy, 1, &recip).expect("positive"), (32768, 0));
    assert_eq!(merge_weights(1, heavy, &recip).expect("positive"), (0, 32768));
    for d in DIMS {
        for (w1, w2) in [(heavy, 1), (1, heavy)] {
            let a = PartialRow { weight_q16: w1, out_q19: out_row(d, 3) };
            let mut b = PartialRow { weight_q16: w2, out_q19: out_row(d, 4) };
            check_merge(&a, &b, &recip, &format!("d {d}, weights {w1}/{w2}"));
            // And with an element at each end of `i32`, where a weight of
            // 32768 makes the largest product the narrow form sees.
            b.out_q19[0] = i64::from(i32::MIN);
            b.out_q19[d - 1] = i64::from(i32::MAX);
            check_merge(&a, &b, &recip, &format!("d {d}, weights {w1}/{w2}, extremes"));
        }
    }
}

#[test]
fn empty_operands_keep_their_precedence() {
    let recip = RecipUnit::new(64);
    for d in DIMS {
        let full = PartialRow { weight_q16: 7 << 16, out_q19: out_row(d, 5) };
        // A zero-weight part whose output is not zero (a coarse LUT can
        // produce one).
        let weightless = PartialRow { weight_q16: 0, out_q19: out_row(d, 6) };
        // An empty accumulator takes the part, even a weightless one.
        for part in [&full, &weightless] {
            let mut acc = PartialRow::empty(d);
            merge_partials_into(&mut acc, part, &recip).expect("equal lengths");
            assert_eq!(&acc, part);
        }
        // An empty part is then the identity.
        let mut acc = full.clone();
        merge_partials_into(&mut acc, &weightless, &recip).expect("equal lengths");
        assert_eq!(acc, full);
        // A length mismatch is the same typed error, whatever the weights.
        let mut acc = full.clone();
        let short = PartialRow { weight_q16: 1 << 16, out_q19: vec![0; d + 1] };
        assert_eq!(
            merge_partials_into(&mut acc, &short, &recip),
            Err(FixedError::PartialLengthMismatch { expected: d, actual: d + 1 })
        );
        assert_eq!(acc, full, "a refused merge leaves the accumulator alone");
    }
}

// ------------------------------------------- the 32-bit part's merge

/// One merge by definition: an empty accumulator takes the part, an empty
/// part is the identity, anything else is the 128-bit blend.
fn merge_by_definition(
    acc: &mut PartialRow,
    weight: i64,
    part: &[i32],
    recip: &RecipUnit,
) -> Result<(), FixedError> {
    let part: Vec<i64> = part.iter().map(|&p| i64::from(p)).collect();
    if acc.weight_q16 == 0 {
        *acc = PartialRow { weight_q16: weight, out_q19: part };
    } else if weight != 0 {
        let (alpha, beta) = merge_weights(acc.weight_q16, weight, recip)?;
        acc.out_q19 = wide_blend(&acc.out_q19, &part, alpha, beta);
        acc.weight_q16 += weight;
    }
    Ok(())
}

/// Folds `parts` into a copy of `acc` three ways — `merge_part_into` on
/// the 32-bit row, `merge_partials_into` on the widened row, and the
/// definition — and holds them to one another after every merge: the same
/// accumulator, or the same error at the same part.
fn check_part_merges(acc: &PartialRow, parts: &[(i64, Vec<i32>)], recip: &RecipUnit, what: &str) {
    let (mut narrow, mut widened, mut defined) = (acc.clone(), acc.clone(), acc.clone());
    for (i, (weight, part)) in parts.iter().enumerate() {
        let wide =
            PartialRow { weight_q16: *weight, out_q19: part.iter().map(|&p| p.into()).collect() };
        let got = merge_part_into(&mut narrow, *weight, part, recip);
        assert_eq!(got, merge_partials_into(&mut widened, &wide, recip), "{what}: part {i}");
        assert_eq!(
            got,
            merge_by_definition(&mut defined, *weight, part, recip),
            "{what}: part {i}"
        );
        assert_eq!(narrow, widened, "{what}: part {i}");
        assert_eq!(narrow, defined, "{what}: part {i}");
        if got.is_err() {
            return;
        }
    }
}

/// A 32-bit part row: both signs, up to `2^bits` in magnitude.
fn part_row(d: usize, salt: i64, bits: u32) -> Vec<i32> {
    out_row(d, salt).into_iter().map(|o| (o >> (30 - bits)) as i32).collect()
}

#[test]
fn a_32_bit_part_merges_as_its_widened_row_in_every_named_case() {
    let recip = RecipUnit::new(64);
    for d in DIMS {
        let what = |case: &str| format!("d {d}, {case}");
        let full = PartialRow { weight_q16: 7 << 16, out_q19: out_row(d, 5) };
        let part = part_row(d, 6, 23);
        // An empty accumulator takes a zero-weight part whose row is not
        // zero, and keeps taking parts while its weight stays zero.
        let empty = PartialRow::empty(d);
        let parts = [(0, part.clone()), (0, part_row(d, 7, 30)), (3 << 16, part.clone())];
        check_part_merges(&empty, &parts, &recip, &what("empty takes a weightless part"));
        let mut acc = empty.clone();
        merge_part_into(&mut acc, 0, &part, &recip).expect("equal lengths");
        assert_eq!(acc.out_q19, part.iter().map(|&p| i64::from(p)).collect::<Vec<_>>());
        // A zero-weight part leaves a non-empty accumulator unchanged.
        check_part_merges(&full, &[(0, part.clone())], &recip, &what("weightless part"));
        let mut acc = full.clone();
        merge_part_into(&mut acc, 0, &part, &recip).expect("equal lengths");
        assert_eq!(acc, full);
        // Weights that sum to zero fail with the same error at the same
        // part, whichever merge, and leave the accumulator as it was.
        let zero_sum = [(2 << 16, part.clone()), (-(9 << 16), part_row(d, 8, 20)), (1, part)];
        check_part_merges(&full, &zero_sum, &recip, &what("zero sum"));
        let mut acc = full.clone();
        merge_part_into(&mut acc, 2 << 16, &zero_sum[0].1, &recip).expect("positive");
        let before = acc.clone();
        assert_eq!(
            merge_part_into(&mut acc, -(9 << 16), &zero_sum[1].1, &recip),
            Err(FixedError::NonPositiveReciprocal { raw: 0 })
        );
        assert_eq!(acc, before, "a refused merge leaves the accumulator alone");
        // An accumulator outside `i32` takes the 128-bit form.
        for edge in [i64::from(i32::MAX) + 1, i64::from(i32::MIN) - 1, 1 << 50, i64::MIN] {
            let mut beyond = full.clone();
            beyond.out_q19[d - 1] = edge;
            let parts = [(5 << 16, part_row(d, 9, 30)), (1 << 16, part_row(d, 10, 22))];
            check_part_merges(&beyond, &parts, &recip, &what(&format!("accumulator at {edge}")));
        }
        // A part of another length is the same typed error.
        let mut acc = full.clone();
        assert_eq!(
            merge_part_into(&mut acc, 1 << 16, &vec![0; d + 1], &recip),
            Err(FixedError::PartialLengthMismatch { expected: d, actual: d + 1 })
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random 32-bit parts and weights (zero among them) folded into an
    /// accumulator that starts empty or holds a row of any width: the
    /// 32-bit part merges as its widened row, and as the definition.
    #[test]
    fn a_32_bit_part_merges_as_its_widened_row(
        start in prop::collection::vec(any::<i64>(), 1..140),
        start_weight in (0u8..3, 1i64..1 << 40),
        parts in prop::collection::vec((0u8..3, 1i64..1 << 40, any::<u64>()), 1..6),
        narrow in 0u32..48,
    ) {
        let recip = RecipUnit::new(64);
        let d = start.len();
        // One weight in three is zero.
        let weight = |(zero, w): (u8, i64)| if zero == 0 { 0 } else { w };
        // `narrow` bits off the top: most accumulators fit 32 bits, some
        // do not.
        let acc = PartialRow {
            weight_q16: weight(start_weight),
            out_q19: start.iter().map(|&o| o >> (16 + narrow)).collect(),
        };
        let parts: Vec<(i64, Vec<i32>)> = parts
            .iter()
            .map(|&(zero, w, seed)| {
                let row = (0..d as u64).map(|e| ((e ^ seed).wrapping_mul(seed | 1) as i32) >> 8);
                (weight((zero, w)), row.collect())
            })
            .collect();
        check_part_merges(&acc, &parts, &recip, "random");
    }

    /// Random weights, random rows of any width up to 64 bits, any length:
    /// the blend is its 128-bit definition.
    #[test]
    fn the_blend_is_its_definition(
        w1 in 1i64..1 << 40,
        w2 in 1i64..1 << 40,
        a in prop::collection::vec(any::<i64>(), 1..140),
        narrow in 0u32..48,
        seed in any::<i64>(),
    ) {
        let recip = RecipUnit::new(64);
        // `narrow` bits off the top: most rows fit 32 bits, some do not.
        let a: Vec<i64> = a.iter().map(|&o| o >> (16 + narrow)).collect();
        let b: Vec<i64> = a.iter().map(|&o| (o ^ seed) >> (16 + narrow)).collect();
        let (alpha, beta) = merge_weights(w1, w2, &recip).expect("positive weights");
        let mut acc = PartialRow { weight_q16: w1, out_q19: a.clone() };
        let part = PartialRow { weight_q16: w2, out_q19: b.clone() };
        merge_partials_into(&mut acc, &part, &recip).expect("equal lengths");
        prop_assert_eq!(acc.out_q19, wide_blend(&a, &b, alpha, beta));
    }
}
