//! Property-based tests for the pattern abstraction.

use proptest::prelude::*;
use salo_patterns::{
    fit_pattern, longformer, BlockLayout, DenseMask, FitConfig, HybridPattern, PatternTerm,
    SupportRuns, Window,
};

/// Strategy: a valid window with bounded extents.
fn arb_window() -> impl Strategy<Value = Window> {
    (any::<bool>(), -20i64..20, 1usize..6, 0usize..12).prop_map(|(sym, lo, dil, width)| {
        if sym {
            Window::symmetric(width + 1).expect("symmetric")
        } else {
            let hi = lo + (width as i64) * dil as i64;
            Window::dilated(lo, hi, dil).expect("dilated")
        }
    })
}

fn arb_pattern() -> impl Strategy<Value = HybridPattern> {
    (8usize..64, prop::collection::vec(arb_window(), 1..4), prop::collection::vec(0usize..8, 0..3))
        .prop_map(|(n, windows, globals)| {
            HybridPattern::builder(n)
                .windows(windows)
                .global_tokens(globals.into_iter().filter(move |&g| g < n))
                .build()
                .expect("valid pattern")
        })
}

/// Raw descriptor for one IR term, generated independently of `n` and
/// materialized by [`build_term`] once the sequence length is known:
/// `(kind, window params, small numerics, seed, block pairs, support rows)`.
type RawTerm =
    (u8, (bool, i64, usize, usize), (usize, usize, usize), u64, Vec<(usize, usize)>, Vec<Vec<u32>>);

fn arb_raw_term() -> impl Strategy<Value = RawTerm> {
    (
        0u8..6,
        (any::<bool>(), -20i64..20, 1usize..6, 0usize..12),
        (0usize..64, 0usize..64, 0usize..64),
        any::<u64>(),
        prop::collection::vec((0usize..64, 0usize..64), 1..4),
        prop::collection::vec(prop::collection::vec(0u32..64, 0..4), 0..8),
    )
}

/// Materializes a [`RawTerm`] into a valid [`PatternTerm`] for a sequence
/// of length `n`; `n`-dependent parameters (global tokens, block pairs,
/// support keys) are reduced modulo their valid ranges.
fn build_term(n: usize, raw: RawTerm) -> PatternTerm {
    let (kind, (sym, lo, dil, width), (a, b, c), seed, pairs, mut rows) = raw;
    match kind {
        0 => {
            let w = if sym {
                Window::symmetric(width + 1).expect("symmetric")
            } else {
                let hi = lo + (width as i64) * dil as i64;
                Window::dilated(lo, hi, dil).expect("dilated")
            };
            PatternTerm::Window(w)
        }
        1 => PatternTerm::Global { token: a % n },
        2 => PatternTerm::Strided { stride: 1 + a % 11, local: 1 + b % 11 },
        3 => {
            let block_rows = 1 + a % 9;
            let grid = n.div_ceil(block_rows);
            let layout = match b % 3 {
                0 => BlockLayout::Diagonal,
                1 => BlockLayout::Banded { radius: c % 3 },
                _ => BlockLayout::Explicit(
                    pairs.into_iter().map(|(r, col)| (r % grid, col % grid)).collect(),
                ),
            };
            PatternTerm::BlockSparse { block_rows, layout }
        }
        4 => PatternTerm::RandomBlocks { count: a % 4, seed },
        _ => {
            rows.resize(n, Vec::new());
            for row in &mut rows {
                for j in row.iter_mut() {
                    *j %= n as u32;
                }
            }
            PatternTerm::Support(SupportRuns::from_rows(n, &mut rows))
        }
    }
}

/// Strategy: a composition of 1..5 terms over a bounded sequence, filtered
/// to the compositions that normalize successfully (an all-empty
/// composition is rejected by construction).
fn arb_term_pattern() -> impl Strategy<Value = HybridPattern> {
    (8usize..48, prop::collection::vec(arb_raw_term(), 1..5)).prop_filter_map(
        "composition must normalize",
        |(n, raws)| {
            let terms: Vec<PatternTerm> = raws.into_iter().map(|raw| build_term(n, raw)).collect();
            HybridPattern::from_terms(n, terms).ok()
        },
    )
}

proptest! {
    /// `allows` agrees with the materialized dense mask everywhere.
    #[test]
    fn allows_matches_dense_mask(p in arb_pattern()) {
        let mask = DenseMask::from_pattern(&p);
        for i in 0..p.n() {
            for j in 0..p.n() {
                prop_assert_eq!(p.allows(i, j), mask.get(i, j), "({}, {})", i, j);
            }
        }
    }

    /// `nnz` equals the number of positions yielded by `iter`.
    #[test]
    fn nnz_matches_iter(p in arb_pattern()) {
        prop_assert_eq!(p.nnz(), p.iter().count() as u64);
    }

    /// Row keys are sorted, unique, in-range, and each is allowed.
    #[test]
    fn row_keys_well_formed(p in arb_pattern()) {
        for i in 0..p.n() {
            let keys = p.row_keys(i);
            prop_assert!(keys.windows(2).all(|ab| ab[0] < ab[1]), "sorted unique");
            for &j in &keys {
                prop_assert!(j < p.n());
                prop_assert!(p.allows(i, j));
            }
        }
    }

    /// Density is within [0, 1] (zero when every window offset falls outside
    /// the sequence) and nominal density bounds it loosely above.
    #[test]
    fn density_bounds(p in arb_pattern()) {
        let s = p.stats();
        prop_assert!((0.0..=1.0).contains(&s.density));
        prop_assert!(s.nominal_density <= 1.0);
        // Nominal ignores clipping so it can only undercount via overlap;
        // for overlap-free single-window patterns it upper-bounds density.
        if p.windows().len() == 1 && p.globals().is_empty() {
            prop_assert!(s.density <= s.nominal_density + 1e-12);
        }
    }

    /// Fitting the mask of a generated pattern reproduces its coverage.
    #[test]
    fn fit_round_trips_coverage(p in arb_pattern()) {
        let mask = DenseMask::from_pattern(&p);
        // Degenerate case: all window offsets out of range and no globals
        // produce an empty mask, which has no pattern to recover.
        prop_assume!(mask.nnz() > 0);
        let report = fit_pattern(&mask, FitConfig::default()).expect("fit");
        prop_assert_eq!(report.missed, 0, "missed {} positions", report.missed);
        // `extra` can be nonzero when global detection absorbs noise rows,
        // but coverage of the original mask must be complete and agreement
        // high.
        prop_assert!(report.agreement >= 0.95, "agreement {}", report.agreement);
    }

    /// Window offset iteration matches `contains_offset`.
    #[test]
    fn window_offsets_consistent(w in arb_window()) {
        let offsets: Vec<i64> = w.offsets().collect();
        prop_assert_eq!(offsets.len(), w.width());
        for &delta in &offsets {
            prop_assert!(w.contains_offset(delta));
        }
        // Between consecutive offsets nothing is contained.
        for pair in offsets.windows(2) {
            for delta in (pair[0] + 1)..pair[1] {
                prop_assert!(!w.contains_offset(delta));
            }
        }
    }

    /// Longformer nominal density formula: (w + 2 ng)/n, capped at 1.
    #[test]
    fn longformer_nominal_density(n in 32usize..256, w in 1usize..32, ng in 0usize..4) {
        let p = longformer(n, w, ng).expect("longformer");
        let s = p.stats();
        let expected = ((w as f64 + 2.0 * ng as f64) / n as f64).min(1.0);
        prop_assert!((s.nominal_density - expected).abs() < 1e-12);
    }

    /// Normalization is idempotent: rebuilding a pattern from its own
    /// term decomposition yields the identical pattern and fingerprint.
    #[test]
    fn term_normalization_is_idempotent(p in arb_term_pattern()) {
        let rebuilt = HybridPattern::from_terms(p.n(), p.terms().clone()).expect("rebuild");
        prop_assert_eq!(&rebuilt, &p);
        prop_assert_eq!(rebuilt.fingerprint(), p.fingerprint());
    }

    /// `allows` agrees with the dense rasterization for every term family,
    /// not just window/global compositions.
    #[test]
    fn term_allows_matches_dense_mask(p in arb_term_pattern()) {
        let mask = DenseMask::from_pattern(&p);
        prop_assert_eq!(p.nnz(), mask.nnz());
        for i in 0..p.n() {
            for j in 0..p.n() {
                prop_assert_eq!(p.allows(i, j), mask.get(i, j), "({}, {})", i, j);
            }
        }
    }

    /// Causal clipping of an IR pattern keeps exactly the lower-triangular
    /// window/residual cells (global rows/columns stay bidirectional by
    /// design) and itself normalizes idempotently.
    #[test]
    fn term_causal_keeps_lower_triangle(p in arb_term_pattern()) {
        let Ok(c) = p.causal() else {
            // Everything was strictly future-looking; nothing to check.
            return Ok(());
        };
        for i in 0..p.n() {
            for j in 0..p.n() {
                let expect = if p.is_global(i) || p.is_global(j) {
                    p.allows(i, j)
                } else {
                    j <= i && p.allows(i, j)
                };
                prop_assert_eq!(c.allows(i, j), expect, "({}, {})", i, j);
            }
        }
        let rebuilt = HybridPattern::from_terms(c.n(), c.terms().clone()).expect("rebuild");
        prop_assert_eq!(rebuilt, c);
    }
}
