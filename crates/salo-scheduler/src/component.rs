//! Canonicalization of hybrid patterns into dataflow components.
//!
//! A *component* is a unit the PE array can execute directly: a set of
//! query indices, a set of key indices, and a list of offsets over
//! **virtual** indices (positions within those sets). For the translation
//! invariant kinds, the key attended by virtual query `p` at offset `o` is
//! `keys[p + o]` — the property SALO's diagonal K/V streaming requires.
//!
//! Canonicalization performs the paper's two transformations:
//!
//! * all undilated windows merge into one **direct** component (queries and
//!   keys are the identity mapping; offsets are the deduplicated union);
//! * each dilated window splits into `d` **class** components (the §4.2
//!   reordering): queries are residue class `r`, keys residue class
//!   `(r + lo) mod d`, and the dilated offsets become contiguous quotient
//!   offsets.
//!
//! The pattern IR's residual support (block-sparse, random and explicit
//! support terms) canonicalizes into one **row-support** component: a
//! gather unit whose keys are a per-row arena and whose offsets are slot
//! indices `0..max_row_len`. Virtual query `p` at slot `o` reads
//! `keys[starts[p] + o]` when `o` is inside row `p`'s run — not a
//! diagonal stream, but the same pass/tile/chunk machinery applies.
//!
//! Overlaps are resolved at this stage: a relative offset claimed by an
//! earlier window is dropped from later ones (every window covers *all*
//! queries via its classes, so ownership per offset is well defined), and
//! the residual support excludes window- and global-owned cells by
//! normalization. The resulting components cover every array-kept `(i, j)`
//! exactly once.

use salo_patterns::HybridPattern;

/// How a component maps virtual indices to sequence positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentKind {
    /// Identity mapping: virtual index == sequence index.
    Direct,
    /// A residue class of a dilated window: `class r` of modulus `d`.
    DilatedClass {
        /// The dilation (modulus).
        dilation: usize,
        /// Query residue class.
        query_class: usize,
        /// Key residue class.
        key_class: usize,
    },
    /// A gather over the pattern's residual support: virtual query `p`'s
    /// keys are the arena slice `keys[starts[p]..starts[p + 1]]`, and
    /// offsets index slots within that slice.
    RowSupport {
        /// CSR bounds into the component's key arena; length
        /// `num_queries + 1`.
        starts: Vec<u32>,
    },
}

/// One executable dataflow component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    kind: ComponentKind,
    /// Query sequence indices, ascending. Virtual query `p` is
    /// `queries[p]`.
    queries: Vec<usize>,
    /// Key sequence indices, ascending. Virtual key `q` is `keys[q]`.
    keys: Vec<usize>,
    /// Offsets over virtual indices, sorted ascending, deduplicated.
    offsets: Vec<i64>,
}

impl Component {
    /// The component's mapping kind.
    #[must_use]
    pub fn kind(&self) -> &ComponentKind {
        &self.kind
    }

    /// Query sequence indices (virtual -> actual).
    #[must_use]
    pub fn queries(&self) -> &[usize] {
        &self.queries
    }

    /// Key sequence indices (virtual -> actual).
    #[must_use]
    pub fn keys(&self) -> &[usize] {
        &self.keys
    }

    /// Virtual offsets, ascending.
    #[must_use]
    pub fn offsets(&self) -> &[i64] {
        &self.offsets
    }

    /// Number of virtual queries.
    #[must_use]
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// The actual key index attended by virtual query `p` at virtual
    /// offset `o`, if it falls inside the sequence (diagonal kinds) or
    /// inside the row's support slots (row-support kind).
    #[must_use]
    pub fn key_at(&self, p: usize, o: i64) -> Option<usize> {
        match &self.kind {
            ComponentKind::Direct | ComponentKind::DilatedClass { .. } => {
                let vk = p as i64 + o;
                if vk < 0 || vk >= self.keys.len() as i64 {
                    None
                } else {
                    Some(self.keys[vk as usize])
                }
            }
            ComponentKind::RowSupport { starts } => {
                let lo = starts[p] as i64;
                let hi = starts[p + 1] as i64;
                if o < 0 || lo + o >= hi {
                    None
                } else {
                    Some(self.keys[(lo + o) as usize])
                }
            }
        }
    }

    /// For a row-support component, the number of support slots of virtual
    /// query `p`; for diagonal kinds, `None`.
    #[must_use]
    pub fn row_len(&self, p: usize) -> Option<usize> {
        match &self.kind {
            ComponentKind::RowSupport { starts } => Some((starts[p + 1] - starts[p]) as usize),
            _ => None,
        }
    }
}

/// Canonicalizes a pattern's array part — windows plus residual support —
/// into dataflow components.
///
/// Global tokens are *not* handled here — they are scheduled onto the
/// global PE row/column by the plan builder. The returned components cover
/// exactly the positions `(i, j)` with `pattern.array_allows(i, j)`,
/// each once: window ownership resolves window/window overlaps, and the
/// residual support is window- and global-disjoint by normalization.
#[must_use]
pub fn canonicalize(pattern: &HybridPattern) -> Vec<Component> {
    let n = pattern.n();
    let mut claimed: std::collections::HashSet<i64> = std::collections::HashSet::new();
    let mut components = Vec::new();

    // 1. Direct component: union of all undilated windows' offsets.
    let mut direct: Vec<i64> = pattern
        .windows()
        .iter()
        .filter(|w| !w.is_dilated())
        .flat_map(|w| w.offsets().collect::<Vec<_>>())
        .collect();
    direct.sort_unstable();
    direct.dedup();
    if !direct.is_empty() {
        claimed.extend(direct.iter().copied());
        components.push(Component {
            kind: ComponentKind::Direct,
            queries: (0..n).collect(),
            keys: (0..n).collect(),
            offsets: direct,
        });
    }

    // 2. Dilated windows, in declaration order, one component per class.
    for w in pattern.windows().iter().filter(|w| w.is_dilated()) {
        let d = w.dilation();
        // Offsets surviving ownership resolution (uniform per delta:
        // every window covers all queries, so a claimed delta is fully
        // shadowed).
        let deltas: Vec<i64> = w.offsets().filter(|delta| claimed.insert(*delta)).collect();
        if deltas.is_empty() {
            continue;
        }
        for r in 0..d.min(n) {
            let queries: Vec<usize> = (r..n).step_by(d).collect();
            // All deltas of one window share `delta mod d`, so the key
            // class is the same for every offset.
            let key_class = ((r as i64 + w.lo()).rem_euclid(d as i64)) as usize;
            let keys: Vec<usize> = (key_class..n).step_by(d).collect();
            // Quotient offsets: delta = (key_class - r) + o * d.
            let offsets: Vec<i64> = deltas
                .iter()
                .map(|&delta| {
                    let diff = delta - (key_class as i64 - r as i64);
                    debug_assert_eq!(diff.rem_euclid(d as i64), 0, "class arithmetic");
                    diff / d as i64
                })
                .collect();
            debug_assert!(offsets.windows(2).all(|ab| ab[0] < ab[1]), "sorted offsets");
            components.push(Component {
                kind: ComponentKind::DilatedClass { dilation: d, query_class: r, key_class },
                queries,
                keys,
                offsets,
            });
        }
    }

    // 3. Residual support (block/random/support terms): one gather
    // component whose keys are the flattened per-row arena, read straight
    // off the runs and sized exactly.
    let residual = pattern.residual();
    if !residual.is_empty() {
        let rows = (0..n).filter(|&i| !residual.row_runs(i).is_empty()).count();
        let mut queries = Vec::with_capacity(rows);
        let mut keys = Vec::with_capacity(usize::try_from(residual.nnz()).expect("arena fits"));
        let mut starts = Vec::with_capacity(rows + 1);
        starts.push(0u32);
        let mut max_len = 0usize;
        for i in 0..n {
            if residual.row_runs(i).is_empty() {
                continue;
            }
            let row_start = keys.len();
            residual.extend_row_keys(i, &mut keys);
            queries.push(i);
            starts.push(u32::try_from(keys.len()).expect("arena fits u32"));
            max_len = max_len.max(keys.len() - row_start);
        }
        components.push(Component {
            kind: ComponentKind::RowSupport { starts },
            queries,
            keys,
            offsets: (0..max_len as i64).collect(),
        });
    }

    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::{sparse_transformer, HybridPattern, Window};
    use std::collections::HashMap;

    /// Replays components and counts coverage of each (i, j).
    fn coverage(components: &[Component], n: usize) -> HashMap<(usize, usize), usize> {
        let mut cov = HashMap::new();
        for c in components {
            for (p, &qi) in c.queries().iter().enumerate() {
                for &o in c.offsets() {
                    if let Some(kj) = c.key_at(p, o) {
                        assert!(kj < n);
                        *cov.entry((qi, kj)).or_insert(0) += 1;
                    }
                }
            }
        }
        cov
    }

    fn assert_exact_cover(pattern: &HybridPattern) {
        let comps = canonicalize(pattern);
        let cov = coverage(&comps, pattern.n());
        for i in 0..pattern.n() {
            for j in 0..pattern.n() {
                let expected = usize::from(pattern.array_allows(i, j));
                let got = cov.get(&(i, j)).copied().unwrap_or(0);
                assert_eq!(got, expected, "coverage of ({i}, {j})");
            }
        }
    }

    #[test]
    fn direct_component_merges_sliding_windows() {
        let p = HybridPattern::builder(32)
            .window(Window::sliding(-2, 2).unwrap())
            .window(Window::sliding(0, 4).unwrap())
            .build()
            .unwrap();
        let comps = canonicalize(&p);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].offsets(), &[-2, -1, 0, 1, 2, 3, 4]);
        assert_exact_cover(&p);
    }

    #[test]
    fn dilated_window_splits_into_classes() {
        let p =
            HybridPattern::builder(20).window(Window::dilated(-6, 6, 3).unwrap()).build().unwrap();
        let comps = canonicalize(&p);
        assert_eq!(comps.len(), 3);
        for c in &comps {
            match c.kind() {
                ComponentKind::DilatedClass { dilation, query_class, key_class } => {
                    assert_eq!(*dilation, 3);
                    // lo = -6 ≡ 0 mod 3: key class == query class.
                    assert_eq!(key_class, query_class);
                }
                k => panic!("unexpected kind {k:?}"),
            }
            // Quotient offsets are the contiguous window -2..=2.
            assert_eq!(c.offsets(), &[-2, -1, 0, 1, 2]);
        }
        assert_exact_cover(&p);
    }

    #[test]
    fn misaligned_dilated_window_maps_key_class() {
        // lo = -4 with d = 3: key class = (r - 4) mod 3 != r.
        let p =
            HybridPattern::builder(21).window(Window::dilated(-4, 2, 3).unwrap()).build().unwrap();
        assert_exact_cover(&p);
        let comps = canonicalize(&p);
        for c in &comps {
            if let ComponentKind::DilatedClass { query_class, key_class, .. } = c.kind() {
                assert_eq!(*key_class, (query_class + 21 - 4).rem_euclid(3));
            }
        }
    }

    #[test]
    fn overlap_between_windows_claimed_once() {
        // Sliding [-3, 0] overlaps strided {-8, -4, 0} at 0 and -4... -4 is
        // not in [-3, 0]; 0 is. The strided window must drop offset 0.
        let p = HybridPattern::builder(40)
            .window(Window::sliding(-3, 0).unwrap())
            .window(Window::dilated(-8, 0, 4).unwrap())
            .build()
            .unwrap();
        assert_exact_cover(&p);
    }

    #[test]
    fn sparse_transformer_preset_covers_exactly() {
        let p = sparse_transformer(36, 4, 5).unwrap();
        assert_exact_cover(&p);
    }

    #[test]
    fn fully_shadowed_dilated_window_dropped() {
        // The dilated window's only offsets are already covered.
        let p = HybridPattern::builder(16)
            .window(Window::sliding(-4, 4).unwrap())
            .window(Window::dilated(-4, 4, 2).unwrap())
            .build()
            .unwrap();
        let comps = canonicalize(&p);
        assert_eq!(comps.len(), 1, "dilated window fully shadowed");
        assert_exact_cover(&p);
    }

    #[test]
    fn global_only_pattern_has_no_components() {
        let p = HybridPattern::builder(8).global_token(0).build().unwrap();
        assert!(canonicalize(&p).is_empty());
    }

    #[test]
    fn key_at_clips() {
        let p = HybridPattern::builder(10).window(Window::sliding(-2, 2).unwrap()).build().unwrap();
        let c = &canonicalize(&p)[0];
        assert_eq!(c.key_at(0, -1), None);
        assert_eq!(c.key_at(0, 0), Some(0));
        assert_eq!(c.key_at(9, 1), None);
        assert_eq!(c.key_at(9, 0), Some(9));
    }

    #[test]
    fn row_support_component_covers_residual_exactly() {
        use salo_patterns::{BlockLayout, PatternTerm};
        let p = HybridPattern::builder(24)
            .window(Window::symmetric(3).unwrap())
            .global_token(0)
            .term(PatternTerm::BlockSparse { block_rows: 8, layout: BlockLayout::Diagonal })
            .term(PatternTerm::RandomBlocks { count: 2, seed: 11 })
            .build()
            .unwrap();
        assert_exact_cover(&p);
        let comps = canonicalize(&p);
        let rs = comps
            .iter()
            .find(|c| matches!(c.kind(), ComponentKind::RowSupport { .. }))
            .expect("residual component present");
        // Gather semantics: slot o of virtual query p reads the arena, and
        // slots past the row's length are inactive.
        for p_idx in 0..rs.num_queries() {
            let len = rs.row_len(p_idx).unwrap();
            assert!(len > 0, "only non-empty rows become virtual queries");
            for o in 0..len as i64 {
                assert!(rs.key_at(p_idx, o).is_some());
            }
            assert_eq!(rs.key_at(p_idx, len as i64), None);
            assert_eq!(rs.key_at(p_idx, -1), None);
        }
    }

    #[test]
    fn pure_residual_pattern_has_single_gather_component() {
        use salo_patterns::{BlockLayout, PatternTerm};
        let p = HybridPattern::builder(16)
            .term(PatternTerm::BlockSparse { block_rows: 4, layout: BlockLayout::Diagonal })
            .build()
            .unwrap();
        let comps = canonicalize(&p);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].num_queries(), 16);
        assert_eq!(comps[0].offsets(), &[0, 1, 2, 3]);
        assert_exact_cover(&p);
    }

    #[test]
    fn dilation_larger_than_sequence() {
        let p =
            HybridPattern::builder(4).window(Window::dilated(-8, 8, 8).unwrap()).build().unwrap();
        // Classes beyond n are not created; coverage still exact.
        assert_exact_cover(&p);
        let comps = canonicalize(&p);
        assert!(comps.len() <= 4);
    }
}
