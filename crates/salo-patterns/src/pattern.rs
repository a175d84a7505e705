use crate::terms::expand_residual;
use crate::{
    PatternBuilder, PatternError, PatternStats, PatternTerm, StableHasher, SupportRuns, Window,
};

/// A hybrid sparse attention pattern: a normalized composition of
/// [`PatternTerm`]s over a sequence of length `n`.
///
/// The SALO paper's pattern language (§2.3/§3) — any number of sliding or
/// dilated [`Window`]s plus a set of global tokens — is the translation
/// invariant core. The IR adds block-sparse, strided and BigBird-style
/// random terms, which normalize into a *residual*: one canonical per-row
/// [`SupportRuns`] holding every kept cell not already owned by a window
/// offset or a global row/column. Position `(i, j)` of the attention score
/// matrix is *kept* (computed) iff
///
/// * some window contains the relative offset `j - i`, or
/// * `i` is a global token (its query attends every key), or
/// * `j` is a global token (its key is attended by every query), or
/// * the residual support contains `(i, j)`.
///
/// The three owner classes are disjoint by construction, so exactly-once
/// scheduling falls out of the normalization. All coordinates are clipped
/// to `0..n`.
///
/// # Example
///
/// ```
/// use salo_patterns::{HybridPattern, Window};
///
/// let p = HybridPattern::builder(16)
///     .window(Window::symmetric(3)?)
///     .global_token(0)
///     .build()?;
/// assert_eq!(p.row_keys(8), vec![0, 7, 8, 9]);
/// # Ok::<(), salo_patterns::PatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HybridPattern {
    n: usize,
    windows: Vec<Window>,
    globals: Vec<usize>,
    /// The normalized term list `terms()` lends: `windows` and `globals`
    /// as terms, then the non-translation-invariant terms verbatim in
    /// composition order, so it round-trips and fingerprints stay
    /// structural.
    terms: Vec<PatternTerm>,
    /// The residual terms expanded to per-row runs, minus every cell owned
    /// by a window offset or a global row/column.
    residual: SupportRuns,
}

impl HybridPattern {
    /// Starts building a pattern over a sequence of `n` tokens.
    #[must_use]
    pub fn builder(n: usize) -> PatternBuilder {
        PatternBuilder::new(n)
    }

    /// Normalizes a composition of [`PatternTerm`]s into a pattern.
    ///
    /// Translation-invariant terms ([`PatternTerm::Window`],
    /// [`PatternTerm::Strided`]) lower to windows; [`PatternTerm::Global`]s
    /// collect into the sorted global set; the remaining terms expand to
    /// per-row support runs from which every cell already covered by a
    /// window or a global row/column is removed. Normalization is
    /// idempotent: `from_terms(n, p.terms().clone())` reproduces `p` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::EmptySequence`] for `n == 0`,
    /// [`PatternError::GlobalTokenOutOfRange`] for an out-of-range global,
    /// [`PatternError::InvalidTerm`] for malformed block/strided/support
    /// parameters and for an `n` or a residual (random draws, block cells,
    /// support cells) past the `u32` coordinates [`SupportRuns`] stores —
    /// refused before anything is allocated for it — and
    /// [`PatternError::EmptyPattern`] when no term contributes any kept
    /// cell.
    pub fn from_terms(n: usize, terms: Vec<PatternTerm>) -> Result<Self, PatternError> {
        if n == 0 {
            return Err(PatternError::EmptySequence);
        }
        if u32::try_from(n).is_err() {
            return Err(PatternError::InvalidTerm {
                reason: format!("sequence length {n} does not fit u32 coordinates"),
            });
        }
        let mut windows = Vec::new();
        let mut globals = Vec::new();
        let mut residual_terms = Vec::new();
        for term in terms {
            match term {
                PatternTerm::Window(w) => windows.push(w),
                PatternTerm::Global { token } => {
                    if token >= n {
                        return Err(PatternError::GlobalTokenOutOfRange { token, n });
                    }
                    globals.push(token);
                }
                PatternTerm::Strided { stride, local } => {
                    if stride == 0 {
                        return Err(PatternError::InvalidTerm {
                            reason: "strided term needs stride >= 1".into(),
                        });
                    }
                    windows.push(Window::causal(local)?);
                    let reach = ((n - 1) / stride) as i64 * stride as i64;
                    if reach > 0 {
                        windows.push(Window::dilated(-reach, 0, stride)?);
                    }
                }
                residual => residual_terms.push(residual),
            }
        }
        globals.sort_unstable();
        globals.dedup();
        let residual = expand_residual(n, &windows, &globals, &residual_terms)?;
        if windows.is_empty() && globals.is_empty() && residual.is_empty() {
            return Err(PatternError::EmptyPattern);
        }
        Ok(Self::normalized(n, windows, globals, residual_terms, residual))
    }

    /// Assembles a pattern whose parts are already normalized, writing its
    /// term list once.
    fn normalized(
        n: usize,
        windows: Vec<Window>,
        globals: Vec<usize>,
        residual_terms: Vec<PatternTerm>,
        residual: SupportRuns,
    ) -> Self {
        let mut terms = Vec::with_capacity(windows.len() + globals.len() + residual_terms.len());
        terms.extend(windows.iter().map(|&w| PatternTerm::Window(w)));
        terms.extend(globals.iter().map(|&token| PatternTerm::Global { token }));
        terms.extend(residual_terms);
        Self { n, windows, globals, terms, residual }
    }

    /// The pattern's terms in normalized order: windows, then globals, then
    /// the residual terms verbatim. `from_terms(n, p.terms().clone())`
    /// rebuilds an identical pattern.
    ///
    /// The list is the pattern's own, lent: reading it (the wire encoder
    /// walks it twice per frame) allocates nothing. It is lent as a `Vec`
    /// so that its `clone()` is the owned list `from_terms` takes.
    #[must_use]
    pub fn terms(&self) -> &Vec<PatternTerm> {
        &self.terms
    }

    /// Sequence length `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The window components of the pattern.
    #[must_use]
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// The global token indices, sorted and deduplicated.
    #[must_use]
    pub fn globals(&self) -> &[usize] {
        &self.globals
    }

    /// Whether `token` is a global token.
    #[must_use]
    pub fn is_global(&self, token: usize) -> bool {
        self.globals.binary_search(&token).is_ok()
    }

    /// The non-translation-invariant terms of the composition, in order.
    #[must_use]
    pub fn residual_terms(&self) -> &[PatternTerm] {
        &self.terms[self.windows.len() + self.globals.len()..]
    }

    /// The normalized residual support: every kept cell not owned by a
    /// window offset or a global row/column. The scheduler executes these
    /// cells through gather-style row-support components.
    #[must_use]
    pub fn residual(&self) -> &SupportRuns {
        &self.residual
    }

    /// Whether score position `(i, j)` is kept by the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is outside the sequence (`>= n`); this indicates
    /// a logic error in the caller, not a data condition.
    #[must_use]
    pub fn allows(&self, i: usize, j: usize) -> bool {
        assert!(
            i < self.n && j < self.n,
            "position ({i}, {j}) outside sequence of length {n}",
            n = self.n
        );
        if self.is_global(i) || self.is_global(j) {
            return true;
        }
        self.array_allows(i, j)
    }

    /// Whether `(i, j)` is kept by a window component alone (ignoring global
    /// rows/columns and the residual support). The data scheduler uses this
    /// to separate the work of the diagonal-streaming PE array from that of
    /// the global PE row/column and the gather-style residual components.
    #[must_use]
    fn window_allows(&self, i: usize, j: usize) -> bool {
        let delta = j as i64 - i as i64;
        self.windows.iter().any(|w| w.contains_offset(delta))
    }

    /// Whether `(i, j)` is kept by the PE array's work — a window component
    /// or the residual support — ignoring global rows/columns.
    #[must_use]
    pub fn array_allows(&self, i: usize, j: usize) -> bool {
        self.window_allows(i, j) || self.residual.contains(i, j)
    }

    /// The sorted, deduplicated keys attended by query `i`.
    #[must_use]
    pub fn row_keys(&self, i: usize) -> Vec<usize> {
        assert!(i < self.n, "row {i} outside sequence of length {n}", n = self.n);
        if self.is_global(i) {
            return (0..self.n).collect();
        }
        let mut keys: Vec<usize> = self.globals.clone();
        for w in &self.windows {
            for delta in w.offsets() {
                let j = i as i64 + delta;
                if j >= 0 && (j as usize) < self.n {
                    keys.push(j as usize);
                }
            }
        }
        self.residual.extend_row_keys(i, &mut keys);
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Number of keys attended by query `i`.
    #[must_use]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_keys(i).len()
    }

    /// Exact number of kept positions in the `n x n` score matrix, counting
    /// boundary clipping and overlaps between components once.
    #[must_use]
    pub fn nnz(&self) -> u64 {
        (0..self.n).map(|i| self.row_nnz(i) as u64).sum()
    }

    /// Exact density: `nnz / n^2`. The paper's Table 2 "Sparsity" column
    /// reports the *nominal* density instead (see
    /// [`PatternStats::nominal_density`]); both are exposed.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.n as f64 * self.n as f64)
    }

    /// Computes summary statistics (exact and nominal density, widths, MACs).
    #[must_use]
    pub fn stats(&self) -> PatternStats {
        PatternStats::from_pattern(self)
    }

    /// Iterates all kept `(i, j)` positions in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| self.row_keys(i).into_iter().map(move |j| (i, j)))
    }

    /// Total width (number of offsets) summed over all windows — the paper's
    /// window size `w` for single-window patterns.
    #[must_use]
    pub fn total_window_width(&self) -> usize {
        self.windows.iter().map(Window::width).sum()
    }

    /// The causal restriction of this pattern: every window clipped to
    /// non-positive offsets and every residual run clipped to keys
    /// `j <= i`, for decoder-style autoregressive attention. Windows
    /// entirely in the future are dropped; global tokens are kept (causal
    /// models place them at the sequence start, where their row is almost
    /// fully masked anyway — the caller decides their semantics). The
    /// clipped residual is carried as a single explicit
    /// [`PatternTerm::Support`] term, so the causal pattern normalizes to
    /// itself.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::EmptyPattern`] if nothing survives the
    /// clipping.
    pub fn causal(&self) -> Result<HybridPattern, PatternError> {
        let windows: Vec<Window> = self.windows.iter().filter_map(Window::causal_clip).collect();
        let residual = self.residual.causal_clip();
        if windows.is_empty() && self.globals.is_empty() && residual.is_empty() {
            return Err(PatternError::EmptyPattern);
        }
        let residual_terms = if residual.is_empty() {
            Vec::new()
        } else {
            vec![PatternTerm::Support(residual.clone())]
        };
        Ok(Self::normalized(self.n, windows, self.globals.clone(), residual_terms, residual))
    }

    /// A stable 64-bit structural fingerprint of the pattern.
    ///
    /// Equal patterns (same sequence length, same window list in order
    /// with dilation, same global-token set, same residual terms) always
    /// fingerprint identically; distinct patterns collide only with the
    /// ~2^-64 probability of the underlying non-cryptographic hash, so
    /// callers keying caches on it must verify the actual pattern on a hit
    /// (as `salo-serve`'s plan cache does). Unlike `Hash`, the value is
    /// process- and release-stable ([`StableHasher`]): random terms hash
    /// their `(count, seed)` parameters, which fully determine the
    /// expansion, so it is usable as a persistent cache key.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive destructuring: a future field cannot be forgotten
        // here without a compile error.
        let Self { n, windows, globals, terms, residual } = self;
        // The residual is a pure function of (n, windows, globals,
        // residual terms), and the term list is those parts written out;
        // hashing the parts covers both.
        let _ = (terms, residual);
        let residual_terms = self.residual_terms();
        let mut h = StableHasher::new();
        h.write_usize(*n);
        h.write_usize(windows.len());
        for w in windows {
            h.write_i64(w.lo());
            h.write_i64(w.hi());
            h.write_usize(w.dilation());
        }
        h.write_usize(globals.len());
        for &g in globals {
            h.write_usize(g);
        }
        h.write_usize(residual_terms.len());
        for t in residual_terms {
            t.hash_stable(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HybridPattern {
        HybridPattern::builder(10)
            .window(Window::symmetric(3).unwrap())
            .global_token(0)
            .build()
            .unwrap()
    }

    #[test]
    fn allows_window_and_globals() {
        let p = small();
        assert!(p.allows(5, 4));
        assert!(p.allows(5, 5));
        assert!(p.allows(5, 6));
        assert!(!p.allows(5, 7));
        assert!(p.allows(5, 0)); // global column
        assert!(p.allows(0, 9)); // global row
    }

    #[test]
    fn row_keys_sorted_unique() {
        let p = small();
        assert_eq!(p.row_keys(0), (0..10).collect::<Vec<_>>());
        assert_eq!(p.row_keys(1), vec![0, 1, 2]); // global 0 overlaps window
        assert_eq!(p.row_keys(5), vec![0, 4, 5, 6]);
        assert_eq!(p.row_keys(9), vec![0, 8, 9]);
    }

    #[test]
    fn nnz_counts_overlaps_once() {
        // n=4, window symmetric(3) => offsets -1..=1, global token 0.
        let p = HybridPattern::builder(4)
            .window(Window::symmetric(3).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        // row 0: global row -> 4; row 1: {0,1,2}; row 2: {0,1,2,3}; row 3: {0,2,3}
        assert_eq!(p.nnz(), 4 + 3 + 4 + 3);
        let dense: Vec<(usize, usize)> = p.iter().collect();
        assert_eq!(dense.len() as u64, p.nnz());
    }

    #[test]
    fn density_matches_iter_count() {
        let p = small();
        let count = p.iter().count() as f64;
        assert!((p.density() - count / 100.0).abs() < 1e-12);
    }

    #[test]
    fn global_only_pattern() {
        let p = HybridPattern::builder(6).global_token(2).build().unwrap();
        assert!(p.allows(2, 5));
        assert!(p.allows(4, 2));
        assert!(!p.allows(4, 5));
        assert_eq!(p.nnz(), 6 + 5); // full row 2 plus column 2 minus overlap
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(matches!(
            HybridPattern::builder(0).global_token(0).build(),
            Err(PatternError::EmptySequence)
        ));
        assert!(matches!(HybridPattern::builder(4).build(), Err(PatternError::EmptyPattern)));
        assert!(matches!(
            HybridPattern::builder(4).global_token(7).build(),
            Err(PatternError::GlobalTokenOutOfRange { token: 7, n: 4 })
        ));
    }

    #[test]
    fn globals_deduplicated_and_sorted() {
        let p = HybridPattern::builder(8)
            .global_token(5)
            .global_token(1)
            .global_token(5)
            .build()
            .unwrap();
        assert_eq!(p.globals(), &[1, 5]);
        assert!(p.is_global(1));
        assert!(!p.is_global(2));
    }

    #[test]
    fn window_widths_sum_across_overlapping_windows() {
        let p = HybridPattern::builder(32)
            .window(Window::sliding(-2, 2).unwrap())
            .window(Window::sliding(0, 4).unwrap())
            .build()
            .unwrap();
        assert_eq!(p.total_window_width(), 10); // widths summed, not deduped
    }

    #[test]
    #[should_panic(expected = "outside sequence")]
    fn allows_panics_out_of_range() {
        let p = small();
        let _ = p.allows(10, 0);
    }

    #[test]
    fn causal_clips_future_offsets() {
        let p = HybridPattern::builder(16)
            .window(Window::symmetric(7).unwrap()) // -3..=3
            .build()
            .unwrap();
        let c = p.causal().unwrap();
        assert!(c.allows(8, 8));
        assert!(c.allows(8, 5));
        assert!(!c.allows(8, 9), "future key masked");
        assert_eq!(c.windows()[0].hi(), 0);
    }

    #[test]
    fn causal_respects_dilation_grid() {
        let p = HybridPattern::builder(30)
            .window(Window::dilated(-7, 5, 3).unwrap()) // offsets -7,-4,-1,2,5
            .build()
            .unwrap();
        let c = p.causal().unwrap();
        // Aligned hi: largest grid offset <= 0 is -1.
        assert_eq!(c.windows()[0].hi(), -1);
        assert!(c.allows(10, 9));
        assert!(!c.allows(10, 12));
    }

    #[test]
    fn causal_drops_future_only_windows() {
        let p = HybridPattern::builder(12)
            .window(Window::sliding(2, 4).unwrap())
            .window(Window::causal(3).unwrap())
            .build()
            .unwrap();
        let c = p.causal().unwrap();
        assert_eq!(c.windows().len(), 1);
        // Everything that remains is causal.
        for (i, j) in c.iter() {
            assert!(j <= i, "({i},{j}) is anti-causal");
        }
    }

    #[test]
    fn fingerprint_separates_structure() {
        let a = small();
        let b = small();
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal patterns, equal fingerprints");

        let longer = HybridPattern::builder(11)
            .window(Window::symmetric(3).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), longer.fingerprint(), "sequence length matters");

        let other_global = HybridPattern::builder(10)
            .window(Window::symmetric(3).unwrap())
            .global_token(1)
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), other_global.fingerprint(), "globals matter");

        let dilated = HybridPattern::builder(10)
            .window(Window::dilated(-1, 1, 2).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let sliding = HybridPattern::builder(10)
            .window(Window::sliding(-1, 1).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        assert_ne!(dilated.fingerprint(), sliding.fingerprint(), "dilation matters");
    }

    #[test]
    fn causal_alignment_of_positive_offset_dilated_windows() {
        // Regression sweep for the dilation-grid alignment: positive lower
        // bounds must drop the window, and any window with lo <= 0 must
        // keep exactly its grid points <= 0 — the aligned upper bound can
        // never fall below lo.
        // Entirely-future dilated window: dropped even when a grid point
        // would align to a non-positive value "by accident".
        let p = HybridPattern::builder(20)
            .window(Window::dilated(2, 8, 3).unwrap())
            .window(Window::causal(2).unwrap())
            .build()
            .unwrap();
        let c = p.causal().unwrap();
        assert_eq!(c.windows().len(), 1);
        assert_eq!(c.windows()[0].hi(), 0);

        // lo == 0 with positive reach: only the diagonal survives.
        let p =
            HybridPattern::builder(20).window(Window::dilated(0, 6, 3).unwrap()).build().unwrap();
        let c = p.causal().unwrap();
        assert_eq!((c.windows()[0].lo(), c.windows()[0].hi()), (0, 0));
        assert_eq!(c.windows()[0].width(), 1);

        // 0 not on the grid: the aligned bound steps down to the largest
        // grid offset below it, never past lo.
        for (lo, hi, d, want_hi) in
            [(-1i64, 5i64, 3usize, -1i64), (-2, 4, 3, -2), (-5, 7, 4, -1), (-7, 5, 3, -1)]
        {
            let p = HybridPattern::builder(30)
                .window(Window::dilated(lo, hi, d).unwrap())
                .build()
                .unwrap();
            let c = p.causal().unwrap();
            let w = c.windows()[0];
            assert_eq!(w.hi(), want_hi, "dilated({lo}, {hi}, {d})");
            assert!(w.hi() >= w.lo(), "aligned bound degenerated below lo");
            assert_eq!(w.dilation(), d, "grid preserved");
            // Every surviving offset is causal and on the original grid.
            for o in w.offsets() {
                assert!(o <= 0);
                assert_eq!((o - lo).rem_euclid(d as i64), 0, "offset {o} off-grid");
            }
        }

        // Exhaustive cross-check against the set definition.
        for lo in -9i64..=9 {
            for d in 1usize..=4 {
                for k in 0i64..6 {
                    let hi = lo + k * d as i64;
                    let w = Window::dilated(lo, hi, d).unwrap();
                    let expect: Vec<i64> = w.offsets().filter(|&o| o <= 0).collect();
                    match w.causal_clip() {
                        Some(c) => {
                            assert_eq!(c.offsets().collect::<Vec<_>>(), expect, "{w:?}");
                        }
                        None => assert!(expect.is_empty(), "{w:?} dropped offsets {expect:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn causal_of_future_only_pattern_errors() {
        let p = HybridPattern::builder(8).window(Window::sliding(1, 3).unwrap()).build().unwrap();
        assert!(matches!(p.causal(), Err(PatternError::EmptyPattern)));
    }

    #[test]
    fn block_sparse_residual_excludes_window_and_global_cells() {
        use crate::{BlockLayout, PatternTerm};
        let p = HybridPattern::from_terms(
            8,
            vec![
                PatternTerm::Window(Window::symmetric(3).unwrap()),
                PatternTerm::Global { token: 0 },
                PatternTerm::BlockSparse { block_rows: 4, layout: BlockLayout::Diagonal },
            ],
        )
        .unwrap();
        // Block (0,0) covers rows 0..4 x cols 0..4; cell (3, 1) is neither
        // in the window (|delta| > 1) nor global, so it lands in the
        // residual — and only there.
        assert!(p.allows(3, 1));
        assert!(p.residual().contains(3, 1));
        assert!(!p.window_allows(3, 1));
        // (3, 2) is in the window; the residual must not duplicate it.
        assert!(p.allows(3, 2));
        assert!(!p.residual().contains(3, 2));
        // (3, 0) is a global column; also excluded from the residual.
        assert!(!p.residual().contains(3, 0));
        // Off-diagonal block cell is masked entirely.
        assert!(!p.allows(1, 6));

        // A band radius past the grid is the full grid, however far past:
        // the largest radius a peer can send gives the cells `radius = nb`
        // does.
        let banded = |radius| {
            let layout = BlockLayout::Banded { radius };
            HybridPattern::from_terms(8, vec![PatternTerm::BlockSparse { block_rows: 4, layout }])
                .unwrap()
        };
        let (full, huge) = (banded(2), banded(usize::MAX));
        assert_eq!((full.nnz(), huge.nnz()), (64, 64));
        for i in 0..8 {
            assert_eq!(huge.row_keys(i), full.row_keys(i), "row {i}");
        }
    }

    #[test]
    fn from_terms_of_terms_is_idempotent() {
        use crate::{BlockLayout, PatternTerm};
        let p = HybridPattern::from_terms(
            24,
            vec![
                PatternTerm::Window(Window::symmetric(5).unwrap()),
                PatternTerm::Global { token: 2 },
                PatternTerm::BlockSparse {
                    block_rows: 8,
                    layout: BlockLayout::Banded { radius: 1 },
                },
                PatternTerm::RandomBlocks { count: 2, seed: 7 },
            ],
        )
        .unwrap();
        let again = HybridPattern::from_terms(p.n(), p.terms().clone()).unwrap();
        assert_eq!(p, again);
        assert_eq!(p.fingerprint(), again.fingerprint());
    }

    #[test]
    fn strided_lowers_to_local_plus_dilated_column_windows() {
        use crate::PatternTerm;
        let n = 64;
        let stride = 8;
        let p = HybridPattern::from_terms(n, vec![PatternTerm::Strided { stride, local: stride }])
            .unwrap();
        assert!(p.residual().is_empty(), "strided is translation invariant");
        assert_eq!(p.windows().len(), 2);
        // Local causal window.
        assert!(p.allows(40, 40));
        assert!(p.allows(40, 33));
        assert!(!p.allows(40, 41), "strided+fixed is causal");
        // Column attention: every stride-th earlier key relative to i.
        assert!(p.allows(40, 32));
        assert!(p.allows(40, 0));
        assert!(!p.allows(40, 31));
    }

    #[test]
    fn random_blocks_expansion_is_deterministic() {
        use crate::PatternTerm;
        let make = || {
            HybridPattern::from_terms(32, vec![PatternTerm::RandomBlocks { count: 3, seed: 42 }])
                .unwrap()
        };
        let a = make();
        let b = make();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other =
            HybridPattern::from_terms(32, vec![PatternTerm::RandomBlocks { count: 3, seed: 43 }])
                .unwrap();
        assert_ne!(a.fingerprint(), other.fingerprint(), "seed is structural");
    }

    #[test]
    fn causal_clips_residual_support() {
        use crate::{BlockLayout, PatternTerm};
        let p = HybridPattern::from_terms(
            12,
            vec![
                PatternTerm::Window(Window::causal(2).unwrap()),
                PatternTerm::BlockSparse {
                    block_rows: 6,
                    layout: BlockLayout::Banded { radius: 1 },
                },
            ],
        )
        .unwrap();
        assert!(p.allows(2, 9), "off-diagonal block reaches the future");
        let c = p.causal().unwrap();
        for (i, j) in c.iter() {
            assert!(j <= i, "({i},{j}) is anti-causal");
        }
        assert!(c.allows(8, 3), "past block cells survive");
        // Causal normalization is itself idempotent.
        let again = HybridPattern::from_terms(c.n(), c.terms().clone()).unwrap();
        assert_eq!(c, again);
    }

    #[test]
    fn a_length_past_u32_coordinates_is_refused_before_allocating() {
        // Once an abort: `SupportRuns::empty` asked for 4 TiB of row starts.
        let window = || PatternTerm::Window(Window::symmetric(3).unwrap());
        let err = HybridPattern::from_terms(1 << 40, vec![window()]).unwrap_err();
        assert!(matches!(err, PatternError::InvalidTerm { .. }), "{err:?}");
        assert!(HybridPattern::from_terms(u32::MAX as usize + 1, vec![window()]).is_err());
    }

    #[test]
    fn a_residual_past_u32_coordinates_is_refused_before_allocating() {
        use crate::{BlockLayout, PatternTerm};
        let refused = |n, term| {
            let err = HybridPattern::from_terms(n, vec![term]).unwrap_err();
            assert!(matches!(err, PatternError::InvalidTerm { .. }), "{err:?}");
        };
        // Once an abort: one row's `Vec` grew toward 2^40 draws.
        refused(64, PatternTerm::RandomBlocks { count: 1 << 40, seed: 1 });
        // 2^26 rows x 64 draws is 2^32 keys: one past what a residual holds.
        refused(1 << 26, PatternTerm::RandomBlocks { count: 64, seed: 1 });
        // One 2^17-row block is 2^34 cells; a full band of single rows 2^32.
        let diagonal =
            PatternTerm::BlockSparse { block_rows: 1 << 17, layout: BlockLayout::Diagonal };
        refused(1 << 17, diagonal);
        let band = BlockLayout::Banded { radius: usize::MAX };
        refused(1 << 16, PatternTerm::BlockSparse { block_rows: 1, layout: band });
        // Two terms of 2^31 draws each: either fits alone, not both.
        let half = || PatternTerm::RandomBlocks { count: 1 << 14, seed: 2 };
        let err = HybridPattern::from_terms(1 << 17, vec![half(), half()]).unwrap_err();
        assert!(matches!(err, PatternError::InvalidTerm { .. }), "{err:?}");
    }

    #[test]
    fn empty_residual_expansion_is_rejected() {
        use crate::PatternTerm;
        // A random term whose every cell is swallowed by the global token
        // still leaves the global pattern non-empty...
        let p = HybridPattern::from_terms(
            1,
            vec![PatternTerm::Global { token: 0 }, PatternTerm::RandomBlocks { count: 2, seed: 1 }],
        )
        .unwrap();
        assert!(p.residual().is_empty());
        // ...but a support term with no runs and nothing else is empty.
        let err =
            HybridPattern::from_terms(4, vec![PatternTerm::Support(crate::SupportRuns::empty(4))])
                .unwrap_err();
        assert_eq!(err, PatternError::EmptyPattern);
    }
}
