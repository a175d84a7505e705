//! The composable pattern IR: terms and their canonical lowering.
//!
//! A [`HybridPattern`](crate::HybridPattern) is a normalized composition of
//! [`PatternTerm`]s. Two term families are *translation invariant* and lower
//! to the representation the SALO dataflow streams diagonally:
//!
//! * [`PatternTerm::Window`] — sliding/dilated windows (the paper's §2.3);
//! * [`PatternTerm::Strided`] — Sparse-Transformer strided+fixed attention,
//!   which normalizes into a causal local window plus a full-reach dilated
//!   column window.
//!
//! [`PatternTerm::Global`] lowers to the global PE row/column. The remaining
//! families are *not* translation invariant; they lower to one canonical
//! per-row **support-run** representation ([`SupportRuns`]) that the
//! scheduler executes through gather-style `RowSupport` components:
//!
//! * [`PatternTerm::BlockSparse`] — a block grid with a [`BlockLayout`];
//! * [`PatternTerm::RandomBlocks`] — BigBird-style random attention,
//!   deterministically derived from a seeded splitmix64 stream (the same
//!   stream as [`bigbird_like_mask`](crate::bigbird_like_mask), so
//!   fingerprints and masks stay stable across runs and releases);
//! * [`PatternTerm::Support`] — explicit per-row runs, the escape hatch for
//!   arbitrary masks.
//!
//! Normalization is *disjoint by construction*: support runs exclude every
//! cell already owned by a window offset or a global row/column, mirroring
//! the scheduler's claimed-offset ownership rule, so exactly-once coverage
//! proofs carry over unchanged.

use crate::{PatternError, StableHasher, Window};

/// Which block pairs a [`PatternTerm::BlockSparse`] term keeps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BlockLayout {
    /// Only the diagonal blocks (`bj == bi`).
    Diagonal,
    /// A band of blocks around the diagonal (`|bj - bi| <= radius`).
    Banded {
        /// Band radius in blocks.
        radius: usize,
    },
    /// An explicit list of `(block_row, block_col)` pairs.
    Explicit(Vec<(usize, usize)>),
}

/// One term of the composable pattern IR.
///
/// See [`crate::HybridPattern::from_terms`] for how each family lowers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PatternTerm {
    /// A translation-invariant sliding or dilated window.
    Window(Window),
    /// A global token: its query attends every key and its key is attended
    /// by every query.
    Global {
        /// The global token's sequence index.
        token: usize,
    },
    /// Sparse-Transformer strided+fixed attention: a causal local window of
    /// `local` positions plus every `stride`-th earlier position over the
    /// whole history (O(n·√n) work at `stride = local = √n`).
    Strided {
        /// Stride of the column attention (and the dilation of the lowered
        /// column window).
        stride: usize,
        /// Width of the causal local window.
        local: usize,
    },
    /// Block-sparse attention over a grid of `block_rows`-sized blocks.
    BlockSparse {
        /// Rows (and columns) per block; the last block may be ragged.
        block_rows: usize,
        /// Which block pairs are kept.
        layout: BlockLayout,
    },
    /// BigBird-style random attention: `count` pseudo-random keys per query
    /// row, drawn from a single splitmix64 stream seeded with `seed` and
    /// advanced row-major — exactly the stream of
    /// [`bigbird_like_mask`](crate::bigbird_like_mask), so
    /// `from_terms` of this term reproduces that mask's random part bit for
    /// bit and the pattern fingerprint is stable.
    RandomBlocks {
        /// Random keys drawn per query row.
        count: usize,
        /// Stream seed.
        seed: u64,
    },
    /// Explicit per-row support runs (an arbitrary mask residual).
    Support(SupportRuns),
}

impl PatternTerm {
    /// Writes a stable encoding of the term into `h` (tag plus parameters;
    /// [`PatternTerm::RandomBlocks`] hashes `(count, seed)`, not its
    /// expansion, which is fully determined by them).
    pub(crate) fn hash_stable(&self, h: &mut StableHasher) {
        match self {
            PatternTerm::Window(w) => {
                h.write_u64(1);
                h.write_i64(w.lo());
                h.write_i64(w.hi());
                h.write_usize(w.dilation());
            }
            PatternTerm::Global { token } => {
                h.write_u64(2);
                h.write_usize(*token);
            }
            PatternTerm::Strided { stride, local } => {
                h.write_u64(3);
                h.write_usize(*stride);
                h.write_usize(*local);
            }
            PatternTerm::BlockSparse { block_rows, layout } => {
                h.write_u64(4);
                h.write_usize(*block_rows);
                match layout {
                    BlockLayout::Diagonal => h.write_u64(0),
                    BlockLayout::Banded { radius } => {
                        h.write_u64(1);
                        h.write_usize(*radius);
                    }
                    BlockLayout::Explicit(pairs) => {
                        h.write_u64(2);
                        h.write_usize(pairs.len());
                        for &(bi, bj) in pairs {
                            h.write_usize(bi);
                            h.write_usize(bj);
                        }
                    }
                }
            }
            PatternTerm::RandomBlocks { count, seed } => {
                h.write_u64(5);
                h.write_usize(*count);
                h.write_u64(*seed);
            }
            PatternTerm::Support(runs) => {
                h.write_u64(6);
                h.write_usize(runs.n);
                h.write_usize(runs.runs.len());
                for &s in &runs.starts {
                    h.write_u64(u64::from(s));
                }
                for &(a, b) in &runs.runs {
                    h.write_u64(u64::from(a));
                    h.write_u64(u64::from(b));
                }
            }
        }
    }
}

/// Canonical per-row support runs: for each row, a sorted list of disjoint
/// half-open key ranges `[start, end)`, stored CSR-style.
///
/// This is the representation every non-translation-invariant term lowers
/// to; the scheduler turns it into gather-style `RowSupport` components.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SupportRuns {
    n: usize,
    /// `starts[i]..starts[i + 1]` indexes row `i`'s runs; length `n + 1`.
    starts: Vec<u32>,
    /// Sorted, disjoint, non-adjacent `[start, end)` key ranges.
    runs: Vec<(u32, u32)>,
}

impl SupportRuns {
    /// Empty support over `n` rows.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Self { n, starts: vec![0; n + 1], runs: Vec::new() }
    }

    /// Builds runs from per-row key lists. Keys may be unsorted and contain
    /// duplicates; adjacent keys merge into one run.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != n` or any key is `>= n` (caller logic
    /// error: expansion is an internal, pre-validated step).
    #[must_use]
    pub fn from_rows(n: usize, rows: &mut [Vec<u32>]) -> Self {
        assert_eq!(rows.len(), n, "row count mismatch");
        let mut out = RunsBuilder::new(n);
        for row in rows.iter_mut() {
            row.sort_unstable();
            assert!(row.last().is_none_or(|&j| (j as usize) < n), "key out of range");
            out.push_row(row.iter().copied());
        }
        out.finish()
    }

    /// Builds runs directly from per-row sorted, disjoint, non-adjacent
    /// range lists, validating the invariants.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::InvalidTerm`] if a run is empty, out of
    /// range, unsorted or overlapping/adjacent with its predecessor.
    pub fn from_row_ranges(n: usize, rows: &[Vec<(u32, u32)>]) -> Result<Self, PatternError> {
        if rows.len() != n {
            return Err(PatternError::InvalidTerm {
                reason: format!("support has {} rows for sequence length {n}", rows.len()),
            });
        }
        let mut starts = Vec::with_capacity(n + 1);
        let mut runs = Vec::new();
        starts.push(0u32);
        for (i, row) in rows.iter().enumerate() {
            let mut prev_end = None;
            for &(s, e) in row {
                if s >= e || e as usize > n {
                    return Err(PatternError::InvalidTerm {
                        reason: format!("row {i} run [{s}, {e}) invalid for length {n}"),
                    });
                }
                if let Some(pe) = prev_end {
                    if s <= pe {
                        return Err(PatternError::InvalidTerm {
                            reason: format!(
                                "row {i} run [{s}, {e}) overlaps or touches previous end {pe}"
                            ),
                        });
                    }
                }
                prev_end = Some(e);
                runs.push((s, e));
            }
            starts.push(u32::try_from(runs.len()).expect("run count fits u32"));
        }
        Ok(Self { n, starts, runs })
    }

    /// Number of rows.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether no row has any run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total number of supported cells.
    #[must_use]
    pub fn nnz(&self) -> u64 {
        self.runs.iter().map(|&(s, e)| u64::from(e - s)).sum()
    }

    /// Row `i`'s runs.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn row_runs(&self, i: usize) -> &[(u32, u32)] {
        &self.runs[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Number of supported keys in row `i`.
    #[must_use]
    pub fn row_len(&self, i: usize) -> usize {
        self.row_runs(i).iter().map(|&(s, e)| (e - s) as usize).sum()
    }

    /// Whether cell `(i, j)` is supported.
    #[must_use]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        let runs = self.row_runs(i);
        let j = j as u32;
        // Last run starting at or before j.
        let idx = runs.partition_point(|&(s, _)| s <= j);
        idx > 0 && runs[idx - 1].1 > j
    }

    /// Appends row `i`'s keys (ascending) to `out`.
    pub fn extend_row_keys(&self, i: usize, out: &mut Vec<usize>) {
        for &(s, e) in self.row_runs(i) {
            out.extend((s as usize)..(e as usize));
        }
    }

    /// The causal restriction: every run of row `i` clipped to keys
    /// `<= i`.
    #[must_use]
    pub fn causal_clip(&self) -> Self {
        let mut starts = Vec::with_capacity(self.n + 1);
        let mut runs = Vec::new();
        starts.push(0u32);
        for i in 0..self.n {
            let cut = i as u32 + 1; // exclusive upper bound on kept keys
            for &(s, e) in self.row_runs(i) {
                if s >= cut {
                    break;
                }
                runs.push((s, e.min(cut)));
            }
            starts.push(u32::try_from(runs.len()).expect("run count fits u32"));
        }
        Self { n: self.n, starts, runs }
    }

    /// Iterates all supported `(i, j)` cells in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| {
            self.row_runs(i)
                .iter()
                .flat_map(move |&(s, e)| ((s as usize)..(e as usize)).map(move |j| (i, j)))
        })
    }
}

/// Builds [`SupportRuns`] a row at a time, straight into the run arena.
pub(crate) struct RunsBuilder {
    n: usize,
    starts: Vec<u32>,
    runs: Vec<(u32, u32)>,
}

impl RunsBuilder {
    pub(crate) fn new(n: usize) -> Self {
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        Self { n, starts, runs: Vec::new() }
    }

    /// Appends the next row: its keys (each `< n`) ascending, repeats
    /// allowed, merged into runs as they come.
    pub(crate) fn push_row(&mut self, keys: impl IntoIterator<Item = u32>) {
        let mut keys = keys.into_iter();
        if let Some(first) = keys.next() {
            let mut run = (first, first + 1);
            for j in keys {
                if j > run.1 {
                    self.runs.push(run);
                    run.0 = j;
                }
                run.1 = run.1.max(j + 1);
            }
            self.runs.push(run);
        }
        self.starts.push(u32::try_from(self.runs.len()).expect("run count fits u32"));
    }

    /// The runs, once all `n` rows are in.
    pub(crate) fn finish(self) -> SupportRuns {
        assert_eq!(self.starts.len(), self.n + 1, "row count mismatch");
        SupportRuns { n: self.n, starts: self.starts, runs: self.runs }
    }
}

/// The splitmix64 stream shared by [`PatternTerm::RandomBlocks`] expansion
/// and [`bigbird_like_mask`](crate::bigbird_like_mask): `state` starts at
/// `seed + GOLDEN` and each draw adds `GOLDEN` again before mixing.
pub(crate) struct SplitMix64 {
    state: u64,
}

pub(crate) const SPLITMIX_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed.wrapping_add(SPLITMIX_GOLDEN) }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX_GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advances the stream past `draws` draws without making them.
    fn skip(&mut self, draws: usize) {
        self.state = self.state.wrapping_add(SPLITMIX_GOLDEN.wrapping_mul(draws as u64));
    }
}

/// `z % n` by a multiply instead of a division, with the same result:
/// `recip = ⌊(2^64 − 1) / n⌋` puts the estimated quotient at most two
/// below the true one, so at most two subtractions finish the remainder.
#[derive(Clone, Copy)]
struct Modulus {
    n: u64,
    recip: u64,
}

impl Modulus {
    /// For `n >= 1`.
    fn new(n: usize) -> Self {
        let n = n as u64;
        Self { n, recip: u64::MAX / n }
    }

    fn rem(self, z: u64) -> u64 {
        let quotient = ((u128::from(z) * u128::from(self.recip)) >> 64) as u64;
        let rem = z - quotient * self.n;
        let rem = if rem >= self.n { rem - self.n } else { rem };
        if rem >= self.n {
            rem - self.n
        } else {
            rem
        }
    }
}

/// The most cells a residual may address: support runs store `u32`
/// coordinates and `u32` run indices.
const MAX_RESIDUAL_CELLS: u64 = u32::MAX as u64;

/// Where one residual term's cells come from, a row at a time.
enum RowSource<'a> {
    /// A block grid of `rows`-sized blocks, `blocks` to a side.
    Blocks { rows: usize, blocks: usize, cols: BlockCols },
    /// `count` draws of the term's splitmix stream per row, in row order,
    /// each taken modulo `n`.
    Random { count: usize, rng: SplitMix64, n: Modulus },
    /// Explicit runs.
    Support(&'a SupportRuns),
}

/// Which block columns a block row of a [`PatternTerm::BlockSparse`] keeps.
enum BlockCols {
    Diagonal,
    /// `bi - radius ..= bi + radius`, clipped to the grid.
    Banded(usize),
    /// Sorted, deduplicated `(block_row, block_col)` pairs.
    Explicit(Vec<(usize, usize)>),
}

impl<'a> RowSource<'a> {
    /// Validates `term` and returns its source with the number of raw
    /// cells it expands to (before window/global exclusion), or a bound on
    /// it; allocates nothing that grows with `n`.
    fn new(term: &'a PatternTerm, n: usize) -> Result<(Self, u64), PatternError> {
        let invalid = |reason: String| Err(PatternError::InvalidTerm { reason });
        match term {
            PatternTerm::BlockSparse { block_rows, layout } => {
                let b = *block_rows;
                if b == 0 {
                    return invalid("block_rows must be at least 1".into());
                }
                let nb = n.div_ceil(b);
                let cols = match layout {
                    BlockLayout::Diagonal => BlockCols::Diagonal,
                    // `radius` is whatever a wire peer sent: past the grid
                    // it means the whole grid, and must not wrap.
                    BlockLayout::Banded { radius } => BlockCols::Banded(*radius),
                    BlockLayout::Explicit(pairs) => {
                        if let Some(&(pbi, pbj)) = pairs.iter().find(|&&(i, j)| i >= nb || j >= nb)
                        {
                            return invalid(format!(
                                "block pair ({pbi}, {pbj}) outside {nb}x{nb} grid"
                            ));
                        }
                        let mut pairs = pairs.clone();
                        pairs.sort_unstable();
                        pairs.dedup();
                        BlockCols::Explicit(pairs)
                    }
                };
                // At most: every row times its widest block span, or every
                // listed pair a full block.
                let (n64, b64) = (n as u64, b as u64);
                let cells = match &cols {
                    BlockCols::Diagonal => n64 * b64,
                    BlockCols::Banded(r) => {
                        let band = r.saturating_mul(2).saturating_add(1) as u64;
                        n64 * n64.min(b64.saturating_mul(band))
                    }
                    BlockCols::Explicit(pairs) => (pairs.len() as u64).saturating_mul(b64 * b64),
                };
                Ok((RowSource::Blocks { rows: b, blocks: nb, cols }, cells))
            }
            PatternTerm::RandomBlocks { count, seed } => {
                let draws = (n as u64).saturating_mul(*count as u64);
                let (rng, n) = (SplitMix64::new(*seed), Modulus::new(n));
                Ok((RowSource::Random { count: *count, rng, n }, draws))
            }
            PatternTerm::Support(runs) => {
                if runs.n() != n {
                    return invalid(format!(
                        "support term covers {} rows for sequence length {n}",
                        runs.n()
                    ));
                }
                Ok((RowSource::Support(runs), runs.nnz()))
            }
            PatternTerm::Window(_) | PatternTerm::Global { .. } | PatternTerm::Strided { .. } => {
                unreachable!("translation-invariant terms are lowered before residual expansion")
            }
        }
    }

    /// Appends row `i`'s raw cells to `row`.
    fn push_row(&mut self, i: usize, n: usize, row: &mut Vec<u32>) {
        match self {
            RowSource::Blocks { rows: b, blocks, cols } => {
                let (b, bi) = (*b, i / *b);
                let keys = |c0: usize, c1: usize| (c0 * b) as u32..((c1 + 1) * b).min(n) as u32;
                match cols {
                    BlockCols::Diagonal => row.extend(keys(bi, bi)),
                    BlockCols::Banded(r) => row.extend(keys(
                        bi.saturating_sub(*r),
                        bi.saturating_add(*r).min(*blocks - 1),
                    )),
                    BlockCols::Explicit(pairs) => {
                        let from = pairs.partition_point(|&(pbi, _)| pbi < bi);
                        for &(_, bj) in pairs[from..].iter().take_while(|&&(pbi, _)| pbi == bi) {
                            row.extend(keys(bj, bj));
                        }
                    }
                }
            }
            RowSource::Random { count, rng, n } => {
                row.extend((0..*count).map(|_| n.rem(rng.next()) as u32));
            }
            RowSource::Support(runs) => {
                for &(s, e) in runs.row_runs(i) {
                    row.extend(s..e);
                }
            }
        }
    }

    /// Passes over a global row, whose cells the residual drops.
    fn skip_row(&mut self) {
        if let RowSource::Random { count, rng, .. } = self {
            rng.skip(*count);
        }
    }
}

/// Validates the residual terms and expands them to normalised support
/// runs: every cell they keep, minus each cell owned by a window offset or a
/// global row or column.
///
/// One pass over the rows. Each row's raw cells, from every term, land in
/// one scratch row, are sorted, filtered and merged straight into the run
/// arena, so what is allocated does not grow with `n` beyond the arena
/// itself. A term whose cells do not fit the `u32` coordinates of
/// [`SupportRuns`] is refused before anything is allocated for it.
pub(crate) fn expand_residual(
    n: usize,
    windows: &[Window],
    globals: &[usize],
    terms: &[PatternTerm],
) -> Result<SupportRuns, PatternError> {
    if terms.is_empty() {
        return Ok(SupportRuns::empty(n));
    }
    let mut sources = Vec::with_capacity(terms.len());
    let mut cells = 0u64;
    for term in terms {
        let (source, term_cells) = RowSource::new(term, n)?;
        cells = cells.saturating_add(term_cells);
        if cells > MAX_RESIDUAL_CELLS {
            return Err(PatternError::InvalidTerm {
                reason: format!(
                    "residual terms expand to {cells} cells, more than the \
                     {MAX_RESIDUAL_CELLS} u32 coordinates address"
                ),
            });
        }
        sources.push(source);
    }
    let is_global = |j: u32| globals.binary_search(&(j as usize)).is_ok();
    let mut out = RunsBuilder::new(n);
    let mut row = Vec::new();
    let mut global_rows = globals.iter().copied().peekable();
    for i in 0..n {
        row.clear();
        if global_rows.next_if_eq(&i).is_some() {
            sources.iter_mut().for_each(RowSource::skip_row);
        } else {
            for source in &mut sources {
                source.push_row(i, n, &mut row);
            }
            // Keep what no window offset and no global column owns.
            let mut kept = 0;
            for k in 0..row.len() {
                let j = row[k];
                let delta = i64::from(j) - i as i64;
                if !windows.iter().any(|w| w.contains_offset(delta)) && !is_global(j) {
                    row[kept] = j;
                    kept += 1;
                }
            }
            row.truncate(kept);
            row.sort_unstable();
        }
        out.push_row(row.iter().copied());
    }
    Ok(out.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_merges_adjacent_keys() {
        let mut rows = vec![vec![3, 1, 2, 2], vec![], vec![0, 5], vec![], vec![], vec![]];
        let runs = SupportRuns::from_rows(6, &mut rows);
        assert_eq!(runs.row_runs(0), &[(1, 4)]);
        assert!(runs.row_runs(1).is_empty());
        assert_eq!(runs.row_runs(2), &[(0, 1), (5, 6)]);
        assert_eq!(runs.nnz(), 5);
        assert_eq!(runs.row_len(2), 2);
    }

    #[test]
    fn contains_checks_run_membership() {
        let mut rows = vec![vec![], vec![], vec![], vec![2, 3, 7], vec![], vec![], vec![], vec![]];
        let runs = SupportRuns::from_rows(8, &mut rows);
        assert!(runs.contains(3, 2));
        assert!(runs.contains(3, 3));
        assert!(!runs.contains(3, 4));
        assert!(runs.contains(3, 7));
        assert!(!runs.contains(3, 0));
        assert!(!runs.contains(0, 2));
    }

    #[test]
    fn causal_clip_cuts_future_keys() {
        let mut rows = vec![vec![0, 5], vec![0, 1, 2], vec![4, 5], vec![], vec![], vec![]];
        let runs = SupportRuns::from_rows(6, &mut rows);
        let c = runs.causal_clip();
        assert_eq!(c.row_runs(0), &[(0, 1)]);
        assert_eq!(c.row_runs(1), &[(0, 2)]);
        assert!(c.row_runs(2).is_empty());
    }

    #[test]
    fn from_row_ranges_validates() {
        assert!(SupportRuns::from_row_ranges(2, &[vec![(0, 1)], vec![(1, 3)]]).is_err(), "e > n");
        assert!(
            SupportRuns::from_row_ranges(4, &[vec![(2, 2)], vec![], vec![], vec![]]).is_err(),
            "empty run"
        );
        assert!(
            SupportRuns::from_row_ranges(4, &[vec![(0, 2), (2, 3)], vec![], vec![], vec![]])
                .is_err(),
            "adjacent runs must be merged"
        );
        let ok = SupportRuns::from_row_ranges(4, &[vec![(0, 2), (3, 4)], vec![], vec![], vec![]])
            .unwrap();
        assert_eq!(ok.nnz(), 3);
    }

    #[test]
    fn the_multiply_modulus_is_the_remainder() {
        let mut rng = SplitMix64::new(3);
        for n in [1, 2, 3, 7, 512, 4095, 4096, 65_537, 1_000_003, u32::MAX as usize] {
            let m = Modulus::new(n);
            let n = n as u64;
            let edges = [0, 1, n - 1, n, n + 1, u64::MAX, u64::MAX - 1, u64::MAX / 2];
            for z in edges.into_iter().chain((0..100_000).map(|_| rng.next())) {
                assert_eq!(m.rem(z), z % n, "{z} mod {n}");
            }
        }
    }

    #[test]
    fn iter_visits_cells_row_major() {
        let mut rows = vec![vec![1], vec![], vec![0, 1]];
        let runs = SupportRuns::from_rows(3, &mut rows);
        let cells: Vec<_> = runs.iter().collect();
        assert_eq!(cells, vec![(0, 1), (2, 0), (2, 1)]);
    }
}
