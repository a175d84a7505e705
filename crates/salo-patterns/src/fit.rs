//! Decomposition of arbitrary dense masks into SALO's pattern IR, and a
//! cost-driven pattern autotuner.
//!
//! The SALO data scheduler consumes pattern *metadata* (window ranges,
//! dilations, global tokens, support runs), not raw masks. When a user has
//! only a boolean mask — e.g. exported from a model — [`fit_pattern`]
//! recovers a [`HybridPattern`] that covers it: global rows/columns are
//! detected first, then diagonal bands (constant `j - i` offsets) with
//! high coverage become window offsets, which are grouped into maximal
//! arithmetic progressions (sliding or dilated windows — strided patterns
//! land here as dilated columns). With
//! [`FitConfig::capture_residual`] the fit goes further: leftover cells
//! are mined for dense blocks (recovered as
//! [`PatternTerm::BlockSparse`]) and whatever remains becomes an explicit
//! [`PatternTerm::Support`] term, so the fitted pattern misses nothing.
//!
//! [`autotune`] turns the fit into a search: it generates covering
//! candidates across the whole pattern zoo (window sweeps, strided+fixed,
//! block-diagonal, fitted compositions), filters them by a coverage
//! budget, and returns the one with the lowest cost under a caller-chosen
//! cost model — typically simulated cycles from `salo-sim`, injected as a
//! closure so this crate stays dependency-free.

use crate::terms::RunsBuilder;
use crate::{BlockLayout, DenseMask, HybridPattern, PatternError, PatternTerm, Window};

/// Configuration for [`fit_pattern`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// Fraction of valid positions along a diagonal that must be kept for
    /// the offset to be treated as a window offset (default 0.9).
    pub band_threshold: f64,
    /// Fraction of a row/column that must be kept for the token to be
    /// treated as global (default 0.95).
    pub global_threshold: f64,
    /// When true, cells the window/global decomposition misses are
    /// recovered as block-sparse and support terms instead of being
    /// reported as `missed` (default false, preserving the historical
    /// "how much is window-expressible" reading of the report).
    pub capture_residual: bool,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self { band_threshold: 0.9, global_threshold: 0.95, capture_residual: false }
    }
}

/// The result of fitting a mask: the recovered pattern and coverage quality.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// The recovered hybrid pattern.
    pub pattern: HybridPattern,
    /// Positions kept by the mask but not covered by the pattern.
    pub missed: u64,
    /// Positions covered by the pattern but not kept by the mask.
    pub extra: u64,
    /// Fraction of mask positions the pattern reproduces exactly.
    pub agreement: f64,
}

/// Fits a [`HybridPattern`] to an arbitrary dense mask.
///
/// The fit is exact (zero `missed`/`extra`) whenever the mask was generated
/// from a hybrid pattern in the first place; for irregular masks it returns
/// the closest window/global decomposition together with a coverage report.
///
/// # Errors
///
/// Returns [`PatternError::EmptyPattern`] if no structure clears the
/// thresholds (e.g. an all-false mask).
pub fn fit_pattern(mask: &DenseMask, config: FitConfig) -> Result<FitReport, PatternError> {
    let n = mask.n();

    // 1. Detect global tokens: rows AND columns that are (nearly) full.
    let mut globals = Vec::new();
    for t in 0..n {
        let row_cov = (0..n).filter(|&j| mask.get(t, j)).count() as f64 / n as f64;
        let col_cov = (0..n).filter(|&i| mask.get(i, t)).count() as f64 / n as f64;
        if row_cov >= config.global_threshold && col_cov >= config.global_threshold {
            globals.push(t);
        }
    }

    // 2. Scan diagonals, ignoring global rows/columns.
    let is_global = |t: usize| globals.binary_search(&t).is_ok();
    let mut offsets = Vec::new();
    for delta in -(n as i64 - 1)..=(n as i64 - 1) {
        let mut kept = 0usize;
        let mut valid = 0usize;
        for i in 0..n {
            let j = i as i64 + delta;
            if j < 0 || j >= n as i64 {
                continue;
            }
            let j = j as usize;
            if is_global(i) || is_global(j) {
                continue;
            }
            valid += 1;
            if mask.get(i, j) {
                kept += 1;
            }
        }
        if valid > 0 && kept as f64 / valid as f64 >= config.band_threshold {
            offsets.push(delta);
        }
    }

    // 3. Group offsets into maximal arithmetic progressions => windows.
    let windows = group_offsets(&offsets)?;

    // 4. Optionally capture what the window/global decomposition missed as
    // block-sparse and support terms.
    let mut terms: Vec<PatternTerm> = windows.iter().copied().map(PatternTerm::Window).collect();
    terms.extend(globals.iter().map(|&token| PatternTerm::Global { token }));
    if config.capture_residual {
        let in_windows = |i: usize, j: usize| {
            let delta = j as i64 - i as i64;
            windows.iter().any(|w| w.contains_offset(delta))
        };
        let mut cells: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if mask.get(i, j) && !is_global(i) && !is_global(j) && !in_windows(i, j) {
                    cells.push((i, j));
                }
            }
        }
        if !cells.is_empty() {
            if let Some((block_rows, pairs)) = detect_blocks(mask, n, &cells, config.band_threshold)
            {
                let in_block = |i: usize, j: usize| {
                    pairs.binary_search(&(i / block_rows, j / block_rows)).is_ok()
                };
                cells.retain(|&(i, j)| !in_block(i, j));
                terms.push(PatternTerm::BlockSparse {
                    block_rows,
                    layout: BlockLayout::Explicit(pairs),
                });
            }
            if !cells.is_empty() {
                // `cells` is row-major, so each row's keys arrive ascending.
                let mut runs = RunsBuilder::new(n);
                let mut cells = cells.iter().peekable();
                for i in 0..n {
                    runs.push_row(std::iter::from_fn(|| {
                        cells.next_if(|&&(ci, _)| ci == i).map(|&(_, j)| j as u32)
                    }));
                }
                terms.push(PatternTerm::Support(runs.finish()));
            }
        }
    }

    if terms.is_empty() {
        return Err(PatternError::EmptyPattern);
    }

    let pattern = HybridPattern::from_terms(n, terms)?;
    let fitted = DenseMask::from_pattern(&pattern);
    let mut missed = 0u64;
    let mut extra = 0u64;
    for i in 0..n {
        for j in 0..n {
            match (mask.get(i, j), fitted.get(i, j)) {
                (true, false) => missed += 1,
                (false, true) => extra += 1,
                _ => {}
            }
        }
    }
    let agreement = 1.0 - (missed + extra) as f64 / (n as f64 * n as f64);
    Ok(FitReport { pattern, missed, extra, agreement })
}

/// Mines the uncovered cells for dense blocks: tries power-of-two block
/// sizes and claims every block pair containing an uncovered cell whose
/// *mask* fill ratio clears `threshold`. Returns the block size claiming
/// the most uncovered cells together with its sorted claimed pairs.
fn detect_blocks(
    mask: &DenseMask,
    n: usize,
    cells: &[(usize, usize)],
    threshold: f64,
) -> Option<(usize, Vec<(usize, usize)>)> {
    // (block size, claimed block pairs, number of uncovered cells claimed)
    type Candidate = (usize, Vec<(usize, usize)>, usize);
    let mut best: Option<Candidate> = None;
    // Descending so equal claims prefer the larger (coarser) block size.
    for shift in (2..=6usize).rev() {
        let b = 1usize << shift;
        if b > n / 2 {
            continue;
        }
        let mut pairs: Vec<(usize, usize)> = cells.iter().map(|&(i, j)| (i / b, j / b)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.retain(|&(bi, bj)| {
            let rows = (bi * b..((bi + 1) * b).min(n)).len();
            let cols = (bj * b..((bj + 1) * b).min(n)).len();
            let kept = (bi * b..((bi + 1) * b).min(n))
                .map(|i| (bj * b..((bj + 1) * b).min(n)).filter(|&j| mask.get(i, j)).count())
                .sum::<usize>();
            kept as f64 / (rows * cols) as f64 >= threshold
        });
        let claimed =
            cells.iter().filter(|&&(i, j)| pairs.binary_search(&(i / b, j / b)).is_ok()).count();
        if claimed > 0 && best.as_ref().is_none_or(|(_, _, c)| claimed > *c) {
            best = Some((b, pairs, claimed));
        }
    }
    best.map(|(b, pairs, _)| (b, pairs))
}

/// The result of [`autotune`]: the cheapest covering pattern found.
#[derive(Debug, Clone)]
pub struct AutotuneReport {
    /// The winning pattern.
    pub pattern: HybridPattern,
    /// Fraction of the mask's kept positions the pattern covers.
    pub coverage: f64,
    /// The winner's cost under the caller's cost model.
    pub cost: f64,
    /// Number of candidates that met the coverage budget and were costed.
    pub candidates: usize,
}

/// Searches the pattern zoo for the cheapest pattern covering `mask`.
///
/// Candidates span every term family: symmetric window sweeps (with and
/// without the mask's detected global tokens), strided+fixed columns at
/// power-of-two strides, banded block-diagonal grids, and the two
/// [`fit_pattern`] compositions (windows/globals only, and with the
/// residual captured — the latter always covers the mask fully, so the
/// candidate set is never empty for a non-empty mask). Every candidate
/// covering at least `coverage_budget` of the mask's kept positions is
/// priced by `cost` — typically simulated cycles or energy from the
/// `salo-sim` model, injected as a closure so pattern fitting stays free
/// of simulator dependencies — and the cheapest wins.
///
/// # Errors
///
/// Returns [`PatternError::EmptyPattern`] for an all-false mask.
pub fn autotune<C: FnMut(&HybridPattern) -> f64>(
    mask: &DenseMask,
    coverage_budget: f64,
    config: FitConfig,
    mut cost: C,
) -> Result<AutotuneReport, PatternError> {
    let n = mask.n();
    let total = mask.nnz();
    if total == 0 {
        return Err(PatternError::EmptyPattern);
    }

    let mut candidates: Vec<HybridPattern> = Vec::new();
    let push = |c: Result<HybridPattern, PatternError>, candidates: &mut Vec<HybridPattern>| {
        if let Ok(p) = c {
            if !candidates.contains(&p) {
                candidates.push(p);
            }
        }
    };

    // The exhaustive fit: full coverage by construction, the search's
    // feasibility anchor.
    let exact = fit_pattern(mask, FitConfig { capture_residual: true, ..config })?;
    let globals = exact.pattern.globals().to_vec();
    push(Ok(exact.pattern), &mut candidates);
    // The windows/globals-only fit (cheap when the mask is band-dominated).
    if let Ok(r) = fit_pattern(mask, FitConfig { capture_residual: false, ..config }) {
        push(Ok(r.pattern), &mut candidates);
    }
    // Parameter sweeps over the zoo's translation-invariant families.
    let mut w = 2usize;
    while w < 2 * n {
        push(crate::sliding_only(n, w), &mut candidates);
        push(
            HybridPattern::builder(n)
                .window(Window::symmetric(w).expect("w >= 1"))
                .global_tokens(globals.iter().copied())
                .build(),
            &mut candidates,
        );
        let stride = w;
        push(crate::strided_fixed(n, stride), &mut candidates);
        push(
            HybridPattern::builder(n)
                .term(PatternTerm::BlockSparse {
                    block_rows: w,
                    layout: BlockLayout::Banded { radius: 1 },
                })
                .global_tokens(globals.iter().copied())
                .build(),
            &mut candidates,
        );
        w *= 2;
    }

    let mut best: Option<(HybridPattern, f64, f64)> = None;
    let mut costed = 0usize;
    for p in candidates {
        let covered = mask.iter().filter(|&(i, j)| p.allows(i, j)).count() as u64;
        let coverage = covered as f64 / total as f64;
        if coverage < coverage_budget {
            continue;
        }
        costed += 1;
        let c = cost(&p);
        if best.as_ref().is_none_or(|(_, _, bc)| c < *bc) {
            best = Some((p, coverage, c));
        }
    }
    let (pattern, coverage, cost) = best.expect("residual-capturing fit always covers");
    Ok(AutotuneReport { pattern, coverage, cost, candidates: costed })
}

/// Groups sorted offsets into maximal runs of constant stride; each run
/// becomes one window (stride 1 => sliding, stride > 1 => dilated).
fn group_offsets(offsets: &[i64]) -> Result<Vec<Window>, PatternError> {
    let mut windows = Vec::new();
    let mut idx = 0;
    while idx < offsets.len() {
        // Greedy: prefer the longest run starting here among stride candidates.
        let start = offsets[idx];
        if idx + 1 == offsets.len() {
            windows.push(Window::sliding(start, start)?);
            break;
        }
        let stride = (offsets[idx + 1] - start) as usize;
        let mut end_idx = idx + 1;
        while end_idx + 1 < offsets.len()
            && (offsets[end_idx + 1] - offsets[end_idx]) as usize == stride
        {
            end_idx += 1;
        }
        // Runs of stride 1 stay together; a lone pair with a large stride is
        // still a (two-offset) dilated window.
        windows.push(Window::dilated(start, offsets[end_idx], stride.max(1))?);
        idx = end_idx + 1;
    }
    Ok(windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{grid_2d, longformer, sparse_transformer};

    fn exact_fit(p: &HybridPattern) -> FitReport {
        let mask = DenseMask::from_pattern(p);
        fit_pattern(&mask, FitConfig::default()).expect("fit")
    }

    #[test]
    fn refits_longformer_exactly() {
        let p = longformer(96, 8, 1).unwrap();
        let report = exact_fit(&p);
        assert_eq!(report.missed, 0, "missed positions");
        assert_eq!(report.extra, 0, "extra positions");
        assert_eq!(report.pattern.globals(), &[0]);
        assert!((report.agreement - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn refits_banded_2d_exactly() {
        let p = grid_2d(6, 6, 3, 3, 0).unwrap();
        let report = exact_fit(&p);
        assert_eq!(report.missed + report.extra, 0);
        // Bands may be merged/split differently but coverage is identical.
        assert_eq!(report.pattern.nnz(), p.nnz());
    }

    #[test]
    fn refits_strided_pattern() {
        let p = sparse_transformer(48, 4, 4).unwrap();
        let report = exact_fit(&p);
        assert_eq!(report.missed, 0);
        assert_eq!(report.extra, 0);
        // Recovered windows include at least one dilated component.
        assert!(report.pattern.windows().iter().any(|w| w.is_dilated() || w.width() == 1));
    }

    #[test]
    fn rejects_empty_mask() {
        let mask = DenseMask::new(8).unwrap();
        assert!(matches!(
            fit_pattern(&mask, FitConfig::default()),
            Err(PatternError::EmptyPattern)
        ));
    }

    #[test]
    fn irregular_mask_reports_misses() {
        let mut mask = DenseMask::new(16).unwrap();
        // A full diagonal plus scattered noise below threshold.
        for i in 0..16 {
            mask.set(i, i, true);
        }
        mask.set(3, 9, true);
        let report = fit_pattern(&mask, FitConfig::default()).unwrap();
        assert_eq!(report.missed, 1); // the (3, 9) speck
        assert_eq!(report.extra, 0);
        assert!(report.agreement > 0.99);
    }

    #[test]
    fn group_offsets_mixed_strides() {
        let windows = group_offsets(&[-2, -1, 0, 1, 2, 10, 20, 30]).unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].lo(), -2);
        assert_eq!(windows[0].hi(), 2);
        assert_eq!(windows[0].dilation(), 1);
        assert_eq!(windows[1].dilation(), 10);
        assert_eq!(windows[1].width(), 3);
    }

    #[test]
    fn group_offsets_singleton() {
        let windows = group_offsets(&[5]).unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].width(), 1);
    }

    #[test]
    fn capturing_fit_recovers_bigbird_mask_fully() {
        // Satellite regression: fit_pattern used to silently drop the
        // random part of a BigBird mask (below band_threshold on every
        // diagonal). With capture_residual it must recover >= the mask's
        // coverage instead of a degenerate window pattern.
        let n = 96;
        let mask = crate::bigbird_like_mask(n, 12, 1, 3, 42).unwrap();
        let windows_only = fit_pattern(&mask, FitConfig::default()).unwrap();
        assert!(windows_only.missed > 0, "the random part is invisible to bands");
        let config = FitConfig { capture_residual: true, ..FitConfig::default() };
        let report = fit_pattern(&mask, config).unwrap();
        assert_eq!(report.missed, 0, "residual capture covers everything");
        assert!(!report.pattern.windows().is_empty(), "window part still recovered");
        assert_eq!(report.pattern.globals(), &[0], "global token still recovered");
        assert!(!report.pattern.residual().is_empty(), "random links became residual");
        assert!(report.agreement >= windows_only.agreement);
    }

    #[test]
    fn capturing_fit_recovers_block_structure() {
        use crate::{BlockLayout, PatternTerm};
        // A pure block-diagonal mask: bands only catch the main diagonal,
        // block mining must claim the rest as one BlockSparse term.
        let b = 8;
        let n = 32;
        let block_pattern = HybridPattern::builder(n)
            .term(PatternTerm::BlockSparse { block_rows: b, layout: BlockLayout::Diagonal })
            .build()
            .unwrap();
        let mask = DenseMask::from_pattern(&block_pattern);
        // band_threshold high enough that the near-diagonal offsets (kept
        // on 28 of 31 cells by the blocks) don't register as windows.
        let config =
            FitConfig { capture_residual: true, band_threshold: 0.95, ..FitConfig::default() };
        let report = fit_pattern(&mask, config).unwrap();
        assert_eq!(report.missed, 0);
        assert_eq!(report.extra, 0, "blocks are exact, no over-coverage");
        let recovered_block =
            report.pattern.residual_terms().iter().any(
                |t| matches!(t, PatternTerm::BlockSparse { block_rows, .. } if *block_rows == b),
            );
        assert!(recovered_block, "terms: {:?}", report.pattern.residual_terms());
    }

    #[test]
    fn autotune_prefers_cheap_covering_patterns() {
        // Cost model: nnz (a stand-in for cycles). The winner must cover
        // the budgeted fraction with minimal kept positions.
        let p = crate::longformer(64, 8, 1).unwrap();
        let mask = DenseMask::from_pattern(&p);
        let report = autotune(&mask, 0.95, FitConfig::default(), |c| c.nnz() as f64).unwrap();
        assert!(report.coverage >= 0.95);
        assert!(report.candidates > 1);
        assert!(
            report.cost <= p.nnz() as f64,
            "winner ({}) must not cost more than the generating pattern ({})",
            report.cost,
            p.nnz()
        );
        // At full budget the fit still covers everything.
        let full = autotune(&mask, 1.0, FitConfig::default(), |c| c.nnz() as f64).unwrap();
        assert!((full.coverage - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn autotune_rejects_empty_mask() {
        let mask = DenseMask::new(8).unwrap();
        assert!(matches!(
            autotune(&mask, 0.9, FitConfig::default(), |_| 0.0),
            Err(PatternError::EmptyPattern)
        ));
    }
}
