//! Execution plan construction: tiling, global-token scheduling and
//! statistics.

use salo_patterns::HybridPattern;

use crate::component::{canonicalize, Component, ComponentKind};
use crate::intervals::IntervalSet;
use crate::pass::{GlobalColDuty, GlobalRowDuty, Pass, SupplementalKind, SupplementalPass};
use crate::{HardwareMeta, SchedulerError};

/// A complete schedule for one attention head on the spatial accelerator.
///
/// Produced by [`ExecutionPlan::build`]; consumed by the `salo-sim`
/// simulator (functional execution and cycle accounting) and by
/// [`verify_coverage`](crate::verify_coverage).
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    n: usize,
    hw: HardwareMeta,
    globals: Vec<usize>,
    components: Vec<Component>,
    passes: Vec<Pass>,
    /// Active cells of each main pass: `build` counts them to drop empty
    /// passes, and `stats` reads them back instead of counting again.
    pass_active: Vec<u64>,
    supplemental: Vec<SupplementalPass>,
}

/// Summary statistics of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    /// Number of main passes.
    pub passes: usize,
    /// Number of supplemental (global-unit-only) passes.
    pub supplemental_passes: usize,
    /// Total active PE cells over all main passes (each computes one
    /// score and one output contribution).
    pub active_cells: u64,
    /// Total PE cell slots (`passes * pe_rows * pe_cols`).
    pub cell_slots: u64,
    /// Fraction of array cell slots doing useful work (`active / slots`).
    pub occupancy: f64,
    /// Distinct keys streamed per pass, summed (diagonal-reuse loads).
    pub streamed_keys: u64,
    /// Key loads a reuse-free dataflow would need (one load per active
    /// cell) — the paper's data-reuse claim is `streamed_keys <<` this.
    pub naive_key_loads: u64,
    /// Scores computed by the global PE column (fresh query-token pairs).
    pub global_col_scores: u64,
    /// Scores computed by the global PE row (fresh token-key pairs).
    pub global_row_scores: u64,
}

impl ExecutionPlan {
    /// Builds a plan for `pattern` on the hardware `hw`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulerError::EmptyPlan`] if the pattern yields no work
    /// (every window offset out of range and no global tokens).
    pub fn build(pattern: &HybridPattern, hw: HardwareMeta) -> Result<Self, SchedulerError> {
        let n = pattern.n();
        let globals = pattern.globals().to_vec();
        if !globals.is_empty() && (hw.global_rows == 0 || hw.global_cols == 0) {
            return Err(SchedulerError::InvalidHardware {
                reason: format!(
                    "pattern has {} global token(s) but the instance has {} global row(s) \
                     and {} global column(s)",
                    globals.len(),
                    hw.global_rows,
                    hw.global_cols
                ),
            });
        }
        let components = canonicalize(pattern);

        // 1. Main passes: component x tile x chunk, skipping fully-inactive
        //    passes (all cells clipped or masked).
        let (mut passes, mut pass_active) = (Vec::new(), Vec::new());
        for (ci, comp) in components.iter().enumerate() {
            let nq = comp.num_queries();
            let noff = comp.offsets().len();
            for tile_start in (0..nq).step_by(hw.pe_rows) {
                let tile_len = hw.pe_rows.min(nq - tile_start);
                for chunk_start in (0..noff).step_by(hw.pe_cols) {
                    let chunk_len = hw.pe_cols.min(noff - chunk_start);
                    let pass = Pass {
                        component: ci,
                        tile_start,
                        tile_len,
                        chunk_start,
                        chunk_len,
                        global_col: Vec::new(),
                        global_row: Vec::new(),
                    };
                    let active = pass_active_cells(&pass, comp, &globals);
                    if active > 0 {
                        passes.push(pass);
                        pass_active.push(active);
                    }
                }
            }
        }

        if passes.is_empty() && globals.is_empty() {
            return Err(SchedulerError::EmptyPlan);
        }

        // 2. Global-column scheduling: each non-global query must meet each
        //    global token's key exactly once. A pass exposes its tile's
        //    queries; each of the `global_cols` units serves one token.
        //    Duties are computed a range at a time: the runs of the tile's
        //    queries, minus what the token has seen, minus the globals.
        let (mut exposed, mut fresh) = (Vec::new(), Vec::new());
        let mut col_seen: Vec<IntervalSet> = globals.iter().map(|_| IntervalSet::new()).collect();
        if hw.global_cols > 0 {
            for pass in &mut passes {
                let comp = &components[pass.component];
                let tile = &comp.queries()[pass.tile_start..pass.tile_start + pass.tile_len];
                exposed.clear();
                push_runs(tile.iter().copied(), &mut exposed);
                for (t, seen) in col_seen.iter_mut().enumerate() {
                    if pass.global_col.len() == hw.global_cols {
                        break;
                    }
                    fresh.clear();
                    for &(start, end) in &exposed {
                        push_unseen(start, end, seen, &globals, &mut fresh);
                    }
                    if let Some(fresh_queries) = take_fresh(&fresh, seen) {
                        pass.global_col.push(GlobalColDuty { token: globals[t], fresh_queries });
                    }
                }
            }
        }

        // 3. Global-row scheduling: each global token's query must meet
        //    every key exactly once. The global row taps the key stream of
        //    the tile's last row: keys `queries_virtual = tile_end-1 + o`,
        //    taken as runs, minus what the token has seen.
        let mut row_seen: Vec<IntervalSet> = globals.iter().map(|_| IntervalSet::new()).collect();
        if hw.global_rows > 0 {
            for pass in &mut passes {
                let comp = &components[pass.component];
                let tap_row = pass.tile_start + pass.tile_len - 1;
                let chunk = &comp.offsets()[pass.chunk_start..pass.chunk_start + pass.chunk_len];
                exposed.clear();
                push_runs(chunk.iter().filter_map(|&o| comp.key_at(tap_row, o)), &mut exposed);
                for (t, seen) in row_seen.iter_mut().enumerate() {
                    if pass.global_row.len() == hw.global_rows {
                        break;
                    }
                    fresh.clear();
                    for &(start, end) in &exposed {
                        push_unseen(start, end, seen, &[], &mut fresh);
                    }
                    if let Some(fresh_keys) = take_fresh(&fresh, seen) {
                        pass.global_row.push(GlobalRowDuty { token: globals[t], fresh_keys });
                    }
                }
            }
        }

        // 4. Supplemental passes for any remaining gaps: keys in pe_cols
        //    slices; queries in pe_rows slices of each run between global
        //    tokens (global queries are covered by the global row, not the
        //    column).
        let mut supplemental = Vec::new();
        for (seen, &token) in row_seen.iter().zip(&globals) {
            for (start, end) in seen.gaps_within(0, n) {
                for s in (start..end).step_by(hw.pe_cols.max(1)) {
                    let end = end.min(s + hw.pe_cols);
                    supplemental.push(SupplementalPass {
                        kind: SupplementalKind::GlobalRow { token, start: s, end },
                    });
                }
            }
        }
        for (seen, &token) in col_seen.iter().zip(&globals) {
            fresh.clear();
            push_unseen(0, n, seen, &globals, &mut fresh);
            for &(start, end) in &fresh {
                for s in (start..end).step_by(hw.pe_rows.max(1)) {
                    let end = end.min(s + hw.pe_rows.max(1));
                    supplemental.push(SupplementalPass {
                        kind: SupplementalKind::GlobalCol { token, start: s, end },
                    });
                }
            }
        }

        Ok(Self { n, hw, globals, components, passes, pass_active, supplemental })
    }

    /// Sequence length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The hardware geometry the plan was built for.
    #[must_use]
    pub fn hardware(&self) -> &HardwareMeta {
        &self.hw
    }

    /// Global tokens of the pattern.
    #[must_use]
    pub fn globals(&self) -> &[usize] {
        &self.globals
    }

    /// Whether `token` is global.
    #[must_use]
    pub fn is_global(&self, token: usize) -> bool {
        is_global(&self.globals, token)
    }

    /// The dataflow components.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The main passes, in execution order.
    #[must_use]
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// Supplemental global-unit passes (empty for the paper's workloads).
    #[must_use]
    pub fn supplemental(&self) -> &[SupplementalPass] {
        &self.supplemental
    }

    /// Heap bytes the plan holds: the vectors it owns, by length times
    /// element size.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let components = self.components.iter().map(|c| {
            let starts = match c.kind() {
                crate::ComponentKind::RowSupport { starts } => size_of_val(&starts[..]),
                _ => 0,
            };
            size_of_val(c.queries()) + size_of_val(c.keys()) + size_of_val(c.offsets()) + starts
        });
        let duties = self.passes.iter().map(|p| {
            let col = p.global_col.iter().map(|d| size_of_val(&d.fresh_queries[..]));
            let row = p.global_row.iter().map(|d| size_of_val(&d.fresh_keys[..]));
            size_of_val(&p.global_col[..])
                + size_of_val(&p.global_row[..])
                + col.sum::<usize>()
                + row.sum::<usize>()
        });
        size_of_val(&self.globals[..])
            + size_of_val(&self.components[..])
            + size_of_val(&self.passes[..])
            + size_of_val(&self.pass_active[..])
            + size_of_val(&self.supplemental[..])
            + components.sum::<usize>()
            + duties.sum::<usize>()
    }

    /// Active PE cells in one pass (score positions actually computed).
    #[must_use]
    pub fn pass_active_cells(&self, pass: &Pass) -> u64 {
        pass_active_cells(pass, &self.components[pass.component], &self.globals)
    }

    /// Computes summary statistics (single traversal of all passes).
    #[must_use]
    pub fn stats(&self) -> PlanStats {
        let mut active = 0u64;
        let mut streamed = 0u64;
        let mut col_scores = 0u64;
        let mut row_scores = 0u64;
        for (pass, &pass_active) in self.passes.iter().zip(&self.pass_active) {
            let comp = &self.components[pass.component];
            active += pass_active;
            // Row-support components gather: every active cell is its own
            // key load, with no diagonal reuse to count.
            streamed += match comp.kind() {
                crate::ComponentKind::RowSupport { .. } => pass_active,
                _ => pass.streamed_key_count(comp.offsets(), comp.keys().len()) as u64,
            };
            col_scores += pass.global_col.iter().map(|d| d.fresh_queries.len() as u64).sum::<u64>();
            row_scores += pass.global_row.iter().map(|d| d.fresh_keys.len() as u64).sum::<u64>();
        }
        for sup in &self.supplemental {
            match sup.kind {
                SupplementalKind::GlobalRow { start, end, .. } => {
                    row_scores += (end - start) as u64;
                }
                SupplementalKind::GlobalCol { start, end, .. } => {
                    col_scores += (end - start) as u64;
                }
            }
        }
        let slots = (self.passes.len() * self.hw.pe_rows * self.hw.pe_cols) as u64;
        PlanStats {
            passes: self.passes.len(),
            supplemental_passes: self.supplemental.len(),
            active_cells: active,
            cell_slots: slots,
            occupancy: if slots == 0 { 0.0 } else { active as f64 / slots as f64 },
            streamed_keys: streamed,
            naive_key_loads: active,
            global_col_scores: col_scores,
            global_row_scores: row_scores,
        }
    }
}

fn is_global(globals: &[usize], token: usize) -> bool {
    globals.binary_search(&token).is_ok()
}

/// Appends the maximal runs of consecutive values of ascending `values` to
/// `out`, as `[start, end)` ranges.
fn push_runs(values: impl Iterator<Item = usize>, out: &mut Vec<(usize, usize)>) {
    for v in values {
        match out.last_mut() {
            Some((_, end)) if *end == v => *end += 1,
            _ => out.push((v, v + 1)),
        }
    }
}

/// Appends the parts of `[start, end)` that are neither in `seen` nor
/// global to `out`, as ranges.
fn push_unseen(
    start: usize,
    end: usize,
    seen: &IntervalSet,
    globals: &[usize],
    out: &mut Vec<(usize, usize)>,
) {
    for (mut s, e) in seen.gaps_within(start, end) {
        let from = globals.partition_point(|&g| g < s);
        for &g in globals[from..].iter().take_while(|&&g| g < e) {
            if s < g {
                out.push((s, g));
            }
            s = g + 1;
        }
        if s < e {
            out.push((s, e));
        }
    }
}

/// The indices of the `fresh` ranges, now marked seen; `None` if there are
/// none.
fn take_fresh(fresh: &[(usize, usize)], seen: &mut IntervalSet) -> Option<Vec<u32>> {
    if fresh.is_empty() {
        return None;
    }
    let mut indices = Vec::with_capacity(fresh.iter().map(|&(s, e)| e - s).sum());
    for &(s, e) in fresh {
        seen.insert_range(s, e);
        indices.extend(s as u32..e as u32);
    }
    Some(indices)
}

/// Counts active cells of a pass: for each tile row, the chunk offsets that
/// land on a valid, non-global key — zero for global-query rows.
///
/// By arithmetic, not per row: every in-range cell of the pass, offset by
/// offset, less the cells on a global key (a global key `vk` is met by the
/// rows `vk - o`), less what a global query's row was counted with.
fn pass_active_cells(pass: &Pass, comp: &Component, globals: &[usize]) -> u64 {
    let chunk = &comp.offsets()[pass.chunk_start..pass.chunk_start + pass.chunk_len];
    let (ts, te) = (pass.tile_start, pass.tile_start + pass.tile_len);
    if let ComponentKind::RowSupport { starts } = comp.kind() {
        // Gather semantics: slot `o` of virtual query `p` is active iff it
        // is inside the row's support; the residual excludes global
        // queries and keys by normalization, so no subtraction applies.
        // The offsets are the slots `0..max_len`, so a chunk is a slot range.
        let (first, width) = (pass.chunk_start as u32, pass.chunk_len as u32);
        let row_len = |p: usize| starts[p + 1] - starts[p];
        return (ts..te).map(|p| u64::from(row_len(p).saturating_sub(first).min(width))).sum();
    }
    let num_keys = comp.keys().len() as i64;
    let (ts, te) = (ts as i64, te as i64);
    // Offsets of `chunk` in `[lo, hi)`.
    let between = |lo: i64, hi: i64| {
        (chunk.partition_point(|&o| o < hi) - chunk.partition_point(|&o| o < lo)) as i64
    };
    // Rows `p` of `[ts, te)` with `0 <= p + o < num_keys`, offset by offset.
    let mut active: i64 = chunk.iter().map(|&o| (te.min(num_keys - o) - ts.max(-o)).max(0)).sum();
    if globals.is_empty() {
        return active as u64;
    }
    // The virtual indices of the global keys rows `first..=last` reach.
    let global_keys = |first: i64, last: i64| {
        let lo = (first + chunk[0]).max(0);
        let hi = (last + chunk[chunk.len() - 1]).min(num_keys - 1);
        let (lo, hi) =
            if lo <= hi { (comp.keys()[lo as usize], comp.keys()[hi as usize]) } else { (1, 0) };
        globals_between(globals, lo, hi).iter().filter_map(|&g| comp_key_virtual(comp, g))
    };
    // A global key at virtual index `vk` holds one cell of each tile row
    // `vk - o`: the offsets in `(vk - te, vk - ts]`.
    let on_global_keys: i64 =
        global_keys(ts, te - 1).map(|vk| between(vk as i64 - te + 1, vk as i64 - ts + 1)).sum();
    active -= on_global_keys;
    // A global query's row computes nothing: take back what it was counted
    // with, bar its global keys (taken back already).
    let (q_first, q_last) = (comp.queries()[ts as usize], comp.queries()[te as usize - 1]);
    let global_rows = globals_between(globals, q_first, q_last);
    for p in global_rows.iter().filter_map(|&g| comp_query_virtual(comp, g)) {
        let p = p as i64;
        let hits = global_keys(p, p).filter(|&vk| chunk.binary_search(&(vk as i64 - p)).is_ok());
        active -= between(-p, num_keys - p) - hits.count() as i64;
    }
    active as u64
}

/// The global tokens in `[lo, hi]`.
fn globals_between(globals: &[usize], lo: usize, hi: usize) -> &[usize] {
    let from = globals.partition_point(|&g| g < lo);
    let to = globals.partition_point(|&g| g <= hi);
    &globals[from..to.max(from)]
}

/// The virtual index of sequence position `g` in the component's key list,
/// if present.
fn comp_key_virtual(comp: &Component, g: usize) -> Option<usize> {
    match comp.kind() {
        ComponentKind::Direct => Some(g),
        ComponentKind::DilatedClass { dilation, key_class, .. } => {
            (g % dilation == *key_class).then(|| (g - key_class) / dilation)
        }
        // The residual never references global keys, so there is nothing
        // to subtract (and no single virtual index exists: the arena may
        // hold a key many times across rows).
        ComponentKind::RowSupport { .. } => None,
    }
}

/// The virtual index of sequence position `g` in the component's query
/// list, if present (diagonal kinds).
fn comp_query_virtual(comp: &Component, g: usize) -> Option<usize> {
    match comp.kind() {
        ComponentKind::Direct => Some(g),
        ComponentKind::DilatedClass { dilation, query_class, .. } => {
            (g % dilation == *query_class).then(|| (g - query_class) / dilation)
        }
        ComponentKind::RowSupport { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::{grid_2d, longformer, sliding_only, sparse_transformer};

    #[test]
    fn longformer_pass_counts_match_hand_calculation() {
        // n = 4096, w = 512, 32x32 array: 128 tiles x 16 chunks = 2048
        // candidate passes; boundary tiles lose some but none go fully
        // inactive (the window always overlaps the sequence).
        let p = longformer(4096, 512, 1).unwrap();
        let plan = ExecutionPlan::build(&p, HardwareMeta::default()).unwrap();
        assert_eq!(plan.components().len(), 1);
        let stats = plan.stats();
        assert!(stats.passes <= 2048, "passes {}", stats.passes);
        assert!(stats.passes >= 1900, "passes {}", stats.passes);
        assert_eq!(stats.supplemental_passes, 0, "no supplemental for Longformer");
        // Occupancy: boundary clipping costs ~w/2n of the window cells.
        assert!(stats.occupancy > 0.85, "occupancy {}", stats.occupancy);
        // Global units see every pair exactly once.
        assert_eq!(stats.global_row_scores, 4096);
        assert_eq!(stats.global_col_scores, 4095);
    }

    #[test]
    fn vil_stage1_plan_shape() {
        // 56x56 grid, 15x15 window: merged offsets = 225, chunks = 8,
        // tiles = ceil(3136/32) = 98.
        let p = grid_2d(56, 56, 15, 15, 1).unwrap();
        let plan = ExecutionPlan::build(&p, HardwareMeta::default()).unwrap();
        assert_eq!(plan.components().len(), 1, "bands merge into one direct component");
        let stats = plan.stats();
        assert!(stats.passes <= 98 * 8);
        assert!(stats.passes > 98 * 6);
        assert_eq!(stats.supplemental_passes, 0, "ViL needs no supplemental passes");
        assert_eq!(stats.global_row_scores, 3136);
        assert_eq!(stats.global_col_scores, 3135);
    }

    #[test]
    fn strided_pattern_produces_class_components() {
        let p = sparse_transformer(64, 4, 4).unwrap();
        let plan = ExecutionPlan::build(&p, HardwareMeta::new(8, 8, 1, 1).unwrap()).unwrap();
        // 1 direct + 4 classes.
        assert_eq!(plan.components().len(), 5);
        assert!(plan.stats().passes > 0);
    }

    #[test]
    fn zero_active_passes_skipped() {
        // Causal window: the first chunk of very negative offsets is fully
        // clipped for the first tile.
        let p = sliding_only(64, 63).unwrap();
        let plan = ExecutionPlan::build(&p, HardwareMeta::new(8, 8, 0, 0).unwrap()).unwrap();
        for pass in plan.passes() {
            assert!(plan.pass_active_cells(pass) > 0, "inactive pass kept");
        }
    }

    #[test]
    fn empty_plan_detected() {
        use salo_patterns::{HybridPattern, Window};
        let p =
            HybridPattern::builder(4).window(Window::sliding(100, 100).unwrap()).build().unwrap();
        assert!(matches!(
            ExecutionPlan::build(&p, HardwareMeta::default()),
            Err(SchedulerError::EmptyPlan)
        ));
    }

    #[test]
    fn global_pattern_requires_global_units() {
        let p = longformer(64, 8, 1).unwrap();
        let no_units = HardwareMeta::new(8, 8, 0, 0).unwrap();
        assert!(matches!(
            ExecutionPlan::build(&p, no_units),
            Err(SchedulerError::InvalidHardware { .. })
        ));
        // Without globals the same hardware is fine.
        let p = sliding_only(64, 8).unwrap();
        assert!(ExecutionPlan::build(&p, no_units).is_ok());
    }

    #[test]
    fn global_only_pattern_uses_supplemental_passes() {
        use salo_patterns::HybridPattern;
        let p = HybridPattern::builder(100).global_token(0).build().unwrap();
        let plan = ExecutionPlan::build(&p, HardwareMeta::default()).unwrap();
        assert!(plan.passes().is_empty());
        let stats = plan.stats();
        assert!(stats.supplemental_passes > 0);
        // Row must see all 100 keys, column the 99 non-global queries.
        assert_eq!(stats.global_row_scores, 100);
        assert_eq!(stats.global_col_scores, 99);
    }

    #[test]
    fn streamed_keys_show_diagonal_reuse() {
        let p = sliding_only(256, 64).unwrap();
        let plan = ExecutionPlan::build(&p, HardwareMeta::default()).unwrap();
        let stats = plan.stats();
        // Diagonal streaming loads far fewer vectors than per-cell loading.
        assert!(
            (stats.streamed_keys as f64) < 0.15 * stats.naive_key_loads as f64,
            "streamed {} vs naive {}",
            stats.streamed_keys,
            stats.naive_key_loads
        );
    }

    #[test]
    fn bigbird_pattern_schedules_residual_as_gather_passes() {
        use salo_patterns::bigbird;
        let p = bigbird(96, 8, 2, 1, 13).unwrap();
        let plan = ExecutionPlan::build(&p, HardwareMeta::new(8, 8, 1, 1).unwrap()).unwrap();
        assert!(
            plan.components()
                .iter()
                .any(|c| matches!(c.kind(), crate::ComponentKind::RowSupport { .. })),
            "residual canonicalizes into a row-support component"
        );
        let report = crate::verify_coverage(&plan, &p);
        assert!(report.is_exact(), "missing {:?} spurious {:?}", report.missing, report.spurious);
        // Gather cells count one key load each, so streamed keys include
        // the residual's active cells.
        let stats = plan.stats();
        assert!(stats.streamed_keys >= p.residual().nnz());
    }

    #[test]
    fn active_cells_are_a_walk_of_every_cell() {
        use salo_patterns::{HybridPattern, Window};
        // Globals inside tiles, on keys, at both ends, on and off the
        // dilation classes; tiles that clip at either end of the sequence.
        let pattern = HybridPattern::builder(61)
            .window(Window::dilated(-9, 9, 3).unwrap())
            .window(Window::sliding(-2, 3).unwrap())
            .global_tokens([0, 7, 8, 31, 60])
            .build()
            .unwrap();
        for hw in [HardwareMeta::new(8, 8, 1, 1).unwrap(), HardwareMeta::new(5, 3, 2, 2).unwrap()] {
            let plan = ExecutionPlan::build(&pattern, hw).unwrap();
            for pass in plan.passes() {
                let comp = &plan.components()[pass.component];
                let chunk = &comp.offsets()[pass.chunk_start..pass.chunk_start + pass.chunk_len];
                let walked: usize = (pass.tile_start..pass.tile_start + pass.tile_len)
                    .filter(|&p| !plan.is_global(comp.queries()[p]))
                    .map(|p| {
                        let keys = chunk.iter().filter_map(|&o| comp.key_at(p, o));
                        keys.filter(|&k| !plan.is_global(k)).count()
                    })
                    .sum();
                assert_eq!(plan.pass_active_cells(pass), walked as u64, "{pass:?}");
            }
        }
    }

    #[test]
    fn two_global_tokens_covered() {
        let p = longformer(256, 32, 2).unwrap();
        let plan = ExecutionPlan::build(&p, HardwareMeta::default()).unwrap();
        let stats = plan.stats();
        // Each token: row sees all n keys, col sees n - ng queries.
        assert_eq!(stats.global_row_scores, 2 * 256);
        assert_eq!(stats.global_col_scores, 2 * 254);
    }
}
