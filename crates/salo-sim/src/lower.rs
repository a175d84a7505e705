//! Plan lowering: resolving an [`ExecutionPlan`] into flat pass programs.
//!
//! The scheduler's plan is the right structure for *building* a schedule —
//! components, virtual offsets, duty lists — but the wrong one for
//! *executing* it millions of times: walking it re-derives plan-static
//! facts on every pass (per-row key gathers via `Component::key_at`,
//! global-token filtering via `ExecutionPlan::is_global`, supplemental
//! `(start..end)` index vectors), all of which depend only on the plan,
//! never on the data. SALO's own premise (§5) is that the dataflow is
//! compiled once and then streamed through the array with no per-pass
//! decision-making; this module is that compilation step for the
//! functional simulator.
//!
//! [`LoweredPlan::lower`] runs every resolution exactly once and emits a
//! CSR-style program: a single arena of pre-filtered key indices plus a
//! flat list of [`LoweredOp`]s in execution order — window-row softmax
//! parts, flattened global-column/row duties, and supplemental ranges. At
//! execution time the datapath just walks the op list: no `Option`, no
//! closures, no global checks, no allocation. The op order replicates the
//! plan walk bit for bit, so the lowered fast path and the event-accurate
//! [`SystolicArray`](crate::SystolicArray) oracle stay bit-identical
//! (asserted by the simulator's proptests).

use salo_scheduler::{ExecutionPlan, PlanStats, SupplementalKind};
use std::sync::Arc;

/// What one lowered operation computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoweredOpKind {
    /// A full PE-row part: stages 1–5 (scores, softmax, value
    /// accumulation) over the op's key list, merged into the destination
    /// row's weighted-sum module.
    Row,
    /// A single global PE column/row cell: one score, weight `exp(s)`,
    /// output `v_g` at probability one.
    SingleKey,
}

/// One operation of the lowered program.
///
/// `key_start..key_start + key_len` indexes the owning
/// [`LoweredPlan::keys`] arena; the referenced keys are sequence indices,
/// already clipped to the sequence and filtered of global tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredOp {
    /// Operation kind (row softmax part vs. single-key global cell).
    pub kind: LoweredOpKind,
    /// The query row (sequence index) whose accumulator receives the part.
    pub dest: u32,
    /// Start of this op's key list in the key arena.
    pub key_start: u32,
    /// Number of keys (always 1 for [`LoweredOpKind::SingleKey`]).
    pub key_len: u32,
}

/// Op-range boundaries of one main pass within the lowered program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PassBounds {
    /// First op of the pass (window rows come first).
    start: u32,
    /// First global-duty op (column duties, then row duties).
    global_start: u32,
    /// One past the pass's last op.
    end: u32,
}

/// An [`ExecutionPlan`] resolved into a flat, allocation-free program.
///
/// Produced once per compiled plan (the serving runtime stores it next to
/// the plan in its cache, so cache hits skip lowering entirely) and
/// consumed by
/// [`SpatialAccelerator::execute_lowered`](crate::SpatialAccelerator::execute_lowered).
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredPlan {
    n: usize,
    ops: Vec<LoweredOp>,
    /// Behind an `Arc` so the decode program of the same plan
    /// ([`DecodePlan`](crate::DecodePlan)) slices this arena instead of
    /// holding a second copy of it — at decode capacities the keys are the
    /// bulk of a compiled plan.
    keys: Arc<Vec<u32>>,
    pass_bounds: Vec<PassBounds>,
    /// First supplemental op (everything from here to the end runs after
    /// the main passes).
    sup_start: u32,
    stats: PlanStats,
    /// Query-row loads summed over passes (traffic accounting input).
    q_loads: u64,
    max_row_keys: usize,
}

impl LoweredPlan {
    /// Lowers a plan into its flat execution program.
    ///
    /// Resolution order matches the simulator's plan walk exactly: for
    /// each main pass, window tile rows top to bottom, then global-column
    /// duties, then global-row duties; after all passes, the supplemental
    /// passes in plan order. Rows with no surviving keys (fully clipped,
    /// masked, or global) emit no op.
    #[must_use]
    pub fn lower(plan: &ExecutionPlan) -> Self {
        let stats = plan.stats();
        let mut ops = Vec::new();
        // One key per score the plan computes: sized once, so the arena —
        // the bulk of the program — is never grown by copy.
        let scores = stats.active_cells + stats.global_col_scores + stats.global_row_scores;
        let mut keys = Vec::with_capacity(scores as usize);
        let mut pass_bounds = Vec::with_capacity(plan.passes().len());

        for pass in plan.passes() {
            let start = ops.len() as u32;
            let comp = &plan.components()[pass.component];
            let chunk = &comp.offsets()[pass.chunk_start..pass.chunk_start + pass.chunk_len];
            for u in 0..pass.tile_len {
                let p = pass.tile_start + u;
                let qi = comp.queries()[p];
                if plan.is_global(qi) {
                    continue;
                }
                let key_start = keys.len() as u32;
                for &o in chunk {
                    if let Some(kj) = comp.key_at(p, o) {
                        if !plan.is_global(kj) {
                            keys.push(kj as u32);
                        }
                    }
                }
                let key_len = keys.len() as u32 - key_start;
                if key_len == 0 {
                    continue;
                }
                ops.push(LoweredOp {
                    kind: LoweredOpKind::Row,
                    dest: qi as u32,
                    key_start,
                    key_len,
                });
            }
            let global_start = ops.len() as u32;
            for duty in &pass.global_col {
                for &qi in &duty.fresh_queries {
                    let key_start = keys.len() as u32;
                    keys.push(duty.token as u32);
                    ops.push(LoweredOp {
                        kind: LoweredOpKind::SingleKey,
                        dest: qi,
                        key_start,
                        key_len: 1,
                    });
                }
            }
            for duty in &pass.global_row {
                if duty.fresh_keys.is_empty() {
                    continue;
                }
                let key_start = keys.len() as u32;
                keys.extend(duty.fresh_keys.iter().copied());
                ops.push(LoweredOp {
                    kind: LoweredOpKind::Row,
                    dest: duty.token as u32,
                    key_start,
                    key_len: duty.fresh_keys.len() as u32,
                });
            }
            pass_bounds.push(PassBounds { start, global_start, end: ops.len() as u32 });
        }

        let sup_start = ops.len() as u32;
        for sup in plan.supplemental() {
            match sup.kind {
                SupplementalKind::GlobalRow { token, start, end } => {
                    if start >= end {
                        continue;
                    }
                    let key_start = keys.len() as u32;
                    keys.extend((start..end).map(|k| k as u32));
                    ops.push(LoweredOp {
                        kind: LoweredOpKind::Row,
                        dest: token as u32,
                        key_start,
                        key_len: (end - start) as u32,
                    });
                }
                SupplementalKind::GlobalCol { token, start, end } => {
                    for qi in start..end {
                        let key_start = keys.len() as u32;
                        keys.push(token as u32);
                        ops.push(LoweredOp {
                            kind: LoweredOpKind::SingleKey,
                            dest: qi as u32,
                            key_start,
                            key_len: 1,
                        });
                    }
                }
            }
        }

        let max_row_keys = ops.iter().map(|op| op.key_len as usize).max().unwrap_or(0);
        Self {
            n: plan.n(),
            ops,
            keys: Arc::new(keys),
            pass_bounds,
            sup_start,
            stats,
            q_loads: plan.passes().iter().map(|p| p.tile_len as u64).sum(),
            max_row_keys,
        }
    }

    /// Sequence length the program was lowered for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The full op list, in execution order.
    #[must_use]
    pub fn ops(&self) -> &[LoweredOp] {
        &self.ops
    }

    /// The shared key-index arena the ops slice into.
    #[must_use]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// A handle on the key arena, for programs derived from this one.
    pub(crate) fn shared_keys(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.keys)
    }

    /// Key list of one op.
    #[must_use]
    pub fn op_keys(&self, op: &LoweredOp) -> &[u32] {
        &self.keys[op.key_start as usize..(op.key_start + op.key_len) as usize]
    }

    /// Number of main passes in the program.
    #[must_use]
    pub fn num_passes(&self) -> usize {
        self.pass_bounds.len()
    }

    /// Op range of main pass `i` (window rows and global duties).
    #[must_use]
    pub fn pass_ops(&self, i: usize) -> std::ops::Range<usize> {
        let b = self.pass_bounds[i];
        b.start as usize..b.end as usize
    }

    /// Op range of main pass `i`'s global duties only (the window rows are
    /// executed by the systolic array model on the event-accurate path).
    #[must_use]
    pub fn pass_global_ops(&self, i: usize) -> std::ops::Range<usize> {
        let b = self.pass_bounds[i];
        b.global_start as usize..b.end as usize
    }

    /// Op range of the supplemental passes (run after every main pass).
    #[must_use]
    pub fn supplemental_ops(&self) -> std::ops::Range<usize> {
        self.sup_start as usize..self.ops.len()
    }

    /// Plan statistics, captured once at lowering time.
    #[must_use]
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// Query-row loads summed over main passes (traffic input).
    #[must_use]
    pub fn q_loads(&self) -> u64 {
        self.q_loads
    }

    /// The longest key list of any op — the high-water mark for score /
    /// probability scratch buffers.
    #[must_use]
    pub fn max_row_keys(&self) -> usize {
        self.max_row_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::{longformer, sliding_only, sparse_transformer, HybridPattern};
    use salo_scheduler::HardwareMeta;

    fn lowered(pattern: &HybridPattern, hw: HardwareMeta) -> (ExecutionPlan, LoweredPlan) {
        let plan = ExecutionPlan::build(pattern, hw).unwrap();
        let low = LoweredPlan::lower(&plan);
        (plan, low)
    }

    #[test]
    fn window_ops_carry_no_global_or_out_of_range_keys() {
        let pattern = longformer(96, 11, 2).unwrap();
        let (plan, low) = lowered(&pattern, HardwareMeta::new(8, 8, 1, 1).unwrap());
        assert_eq!(low.n(), 96);
        for (i, _) in plan.passes().iter().enumerate() {
            let range = low.pass_ops(i);
            let globals = low.pass_global_ops(i);
            assert!(range.start <= globals.start && globals.end == range.end);
            for op in &low.ops()[range.start..globals.start] {
                assert_eq!(op.kind, LoweredOpKind::Row);
                assert!(!plan.is_global(op.dest as usize), "window op on a global query");
                for &k in low.op_keys(op) {
                    assert!((k as usize) < 96);
                    assert!(!plan.is_global(k as usize), "window op sees a global key");
                }
            }
        }
    }

    #[test]
    fn op_score_count_matches_plan_stats() {
        // Every score position of the plan appears exactly once in the
        // lowered program: window cells as Row keys, global-column scores
        // as SingleKey ops, global-row scores as Row keys on global
        // destinations.
        for pattern in [
            longformer(64, 9, 2).unwrap(),
            sparse_transformer(60, 4, 5).unwrap(),
            sliding_only(48, 7).unwrap(),
            HybridPattern::builder(40).global_token(3).build().unwrap(),
        ] {
            let hw = if pattern.globals().is_empty() {
                HardwareMeta::new(8, 8, 0, 0).unwrap()
            } else {
                HardwareMeta::new(8, 8, 1, 1).unwrap()
            };
            let (plan, low) = lowered(&pattern, hw);
            let stats = plan.stats();
            let mut window_scores = 0u64;
            let mut single = 0u64;
            let mut global_row = 0u64;
            for op in low.ops() {
                match op.kind {
                    LoweredOpKind::SingleKey => single += 1,
                    LoweredOpKind::Row if plan.is_global(op.dest as usize) => {
                        global_row += u64::from(op.key_len);
                    }
                    LoweredOpKind::Row => window_scores += u64::from(op.key_len),
                }
            }
            assert_eq!(window_scores, stats.active_cells, "{}", pattern.n());
            assert_eq!(single, stats.global_col_scores);
            assert_eq!(global_row, stats.global_row_scores);
            assert_eq!(low.stats(), &stats);
        }
    }

    #[test]
    fn supplemental_ops_follow_every_pass() {
        // A global-only pattern lowers to supplemental ops exclusively.
        let pattern = HybridPattern::builder(30).global_token(0).build().unwrap();
        let (plan, low) = lowered(&pattern, HardwareMeta::new(4, 4, 1, 1).unwrap());
        assert!(plan.passes().is_empty());
        assert_eq!(low.num_passes(), 0);
        assert_eq!(low.supplemental_ops(), 0..low.ops().len());
        assert!(!low.ops().is_empty());
        // The global row must see all 30 keys, the column the other 29
        // queries.
        let row_keys: u64 = low
            .ops()
            .iter()
            .filter(|op| op.kind == LoweredOpKind::Row)
            .map(|op| u64::from(op.key_len))
            .sum();
        let col_ops =
            low.ops().iter().filter(|op| op.kind == LoweredOpKind::SingleKey).count() as u64;
        assert_eq!(row_keys, 30);
        assert_eq!(col_ops, 29);
    }

    #[test]
    fn max_row_keys_bounds_every_op() {
        let pattern = longformer(128, 17, 1).unwrap();
        let (plan, low) = lowered(&pattern, HardwareMeta::new(8, 8, 1, 1).unwrap());
        assert!(low.max_row_keys() > 0);
        assert!(low.ops().iter().all(|op| op.key_len as usize <= low.max_row_keys()));
        assert_eq!(low.q_loads(), plan.passes().iter().map(|p| p.tile_len as u64).sum::<u64>());
    }
}
