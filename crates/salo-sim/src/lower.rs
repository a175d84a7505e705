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
//! flat list of [`LoweredOp`]s in execution order — window-row softmax
//! parts, flattened global-column/row duties, and supplemental ranges. An
//! op names its keys the way the data scheduler addresses them: as a
//! **run** `(first, stride, key_len)` whenever they are an arithmetic
//! progression (a window row reads `p + o`, a dilated one `key_class +
//! (p + o) · dilation`, a global row a key range), so the program is
//! O(ops), not O(nnz). Only keys that are no progression are listed, in a
//! gather arena: a row with a global token strictly inside its span, a
//! pass whose offset chunk is not consecutive (ViL's 2-D window), and the
//! row-support gathers of block-sparse and random terms. Execution walks
//! the op list: no `Option`, no global checks, no allocation, one
//! run-or-gather decision per op. The op order replicates the plan walk
//! bit for bit, so the lowered fast path and the event-accurate
//! [`SystolicArray`](crate::SystolicArray) oracle — which walks `key_at`
//! itself — stay bit-identical (asserted by the simulator's proptests).

use salo_scheduler::{ComponentKind, ExecutionPlan, PlanStats, SupplementalKind};

/// What one lowered operation computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoweredOpKind {
    /// A full PE-row part: stages 1–5 (scores, softmax, value
    /// accumulation) over the op's key list, merged into the destination
    /// row's weighted-sum module.
    Row,
    /// A single global PE column/row cell: one score, weight `exp(s)`,
    /// output `v_g` at probability one.
    SingleKey,
}

/// Where a [`LoweredOp`]'s keys are: computed, or listed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySpan {
    /// The progression `first, first + stride, …` of `key_len` terms.
    /// Every op whose keys form one (at a stride the field holds) is a run.
    Run {
        /// The first (smallest) key.
        first: u32,
        /// Distance between consecutive keys; 1 for a single key.
        stride: u16,
    },
    /// `key_len` entries of the plan's gather arena
    /// ([`LoweredPlan::gather_keys`]).
    Gather {
        /// Index of the op's first key in the arena.
        start: u32,
    },
}

/// One operation of the lowered program.
///
/// Its keys are sequence indices, already clipped to the sequence and
/// filtered of global tokens; read them through the owning plan's
/// `op_keys`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredOp {
    /// Operation kind (row softmax part vs. single-key global cell).
    pub kind: LoweredOpKind,
    /// The query row (sequence index) whose accumulator receives the part.
    pub dest: u32,
    /// The op's keys: a run, or a slice of the gather arena.
    pub keys: KeySpan,
    /// Number of keys, at least 1 (exactly 1 for
    /// [`LoweredOpKind::SingleKey`]).
    pub key_len: u32,
}

impl LoweredOp {
    /// The op's keys, given the gather arena of the plan that owns it.
    pub(crate) fn keys_in<'a>(&self, gather_keys: &'a [u32]) -> OpKeys<'a> {
        let len = self.key_len;
        match self.keys {
            KeySpan::Run { first, stride } => OpKeys::Run { first, stride: stride.into(), len },
            KeySpan::Gather { start } => {
                OpKeys::Gather(&gather_keys[start as usize..][..len as usize])
            }
        }
    }
}

/// One op's keys, resolved — what the executors match on, once per op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKeys<'a> {
    /// Key `i` is `first + i * stride`, for `i < len`.
    #[allow(missing_docs)]
    Run { first: u32, stride: u32, len: u32 },
    /// The keys, listed.
    Gather(&'a [u32]),
}

impl<'a> OpKeys<'a> {
    /// The keys in order (for inspection; the datapath sweeps an op
    /// without a per-key branch).
    pub fn iter(self) -> impl ExactSizeIterator<Item = u32> + Clone + 'a {
        let len = match self {
            OpKeys::Run { len, .. } => len as usize,
            OpKeys::Gather(keys) => keys.len(),
        };
        (0..len).map(move |i| match self {
            OpKeys::Run { first, stride, .. } => first + i as u32 * stride,
            OpKeys::Gather(keys) => keys[i],
        })
    }

    /// The largest key; a run ascends, so its last.
    pub(crate) fn max(self) -> Option<u32> {
        match self {
            OpKeys::Run { first, stride, len } => Some(first + (len - 1) * stride),
            OpKeys::Gather(keys) => keys.iter().copied().max(),
        }
    }
}

/// `keys` as a run, if they ascend by one fixed stride the field holds.
fn as_run(keys: &[u32]) -> Option<KeySpan> {
    let stride = match keys {
        [] => return None,
        [_] => 1,
        [a, b, ..] => u16::try_from(b.checked_sub(*a)?).ok().filter(|&s| s > 0)?,
    };
    let is_run = keys.windows(2).all(|w| w[0].checked_add(stride.into()) == Some(w[1]));
    is_run.then_some(KeySpan::Run { first: keys[0], stride })
}

/// The plan's global tokens, one bit per sequence position: built once per
/// lowering, so a row's query and its keys are tested in O(1) each, and a
/// stride-1 run a word at a time.
struct GlobalMask {
    /// Empty when the plan has no globals.
    words: Vec<u64>,
}

impl GlobalMask {
    fn new(n: usize, globals: &[usize]) -> Self {
        let mut words = if globals.is_empty() { Vec::new() } else { vec![0; n.div_ceil(64)] };
        for &g in globals {
            words[g / 64] |= 1 << (g % 64);
        }
        Self { words }
    }

    fn contains(&self, token: usize) -> bool {
        self.words.get(token / 64).is_some_and(|&w| w >> (token % 64) & 1 == 1)
    }

    /// Whether a global lies on the `len`-key run `first, first + stride, …`.
    fn on_run(&self, first: usize, stride: usize, len: usize) -> bool {
        if self.words.is_empty() {
            return false;
        }
        if stride > 1 {
            return (0..len).any(|i| self.contains(first + i * stride));
        }
        let last = first + len - 1;
        let (head, tail) = (!0u64 << (first % 64), !0u64 >> (63 - last % 64));
        let words = &self.words[first / 64..=last / 64];
        match words {
            [only] => only & head & tail != 0,
            [first, inner @ .., last] => {
                first & head != 0 || inner.iter().any(|&w| w != 0) || last & tail != 0
            }
            [] => unreachable!("a run has a key"),
        }
    }
}

/// Appends the row part of `dest` over the keys listed in the arena since
/// `start`: as a run if they are one (the arena is rolled back), a gather
/// otherwise, nothing if there are none.
fn push_listed(ops: &mut Vec<LoweredOp>, gather_keys: &mut Vec<u32>, dest: usize, start: usize) {
    let key_len = (gather_keys.len() - start) as u32;
    let keys = match as_run(&gather_keys[start..]) {
        Some(run) => {
            gather_keys.truncate(start);
            run
        }
        None if key_len == 0 => return,
        None => KeySpan::Gather { start: start as u32 },
    };
    ops.push(LoweredOp { kind: LoweredOpKind::Row, dest: dest as u32, keys, key_len });
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
    /// The program, in execution order.
    ops: Vec<LoweredOp>,
    /// The keys of the ops that are not runs, back to back.
    gather_keys: Vec<u32>,
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
    ///
    /// A row of a diagonal pass over a consecutive offset chunk costs
    /// O(1): its keys are the run `keys[p + lo ..= p + hi]` clipped to the
    /// component, unless a global token lies on it. Every other row is
    /// walked key by key, as the oracle does. Global tokens are one bit
    /// mask over the sequence, built once: a query or a walked key is one
    /// bit test, a stride-1 run a word at a time — no search over the
    /// globals per row or per key.
    #[must_use]
    pub fn lower(plan: &ExecutionPlan) -> Self {
        let globals = GlobalMask::new(plan.n(), plan.globals());
        let (mut ops, mut gather_keys) = (Vec::new(), Vec::new());
        let mut pass_bounds = Vec::with_capacity(plan.passes().len());
        let run = |kind, dest: usize, first: usize, stride: u16, key_len: usize| LoweredOp {
            kind,
            dest: dest as u32,
            keys: KeySpan::Run { first: first as u32, stride },
            key_len: key_len as u32,
        };

        for pass in plan.passes() {
            let start = ops.len() as u32;
            let comp = &plan.components()[pass.component];
            let chunk = &comp.offsets()[pass.chunk_start..pass.chunk_start + pass.chunk_len];
            let (lo, hi) = (chunk[0], chunk[chunk.len() - 1]);
            // The stride of the keys a row of this pass reads, if they
            // are a progression before clipping and global filtering.
            let consecutive = hi - lo == chunk.len() as i64 - 1;
            let stride = match comp.kind() {
                ComponentKind::Direct if consecutive => Some(1u16),
                ComponentKind::DilatedClass { dilation, .. } if consecutive => {
                    u16::try_from(*dilation).ok()
                }
                _ => None,
            };
            for u in 0..pass.tile_len {
                let p = pass.tile_start + u;
                let qi = comp.queries()[p];
                if globals.contains(qi) {
                    continue;
                }
                if let Some(stride) = stride {
                    let v_lo = (p as i64 + lo).max(0) as usize;
                    let v_end = (p as i64 + hi + 1).clamp(0, comp.keys().len() as i64) as usize;
                    if v_lo >= v_end {
                        continue;
                    }
                    let (first, len) = (comp.keys()[v_lo], v_end - v_lo);
                    // A global token on the run takes the row to the walk
                    // below, which filters it out.
                    if !globals.on_run(first, usize::from(stride), len) {
                        ops.push(run(LoweredOpKind::Row, qi, first, stride, len));
                        continue;
                    }
                }
                let key_start = gather_keys.len();
                for &o in chunk {
                    if let Some(kj) = comp.key_at(p, o) {
                        if !globals.contains(kj) {
                            gather_keys.push(kj as u32);
                        }
                    }
                }
                push_listed(&mut ops, &mut gather_keys, qi, key_start);
            }
            let global_start = ops.len() as u32;
            for duty in &pass.global_col {
                for &qi in &duty.fresh_queries {
                    ops.push(run(LoweredOpKind::SingleKey, qi as usize, duty.token, 1, 1));
                }
            }
            for duty in &pass.global_row {
                let key_start = gather_keys.len();
                gather_keys.extend_from_slice(&duty.fresh_keys);
                push_listed(&mut ops, &mut gather_keys, duty.token, key_start);
            }
            pass_bounds.push(PassBounds { start, global_start, end: ops.len() as u32 });
        }

        let sup_start = ops.len() as u32;
        for sup in plan.supplemental() {
            match sup.kind {
                SupplementalKind::GlobalRow { token, start, end } if start < end => {
                    ops.push(run(LoweredOpKind::Row, token, start, 1, end - start));
                }
                SupplementalKind::GlobalRow { .. } => {}
                SupplementalKind::GlobalCol { token, start, end } => {
                    ops.extend(
                        (start..end).map(|qi| run(LoweredOpKind::SingleKey, qi, token, 1, 1)),
                    );
                }
            }
        }

        // Sized exactly: both live as long as the compiled plan does.
        ops.shrink_to_fit();
        gather_keys.shrink_to_fit();
        let max_row_keys = ops.iter().map(|op| op.key_len as usize).max().unwrap_or(0);
        Self {
            n: plan.n(),
            stats: plan.stats(),
            ops,
            gather_keys,
            pass_bounds,
            sup_start,
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

    /// The gather arena: the keys of every op that is not a run.
    #[must_use]
    pub fn gather_keys(&self) -> &[u32] {
        &self.gather_keys
    }

    /// Keys of one op.
    #[must_use]
    pub fn op_keys(&self, op: &LoweredOp) -> OpKeys<'_> {
        op.keys_in(&self.gather_keys)
    }

    /// Heap bytes the program holds: ops, gather arena, pass bounds.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&self.ops[..])
            + std::mem::size_of_val(&self.gather_keys[..])
            + std::mem::size_of_val(&self.pass_bounds[..])
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
            let range = low.pass_bounds[i].start as usize..low.pass_bounds[i].end as usize;
            let globals = low.pass_global_ops(i);
            assert!(range.start <= globals.start && globals.end == range.end);
            for op in &low.ops()[range.start..globals.start] {
                assert_eq!(op.kind, LoweredOpKind::Row);
                assert!(!plan.is_global(op.dest as usize), "window op on a global query");
                for k in low.op_keys(op).iter() {
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
        assert!(low.pass_bounds.is_empty());
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
    fn the_global_mask_answers_as_the_global_list_does() {
        let globals = [0, 63, 64, 130, 199];
        let mask = GlobalMask::new(200, &globals);
        for token in 0..200 {
            assert_eq!(mask.contains(token), globals.contains(&token), "token {token}");
        }
        for first in 0..200 {
            for stride in 1..4 {
                for len in 1..=(199 - first) / stride + 1 {
                    let on = (0..len).any(|i| globals.contains(&(first + i * stride)));
                    assert_eq!(mask.on_run(first, stride, len), on, "{first}/{stride}/{len}");
                }
            }
        }
        assert!(!GlobalMask::new(200, &[]).on_run(0, 1, 200));
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
