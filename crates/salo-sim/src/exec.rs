//! Functional + timing execution of plans on the simulated accelerator.
//!
//! The hot path executes a [`LoweredPlan`] — the plan resolved once into
//! flat pass programs by [`lower`](crate::LoweredPlan::lower) — against
//! flat row-major quantized inputs: an `f32` head quantized into the
//! arenas of a reusable [`ExecScratch`] as it is loaded, or a head that
//! arrived quantized ([`FixedQkv`]) read where it lies. Steady-state
//! execution performs no heap allocation and no plan-structure queries: it
//! walks the op list and runs stages 1–5 per op. Stage 5 writes each op's
//! part as the 32-bit row a PE row hands its weighted-sum module, and the
//! module blends it into the destination's `i64` accumulator
//! ([`merge_part_into`]); an accumulator is written by the first part that
//! reaches it, so nothing is zero-filled per request or per op. The
//! event-accurate [`execute_systolic`](SpatialAccelerator::execute_systolic)
//! path remains the oracle: it steps the window passes through the
//! cycle-level [`SystolicArray`] and shares the lowered program for global
//! duties, so both paths stay bit-identical.
//!
//! # One executor, stage-major over a group of ops
//!
//! Every op anywhere — a prefill's program, the systolic path's global
//! duties, a decode step's row and the global-duty advances behind it —
//! runs through one body, `run_ops_grouped`. It takes the ops [`GROUP`] at
//! a time and runs the group *stage-major*: stage 1 for every op of the
//! group, then stages 2–4 for every op, then stage 5, then
//! the weighted-sum merges in op order, each op's intermediates in its own
//! slot of a small fixed array of buffers. An op's five stages are one
//! dependent chain (scores → row sum → reciprocal → probabilities → output
//! → blend weights); op-major, the chain of one op has to drain before the
//! next op's first load issues. Stage-major, eight independent chains sit
//! side by side in every stage and the core overlaps them.
//!
//! The order of everything that is order-sensitive is unchanged. Only the
//! merges into one destination row do not commute, and a group never
//! reorders them — it delays them: the merges of a group run after its
//! stage 5, in op order, and groups run one after another, so every
//! accumulator receives exactly the sequence of parts it did op by op.
//! Stages 1–5 of an op read only the inputs and write only that op's slot.
//! Saturation counts are sums. So outputs, weights and counts are the bits
//! they were, whatever the group width — which is a constant chosen by
//! measurement (EXPERIMENTS.md, "The kernel's other half"), not a knob.

use salo_fixed::{
    fixed_softmax_parts_into, merge_part_into, merge_partials_into, qk_dot, qk_dot_rows,
    quantize_iter, sv_rows_mac, sv_rows_mac_add, ExpLut, Fix16x8, Fix8x4, MacSaturation,
    PartialRow, RecipUnit, PROB_ONE,
};
use salo_kernels::Matrix;
use salo_scheduler::{ExecutionPlan, Pass, PlanStats};
use salo_trace::{StageProfile, StageTimer, Tracer};
use std::sync::Arc;

use crate::systolic::SystolicArray;
use crate::{
    AcceleratorConfig, CycleModel, EnergyModel, ExecutionReport, FixedQkv, LoweredOp,
    LoweredOpKind, LoweredPlan, OpKeys, SimError, TimingReport, TrafficReport, UtilizationReport,
};

/// One head's inputs: `f32` rows, quantized into the arenas as they are
/// loaded ([`quantize_iter`], the scale folded into `q`), or rows quantized
/// before they got here, read in place.
#[derive(Clone, Copy)]
enum HeadRows<'a> {
    F32 { q: &'a Matrix<f32>, k: &'a Matrix<f32>, v: &'a Matrix<f32>, scale: f32 },
    Fixed(&'a FixedQkv),
}

/// The simulated SALO accelerator instance.
///
/// Construction builds the exponential and reciprocal lookup tables from
/// the configuration; the instance is immutable and reusable across plans.
/// The tables live behind [`Arc`], so cloning an accelerator (as the
/// serving worker pool does with its per-thread replicas) shares them
/// instead of rebuilding or copying.
#[derive(Debug, Clone)]
pub struct SpatialAccelerator {
    config: AcceleratorConfig,
    exp: Arc<ExpLut>,
    recip: Arc<RecipUnit>,
}

/// The result of a functional execution: the rows the weighted-sum
/// modules emit, in their 16-bit format, and nothing derived from them —
/// a caller that wants `f32` values dequantizes `raw` itself.
#[derive(Debug, Clone)]
pub struct ExecutionOutput {
    /// Attention output in the 16-bit accelerator format.
    pub raw: Matrix<Fix16x8>,
    /// Final per-row softmax weights (Q.16) accumulated by the
    /// weighted-sum modules.
    pub weights_q16: Vec<i64>,
    /// Timing, energy, utilization and saturation report.
    pub report: ExecutionReport,
}

/// Ops the executor runs side by side, stage by stage. Widths 2 to 16
/// measure alike and 1 and 32 measure worse (EXPERIMENTS.md, "The kernel's
/// other half"); 8 keeps a group's buffers — 8 × (32 scores, 32
/// probabilities, one `d`-element 32-bit part) at the array's op size —
/// inside 4 KiB of L1 at d = 64.
pub(crate) const GROUP: usize = 8;

/// One op's intermediates between the stages of a group.
#[derive(Debug, Clone)]
struct OpSlot {
    /// Stage-1 scores.
    scores: Vec<i32>,
    /// Stage-4 probabilities (none for a single-key cell, whose one key is
    /// at probability one).
    probs: Vec<u16>,
    /// The part's weight `W = Σ exp(S)`, Q.16.
    weight_q16: i64,
    /// The part's row, Q.19: stage 5's 32-bit sums as they leave the PE
    /// row, written over each op — no widening, no zero-fill.
    part: Vec<i32>,
}

/// The working buffers of one five-stage datapath instance: a slot per op
/// of a group ([`GROUP`]), reused across every group an executor runs.
#[derive(Debug, Clone)]
pub struct OpScratch {
    /// Per-op intermediates of the current group.
    slots: [OpSlot; GROUP],
    /// Stage-2 exponentials of the op in flight: working memory of the
    /// row primitive, dead once the op's probabilities are written.
    exps: Vec<u32>,
    /// Accumulated per-stage wall time; only written when `profiling`.
    pub(crate) profile: StageProfile,
    /// Stage-profiling flag: when false each group pays one predicted
    /// branch per stage and never touches the clock.
    pub(crate) profiling: bool,
}

impl Default for OpScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl OpScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| OpSlot {
                scores: Vec::new(),
                probs: Vec::new(),
                weight_q16: 0,
                part: Vec::new(),
            }),
            exps: Vec::new(),
            profile: StageProfile::default(),
            profiling: false,
        }
    }

    /// Sizes every slot's part for dimension `d` and pre-grows the per-key
    /// buffers to `max_keys`, so no op of the program — the longest
    /// included — allocates.
    pub(crate) fn prepare(&mut self, d: usize, max_keys: usize) {
        for slot in &mut self.slots {
            slot.part.resize(d, 0);
            // Emptied first: `reserve` counts from the length.
            slot.scores.clear();
            slot.scores.reserve(max_keys);
            slot.probs.clear();
            slot.probs.reserve(max_keys);
        }
        self.exps.clear();
        self.exps.reserve(max_keys);
    }
}

/// Reusable working memory of the execution datapath.
///
/// Holds the flat quantized-input arenas an `f32` head is loaded into
/// (row-major, one row stride per token; a quantized head is read in
/// place), the per-op stage buffers (`OpScratch`) and the per-row
/// weighted-sum accumulators. Buffers grow to the high-water mark of the
/// workloads they have seen and are then reused allocation-free across
/// passes, heads and — when held by a serving worker — requests.
///
/// A request resets only the accumulators' weights, to a mark no part
/// carries: each row is written by the first part that reaches it, and a
/// row that none reaches drains as zeros, whatever an earlier request left
/// in it. Reuse is bit-transparent: executing with a fresh scratch and
/// with a scratch that has already served other shapes produces identical
/// bits.
#[derive(Debug, Clone)]
pub struct ExecScratch {
    /// An `f32` head's quantized queries (scale folded in), `n * d`
    /// row-major.
    qq: Vec<Fix8x4>,
    /// An `f32` head's quantized keys, `n * d` row-major.
    kq: Vec<Fix8x4>,
    /// An `f32` head's quantized values, `n * d` row-major.
    vq: Vec<Fix8x4>,
    /// The per-op stage buffers.
    pub(crate) op: OpScratch,
    /// Per-row weighted-sum accumulators (the WSM state); a weight of
    /// [`UNREACHED`] marks a row no part has reached in this request.
    acc: Vec<PartialRow>,
    /// One decode call's ops: its row program expanded for its row, in
    /// step order, before the executor walks them.
    pub(crate) picked: Vec<LoweredOp>,
    /// An `f32` decode token's q, k and v rows, quantised on their way to
    /// the ingest.
    pub(crate) token: [Vec<Fix8x4>; 3],
}

impl Default for ExecScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ExecScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            qq: Vec::new(),
            kq: Vec::new(),
            vq: Vec::new(),
            op: OpScratch::new(),
            acc: Vec::new(),
            picked: Vec::new(),
            token: Default::default(),
        }
    }

    /// Loads one head's inputs — the one ingest of a prefill: an `f32`
    /// head is quantized into the arenas, a quantized one stays where it
    /// is — and readies the accumulators for an `n x d` execution.
    fn load(&mut self, rows: HeadRows<'_>, n: usize, d: usize) {
        // Load-time quantization (scale folded into Q).
        if let HeadRows::F32 { q, k, v, scale } = rows {
            let arenas = [&mut self.qq, &mut self.kq, &mut self.vq];
            for (arena, (m, scale)) in arenas.into_iter().zip([(q, scale), (k, 1.0), (v, 1.0)]) {
                arena.clear();
                arena.extend(quantize_iter(m.as_slice(), scale));
            }
        }
        // Weights only: a row's elements are written by its first part.
        // Rows are resized only when `d` changes.
        let acc = &mut self.acc;
        acc.truncate(n);
        for row in acc.iter_mut() {
            row.weight_q16 = UNREACHED;
            row.out_q19.resize(d, 0);
        }
        acc.resize_with(n, || PartialRow { weight_q16: UNREACHED, out_q19: vec![0; d] });
    }

    /// The head's quantized Q, K and V rows — the arenas for an `f32`
    /// head, the head's own matrices for a quantized one — beside the
    /// stage buffers and the accumulators, borrowed apart.
    fn split<'s>(
        &'s mut self,
        rows: HeadRows<'s>,
    ) -> ([&'s [Fix8x4]; 3], &'s mut OpScratch, &'s mut [PartialRow]) {
        let Self { qq, kq, vq, op, acc, .. } = self;
        let inputs = match rows {
            HeadRows::F32 { .. } => [&qq[..], &kq[..], &vq[..]],
            HeadRows::Fixed(head) => [head.q(), head.k(), head.v()].map(Matrix::as_slice),
        };
        (inputs, op, acc)
    }

    /// Row `i` of a flat `d`-strided arena.
    #[inline]
    pub(crate) fn row(arena: &[Fix8x4], i: usize, d: usize) -> &[Fix8x4] {
        &arena[i * d..][..d]
    }

    /// Enables or disables per-stage datapath profiling for subsequent
    /// executions through this scratch. Disabled (the default) the datapath
    /// pays one predicted branch per stage; enabled it accumulates wall
    /// time per stage into a [`StageProfile`].
    pub fn set_profiling(&mut self, on: bool) {
        self.op.profiling = on;
    }

    /// Whether per-stage profiling is enabled.
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.op.profiling
    }

    /// Takes the accumulated stage profile, leaving the accumulator empty.
    pub fn take_profile(&mut self) -> StageProfile {
        self.op.profile.take()
    }
}

impl SpatialAccelerator {
    /// Builds an accelerator from a configuration.
    #[must_use]
    pub fn new(config: AcceleratorConfig) -> Self {
        let exp = Arc::new(ExpLut::new(config.exp_segments.max(1)));
        let recip = Arc::new(RecipUnit::new(config.recip_entries.max(1)));
        Self { config, exp, recip }
    }

    /// The Table 1 instance.
    #[must_use]
    pub fn default_instance() -> Self {
        Self::new(AcceleratorConfig::default())
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The shared exponential and reciprocal lookup tables.
    ///
    /// Clones of this accelerator hold the same handles, so a worker pool
    /// built from clones shares one set of tables.
    #[must_use]
    pub fn shared_tables(&self) -> (&Arc<ExpLut>, &Arc<RecipUnit>) {
        (&self.exp, &self.recip)
    }

    /// Timing-only estimate for executing `plan` with `num_heads` heads of
    /// dimension `head_dim` (heads run back to back; the plan is per-head).
    #[must_use]
    pub fn estimate(
        &self,
        plan: &ExecutionPlan,
        head_dim: usize,
        num_heads: usize,
    ) -> TimingReport {
        let stats = plan.stats();
        let q_loads = plan.passes().iter().map(|p| p.tile_len as u64).sum();
        self.timing_report(&stats, q_loads, plan.n(), head_dim, num_heads)
    }

    /// [`estimate`](Self::estimate) from a lowered plan's captured
    /// statistics — no plan traversal.
    #[must_use]
    fn estimate_lowered(
        &self,
        lowered: &LoweredPlan,
        head_dim: usize,
        num_heads: usize,
    ) -> TimingReport {
        self.timing_report(lowered.stats(), lowered.q_loads(), lowered.n(), head_dim, num_heads)
    }

    fn timing_report(
        &self,
        stats: &PlanStats,
        q_loads: u64,
        n: usize,
        head_dim: usize,
        num_heads: usize,
    ) -> TimingReport {
        let model = CycleModel::new(&self.config);
        let cycles = model.plan_cycles(
            stats.passes as u64,
            stats.supplemental_passes as u64,
            head_dim,
            num_heads,
        );
        let time_s = cycles.total as f64 * self.config.cycle_time_s();
        let busy = model.pe_busy_cycles(head_dim);
        let array_cycle_slots = self.config.hw.array_pes() as u64 * cycles.per_head.max(1);
        let mac_utilization = (stats.active_cells * busy) as f64 / array_cycle_slots as f64;
        TimingReport {
            cycles,
            time_s,
            energy_j: EnergyModel::new(&self.config).lumped_energy_j(cycles.total),
            utilization: UtilizationReport {
                occupancy: stats.occupancy,
                mac_utilization: mac_utilization.min(1.0),
            },
            traffic: TrafficReport::from_parts(stats, q_loads, n, head_dim),
        }
    }

    /// Functionally executes one head: quantizes the inputs, runs every
    /// pass through the five-stage fixed-point datapath, merges window
    /// splits and global contributions in the weighted-sum modules, and
    /// returns 16-bit outputs with a full report.
    ///
    /// Lowers the plan and allocates a scratch internally; callers
    /// executing a plan more than once should lower it once and use
    /// [`execute_lowered`](Self::execute_lowered) with a reused
    /// [`ExecScratch`].
    ///
    /// `scale` is folded into the query quantization; pass
    /// `1/sqrt(head_dim)` for standard attention (see
    /// [`default_scale`](Self::default_scale)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ShapeMismatch`] if the matrices disagree with
    /// the plan, or a fixed-point error on numeric degeneracy.
    pub fn execute(
        &self,
        plan: &ExecutionPlan,
        q: &Matrix<f32>,
        k: &Matrix<f32>,
        v: &Matrix<f32>,
        scale: f32,
    ) -> Result<ExecutionOutput, SimError> {
        let lowered = LoweredPlan::lower(plan);
        self.execute_lowered(&lowered, q, k, v, scale, &mut ExecScratch::new())
    }

    /// Executes one head through a pre-lowered plan with caller-owned
    /// scratch — the allocation-free hot path.
    ///
    /// Bit-identical to [`execute`](Self::execute) and to
    /// [`execute_systolic`](Self::execute_systolic) on the same inputs.
    ///
    /// # Errors
    ///
    /// Same as [`execute`](Self::execute).
    pub fn execute_lowered(
        &self,
        lowered: &LoweredPlan,
        q: &Matrix<f32>,
        k: &Matrix<f32>,
        v: &Matrix<f32>,
        scale: f32,
        scratch: &mut ExecScratch,
    ) -> Result<ExecutionOutput, SimError> {
        self.execute_loaded(lowered, HeadRows::F32 { q, k, v, scale }, scratch)
    }

    /// [`execute_lowered`](Self::execute_lowered) for a head already
    /// quantized — `q` with the scale folded in — whose rows are copied
    /// into the arenas as they are. Bit-identical to `execute_lowered` on
    /// the `f32` head [`FixedQkv::quantize`] made them from.
    ///
    /// # Errors
    ///
    /// As [`execute_lowered`](Self::execute_lowered).
    pub fn execute_lowered_fixed(
        &self,
        lowered: &LoweredPlan,
        head: &FixedQkv,
        scratch: &mut ExecScratch,
    ) -> Result<ExecutionOutput, SimError> {
        self.execute_loaded(lowered, HeadRows::Fixed(head), scratch)
    }

    fn execute_loaded(
        &self,
        lowered: &LoweredPlan,
        rows: HeadRows<'_>,
        scratch: &mut ExecScratch,
    ) -> Result<ExecutionOutput, SimError> {
        let tracer = Tracer::global();
        let _span = tracer.span_with("sim.execute_lowered", "sim", lowered.n() as u64);
        if scratch.op.profiling {
            scratch.op.profile = StageProfile::default();
        }
        let d = self.prepare(lowered, rows, scratch)?;
        let mut sat = MacSaturation::default();
        let (inputs, ops, acc) = scratch.split(rows);
        self.run_ops(lowered, 0..lowered.ops().len(), d, inputs, ops, acc, &mut sat)?;
        let mut out = self.drain(lowered, d, acc, sat);
        if scratch.op.profiling {
            let profile = scratch.op.profile.take();
            emit_stage_spans(tracer, &profile);
            out.report.stages = Some(profile);
        }
        Ok(out)
    }

    /// Like [`execute`](Self::execute), but steps every array pass through
    /// the event-accurate [`SystolicArray`] (explicit systolic skew,
    /// rippled row sums) instead of the lowered program.
    ///
    /// The two paths are **bit-identical** — asserted in tests and
    /// proptests — because they perform the same fixed-point operations in
    /// the same order; this method exists to validate that claim and costs
    /// roughly an order of magnitude more host time.
    ///
    /// # Errors
    ///
    /// Same as [`execute`](Self::execute).
    pub fn execute_systolic(
        &self,
        plan: &ExecutionPlan,
        q: &Matrix<f32>,
        k: &Matrix<f32>,
        v: &Matrix<f32>,
        scale: f32,
    ) -> Result<ExecutionOutput, SimError> {
        let lowered = LoweredPlan::lower(plan);
        let rows = HeadRows::F32 { q, k, v, scale };
        let scratch = &mut ExecScratch::new();
        let d = self.prepare(&lowered, rows, scratch)?;
        let mut sat = MacSaturation::default();
        let (inputs, ops, acc) = scratch.split(rows);
        for (i, pass) in plan.passes().iter().enumerate() {
            self.array_pass_systolic(plan, pass, d, inputs, acc, &mut sat)?;
            self.run_ops(&lowered, lowered.pass_global_ops(i), d, inputs, ops, acc, &mut sat)?;
        }
        self.run_ops(&lowered, lowered.supplemental_ops(), d, inputs, ops, acc, &mut sat)?;
        Ok(self.drain(&lowered, d, acc, sat))
    }

    /// Shape-checks the inputs and loads them ([`ExecScratch::load`]).
    fn prepare(
        &self,
        lowered: &LoweredPlan,
        rows: HeadRows<'_>,
        scratch: &mut ExecScratch,
    ) -> Result<usize, SimError> {
        let n = lowered.n();
        let shapes = match rows {
            HeadRows::F32 { q, k, v, .. } => [q.shape(), k.shape(), v.shape()],
            HeadRows::Fixed(head) => [head.q().shape(), head.k().shape(), head.v().shape()],
        };
        if let Some(&got) = shapes.iter().find(|got| got.0 != n || **got != shapes[0]) {
            return Err(SimError::ShapeMismatch { plan_n: n, got });
        }
        let d = shapes[0].1;
        scratch.load(rows, n, d);
        // Pre-size the per-op buffers to the program's high-water mark so
        // the first ops never reallocate mid-pass.
        scratch.op.prepare(d, lowered.max_row_keys());
        Ok(d)
    }

    /// Executes a range of the lowered program through the group executor
    /// over the head's quantized rows, merged in place into the per-row
    /// accumulators. No allocation once the scratch has been prepared for
    /// the program.
    #[allow(clippy::too_many_arguments)] // the split scratch, spelled out
    fn run_ops(
        &self,
        lowered: &LoweredPlan,
        range: std::ops::Range<usize>,
        d: usize,
        [qq, kq, vq]: [&[Fix8x4]; 3],
        bufs: &mut OpScratch,
        acc: &mut [PartialRow],
        sat: &mut MacSaturation,
    ) -> Result<(), SimError> {
        let resolve = |op: &LoweredOp| GroupOp {
            kind: op.kind,
            keys: lowered.op_keys(op),
            q_row: ExecScratch::row(qq, op.dest as usize, d),
            slot: op.dest as usize,
        };
        let (tables, kv) = ((&*self.exp, &*self.recip), SliceKv { kq, vq, rows: lowered.n() });
        run_ops_grouped(tables, &lowered.ops()[range], resolve, &kv, d, bufs, acc, sat)
    }

    /// One array pass via the event-accurate systolic model.
    fn array_pass_systolic(
        &self,
        plan: &ExecutionPlan,
        pass: &Pass,
        d: usize,
        [qq, kq, vq]: [&[Fix8x4]; 3],
        acc: &mut [PartialRow],
        sat: &mut MacSaturation,
    ) -> Result<(), SimError> {
        let comp = &plan.components()[pass.component];
        let chunk = &comp.offsets()[pass.chunk_start..pass.chunk_start + pass.chunk_len];
        let hw = self.config.hw;
        let array = SystolicArray::new(hw.pe_rows, hw.pe_cols, self.config.timing);

        // Resolve each cell's key index once (None = clipped/masked).
        let mut cell_keys = vec![None; pass.tile_len * hw.pe_cols];
        let mut row_query = vec![None; pass.tile_len];
        for u in 0..pass.tile_len {
            let p = pass.tile_start + u;
            let qi = comp.queries()[p];
            if plan.is_global(qi) {
                continue;
            }
            row_query[u] = Some(qi);
            for (vv, &o) in chunk.iter().enumerate() {
                if let Some(kj) = comp.key_at(p, o) {
                    if !plan.is_global(kj) {
                        cell_keys[u * hw.pe_cols + vv] = Some(kj);
                    }
                }
            }
        }
        let queries: Vec<Option<&[Fix8x4]>> =
            row_query.iter().map(|qi| qi.map(|qi| ExecScratch::row(qq, qi, d))).collect();
        let key_of = |u: usize, vv: usize| {
            cell_keys
                .get(u * hw.pe_cols + vv)
                .copied()
                .flatten()
                .map(|kj| ExecScratch::row(kq, kj, d))
        };
        let val_of = |u: usize, vv: usize| {
            cell_keys
                .get(u * hw.pe_cols + vv)
                .copied()
                .flatten()
                .map(|kj| ExecScratch::row(vq, kj, d))
        };
        let (parts, _trace) =
            array.run_pass(d, &queries, key_of, val_of, &self.exp, &self.recip, sat);
        for (u, part) in parts.into_iter().enumerate() {
            let (Some(qi), Some(part)) = (row_query.get(u).copied().flatten(), part) else {
                continue;
            };
            merge_partials_into(reached(&mut acc[qi]), &part, &self.recip)?;
        }
        Ok(())
    }

    /// Drains the weighted-sum modules into the output — the 16-bit rows
    /// and their weights — and builds the report.
    fn drain(
        &self,
        lowered: &LoweredPlan,
        d: usize,
        acc: &[PartialRow],
        sat: MacSaturation,
    ) -> ExecutionOutput {
        let n = lowered.n();
        let mut raw = Vec::with_capacity(n * d);
        let weights = acc.iter().map(|row| drain_into(row, &mut raw)).collect();
        ExecutionOutput {
            raw: Matrix::from_vec(n, d, raw).expect("one row of d per accumulator"),
            weights_q16: weights,
            report: ExecutionReport {
                timing: self.estimate_lowered(lowered, d, 1),
                saturation_events: sat.events,
                stages: None,
            },
        }
    }

    /// The standard attention scale for a head dimension.
    #[must_use]
    pub fn default_scale(head_dim: usize) -> f32 {
        1.0 / (head_dim.max(1) as f32).sqrt()
    }
}

/// How the executor reaches quantized K/V rows by sequence position.
///
/// The rows are held in storage blocks of consecutive rows, K and V side by
/// side. The prefill path's source is one block, its flat contiguous arenas
/// ([`SliceKv`]); the decode path's blocks are pages
/// ([`PagedKv`](crate::decode) — row `j` lives at slot `j % page_rows` of
/// page `j / page_rows`). [`run_ops_grouped`] sweeps a run of keys a block
/// at a time through [`block`](Self::block), translating once per block it
/// crosses, and reaches a listed key through [`k_row`](Self::k_row) /
/// [`v_row`](Self::v_row). It is generic over the source and monomorphizes
/// per impl, so both paths execute the **same** kernel body — which is what
/// keeps paged decode bit-identical to prefill.
pub(crate) trait KvSource {
    /// Key row `j` (`d` elements).
    fn k_row(&self, j: usize, d: usize) -> &[Fix8x4];
    /// Value row `j` (`d` elements).
    fn v_row(&self, j: usize, d: usize) -> &[Fix8x4];
    /// The K rows and the V rows from row `j` to the end of the block that
    /// holds it, and how many rows that is.
    fn block(&self, j: usize, d: usize) -> (&[Fix8x4], &[Fix8x4], usize);
}

/// Contiguous row-major K/V arenas of `rows` rows — the prefill-side
/// [`KvSource`], one block.
pub(crate) struct SliceKv<'a> {
    pub kq: &'a [Fix8x4],
    pub vq: &'a [Fix8x4],
    pub rows: usize,
}

impl KvSource for SliceKv<'_> {
    #[inline]
    fn k_row(&self, j: usize, d: usize) -> &[Fix8x4] {
        ExecScratch::row(self.kq, j, d)
    }

    #[inline]
    fn v_row(&self, j: usize, d: usize) -> &[Fix8x4] {
        ExecScratch::row(self.vq, j, d)
    }

    #[inline]
    fn block(&self, j: usize, d: usize) -> (&[Fix8x4], &[Fix8x4], usize) {
        (&self.kq[j * d..], &self.vq[j * d..], self.rows - j)
    }
}

/// The run `first, first + stride, …` of `len` keys, one storage block of
/// `kv` at a time: the block's K and V rows from the piece's first key on,
/// and how many of the run's keys the block holds — key `i` of the piece
/// is row `i * stride` of both. A run that ends inside its first block
/// (every run of a [`SliceKv`]) is one piece and costs no division.
#[inline(always)]
fn run_blocks<S: KvSource>(
    kv: &S,
    (first, stride, len): (u32, u32, u32),
    d: usize,
) -> impl Iterator<Item = (&[Fix8x4], &[Fix8x4], usize)> {
    let (mut at, stride, mut left) = (first as usize, stride as usize, len as usize);
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let (k, v, rows) = kv.block(at, d);
        let keys = if (left - 1) * stride < rows { left } else { rows.div_ceil(stride) };
        at += keys * stride;
        left -= keys;
        Some((k, v, keys))
    })
}

/// The weight of an accumulator no part has reached since the request
/// began. No part carries it (a weight is a sum of exponentials), so the
/// row's elements are whatever an earlier request left there: the first
/// part writes them ([`reached`]), and a row that none reaches drains as
/// zeros ([`drain_into`]).
pub(crate) const UNREACHED: i64 = -1;

/// `acc`, ready for a part: a row no part has reached yet is empty, and
/// the merge writes it with the part.
#[inline]
fn reached(acc: &mut PartialRow) -> &mut PartialRow {
    if acc.weight_q16 == UNREACHED {
        acc.weight_q16 = 0;
    }
    acc
}

/// Appends an accumulator's row to `raw` in the 16-bit output format and
/// returns its weight: zeros and zero for a row no part reached.
pub(crate) fn drain_into(acc: &PartialRow, raw: &mut Vec<Fix16x8>) -> i64 {
    if acc.weight_q16 == UNREACHED {
        raw.extend(std::iter::repeat_n(Fix16x8::ZERO, acc.out_q19.len()));
        return 0;
    }
    raw.extend(acc.out_q19.iter().map(|&o| Fix16x8::from_q19_acc(o)));
    acc.weight_q16
}

/// The one key of a single-key op.
#[inline]
fn single_key(keys: OpKeys<'_>) -> usize {
    match keys {
        OpKeys::Run { first, .. } => first as usize,
        OpKeys::Gather(keys) => keys[0] as usize,
    }
}

/// One lowered op as the executor sees it, resolved by its caller: the
/// keys, the query row and where the part is merged.
#[derive(Clone, Copy)]
pub(crate) struct GroupOp<'a> {
    /// A row part, or a single-key global cell.
    pub kind: LoweredOpKind,
    /// The op's keys, as its plan resolves them.
    pub keys: OpKeys<'a>,
    /// The destination's quantized query row (`d` elements).
    pub q_row: &'a [Fix8x4],
    /// Index of the destination's accumulator in the executor's `accs`.
    pub slot: usize,
}

/// Stages 1–5 for a list of lowered ops, each merged into the accumulator
/// `resolve` names for it: output-stationary dot products, exp/sum/
/// reciprocal/normalize, weight-stationary value accumulation into the
/// op's 32-bit part row, weighted-sum merge of that row into the `i64`
/// accumulator ([`merge_part_into`]; an accumulator at [`UNREACHED`] is
/// written by it) — run stage-major over [`GROUP`] ops at a time (module
/// docs). A single-key global cell is one dot product, its weight, and
/// `v_g` at probability one, with no chain. `ops` is however the caller
/// lists its ops; `resolve` turns an entry into what the stages need and
/// is called once per stage, inlined.
///
/// This is the **single** arithmetic body executed by the prefill pass
/// (`run_ops`), the systolic path's global duties and the decode step
/// (`run_decode_ops`, K/V through page translation) — the decode ==
/// prefill == systolic bit-identity holds by
/// construction because there is exactly one copy of these kernels to
/// diverge from. Parts reach each accumulator in the order the ops are
/// listed in. The first op, in list order, whose row sum is zero fails the
/// call with that error (nothing else can fail here: a group's parts and
/// accumulators have one length by construction); what the group's earlier
/// ops had yet to merge is then lost with it, and the callers — which
/// discard the prefill or poison the session — need nothing else.
///
/// The stage timer laps once per stage per *group* on this same body, so
/// `sim.stage.*` sums to the time spent here while a profiled run reads
/// the clock four times a group instead of five times an op.
#[allow(clippy::too_many_arguments)] // the datapath's full dataflow, spelled out
pub(crate) fn run_ops_grouped<'a, T, S: KvSource>(
    (exp, recip): (&ExpLut, &RecipUnit),
    ops: &[T],
    resolve: impl Fn(&T) -> GroupOp<'a>,
    kv: &S,
    d: usize,
    bufs: &mut OpScratch,
    accs: &mut [PartialRow],
    sat: &mut MacSaturation,
) -> Result<(), SimError> {
    let OpScratch { slots, exps, profile, profiling } = bufs;
    let mut timer = StageTimer::start(*profiling);
    // A ragged last group leaves the slots past it untouched.
    for group in ops.chunks(GROUP) {
        // Stage 1: output-stationary dot products. Run or gather is
        // decided once per op and stage, so neither sweep branches per
        // key. (The row closures are inlined whatever their size: an
        // out-of-line call in a key loop spills the sweep's accumulators.)
        for (op, slot) in group.iter().map(&resolve).zip(slots.iter_mut()) {
            slot.scores.clear();
            match (op.kind, op.keys) {
                // A global cell: one key, one dot product.
                (LoweredOpKind::SingleKey, keys) => {
                    slot.scores.push(qk_dot(op.q_row, kv.k_row(single_key(keys), d), sat));
                }
                // A run a block at a time; the sweep appends.
                (LoweredOpKind::Row, OpKeys::Run { first, stride, len }) => {
                    for (k, _, keys) in run_blocks(kv, (first, stride, len), d) {
                        qk_dot_rows(
                            op.q_row,
                            keys,
                            #[inline(always)]
                            |i| ExecScratch::row(k, i * stride as usize, d),
                            &mut slot.scores,
                            sat,
                        );
                    }
                }
                (LoweredOpKind::Row, OpKeys::Gather(keys)) => qk_dot_rows(
                    op.q_row,
                    keys.len(),
                    #[inline(always)]
                    |i| kv.k_row(keys[i] as usize, d),
                    &mut slot.scores,
                    sat,
                ),
            }
        }
        timer.lap(&mut profile.qk_dot_ns);
        for (op, slot) in group.iter().map(&resolve).zip(slots.iter_mut()) {
            slot.weight_q16 = match op.kind {
                // Stages 2-4: exp, row sum, reciprocal, normalize.
                LoweredOpKind::Row => {
                    fixed_softmax_parts_into(&slot.scores, exp, recip, exps, &mut slot.probs)?.0
                }
                // A global PE column/row cell: weight `exp(s)`, its one key
                // at probability one.
                LoweredOpKind::SingleKey => exp.eval_q8(slot.scores[0]),
            };
        }
        timer.lap(&mut profile.exp_lut_ns);
        // Stage 5: weight-stationary value accumulation, written over the
        // slot's 32-bit part row.
        for (op, slot) in group.iter().map(&resolve).zip(slots.iter_mut()) {
            match (op.kind, op.keys) {
                // `v_g` at probability one: the product a chain of one key
                // would sum, with no chain.
                (LoweredOpKind::SingleKey, keys) => {
                    let v = kv.v_row(single_key(keys), d);
                    for (o, &ve) in slot.part.iter_mut().zip(v) {
                        *o = i32::from(PROB_ONE) * i32::from(ve.raw());
                    }
                }
                // A run a block at a time: the first block's keys written,
                // each later block's added — exact integer sums, regrouped.
                (LoweredOpKind::Row, OpKeys::Run { first, stride, len }) => {
                    let mut probs = &slot.probs[..];
                    for (piece, (_, v, keys)) in run_blocks(kv, (first, stride, len), d).enumerate()
                    {
                        let (these, rest) = probs.split_at(keys);
                        probs = rest;
                        if piece == 0 {
                            sv_rows_mac(
                                these,
                                #[inline(always)]
                                |i| ExecScratch::row(v, i * stride as usize, d),
                                &mut slot.part,
                            );
                        } else {
                            sv_rows_mac_add(
                                these,
                                #[inline(always)]
                                |i| ExecScratch::row(v, i * stride as usize, d),
                                &mut slot.part,
                            );
                        }
                    }
                }
                (LoweredOpKind::Row, OpKeys::Gather(keys)) => sv_rows_mac(
                    &slot.probs,
                    #[inline(always)]
                    |i| kv.v_row(keys[i] as usize, d),
                    &mut slot.part,
                ),
            }
        }
        timer.lap(&mut profile.sv_mac_ns);
        // The weighted-sum merges, in op order: what a destination
        // receives, and in which order, is what it received op by op.
        for (op, slot) in group.iter().map(&resolve).zip(slots.iter()) {
            merge_part_into(reached(&mut accs[op.slot]), slot.weight_q16, &slot.part, recip)?;
        }
        timer.lap(&mut profile.renorm_merge_ns);
        if *profiling {
            profile.ops += group.len() as u64;
            profile.keys +=
                slots[..group.len()].iter().map(|slot| slot.scores.len() as u64).sum::<u64>();
        }
    }
    Ok(())
}

/// Span names for the synthetic per-stage child spans, in datapath order
/// (matching [`StageProfile::stages`]).
const STAGE_SPAN_NAMES: [&str; 4] =
    ["sim.stage.qk_dot", "sim.stage.exp_lut", "sim.stage.renorm_merge", "sim.stage.sv_mac"];

/// Emits the accumulated stage costs as synthetic child spans laid
/// back-to-back so they end now, inside the caller's still-open execute
/// span. Their total is bounded by the execute span's wall time, so the
/// exported trace stays well-nested by construction.
fn emit_stage_spans(tracer: &Tracer, profile: &StageProfile) {
    if !tracer.enabled() || profile.is_empty() {
        return;
    }
    let end = salo_trace::now_ns();
    let mut t = end.saturating_sub(profile.total_ns());
    for (&name, (_, ns)) in STAGE_SPAN_NAMES.iter().zip(profile.stages()) {
        tracer.record_interval(name, "sim", t, t + ns, ns);
        t += ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeySpan;
    use salo_kernels::Qkv;
    use salo_patterns::{longformer, sliding_only, HybridPattern, Window};
    use salo_scheduler::HardwareMeta;

    impl SpatialAccelerator {
        /// An accelerator around a hand-built exponential LUT — for tests
        /// (here and in `decode.rs`) that need a row sum of zero, which no
        /// LUT over the default domain has.
        pub(crate) fn with_exp(config: AcceleratorConfig, exp: ExpLut) -> Self {
            Self { exp: Arc::new(exp), ..Self::new(config) }
        }
    }

    fn accel(rows: usize, cols: usize) -> SpatialAccelerator {
        let config = AcceleratorConfig {
            hw: HardwareMeta::new(rows, cols, 1, 1).unwrap(),
            ..Default::default()
        };
        SpatialAccelerator::new(config)
    }

    #[test]
    fn systolic_execution_bit_matches_lowered() {
        // The event-stepped systolic path and the lowered fast path
        // perform identical fixed-point operations in identical order.
        let n = 40;
        let d = 8;
        let pattern = longformer(n, 11, 2).unwrap();
        let qkv = Qkv::random(n, d, 77);
        let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(8, 8, 1, 1).unwrap()).unwrap();
        let sim = accel(8, 8);
        let scale = SpatialAccelerator::default_scale(d);
        let fast = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
        let slow = sim.execute_systolic(&plan, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
        assert_eq!(fast.raw, slow.raw, "bit-identical outputs");
        assert_eq!(fast.weights_q16, slow.weights_q16);
        assert_eq!(fast.report.saturation_events, slow.report.saturation_events);
    }

    #[test]
    fn scratch_reuse_is_bit_transparent() {
        // One scratch serving different shapes back to back produces the
        // same bits as a fresh scratch per execution.
        let sim = accel(8, 8);
        let mut scratch = ExecScratch::new();
        for (n, d, w, seed) in [(40usize, 8usize, 11usize, 1u64), (24, 4, 7, 2), (40, 8, 11, 3)] {
            let pattern = longformer(n, w, 1).unwrap();
            let plan =
                ExecutionPlan::build(&pattern, HardwareMeta::new(8, 8, 1, 1).unwrap()).unwrap();
            let lowered = LoweredPlan::lower(&plan);
            let qkv = Qkv::random(n, d, seed);
            let scale = SpatialAccelerator::default_scale(d);
            let reused =
                sim.execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, &mut scratch).unwrap();
            let fresh = sim
                .execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, &mut ExecScratch::new())
                .unwrap();
            assert_eq!(reused.raw, fresh.raw);
            assert_eq!(reused.weights_q16, fresh.weights_q16);
            assert_eq!(reused.report.saturation_events, fresh.report.saturation_events);
        }
    }

    #[test]
    fn rows_no_op_reaches_drain_as_zeros_after_a_larger_request() {
        // Accumulators are written by their first part and never
        // zero-filled. A scratch that has just served a larger request of
        // the same `d` holds that request's rows; a plan whose last three
        // rows no op reaches (each row attends three to six keys ahead)
        // must still drain them as zeros, and equal a fresh scratch.
        let (d, sim) = (8, accel(8, 8));
        let hw = HardwareMeta::new(8, 8, 1, 1).unwrap();
        let mut scratch = ExecScratch::new();
        let big =
            LoweredPlan::lower(&ExecutionPlan::build(&longformer(64, 11, 2).unwrap(), hw).unwrap());
        let qkv = Qkv::random(64, d, 17);
        let scale = SpatialAccelerator::default_scale(d);
        let out = sim.execute_lowered(&big, &qkv.q, &qkv.k, &qkv.v, scale, &mut scratch).unwrap();
        assert!(out.weights_q16.iter().all(|&w| w > 0), "the larger request reaches every row");

        let n = 40;
        let ahead =
            HybridPattern::builder(n).window(Window::sliding(3, 6).unwrap()).build().unwrap();
        let plan = ExecutionPlan::build(&ahead, hw).unwrap();
        let lowered = LoweredPlan::lower(&plan);
        let unreached = n - 3..n;
        assert!(lowered.ops().iter().all(|op| !unreached.contains(&(op.dest as usize))));
        let qkv = Qkv::random(n, d, 18);
        let fresh = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
        let fixed = FixedQkv::quantize(&qkv);
        let reused = [
            sim.execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, &mut scratch).unwrap(),
            sim.execute_lowered_fixed(&lowered, &fixed, &mut scratch).unwrap(),
        ];
        for reused in reused {
            assert_eq!(reused.raw, fresh.raw);
            assert_eq!(reused.weights_q16, fresh.weights_q16);
            for r in unreached.clone() {
                assert!(reused.raw.row(r).iter().all(|&x| x == Fix16x8::ZERO), "row {r}");
                assert_eq!(reused.weights_q16[r], 0, "row {r}");
            }
        }
        assert!(fresh.weights_q16[..n - 3].iter().all(|&w| w > 0));
    }

    #[test]
    fn profiling_reports_stages_and_stays_bit_identical() {
        let n = 40;
        let d = 8;
        let pattern = longformer(n, 11, 2).unwrap();
        let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(8, 8, 1, 1).unwrap()).unwrap();
        let lowered = LoweredPlan::lower(&plan);
        let qkv = Qkv::random(n, d, 91);
        let sim = accel(8, 8);
        let scale = SpatialAccelerator::default_scale(d);

        let mut plain = ExecScratch::new();
        let mut profiled = ExecScratch::new();
        profiled.set_profiling(true);
        let a = sim.execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, &mut plain).unwrap();
        let b =
            sim.execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, &mut profiled).unwrap();
        assert_eq!(a.raw, b.raw, "profiling must not perturb outputs");
        assert!(a.report.stages.is_none(), "no profile unless requested");
        let stages = b.report.stages.expect("profiled run reports stages");
        assert_eq!(stages.ops, lowered.ops().len() as u64);
        assert!(stages.keys > 0);
    }

    /// The executor on its own: arenas of `n` rows, and a hand-built op
    /// list over them.
    struct Bed {
        d: usize,
        qq: Vec<Fix8x4>,
        kq: Vec<Fix8x4>,
        vq: Vec<Fix8x4>,
        gather: Vec<u32>,
        ops: Vec<LoweredOp>,
    }

    /// A small deterministic generator (the executor's inputs need spread,
    /// not quality).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) as usize) % bound
        }

        fn arena(&mut self, len: usize) -> Vec<Fix8x4> {
            (0..len)
                .map(|_| match self.below(6) {
                    0 => Fix8x4::MIN,
                    1 => Fix8x4::MAX,
                    _ => Fix8x4::from_raw(self.below(255) as u8 as i8),
                })
                .collect()
        }
    }

    impl Bed {
        /// `n` rows of `d`; every kind of op side by side, few destinations
        /// (so a group repeats one), lengths on both sides of the array's
        /// 32 keys and of the 32-bit stage-5 chain, and a count that leaves
        /// the last group ragged.
        fn random(seed: u64, n: usize, d: usize) -> Self {
            let mut rng = Lcg(seed);
            let (qq, kq, vq) = (rng.arena(n * d), rng.arena(n * d), rng.arena(n * d));
            let (mut gather, mut ops) = (Vec::new(), Vec::new());
            let mut lengths: Vec<usize> = (0..5 * GROUP).map(|_| 1 + rng.below(32)).collect();
            lengths[7] = 33 + rng.below(60);
            lengths[2 * GROUP + 1] = salo_fixed::SV_I32_SAFE_KEYS + 1 + rng.below(40);
            lengths.truncate(5 * GROUP - 3);
            for len in lengths {
                let dest = rng.below(5) as u32;
                let op = match rng.below(3) {
                    0 => LoweredOp {
                        kind: LoweredOpKind::SingleKey,
                        dest,
                        keys: KeySpan::Run { first: rng.below(n) as u32, stride: 1 },
                        key_len: 1,
                    },
                    1 => {
                        let stride = 1 + rng.below((n - 1) / len.max(2)).min(3);
                        let first = rng.below(n - (len - 1) * stride);
                        LoweredOp {
                            kind: LoweredOpKind::Row,
                            dest,
                            keys: KeySpan::Run { first: first as u32, stride: stride as u16 },
                            key_len: len as u32,
                        }
                    }
                    _ => {
                        let start = gather.len() as u32;
                        gather.extend((0..len).map(|_| rng.below(n) as u32));
                        LoweredOp {
                            kind: LoweredOpKind::Row,
                            dest,
                            keys: KeySpan::Gather { start },
                            key_len: len as u32,
                        }
                    }
                };
                ops.push(op);
            }
            Self { d, qq, kq, vq, gather, ops }
        }

        /// The op list through the executor, `at_a_time` ops a call.
        fn run(
            &self,
            sim: &SpatialAccelerator,
            at_a_time: usize,
        ) -> Result<(Vec<PartialRow>, MacSaturation), SimError> {
            let kv = SliceKv { kq: &self.kq, vq: &self.vq, rows: self.kq.len() / self.d };
            self.run_on(sim, &kv, at_a_time, |_| {})
        }

        /// [`run`](Self::run) over the K/V of `kv`; `seen` looks at the
        /// group's buffers after each call.
        fn run_on<S: KvSource>(
            &self,
            sim: &SpatialAccelerator,
            kv: &S,
            at_a_time: usize,
            mut seen: impl FnMut(&OpScratch),
        ) -> Result<(Vec<PartialRow>, MacSaturation), SimError> {
            let d = self.d;
            let mut accs = vec![PartialRow::empty(d); 5];
            let mut sat = MacSaturation::default();
            let mut bufs = OpScratch::new();
            bufs.prepare(d, self.ops.iter().map(|op| op.key_len as usize).max().unwrap_or(0));
            let resolve = |op: &LoweredOp| GroupOp {
                kind: op.kind,
                keys: op.keys_in(&self.gather),
                q_row: ExecScratch::row(&self.qq, op.dest as usize, d),
                slot: op.dest as usize,
            };
            let tables = (&*sim.exp, &*sim.recip);
            for ops in self.ops.chunks(at_a_time) {
                run_ops_grouped(tables, ops, resolve, kv, d, &mut bufs, &mut accs, &mut sat)?;
                seen(&bufs);
            }
            Ok((accs, sat))
        }
    }

    /// The rows of a [`SliceKv`] held in blocks of `rows` rows, each its own
    /// allocation, the last padded with rows no op reads: a sweep that ran
    /// past the block it was handed would panic rather than read on.
    struct BlockedKv {
        rows: usize,
        blocks: Vec<(Vec<Fix8x4>, Vec<Fix8x4>)>,
    }

    impl BlockedKv {
        fn new(kq: &[Fix8x4], vq: &[Fix8x4], d: usize, rows: usize) -> Self {
            let block = |rows_of: &[Fix8x4]| {
                let mut block = rows_of.to_vec();
                block.resize(rows * d, Fix8x4::MAX);
                block
            };
            let blocks = kq.chunks(rows * d).zip(vq.chunks(rows * d));
            Self { rows, blocks: blocks.map(|(k, v)| (block(k), block(v))).collect() }
        }
    }

    impl KvSource for BlockedKv {
        fn k_row(&self, j: usize, d: usize) -> &[Fix8x4] {
            &self.block(j, d).0[..d]
        }

        fn v_row(&self, j: usize, d: usize) -> &[Fix8x4] {
            &self.block(j, d).1[..d]
        }

        fn block(&self, j: usize, d: usize) -> (&[Fix8x4], &[Fix8x4], usize) {
            let ((k, v), slot) = (&self.blocks[j / self.rows], j % self.rows);
            (&k[slot * d..], &v[slot * d..], self.rows - slot)
        }
    }

    #[test]
    fn runs_read_a_block_at_a_time_equal_one_slice() {
        // The same ops over the same rows, once as one slice and once in
        // blocks of 1, 3, 16 and 256 rows: a run from every slot of a block,
        // of lengths that leave a ragged last quad and cross any number of
        // block ends, one longer than a 32-bit stage-5 chain, a single key
        // and a gather beside them. Scores, probabilities and part of each
        // op, then the accumulators and saturation count of the whole list,
        // to the bit.
        let sim = accel(8, 8);
        let n = 2 * 256 + 3 * (salo_fixed::SV_I32_SAFE_KEYS + 8);
        for d in [8, 32, 64, 128] {
            let mut rng = Lcg(d as u64);
            let (qq, kq, vq) = (rng.arena(5 * d), rng.arena(n * d), rng.arena(n * d));
            for (rows, stride) in
                [1, 3, 16, 256].into_iter().flat_map(|r| (1..=3).map(move |s| (r, s)))
            {
                let run = |first: usize, len: usize, dest| LoweredOp {
                    kind: LoweredOpKind::Row,
                    dest,
                    keys: KeySpan::Run { first: first as u32, stride: stride as u16 },
                    key_len: len as u32,
                };
                let mut ops: Vec<LoweredOp> = (0..rows)
                    .map(|slot| run(rows + slot, 1 + (slot * 7) % 70, slot as u32 % 5))
                    .collect();
                ops.push(run(rows - 1, salo_fixed::SV_I32_SAFE_KEYS + 7, 1));
                ops.push(LoweredOp {
                    kind: LoweredOpKind::SingleKey,
                    dest: 2,
                    keys: KeySpan::Run { first: rows as u32 + 1, stride: 1 },
                    key_len: 1,
                });
                ops.push(LoweredOp {
                    kind: LoweredOpKind::Row,
                    dest: 3,
                    keys: KeySpan::Gather { start: 0 },
                    key_len: 40,
                });
                let gather = (0..40).map(|_| rng.below(n) as u32).collect();
                let bed = Bed { d, qq: qq.clone(), kq: kq.clone(), vq: vq.clone(), gather, ops };
                let blocked = BlockedKv::new(&kq, &vq, d, rows);

                // The pieces the runs come in: some op crosses a block end,
                // some piece is one key, some run ends on a ragged quad.
                let pieces: Vec<Vec<usize>> = bed
                    .ops
                    .iter()
                    .map(|op| match op.keys_in(&bed.gather) {
                        OpKeys::Run { first, stride, len } => {
                            run_blocks(&blocked, (first, stride, len), d).map(|p| p.2).collect()
                        }
                        OpKeys::Gather(_) => Vec::new(),
                    })
                    .collect();
                let what = format!("d = {d}, {rows}-row blocks, stride {stride}");
                assert!(pieces.iter().any(|p| p.len() > 1), "{what}: no run crosses a block");
                assert!(pieces.iter().flatten().any(|&k| k == 1), "{what}: no one-key piece");
                assert!(bed.ops.iter().any(|op| op.key_len % 4 != 0 && op.key_len > 4));

                let slice = SliceKv { kq: &kq, vq: &vq, rows: n };
                let (mut by_slice, mut by_block) = (Vec::new(), Vec::new());
                bed.run_on(&sim, &slice, 1, |bufs| by_slice.push(bufs.slots[0].clone()))
                    .expect("slice");
                bed.run_on(&sim, &blocked, 1, |bufs| by_block.push(bufs.slots[0].clone()))
                    .expect("blocks");
                assert_eq!(by_block.len(), bed.ops.len());
                for (i, (a, b)) in by_slice.iter().zip(&by_block).enumerate() {
                    assert_eq!(a.scores, b.scores, "{what}: op {i} scores");
                    assert_eq!(a.probs, b.probs, "{what}: op {i} probabilities");
                    assert_eq!(a.part, b.part, "{what}: op {i} part");
                }
                let whole = bed.run_on(&sim, &slice, bed.ops.len(), |_| {}).expect("slice");
                let blocks = bed.run_on(&sim, &blocked, bed.ops.len(), |_| {}).expect("blocks");
                assert_eq!(whole, blocks, "{what}: accumulators and saturation count");
            }
        }
    }

    #[test]
    fn whole_op_lists_match_one_op_slices() {
        // The same body fed the whole list (groups of `GROUP`, a ragged
        // last one) and fed one op a call (no grouping at all), and at a
        // width that cuts the list elsewhere: same accumulators, same
        // weights, same saturation count, to the bit.
        let sim = accel(8, 8);
        for (seed, d) in [(1, 8), (2, 32), (3, 48), (4, 64), (5, 128), (6, 64)] {
            let bed = Bed::random(seed, 640, d);
            assert!(!bed.ops.len().is_multiple_of(GROUP), "a ragged last group");
            let kinds = |kind| bed.ops.iter().filter(|op| op.kind == kind).count();
            assert!(kinds(LoweredOpKind::SingleKey) > 0 && !bed.gather.is_empty());
            let whole = bed.run(&sim, bed.ops.len()).expect("whole list");
            for at_a_time in [1, 3] {
                let sliced = bed.run(&sim, at_a_time).expect("sliced");
                assert_eq!(sliced.0, whole.0, "seed {seed}, d {d}, {at_a_time} at a time");
                assert_eq!(sliced.1, whole.1);
            }
            assert!(whole.0.iter().all(|acc| acc.weight_q16 > 0), "every destination was hit");
        }
    }

    #[test]
    fn saturation_counts_are_sums_whatever_the_grouping() {
        // One past the widest head a dot product provably fits: every score
        // of these all-`MIN` rows saturates, once per key.
        let d = salo_fixed::QK_DOT_SAFE_DIM + 1;
        let row = |first: u32, key_len: u32, kind| LoweredOp {
            kind,
            dest: first % 2,
            keys: KeySpan::Run { first, stride: 1 },
            key_len,
        };
        let bed = Bed {
            d,
            qq: vec![Fix8x4::MIN; 2 * d],
            kq: vec![Fix8x4::MIN; 3 * d],
            vq: vec![Fix8x4::MAX; 3 * d],
            gather: Vec::new(),
            ops: vec![
                row(0, 3, LoweredOpKind::Row),
                row(1, 1, LoweredOpKind::SingleKey),
                row(1, 2, LoweredOpKind::Row),
            ],
        };
        let sim = accel(8, 8);
        let run = |at_a_time| {
            let (mut accs, sat) = bed.run(&sim, at_a_time).expect("runs");
            accs.truncate(2);
            (accs, sat)
        };
        let (whole, sliced) = (run(3), run(1));
        assert_eq!(whole.1.events, 6, "one event per key");
        assert_eq!(whole, sliced);
    }

    #[test]
    fn an_op_failing_mid_group_fails_the_call_with_its_error() {
        // A LUT whose low end rounds to zero: a row whose every score sits
        // there has a zero sum. Every key is +1; destination 1's query is
        // -2, everyone else's +1.
        let d = 8;
        let exp = ExpLut::with_domain(8, -16.0, -8.0).expect("domain");
        let sim = SpatialAccelerator::with_exp(AcceleratorConfig::default(), exp);
        let mut bed = Bed::random(7, 640, d);
        bed.kq.fill(Fix8x4::from_f32(1.0));
        bed.qq.fill(Fix8x4::from_f32(1.0));
        bed.qq[d..2 * d].fill(Fix8x4::from_f32(-2.0));
        for op in &mut bed.ops {
            op.dest = u32::from(op.dest == 1) * 2; // nobody fails ...
        }
        bed.run(&sim, bed.ops.len()).expect("positive sums everywhere");
        let bad = GROUP + 3; // ... but the fourth op of the second group.
        bed.ops[bad] = LoweredOp {
            kind: LoweredOpKind::Row,
            dest: 1,
            keys: KeySpan::Run { first: 0, stride: 1 },
            key_len: 9,
        };
        let zero_sum = salo_fixed::FixedError::NonPositiveReciprocal { raw: 0 };
        for at_a_time in [bed.ops.len(), 1] {
            match bed.run(&sim, at_a_time) {
                Err(SimError::Fixed(e)) => assert_eq!(e, zero_sum),
                other => panic!("expected the zero row sum, got {other:?}"),
            }
        }
    }

    #[test]
    fn cloned_accelerators_share_lookup_tables() {
        let sim = accel(8, 8);
        let clone = sim.clone();
        let (exp_a, recip_a) = sim.shared_tables();
        let (exp_b, recip_b) = clone.shared_tables();
        assert!(Arc::ptr_eq(exp_a, exp_b), "ExpLut shared across clones");
        assert!(Arc::ptr_eq(recip_a, recip_b), "RecipUnit shared across clones");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let pattern = sliding_only(16, 3).unwrap();
        let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(4, 4, 0, 0).unwrap()).unwrap();
        let sim = accel(4, 4);
        let good = Matrix::zeros(16, 4);
        let bad = Matrix::zeros(12, 4);
        assert!(matches!(
            sim.execute(&plan, &bad, &good, &good, 1.0),
            Err(SimError::ShapeMismatch { plan_n: 16, .. })
        ));
    }

    #[test]
    fn estimate_reports_consistent_figures() {
        let pattern = longformer(256, 32, 1).unwrap();
        let plan = ExecutionPlan::build(&pattern, HardwareMeta::default()).unwrap();
        let sim = SpatialAccelerator::default_instance();
        let t = sim.estimate(&plan, 64, 12);
        assert!(t.cycles.total > 0);
        assert!((t.time_s - t.cycles.total as f64 * 1e-9).abs() < 1e-15);
        assert!(t.utilization.occupancy > 0.0 && t.utilization.occupancy <= 1.0);
        assert!(t.utilization.mac_utilization > 0.0 && t.utilization.mac_utilization <= 1.0);
        assert!(t.energy_j > 0.0);
        // 12 heads = 12x one head.
        let one = sim.estimate(&plan, 64, 1);
        assert_eq!(t.cycles.total, 12 * one.cycles.per_head);
        // The lowered estimate is the same report, without the traversal.
        let lowered = LoweredPlan::lower(&plan);
        assert_eq!(t, sim.estimate_lowered(&lowered, 64, 12));
    }

    #[test]
    fn longformer_mac_utilization_above_paper_threshold() {
        // The §6.3 claim: >75 % utilization on hybrid patterns (d = 64).
        let pattern = longformer(2048, 256, 1).unwrap();
        let plan = ExecutionPlan::build(&pattern, HardwareMeta::default()).unwrap();
        let sim = SpatialAccelerator::default_instance();
        let t = sim.estimate(&plan, 64, 1);
        assert!(
            t.utilization.mac_utilization > 0.75,
            "utilization {}",
            t.utilization.mac_utilization
        );
    }

    #[test]
    fn weights_zero_only_for_uncovered_rows() {
        let pattern = sliding_only(16, 5).unwrap();
        let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(4, 4, 0, 0).unwrap()).unwrap();
        let sim = accel(4, 4);
        let qkv = Qkv::random(16, 4, 3);
        let out = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, 0.5).unwrap();
        assert!(out.weights_q16.iter().all(|&w| w > 0));
    }
}
