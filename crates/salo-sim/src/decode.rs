//! Streaming decode: per-step hybrid-sparse attention against persistent
//! quantized K/V state, held in fixed-size pages.
//!
//! Autoregressive generation produces one query position per step, each
//! attending a growing history through the same window+global structure
//! the prefill datapath executes in one shot. Re-lowering (or worse,
//! re-executing) the full plan per token would be quadratic in the
//! generation length; instead this module compiles the prefill's
//! [`LoweredPlan`] **once** into a step-indexed program and executes one
//! position per call against paged K/V state that persists across the
//! whole generation:
//!
//! * [`DecodePlan::lower`] reads the lowered op list one destination row at
//!   a time and keeps each distinct **row program** once. SALO's data
//!   scheduler addresses a sliding window as diagonal arithmetic, and a
//!   row program does too: a window part is a run of keys that starts a
//!   fixed distance back from the row it serves, so one program — shifted
//!   to a row, clipped to the sequence, global keys trimmed off its runs'
//!   ends — serves every row the window slides over. Global cells, global
//!   rows' parts and gathers name their keys outright. Each position
//!   records which program it runs, and the plan keeps no copy of, and no
//!   index into, the lowered op list. Every row's expansion is checked
//!   against the lowered row when the plan is built, and a row that no
//!   kept program reproduces becomes a program of its own, so executing
//!   row `t` performs the *same fixed-point operations in the same order*
//!   as the full prefill does for that row — window-row softmax parts
//!   first-chunk-to-last, global-column cells interleaved exactly where
//!   the prefill merges them. That is what makes decode bit-identical to
//!   the causal-prefill oracle (outputs, `weights_q16` and saturation
//!   counts — asserted by `tests/decode.rs`). Lowering also precomputes
//!   the **live horizon** of every step — the smallest non-global key any
//!   current-or-future op can still read — which is what drives page
//!   reclamation. All of it is O(ops): an op that names its keys as a run
//!   gives its largest and smallest key by its ends, and only listed
//!   (gather) ops are scanned.
//! * [`KvPagePool`] owns the physical pages: fixed-size K/V blocks of
//!   `page_rows` token rows each, recycled through a freelist and shared
//!   by every session of one owner (a serving worker, a bench harness).
//!   The pool can be capacity-bounded; exhaustion fails the requesting
//!   step *cleanly* (no poisoning — the token was not ingested).
//! * [`DecodeState`] owns the session: a page table mapping sequence
//!   positions to pool pages (position `t` lives at slot `t % page_rows`
//!   of page `t / page_rows`), the stored query rows of global tokens,
//!   and the *running global-duty partials*. After every advance the
//!   session reclaims pages no future step can reference — under
//!   window+dilation patterns resident memory is O(active window), not
//!   O(history). Pages holding global tokens are pinned for the session's
//!   lifetime (global K/V rows are re-read by every future step).
//! * [`SpatialAccelerator::execute_step`] runs one token: quantize and
//!   append K/V into the current page, expand the step's row program and
//!   execute its ops through the stage 1–5 fixed-point kernels (reusing
//!   the caller's [`ExecScratch`] buffers), advance the global-duty
//!   partials, reclaim dead pages, and return the new position's output
//!   row. [`SpatialAccelerator::execute_steps`] is the fused multi-session
//!   form: one step from each of many ready sessions sharing a plan,
//!   executed back to back over one scratch — bit-identical to stepping
//!   the sessions individually.
//!
//! The plan must come from a **causally clipped** pattern
//! ([`HybridPattern::causal`](salo_patterns::HybridPattern::causal) /
//! [`decode_view`](salo_patterns::HybridPattern::decode_view)): lowering
//! verifies that no window op reaches a future key and rejects anticausal
//! plans.

use salo_fixed::{quantize_iter, ExpLut, Fix16x8, Fix8x4, MacSaturation, PartialRow, RecipUnit};
use salo_kernels::{KernelError, Matrix, Qkv};
use salo_scheduler::ExecutionPlan;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

use crate::exec::{drain_into, run_ops_grouped, ExecScratch, GroupOp, KvSource, UNREACHED};
use crate::{KeySpan, LoweredOp, LoweredOpKind, LoweredPlan, OpKeys, SimError, SpatialAccelerator};

/// Default rows per K/V page when the owner does not configure one.
///
/// The executor translates a run of keys once per page it crosses, so the
/// page is what a run streams through untranslated: at 256 rows a 32-key
/// window op crosses a boundary one time in eight, and a d = 64 page is
/// 16 KiB of K then 16 KiB of V. Smaller pages reclaim more tightly and
/// translate more often (EXPERIMENTS.md, "Paged K/V read like a slice",
/// has the sweep).
pub const DEFAULT_PAGE_ROWS: usize = 256;

/// How one op of a row program names its keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ProgramKeys {
    /// A window part: the run `row - back, row - back + stride, …`,
    /// shifted to whichever row the program runs for.
    Window { back: u32, stride: u16 },
    /// Keys named outright — a global cell, a part of a global row, a
    /// slice of the gather arena — whichever row the program runs for.
    Fixed(KeySpan),
}

/// One op of a row program: a [`LoweredOp`] without its destination.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ProgramOp {
    kind: LoweredOpKind,
    keys: ProgramKeys,
    key_len: u32,
}

impl ProgramOp {
    /// `op` of row `row`, a window part read back from the row. Only a
    /// causal row part is one: its keys end at or before the row.
    fn relative(op: &LoweredOp, row: u32) -> Self {
        let keys = match op.keys {
            KeySpan::Run { first, stride } if op.kind == LoweredOpKind::Row && first <= row => {
                ProgramKeys::Window { back: row - first, stride }
            }
            keys => ProgramKeys::Fixed(keys),
        };
        Self { kind: op.kind, keys, key_len: op.key_len }
    }

    /// `op` as it is, whatever row it runs for.
    fn literal(op: &LoweredOp) -> Self {
        Self { kind: op.kind, keys: ProgramKeys::Fixed(op.keys), key_len: op.key_len }
    }
}

/// Appends row `row`'s ops — `program` expanded for it — to `out`:
///
/// * a window part is shifted to the row and clipped to the sequence (its
///   keys end at or before the row, so only the start can fall off), then
///   global keys are trimmed off its ends, as the lowering filters them;
///   what is left is emitted, and an empty part is dropped;
/// * an op that names its keys outright is emitted where it stands —
///   unless the window part before it fell wholly off the sequence: then
///   it waits for the next part that does not, as the prefill merges a
///   global cell in the first pass its row takes part in.
fn expand(program: &[ProgramOp], row: u32, globals: &[u32], out: &mut Vec<LoweredOp>) {
    let is_global = |key: u32| globals.binary_search(&key).is_ok();
    let emit = |op: &ProgramOp, out: &mut Vec<LoweredOp>| {
        let ProgramKeys::Fixed(keys) = op.keys else { return };
        out.push(LoweredOp { kind: op.kind, dest: row, keys, key_len: op.key_len });
    };
    // The first op waiting for a window part that reaches the sequence.
    let mut waiting = None;
    for (i, op) in program.iter().enumerate() {
        let ProgramKeys::Window { back, stride } = op.keys else {
            if waiting.is_none() {
                emit(op, out);
            }
            continue;
        };
        let step = u32::from(stride);
        // Keys before 0: the first `skip` of the run (none, and no
        // division, once the row is past the window).
        let skip = if back > row { (back - row).div_ceil(step) } else { 0 };
        if skip >= op.key_len {
            waiting = waiting.or(Some(i + 1));
            continue;
        }
        let (mut first, mut len) = (row + skip * step - back, op.key_len - skip);
        let mut trimmed = false;
        while len > 0 && is_global(first) {
            (first, len, trimmed) = (first + step, len - 1, true);
        }
        while len > 0 && is_global(first + (len - 1) * step) {
            (len, trimmed) = (len - 1, true);
        }
        if len > 0 {
            // A part the lowering had to filter is listed, and one key
            // listed is a run of stride 1.
            let stride = if trimmed && len == 1 { 1 } else { stride };
            let keys = KeySpan::Run { first, stride };
            out.push(LoweredOp { kind: op.kind, dest: row, keys, key_len: len });
        }
        if let Some(from) = waiting.take() {
            program[from..i].iter().for_each(|op| emit(op, out));
        }
    }
    if let Some(from) = waiting {
        program[from..].iter().for_each(|op| emit(op, out));
    }
}

/// One global token's incremental row program: the prefill's ops for that
/// destination, in prefill order, plus the gating key that tells the
/// session when each op's inputs exist.
#[derive(Clone, PartialEq)]
struct GlobalRowProgram {
    /// The global token (sequence position).
    token: u32,
    /// Its ops: a range of the plan's `program_ops`, each named outright.
    start: u32,
    end: u32,
    /// Per op (parallel to the range): the largest key it reads. The op
    /// becomes runnable once the history covers both this key and the
    /// token's own query row.
    max_keys: Vec<u32>,
    /// Suffix minima over the ops' smallest **non-global** keys
    /// (`len = ops + 1`, `u32::MAX` terminated): `pending_suffix_min[c]`
    /// is the earliest history row any op from cursor `c` onward still
    /// needs. Pending global-row duties hold pages live through this.
    pending_suffix_min: Vec<u32>,
}

/// A [`LoweredPlan`] compiled for token-by-token execution: the distinct
/// row programs, which one each position runs, the global rows' ops, and
/// the horizon tables that drive page reclamation.
///
/// Produced once per compiled plan and shared across every decode session
/// of that pattern/shape (it is immutable; serving pins one behind an
/// `Arc` per session). It owns everything it reads — nothing of the
/// [`LoweredPlan`] it was built from is kept alive by it — so a serving
/// runtime can drop the prefill plan once the program is built.
#[derive(Clone, PartialEq)]
pub struct DecodePlan {
    n: usize,
    min_step: usize,
    globals: Vec<u32>,
    /// The row programs' ops back to back, then the global rows' ops.
    program_ops: Vec<ProgramOp>,
    /// Row program `p` is `program_ops[programs[p]..programs[p + 1]]`.
    programs: Vec<u32>,
    /// The row program position `t` runs (`len = n`; an empty one for
    /// global rows, whose work lives in `global_rows`).
    row_program: Vec<u32>,
    /// The lowered plan's gather arena, which listed (non-run) ops slice
    /// at the offsets the lowering gave them.
    gather_keys: Vec<u32>,
    global_rows: Vec<GlobalRowProgram>,
    max_row_keys: usize,
    /// Suffix minima over the steps' smallest non-global keys
    /// (`len = n + 1`, `u32::MAX` terminated): `step_suffix_min[t]` is
    /// the earliest history row any step `>= t` reads. Together with the
    /// global rows' pending minima this is the exact reclamation horizon.
    step_suffix_min: Vec<u32>,
    /// Structural fingerprint of the whole program — the stale-state
    /// guard that ties a [`DecodeState`] to the plan it was reset for.
    fingerprint: u64,
}

impl DecodePlan {
    /// Compiles a lowered plan into its step-indexed decode program.
    ///
    /// `plan` supplies the global-token set; `lowered` must be the
    /// lowering of that same plan (as stored side by side in
    /// `CompiledPlan`). The rows are read last to first, so the widest
    /// row program is kept first and the rows the window is clipped on
    /// are tried against it: a row runs the program of the row after it
    /// or the first program kept if either reproduces it, else a kept
    /// program equal to its own, else its own — its window parts read
    /// back from it, or, should that not reproduce it, every op as it is.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AnticausalPlan`] if any window op attends a key
    /// after its query — the pattern was not causally clipped and cannot
    /// be decoded incrementally.
    pub fn lower(plan: &ExecutionPlan, lowered: &LoweredPlan) -> Result<Self, SimError> {
        let n = lowered.n();
        let globals: Vec<u32> = plan.globals().iter().map(|&g| g as u32).collect();
        let min_step = plan.globals().iter().max().map_or(0, |&g| g + 1);
        let ops = lowered.ops();
        let gather_keys = lowered.gather_keys().to_vec();

        // Order the lowered ops by destination — the step rows in sequence
        // order, then the global rows — preserving prefill order within
        // each destination: the order the prefill's weighted-sum module
        // merges that row's parts in. A counting sort of op indices:
        // `slots[r]..slots[r + 1]` are the positions in `order` of
        // destination rank `r`. A rank is recomputed on the second pass
        // rather than kept, so the only array per op is `order` itself,
        // and it lives only as long as this call.
        let rank =
            |op: &LoweredOp| globals.binary_search(&op.dest).map_or(op.dest as usize, |gi| n + gi);
        let mut slots = vec![0u32; n + globals.len() + 1];
        for op in ops {
            let rank = rank(op);
            // Window ops must be causal; global-column cells (SingleKey)
            // are gated by `min_step` instead.
            if op.kind == LoweredOpKind::Row && rank < n {
                if let Some(key) = lowered.op_keys(op).max().filter(|&k| k > op.dest) {
                    let (dest, key) = (op.dest as usize, key as usize);
                    return Err(SimError::AnticausalPlan { dest, key });
                }
            }
            slots[rank + 1] += 1;
        }
        for r in 1..slots.len() {
            slots[r] += slots[r - 1];
        }
        // A permutation: every position is written once.
        let mut order = vec![0u32; ops.len()];
        let mut next = slots.clone();
        for (i, op) in ops.iter().enumerate() {
            let slot = &mut next[rank(op)];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }
        drop(next);
        let ordered = |range: std::ops::Range<u32>| {
            order[range.start as usize..range.end as usize].iter().map(|&i| &ops[i as usize])
        };

        // The reclamation horizon is built from the smallest *non-global*
        // key each op reads. Global keys are excluded — their pages are
        // pinned outright, so they must not drag the horizon to the
        // sequence start. A run ascends (and a window row's run holds no
        // global at all), so its first non-global key is its smallest.
        let non_global = |k: &u32| globals.binary_search(k).is_err();
        let min_nonglobal_key = |op: &LoweredOp| {
            let keys = op.keys_in(&gather_keys);
            let min = match keys {
                OpKeys::Run { .. } => keys.iter().find(non_global),
                OpKeys::Gather(listed) => listed.iter().copied().filter(non_global).min(),
            };
            min.unwrap_or(u32::MAX)
        };
        // Suffix minima of that key (`len + 1`, `u32::MAX` terminated), one
        // entry per group of ops `order[bounds[i]..bounds[i + 1]]`.
        let suffix_minima = |bounds: &[u32]| {
            let mut suffix = vec![u32::MAX; bounds.len()];
            for (i, w) in bounds.windows(2).enumerate().rev() {
                let own = ordered(w[0]..w[1]).map(min_nonglobal_key).min();
                suffix[i] = own.unwrap_or(u32::MAX).min(suffix[i + 1]);
            }
            suffix
        };
        let step_suffix_min = suffix_minima(&slots[..=n]);

        // The row programs, rows read last to first.
        let mut program_ops: Vec<ProgramOp> = Vec::new();
        let mut programs = vec![0u32];
        let mut row_program = vec![0u32; n];
        // Kept programs by the hash of their ops, to find a row's own.
        let mut kept: HashMap<u64, u32> = HashMap::new();
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        let (mut expanded, mut own) = (Vec::new(), Vec::new());
        let mut after = None;
        for t in (0..n).rev() {
            let row = || ordered(slots[t]..slots[t + 1]);
            let t32 = t as u32;
            let mut reproduces = |program: &[ProgramOp]| {
                expanded.clear();
                expand(program, t32, &globals, &mut expanded);
                expanded.iter().eq(row())
            };
            let get = |p: u32| program(&program_ops, &programs, p);
            let tried = [after, Some(0).filter(|_| programs.len() > 1 && after != Some(0))];
            let reused = tried.into_iter().flatten().find(|&p| reproduces(get(p)));
            let p = match reused {
                Some(p) => p,
                None => {
                    own.clear();
                    own.extend(row().map(|op| ProgramOp::relative(op, t32)));
                    if !reproduces(&own) {
                        own.clear();
                        own.extend(row().map(ProgramOp::literal));
                    }
                    let hash = hasher.hash_one(&own);
                    match kept.get(&hash) {
                        Some(&p) if get(p) == own.as_slice() => p,
                        _ => {
                            let p = (programs.len() - 1) as u32;
                            program_ops.extend_from_slice(&own);
                            programs.push(program_ops.len() as u32);
                            kept.insert(hash, p);
                            p
                        }
                    }
                }
            };
            row_program[t] = p;
            after = Some(p);
        }
        drop(kept);

        // The global rows' ops, named outright, after the row programs.
        let global_rows: Vec<GlobalRowProgram> = globals
            .iter()
            .zip(slots[n..].windows(2))
            .map(|(&token, w)| {
                let start = program_ops.len() as u32;
                program_ops.extend(ordered(w[0]..w[1]).map(ProgramOp::literal));
                GlobalRowProgram {
                    token,
                    start,
                    end: program_ops.len() as u32,
                    max_keys: ordered(w[0]..w[1])
                        .map(|op| op.keys_in(&gather_keys).max().unwrap_or(0))
                        .collect(),
                    pending_suffix_min: suffix_minima(&(w[0]..=w[1]).collect::<Vec<_>>()),
                }
            })
            .collect();
        program_ops.shrink_to_fit();

        // Hash the complete program: two plans that differ anywhere in
        // their ops or gather arenas fingerprint apart, so a state reset
        // for one cannot silently execute against the other (same
        // capacity and global count included). An in-process guard, paid
        // once per lowering: a word at a time, two words per op, where the
        // byte-wise stable hasher would spend eight multiplies per field.
        // The ops are the lowered ones in step order — what the program
        // expands to, row by row.
        let mut state = 0u64;
        let mut mix = |word: u64| {
            state = (state.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        };
        mix((n as u64) << 32 | min_step as u64);
        mix(globals.len() as u64);
        for &g in &globals {
            mix(g.into());
        }
        for op in ordered(0..order.len() as u32) {
            // A gather hashes as stride 0, which no run has.
            let (at, stride) = match op.keys {
                KeySpan::Run { first, stride } => (first, stride),
                KeySpan::Gather { start } => (start, 0),
            };
            let single = u64::from(op.kind == LoweredOpKind::SingleKey);
            mix(u64::from(op.dest) << 32 | u64::from(op.key_len));
            mix(single << 48 | u64::from(stride) << 32 | u64::from(at));
        }
        for &key in &gather_keys {
            mix(key.into());
        }
        mix((order.len() as u64) << 32 | gather_keys.len() as u64);
        let fingerprint = state;

        Ok(Self {
            n,
            min_step,
            globals,
            program_ops,
            programs,
            row_program,
            gather_keys,
            global_rows,
            max_row_keys: lowered.max_row_keys(),
            step_suffix_min,
            fingerprint,
        })
    }

    /// Structural fingerprint of the step program (stable across runs).
    /// [`DecodeState`]s record it at reset; executing a state against a
    /// plan with a different fingerprint is refused as stale.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Sequence capacity: the maximum number of positions a session over
    /// this plan can hold (prompt + generated).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// First decodable position: the one after the last global token.
    /// Positions before it form the prompt and must be primed.
    #[must_use]
    pub fn min_step(&self) -> usize {
        self.min_step
    }

    /// The global tokens, ascending.
    #[must_use]
    pub fn globals(&self) -> &[u32] {
        &self.globals
    }

    /// The ops computing position `t`'s output row, in prefill merge
    /// order: its row program expanded for `t`, the lowered plan's ops of
    /// that row. Empty for global positions (their rows accumulate via the
    /// running global-duty partials) and for rows with no active keys.
    pub fn step_ops(&self, t: usize) -> impl ExactSizeIterator<Item = LoweredOp> + Clone {
        let mut ops = Vec::new();
        expand(self.step_program(t), t as u32, &self.globals, &mut ops);
        ops.into_iter()
    }

    /// The row program position `t` runs.
    fn step_program(&self, t: usize) -> &[ProgramOp] {
        program(&self.program_ops, &self.programs, self.row_program[t])
    }

    /// Keys of one op.
    #[must_use]
    pub fn op_keys(&self, op: &LoweredOp) -> OpKeys<'_> {
        op.keys_in(&self.gather_keys)
    }

    /// Heap bytes the step program holds: its row programs and which one
    /// each position runs, the global rows' ops, the gather arena and the
    /// horizon tables. It shares nothing with the [`LoweredPlan`] it was
    /// built from.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let rows = self.global_rows.iter();
        size_of_val(&self.program_ops[..])
            + size_of_val(&self.programs[..])
            + size_of_val(&self.row_program[..])
            + size_of_val(&self.globals[..])
            + size_of_val(&self.gather_keys[..])
            + size_of_val(&self.step_suffix_min[..])
            + size_of_val(&self.global_rows[..])
            + rows.map(|g| 4 * (g.max_keys.len() + g.pending_suffix_min.len())).sum::<usize>()
    }

    /// The longest key list of any op — scratch high-water mark.
    #[must_use]
    pub fn max_row_keys(&self) -> usize {
        self.max_row_keys
    }

    /// The earliest non-global history row any step at position `>= len`
    /// (or any still-pending global-row op, per `global_cursor`) can
    /// read. Rows strictly below the horizon are only reachable through
    /// global pinning, so their pages are reclaimable.
    fn live_horizon(&self, len: usize, global_cursor: &[usize]) -> usize {
        let mut h = self.step_suffix_min[len.min(self.n)];
        for (program, &cursor) in self.global_rows.iter().zip(global_cursor) {
            h = h.min(program.pending_suffix_min[cursor]);
        }
        h as usize
    }

    /// Whether any global token lies in the row range `[start, end)`.
    fn pins_range(&self, start: u32, end: u32) -> bool {
        let i = self.globals.partition_point(|&g| g < start);
        self.globals.get(i).is_some_and(|&g| g < end)
    }
}

/// Program `p` of those `bounds` delimits in `ops`.
fn program<'a>(ops: &'a [ProgramOp], bounds: &[u32], p: u32) -> &'a [ProgramOp] {
    &ops[bounds[p as usize] as usize..bounds[p as usize + 1] as usize]
}

/// Prints the program a session runs as the lowering emitted it: `ops` is
/// every step row's expansion in position order, then the global rows'
/// ops, and `step_ranges` each position's `(start, end)` in that list, so
/// a plan reads the same however it holds them.
impl fmt::Debug for DecodePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ops = Vec::new();
        let mut step_ranges = Vec::with_capacity(self.n);
        for t in 0..self.n {
            let start = ops.len() as u32;
            expand(self.step_program(t), t as u32, &self.globals, &mut ops);
            step_ranges.push((start, ops.len() as u32));
        }
        // Global row ops sit right after the row programs' in
        // `program_ops`, and right after the step rows' in `ops`.
        let (arena, steps) = (self.programs[self.programs.len() - 1], ops.len() as u32);
        let shift = move |at: u32| at - arena + steps;
        for g in &self.global_rows {
            let program = &self.program_ops[g.start as usize..g.end as usize];
            expand(program, g.token, &self.globals, &mut ops);
        }
        let global_rows = self.global_rows.iter().map(|g| {
            fmt::from_fn(move |f| {
                f.debug_struct("GlobalRowProgram")
                    .field("token", &g.token)
                    .field("start", &shift(g.start))
                    .field("end", &shift(g.end))
                    .field("max_keys", &g.max_keys)
                    .field("pending_suffix_min", &g.pending_suffix_min)
                    .finish()
            })
        });
        let global_rows = fmt::from_fn(|f| f.debug_list().entries(global_rows.clone()).finish());
        f.debug_struct("DecodePlan")
            .field("n", &self.n)
            .field("min_step", &self.min_step)
            .field("globals", &self.globals)
            .field("ops", &ops)
            .field("gather_keys", &self.gather_keys)
            .field("step_ranges", &step_ranges)
            .field("global_rows", &global_rows)
            .field("max_row_keys", &self.max_row_keys)
            .field("step_suffix_min", &self.step_suffix_min)
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

/// One fixed-size block of quantized K/V rows — `page_rows` token rows of
/// `d` elements each, for both K and V.
///
/// Pages are owned by sessions (through [`DecodeState`]'s page table)
/// while live and by the [`KvPagePool`]'s freelist while free; their
/// buffers keep their capacity across recycling, so steady-state
/// allocation traffic is zero.
///
/// The page is a one-pointer handle to one buffer — the K rows, then the V
/// rows, from a 64-byte boundary, so a d = 64 row is one cache line and a
/// run of keys streams through consecutive lines. A page-table entry
/// (`Option<KvPage>`) is eight bytes, reclaimed or not, so a long
/// session's table stays small next to the pages it points at.
#[derive(Debug, Clone, Default)]
pub struct KvPage(Box<KvRows>);

/// Alignment of a page's first row, in bytes (a `Fix8x4` is one).
const ROW_ALIGN: usize = 64;

#[derive(Debug, Clone, Default)]
struct KvRows {
    /// `ROW_ALIGN - 1` bytes longer than the rows, for the alignment.
    buf: Vec<Fix8x4>,
    /// Where the K rows start: the first 64-byte boundary of `buf` — of the
    /// allocation it was sized in; a clone keeps the offset and the bits,
    /// not necessarily the alignment.
    start: usize,
    /// Elements of the K rows (= of the V rows, which follow them).
    cells: usize,
}

impl KvRows {
    /// Sizes the buffer for `cells` elements of K and as many of V.
    fn resize(&mut self, cells: usize) {
        self.buf.clear();
        self.buf.resize(2 * cells + ROW_ALIGN - 1, Fix8x4::ZERO);
        // A safe query; an answer past the padding only costs the alignment.
        self.start = self.buf.as_ptr().align_offset(ROW_ALIGN).min(ROW_ALIGN - 1);
        self.cells = cells;
    }

    /// The K rows and the V rows.
    fn halves(&self) -> (&[Fix8x4], &[Fix8x4]) {
        self.buf[self.start..][..2 * self.cells].split_at(self.cells)
    }

    /// [`halves`](Self::halves), to write.
    fn halves_mut(&mut self) -> (&mut [Fix8x4], &mut [Fix8x4]) {
        self.buf[self.start..][..2 * self.cells].split_at_mut(self.cells)
    }
}

/// Counters of one [`KvPagePool`], for gauges and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvPoolStats {
    /// Rows per page.
    pub page_rows: usize,
    /// Pages currently held by sessions.
    pub in_use: usize,
    /// Peak of `in_use` over the pool's lifetime.
    pub high_water: usize,
    /// Pages returned by the horizon reclaimer (resets and closes do not
    /// count — only pages proven dead mid-session).
    pub reclaimed: u64,
    /// Allocation attempts refused at capacity.
    pub exhausted: u64,
}

/// The shared physical-page allocator of one decode owner (a serving
/// worker's engine, a bench harness): a freelist of recycled [`KvPage`]s
/// plus occupancy accounting, optionally capacity-bounded.
///
/// Not thread-safe by design — each owner (one worker thread) has its
/// own pool, exactly like `ExecScratch`, so the hot path takes no locks.
#[derive(Debug, Clone)]
pub struct KvPagePool {
    page_rows: usize,
    capacity: usize,
    free: Vec<KvPage>,
    in_use: usize,
    high_water: usize,
    reclaimed: u64,
    exhausted: u64,
}

impl Default for KvPagePool {
    fn default() -> Self {
        Self::new(DEFAULT_PAGE_ROWS)
    }
}

impl KvPagePool {
    /// An unbounded pool handing out pages of `page_rows` rows.
    #[must_use]
    pub fn new(page_rows: usize) -> Self {
        Self::bounded(page_rows, usize::MAX)
    }

    /// A pool that refuses allocations once `capacity` pages are in use.
    #[must_use]
    pub fn bounded(page_rows: usize, capacity: usize) -> Self {
        Self {
            page_rows: page_rows.max(1),
            capacity,
            free: Vec::new(),
            in_use: 0,
            high_water: 0,
            reclaimed: 0,
            exhausted: 0,
        }
    }

    /// Rows per page.
    #[must_use]
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Pages currently held by sessions.
    #[must_use]
    pub fn pages_in_use(&self) -> usize {
        self.in_use
    }

    /// Snapshot of the pool's counters.
    #[must_use]
    pub fn stats(&self) -> KvPoolStats {
        KvPoolStats {
            page_rows: self.page_rows,
            in_use: self.in_use,
            high_water: self.high_water,
            reclaimed: self.reclaimed,
            exhausted: self.exhausted,
        }
    }

    /// Hands out one page sized for head dimension `d`, recycling a freed
    /// page when one is available.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PagePoolExhausted`] when `capacity` pages are
    /// already in use.
    pub fn allocate(&mut self, d: usize) -> Result<KvPage, SimError> {
        if self.in_use >= self.capacity {
            self.exhausted += 1;
            return Err(SimError::PagePoolExhausted {
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        let mut page = self.free.pop().unwrap_or_default();
        page.0.resize(self.page_rows * d);
        self.in_use += 1;
        self.high_water = self.high_water.max(self.in_use);
        Ok(page)
    }

    /// Returns a page to the freelist (session reset, close, teardown).
    pub fn release(&mut self, page: KvPage) {
        self.in_use = self.in_use.saturating_sub(1);
        self.free.push(page);
    }

    /// [`release`](Self::release), counted as a mid-session horizon
    /// reclaim.
    fn reclaim(&mut self, page: KvPage) {
        self.reclaimed += 1;
        self.release(page);
    }
}

/// Page-translated K/V access — the decode-side [`KvSource`]: row `j`
/// lives at slot `j % page_rows` of page `j / page_rows`, and a page is a
/// source's block, so a run of keys is translated once per page it crosses.
struct PagedKv<'a> {
    pages: &'a [Option<KvPage>],
    page_rows: usize,
    /// `log2(page_rows)` when that is a power of two (the default is):
    /// translation is then a shift and a mask. A hardware division per
    /// K row and per V row is as dear as the row's own arithmetic.
    shift: Option<u32>,
}

impl<'a> PagedKv<'a> {
    fn new(pages: &'a [Option<KvPage>], page_rows: usize) -> Self {
        let shift = page_rows.is_power_of_two().then(|| page_rows.trailing_zeros());
        Self { pages, page_rows, shift }
    }

    /// Row `j`'s page, and its slot there.
    #[inline]
    fn page(&self, j: usize) -> (&'a KvRows, usize) {
        let (index, slot) = match self.shift {
            Some(shift) => (j >> shift, j & (self.page_rows - 1)),
            None => (j / self.page_rows, j % self.page_rows),
        };
        let page = self.pages[index]
            .as_ref()
            .expect("plan references a reclaimed K/V row: horizon invariant violated");
        (&page.0, slot)
    }
}

impl KvSource for PagedKv<'_> {
    #[inline]
    fn k_row(&self, j: usize, d: usize) -> &[Fix8x4] {
        let (page, slot) = self.page(j);
        &page.halves().0[slot * d..][..d]
    }

    #[inline]
    fn v_row(&self, j: usize, d: usize) -> &[Fix8x4] {
        let (page, slot) = self.page(j);
        &page.halves().1[slot * d..][..d]
    }

    #[inline]
    fn block(&self, j: usize, d: usize) -> (&[Fix8x4], &[Fix8x4], usize) {
        let (page, slot) = self.page(j);
        let (k, v) = page.halves();
        (&k[slot * d..], &v[slot * d..], self.page_rows - slot)
    }
}

/// The persistent state of one decode session (one head).
///
/// Owns the session's page table (quantized K/V, one appended row per
/// token, pages drawn from a shared [`KvPagePool`]), the stored query
/// rows of global tokens, and the running global-duty partials. Reusable
/// across sessions of different shapes via [`reset`](Self::reset) —
/// reuse is bit-transparent, like `ExecScratch`. Every teardown path must
/// hand the pages back ([`reset`](Self::reset) or
/// [`release`](Self::release)); dropping the state instead merely leaks
/// them from the pool's accounting.
#[derive(Debug, Clone)]
pub struct DecodeState {
    /// Head dimension.
    d: usize,
    /// Capacity this state was initialized for (error reporting).
    n: usize,
    /// Fingerprint of the plan this state was reset for (stale-state
    /// guard — catches even same-capacity, same-global-count plans).
    plan_fp: u64,
    /// Tokens ingested so far; the next token lands at this position.
    len: usize,
    /// Rows per page, latched from the pool at the session's first
    /// append (the whole session must use one pool).
    page_rows: usize,
    /// Page table: position `t` lives in `pages[t / page_rows]`; `None`
    /// marks a reclaimed page.
    pages: Vec<Option<KvPage>>,
    /// Live entries in `pages`.
    resident: usize,
    /// Pages below this index have been through the reclaimer (freed or
    /// pinned); the horizon is monotone, so they are never revisited.
    reclaim_floor: usize,
    /// The current token's quantized, scale-folded query row.
    q_step: Vec<Fix8x4>,
    /// Stored query rows of global tokens (filled when each is ingested).
    global_q: Vec<Vec<Fix8x4>>,
    /// Running global-duty partials: one accumulator per global token.
    global_acc: Vec<PartialRow>,
    /// Next pending op (index into the token's program) per global row.
    global_cursor: Vec<usize>,
    /// The current step's output accumulator.
    acc: PartialRow,
    /// Cumulative saturation events over the session.
    sat: MacSaturation,
    /// Set when a step failed after the token was already appended to the
    /// history: the state is inconsistent (partial K/V, off-by-one
    /// position) and every further advance is rejected until a reset.
    poisoned: bool,
}

impl DecodeState {
    /// Creates an empty session state for `plan` with head dimension `d`.
    /// Pages are drawn lazily from the pool passed to
    /// [`prime_token`](SpatialAccelerator::prime_token) /
    /// [`execute_step`](SpatialAccelerator::execute_step).
    #[must_use]
    pub fn new(plan: &DecodePlan, d: usize) -> Self {
        let mut state = Self {
            d: 0,
            n: 0,
            plan_fp: 0,
            len: 0,
            page_rows: DEFAULT_PAGE_ROWS,
            pages: Vec::new(),
            resident: 0,
            reclaim_floor: 0,
            q_step: Vec::new(),
            global_q: Vec::new(),
            global_acc: Vec::new(),
            global_cursor: Vec::new(),
            acc: PartialRow::empty(0),
            sat: MacSaturation::default(),
            poisoned: false,
        };
        state.rebind(plan, d);
        state
    }

    /// Rebinds the state to a (possibly different) plan and head
    /// dimension, returning every held page to `pool` first — the
    /// worker-pool form of session switching, and the recovery path from
    /// poisoning. A reset state is indistinguishable from a fresh one,
    /// and its pages are immediately reusable by other sessions on the
    /// same pool.
    pub fn reset(&mut self, plan: &DecodePlan, d: usize, pool: &mut KvPagePool) {
        self.release(pool);
        self.rebind(plan, d);
    }

    /// Returns every held page to `pool` and empties the page table — the
    /// teardown half of [`reset`](Self::reset), for session close paths
    /// that drop the state afterwards. The state must not execute again
    /// until reset.
    pub fn release(&mut self, pool: &mut KvPagePool) {
        for page in self.pages.drain(..).flatten() {
            pool.release(page);
        }
        self.resident = 0;
        self.reclaim_floor = 0;
    }

    /// The non-page half of a reset.
    fn rebind(&mut self, plan: &DecodePlan, d: usize) {
        debug_assert!(self.pages.is_empty(), "rebind without releasing pages");
        self.d = d;
        self.n = plan.n();
        self.plan_fp = plan.fingerprint();
        self.len = 0;
        self.resident = 0;
        self.reclaim_floor = 0;
        self.q_step.clear();
        self.global_q.clear();
        self.global_q.resize(plan.globals.len(), Vec::new());
        self.global_acc.clear();
        self.global_acc.resize(plan.globals.len(), PartialRow::empty(d));
        self.global_cursor.clear();
        self.global_cursor.resize(plan.globals.len(), 0);
        self.acc = PartialRow::empty(d);
        self.sat = MacSaturation::default();
        self.poisoned = false;
    }

    /// Tokens ingested so far — the position the next token will occupy.
    #[must_use]
    pub fn position(&self) -> usize {
        self.len
    }

    /// Head dimension of the session.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.d
    }

    /// Pages this session currently holds.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Bytes of quantized K/V this session currently pins (resident
    /// pages × rows per page × 2 arenas × `d` quantized elements).
    #[must_use]
    pub fn resident_kv_bytes(&self) -> u64 {
        (self.resident * self.page_rows * self.d * 2 * std::mem::size_of::<Fix8x4>()) as u64
    }

    /// Cumulative MAC saturation events over the session (prompt, steps
    /// and global-duty advances).
    #[must_use]
    pub fn saturation_events(&self) -> u64 {
        self.sat.events
    }

    /// Whether a failed step has left this state inconsistent. A
    /// poisoned state rejects every advance with
    /// [`SimError::PoisonedDecodeState`] until [`reset`](Self::reset).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of running global-duty partials (= global tokens).
    #[must_use]
    pub fn num_globals(&self) -> usize {
        self.global_acc.len()
    }

    /// The current output of global row `i` (by ascending token order):
    /// the 16-bit row and its softmax weight, as accumulated so far. After
    /// a full generation this equals the causal prefill's row for that
    /// token, bit for bit.
    #[must_use]
    pub fn global_row_output(&self, i: usize) -> (Vec<Fix16x8>, i64) {
        let mut raw = Vec::with_capacity(self.d);
        let weight = drain_into(&self.global_acc[i], &mut raw);
        (raw, weight)
    }
}

/// One head of a decode prompt, quantized as a session ingests it: every
/// row is what [`prime_token`](SpatialAccelerator::prime_token) makes of
/// the `f32` row — `q` with the attention scale
/// [`default_scale`](SpatialAccelerator::default_scale) of the head's
/// dimension folded in, `k` and `v` as they are. A quarter of the `f32`
/// head's bytes, and the form a served prefill or `Open` is decoded into
/// straight off its frame's 8-bit rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedQkv {
    q: Matrix<Fix8x4>,
    k: Matrix<Fix8x4>,
    v: Matrix<Fix8x4>,
}

impl FixedQkv {
    /// Quantizes one `f32` head through the datapath's one rounding
    /// ([`quantize_iter`]).
    #[must_use]
    pub fn quantize(head: &Qkv) -> Self {
        let fixed = |m: &Matrix<f32>, scale| {
            let rows = quantize_iter(m.as_slice(), scale).collect();
            Matrix::from_vec(m.rows(), m.cols(), rows).expect("one element per element")
        };
        let scale = SpatialAccelerator::default_scale(head.head_dim());
        Self { q: fixed(&head.q, scale), k: fixed(&head.k, 1.0), v: fixed(&head.v, 1.0) }
    }

    /// Bundles rows quantized elsewhere — `q` with the scale already
    /// folded in — validating that they share one shape, as
    /// [`Qkv::new`] does.
    ///
    /// # Errors
    ///
    /// [`Qkv::new`]'s dimension error on a shape mismatch.
    pub fn from_rows(
        q: Matrix<Fix8x4>,
        k: Matrix<Fix8x4>,
        v: Matrix<Fix8x4>,
    ) -> Result<Self, KernelError> {
        if q.shape() != k.shape() || q.shape() != v.shape() {
            return Err(KernelError::DimMismatch {
                context: "qkv bundle",
                left: q.shape(),
                right: if q.shape() != k.shape() { k.shape() } else { v.shape() },
            });
        }
        Ok(Self { q, k, v })
    }

    /// Prompt rows.
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.q.rows()
    }

    /// Elements per row.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.q.cols()
    }

    /// The quantized, scale-folded query rows.
    #[must_use]
    pub fn q(&self) -> &Matrix<Fix8x4> {
        &self.q
    }

    /// The quantized key rows.
    #[must_use]
    pub fn k(&self) -> &Matrix<Fix8x4> {
        &self.k
    }

    /// The quantized value rows.
    #[must_use]
    pub fn v(&self) -> &Matrix<Fix8x4> {
        &self.v
    }
}

/// The output of one decode step: position `t`'s attention row in the
/// format the prefill reports per row — the 16-bit row and its weight,
/// nothing derived from them.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutput {
    /// The position this step produced.
    pub position: usize,
    /// Output row in the 16-bit accelerator format.
    pub raw: Vec<Fix16x8>,
    /// The row's softmax weight `W = Σ exp` (Q.16).
    pub weight_q16: i64,
    /// MAC saturation events attributed to this token (its own ops plus
    /// any global-duty ops it unblocked).
    pub saturation_events: u64,
}

/// One session's pending step inside a fused
/// [`execute_steps`](SpatialAccelerator::execute_steps) batch.
pub struct BatchStep<'a> {
    /// The session's persistent state.
    pub state: &'a mut DecodeState,
    /// The new position's query row.
    pub q_t: &'a [f32],
    /// The new position's key row.
    pub k_t: &'a [f32],
    /// The new position's value row.
    pub v_t: &'a [f32],
    /// Attention scale, folded into the query quantization.
    pub scale: f32,
}

/// A [`BatchStep`] whose rows are already quantized — `q_t` with the scale
/// folded in: what [`execute_fixed_steps`](SpatialAccelerator::execute_fixed_steps)
/// takes.
pub struct FixedStep<'a> {
    /// The session's persistent state.
    pub state: &'a mut DecodeState,
    /// The new position's quantized, scale-folded query row.
    pub q_t: &'a [Fix8x4],
    /// The new position's quantized key row.
    pub k_t: &'a [Fix8x4],
    /// The new position's quantized value row.
    pub v_t: &'a [Fix8x4],
}

impl SpatialAccelerator {
    /// Ingests one prompt token without computing an output row: K/V are
    /// quantized into the session's current page, global query rows are
    /// captured, and any global-duty ops whose inputs are now complete
    /// run. Returns the MAC saturation events the token caused.
    ///
    /// The session's first `DecodePlan::min_step` tokens must arrive this
    /// way (they include every global token); longer prompts are allowed
    /// — their rows simply keep the outputs the prefill computed for
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DecodeCapacity`] past the plan's capacity,
    /// [`SimError::TokenDim`] on a row-length mismatch,
    /// [`SimError::StaleDecodeState`] if `state` was initialized for a
    /// different plan, or [`SimError::PagePoolExhausted`] when a new page
    /// is needed and the pool is at capacity (the state stays clean — the
    /// token was not ingested).
    #[allow(clippy::too_many_arguments)] // mirrors execute_lowered's surface
    pub fn prime_token(
        &self,
        plan: &DecodePlan,
        state: &mut DecodeState,
        q_t: &[f32],
        k_t: &[f32],
        v_t: &[f32],
        scale: f32,
        pool: &mut KvPagePool,
        scratch: &mut ExecScratch,
    ) -> Result<u64, SimError> {
        quantized(scratch, [q_t, k_t, v_t], scale, |[q, k, v], scratch| {
            self.prime_fixed(plan, state, q, k, v, pool, scratch)
        })
    }

    /// [`prime_token`](Self::prime_token) for a row already quantized —
    /// a row of a [`FixedQkv`]: `q_t` with the scale folded in, `k_t` and
    /// `v_t` as they are.
    ///
    /// # Errors
    ///
    /// As [`prime_token`](Self::prime_token).
    #[allow(clippy::too_many_arguments)] // prime_token's surface, less the scale
    pub fn prime_fixed(
        &self,
        plan: &DecodePlan,
        state: &mut DecodeState,
        q_t: &[Fix8x4],
        k_t: &[Fix8x4],
        v_t: &[Fix8x4],
        pool: &mut KvPagePool,
        scratch: &mut ExecScratch,
    ) -> Result<u64, SimError> {
        let before = state.sat.events;
        self.advance(plan, state, [q_t, k_t, v_t], pool, scratch, false)?;
        Ok(state.sat.events - before)
    }

    /// Executes one decode step: ingests the token at the next position
    /// and returns that position's output row, computed through the exact
    /// prefill datapath (stages 1–5 per op, weighted-sum merges in
    /// prefill order). Bit-identical to the corresponding causal-prefill
    /// row — at every page size.
    ///
    /// # Errors
    ///
    /// As [`prime_token`](Self::prime_token), plus
    /// [`SimError::DecodeNotPrimed`] if the prompt has not covered every
    /// global token yet, and fixed-point errors on numeric degeneracy.
    #[allow(clippy::too_many_arguments)] // mirrors execute_lowered's surface
    pub fn execute_step(
        &self,
        plan: &DecodePlan,
        state: &mut DecodeState,
        q_t: &[f32],
        k_t: &[f32],
        v_t: &[f32],
        scale: f32,
        pool: &mut KvPagePool,
        scratch: &mut ExecScratch,
    ) -> Result<StepOutput, SimError> {
        let _span = salo_trace::Tracer::global().span_with(
            "sim.execute_step",
            "sim",
            state.position() as u64,
        );
        quantized(scratch, [q_t, k_t, v_t], scale, |token, scratch| {
            self.advance(plan, state, token, pool, scratch, true)
        })
        .map(|out| out.expect("compute=true always yields a step output"))
    }

    /// Executes one pending step from each of many sessions sharing one
    /// plan as a single fused pass — the iteration-level batched kernel
    /// of the serving tick. The gathered steps run back to back over one
    /// [`ExecScratch`] and one pool, so per-dispatch overhead is paid
    /// once for the whole batch.
    ///
    /// Results are per entry — the sessions are independent, so one
    /// failing (and poisoning itself) never affects its neighbours — and
    /// every entry is **bit-identical** to calling
    /// [`execute_step`](Self::execute_step) on that session alone: the
    /// fused pass performs the same fixed-point operations in the same
    /// per-session order through the same scratch-transparent kernels.
    pub fn execute_steps(
        &self,
        plan: &DecodePlan,
        batch: &mut [BatchStep<'_>],
        pool: &mut KvPagePool,
        scratch: &mut ExecScratch,
    ) -> Vec<Result<StepOutput, SimError>> {
        let _span =
            salo_trace::Tracer::global().span_with("sim.execute_steps", "sim", batch.len() as u64);
        batch
            .iter_mut()
            .map(|step| {
                let rows = [step.q_t, step.k_t, step.v_t];
                quantized(scratch, rows, step.scale, |token, scratch| {
                    self.advance(plan, step.state, token, pool, scratch, true)
                })
                .map(|out| out.expect("compute=true always yields a step output"))
            })
            .collect()
    }

    /// [`execute_steps`](Self::execute_steps) over rows already quantized:
    /// each step goes to the ingest as it is. Bit-identical to
    /// `execute_steps` on the `f32` rows the steps were quantized from
    /// ([`quantize_iter`], the scale folded into `q`).
    pub fn execute_fixed_steps(
        &self,
        plan: &DecodePlan,
        batch: &mut [FixedStep<'_>],
        pool: &mut KvPagePool,
        scratch: &mut ExecScratch,
    ) -> Vec<Result<StepOutput, SimError>> {
        let _span =
            salo_trace::Tracer::global().span_with("sim.execute_steps", "sim", batch.len() as u64);
        batch
            .iter_mut()
            .map(|step| {
                let token = [step.q_t, step.k_t, step.v_t];
                self.advance(plan, step.state, token, pool, scratch, true)
                    .map(|out| out.expect("compute=true always yields a step output"))
            })
            .collect()
    }

    /// The one ingest path — of [`prime_fixed`](Self::prime_fixed),
    /// [`prime_token`](Self::prime_token) and
    /// [`execute_step`](Self::execute_step) — over a token's rows already
    /// quantized: `q_t`, `k_t`, `v_t`.
    fn advance(
        &self,
        plan: &DecodePlan,
        state: &mut DecodeState,
        [q_t, k_t, v_t]: [&[Fix8x4]; 3],
        pool: &mut KvPagePool,
        scratch: &mut ExecScratch,
        compute: bool,
    ) -> Result<Option<StepOutput>, SimError> {
        if state.poisoned {
            return Err(SimError::PoisonedDecodeState);
        }
        if state.plan_fp != plan.fingerprint() {
            return Err(SimError::StaleDecodeState { state_n: state.n, plan_n: plan.n() });
        }
        let d = state.d;
        for row in [q_t, k_t, v_t] {
            if row.len() != d {
                return Err(SimError::TokenDim { expected: d, got: row.len() });
            }
        }
        let t = state.len;
        if t >= plan.n() {
            return Err(SimError::DecodeCapacity { n: plan.n() });
        }
        if compute && t < plan.min_step() {
            return Err(SimError::DecodeNotPrimed { position: t, min_step: plan.min_step() });
        }
        // Open the token's page before touching the state: an exhausted
        // pool fails *cleanly* (nothing ingested, nothing poisoned), so
        // the step can be retried once other sessions free pages.
        if t == 0 {
            state.page_rows = pool.page_rows();
        }
        debug_assert_eq!(state.page_rows, pool.page_rows(), "session moved between pools");
        if t.is_multiple_of(state.page_rows) {
            debug_assert_eq!(state.pages.len(), t / state.page_rows);
            let page = pool.allocate(d)?;
            state.pages.push(Some(page));
            state.resident += 1;
        }

        // Ingest. From here on the token is part of the history — a
        // downstream failure leaves the state inconsistent (appended K/V,
        // advanced position, possibly half-run global duties), so it
        // poisons the session until a reset.
        state.q_step.clear();
        state.q_step.extend_from_slice(q_t);
        let slot = t % state.page_rows;
        let page = state.pages[t / state.page_rows].as_mut().expect("append page is resident");
        let (k, v) = page.0.halves_mut();
        k[slot * d..][..d].copy_from_slice(k_t);
        v[slot * d..][..d].copy_from_slice(v_t);
        if let Ok(gi) = plan.globals.binary_search(&(t as u32)) {
            state.global_q[gi] = state.q_step.clone();
        }
        state.len += 1;

        let result = self.run_token(plan, state, scratch, compute, t);
        if result.is_err() {
            state.poisoned = true;
        } else {
            reclaim_dead_pages(plan, state, pool);
        }
        result
    }

    /// The fallible tail of [`advance`](Self::advance), run after the
    /// token has been ingested into the history.
    fn run_token(
        &self,
        plan: &DecodePlan,
        state: &mut DecodeState,
        scratch: &mut ExecScratch,
        compute: bool,
        t: usize,
    ) -> Result<Option<StepOutput>, SimError> {
        let d = state.d;
        // Per-op buffers must match this session's dimension (the scratch
        // may have served other shapes).
        scratch.op.prepare(d, plan.max_row_keys());

        let (exp, recip) = self.shared_tables();
        let mut sat = MacSaturation::default();

        // The step's own row, in prefill merge order.
        let step = if compute {
            // Written by the step's first part, like a prefill's rows.
            state.acc.weight_q16 = UNREACHED;
            let DecodeState { pages, page_rows, q_step, acc, .. } = &mut *state;
            let kv = PagedKv::new(pages, *page_rows);
            run_decode_ops(
                exp,
                recip,
                plan,
                (plan.step_program(t), t),
                q_step,
                &kv,
                d,
                scratch,
                acc,
                &mut sat,
            )?;
            let mut raw = Vec::with_capacity(d);
            let weight = drain_into(acc, &mut raw);
            Some((raw, weight))
        } else {
            None
        };

        // Advance the running global-duty partials: run every pending op
        // whose query row and keys are now all in the history. Gating only
        // delays ops — never reorders them — so a finished session has
        // merged exactly the prefill's op sequence.
        for (gi, program) in plan.global_rows.iter().enumerate() {
            if (program.token as usize) >= state.len {
                continue; // the token's own query has not arrived yet
            }
            // The pending ops up to the first that still waits for a key,
            // as one list.
            let ops = &plan.program_ops[program.start as usize..program.end as usize];
            let cursor = state.global_cursor[gi];
            let runnable =
                program.max_keys[cursor..].iter().take_while(|&&key| key as usize <= t).count();
            if runnable == 0 {
                continue;
            }
            let DecodeState { pages, page_rows, global_q, global_acc, .. } = &mut *state;
            let kv = PagedKv::new(pages, *page_rows);
            run_decode_ops(
                exp,
                recip,
                plan,
                (&ops[cursor..cursor + runnable], program.token as usize),
                &global_q[gi],
                &kv,
                d,
                scratch,
                &mut global_acc[gi],
                &mut sat,
            )?;
            state.global_cursor[gi] = cursor + runnable;
        }

        state.sat.merge(sat);
        Ok(step.map(|(raw, weight_q16)| StepOutput {
            position: t,
            raw,
            weight_q16,
            saturation_events: sat.events,
        }))
    }
}

/// Quantizes an `f32` token's rows into the scratch's token buffers — the
/// load's rounding ([`quantize_iter`]), `scale` folded into `q` — and runs
/// `ingest` on them: how every `f32` row reaches
/// [`advance`](SpatialAccelerator::advance).
fn quantized<T>(
    scratch: &mut ExecScratch,
    rows: [&[f32]; 3],
    scale: f32,
    ingest: impl FnOnce([&[Fix8x4]; 3], &mut ExecScratch) -> T,
) -> T {
    let mut token = std::mem::take(&mut scratch.token);
    for (dst, (row, scale)) in token.iter_mut().zip(rows.into_iter().zip([scale, 1.0, 1.0])) {
        dst.clear();
        dst.extend(quantize_iter(row, scale));
    }
    let [q, k, v] = &token;
    let out = ingest([q, k, v], scratch);
    scratch.token = token;
    out
}

/// Returns every fully-written, globally-unpinned page below the plan's
/// live horizon to the pool. The horizon (and the history length) is
/// monotone over a session, so `reclaim_floor` lets each page be
/// examined exactly once — O(1) amortized per step.
fn reclaim_dead_pages(plan: &DecodePlan, state: &mut DecodeState, pool: &mut KvPagePool) {
    let horizon = plan.live_horizon(state.len, &state.global_cursor);
    // Only fully-written pages are candidates: the page holding the next
    // append must stay, whatever the horizon says.
    let limit_pages = (horizon.min(state.len) / state.page_rows).min(state.pages.len());
    if limit_pages <= state.reclaim_floor {
        return;
    }
    let _span = salo_trace::Tracer::global().span_with(
        "sim.kv.reclaim",
        "sim",
        (limit_pages - state.reclaim_floor) as u64,
    );
    for p in state.reclaim_floor..limit_pages {
        let rows = state.page_rows as u32;
        if plan.pins_range(p as u32 * rows, (p as u32 + 1) * rows) {
            continue; // a global token lives here: pinned for the session
        }
        if let Some(page) = state.pages[p].take() {
            pool.reclaim(page);
            state.resident -= 1;
        }
    }
    state.reclaim_floor = limit_pages;
}

/// Stages 1–5 for a row program expanded for its row — the lowered
/// plan's ops of that row, in order — merged into `acc` in that order:
/// literally the prefill's executor ([`run_ops_grouped`]), fed K/V through
/// the session's page table instead of a full-sequence load, so
/// decode-vs-prefill bit-identity holds by construction (one shared kernel
/// body).
#[allow(clippy::too_many_arguments)]
fn run_decode_ops(
    exp: &ExpLut,
    recip: &RecipUnit,
    plan: &DecodePlan,
    (program, row): (&[ProgramOp], usize),
    q_row: &[Fix8x4],
    kv: &PagedKv<'_>,
    d: usize,
    scratch: &mut ExecScratch,
    acc: &mut PartialRow,
    sat: &mut MacSaturation,
) -> Result<(), SimError> {
    let ExecScratch { op: bufs, picked, .. } = scratch;
    picked.clear();
    expand(program, row as u32, &plan.globals, picked);
    let resolve =
        |op: &LoweredOp| GroupOp { kind: op.kind, keys: plan.op_keys(op), q_row, slot: 0 };
    let accs = std::slice::from_mut(acc);
    run_ops_grouped((exp, recip), picked, resolve, kv, d, bufs, accs, sat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AcceleratorConfig;
    use salo_kernels::Qkv;
    use salo_patterns::{HybridPattern, Window};
    use salo_scheduler::HardwareMeta;

    fn accel(rows: usize, cols: usize) -> SpatialAccelerator {
        let config = AcceleratorConfig {
            hw: HardwareMeta::new(rows, cols, 1, 1).unwrap(),
            ..Default::default()
        };
        SpatialAccelerator::new(config)
    }

    fn compile(pattern: &HybridPattern, sim: &SpatialAccelerator) -> (ExecutionPlan, DecodePlan) {
        let plan = ExecutionPlan::build(pattern, sim.config().hw).unwrap();
        let lowered = LoweredPlan::lower(&plan);
        let decode = DecodePlan::lower(&plan, &lowered).unwrap();
        (plan, decode)
    }

    /// Drives a complete session over `qkv` with pages of `page_rows`
    /// rows, comparing every decoded row against the prefill output, and
    /// returns the session state with its pool.
    fn decode_all_paged(
        sim: &SpatialAccelerator,
        pattern: &HybridPattern,
        qkv: &Qkv,
        d: usize,
        page_rows: usize,
    ) -> (DecodeState, KvPagePool) {
        let (plan, decode) = compile(pattern, sim);
        let lowered = LoweredPlan::lower(&plan);
        let scale = SpatialAccelerator::default_scale(d);
        let prefill = sim
            .execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, &mut ExecScratch::new())
            .unwrap();

        let mut pool = KvPagePool::new(page_rows);
        let mut state = DecodeState::new(&decode, d);
        let mut scratch = ExecScratch::new();
        for t in 0..pattern.n() {
            let (q, k, v) = (qkv.q.row(t), qkv.k.row(t), qkv.v.row(t));
            if t < decode.min_step() {
                sim.prime_token(&decode, &mut state, q, k, v, scale, &mut pool, &mut scratch)
                    .unwrap();
                continue;
            }
            let step = sim
                .execute_step(&decode, &mut state, q, k, v, scale, &mut pool, &mut scratch)
                .unwrap();
            assert_eq!(step.position, t);
            let prefill_row: Vec<_> = (0..d).map(|c| prefill.raw.get(t, c)).collect();
            assert_eq!(step.raw, prefill_row, "row {t} raw outputs (page_rows={page_rows})");
            assert_eq!(step.weight_q16, prefill.weights_q16[t], "row {t} weight");
        }
        // Global rows have fully caught up and match the prefill bit for
        // bit.
        for (gi, &g) in decode.globals().iter().enumerate() {
            let (raw, weight) = state.global_row_output(gi);
            let prefill_row: Vec<_> = (0..d).map(|c| prefill.raw.get(g as usize, c)).collect();
            assert_eq!(raw, prefill_row, "global row {g}");
            assert_eq!(weight, prefill.weights_q16[g as usize]);
        }
        assert_eq!(state.saturation_events(), prefill.report.saturation_events);
        assert_eq!(pool.pages_in_use(), state.resident_pages(), "pool and state accounting agree");
        (state, pool)
    }

    /// Single-page sessions (page covers the whole sequence) are the
    /// contiguous-arena baseline every smaller page size is compared to.
    fn decode_all(
        sim: &SpatialAccelerator,
        pattern: &HybridPattern,
        qkv: &Qkv,
        d: usize,
    ) -> (DecodeState, KvPagePool) {
        decode_all_paged(sim, pattern, qkv, d, pattern.n())
    }

    #[test]
    fn causal_window_with_sink_decodes_bit_identically() {
        let pattern = HybridPattern::builder(40)
            .window(Window::symmetric(9).unwrap())
            .global_token(0)
            .build()
            .unwrap()
            .decode_view()
            .unwrap()
            .causal_pattern()
            .clone();
        let sim = accel(8, 8);
        let qkv = Qkv::random(40, 8, 7);
        decode_all(&sim, &pattern, &qkv, 8);
    }

    #[test]
    fn paged_sessions_decode_bit_identically_across_page_sizes() {
        // The page-translation edge cases: a page size of 1 (every step
        // crosses a page boundary), sizes where the window straddles
        // boundaries mid-page, and a size larger than the sequence
        // (degenerate single page). All must match the prefill oracle —
        // decode_all_paged asserts every row — and small pages must
        // actually reclaim.
        let pattern = HybridPattern::builder(40)
            .window(Window::symmetric(9).unwrap())
            .global_token(0)
            .build()
            .unwrap()
            .decode_view()
            .unwrap()
            .causal_pattern()
            .clone();
        let sim = accel(8, 8);
        let qkv = Qkv::random(40, 8, 7);
        for page_rows in [1, 3, 8, 64] {
            let (state, pool) = decode_all_paged(&sim, &pattern, &qkv, 8, page_rows);
            let stats = pool.stats();
            if page_rows <= 8 {
                assert!(stats.reclaimed > 0, "page_rows={page_rows} reclaimed nothing");
                // Residency is O(active window + pinned globals), not
                // O(history): window radius 9 spans at most
                // ceil(10/R) + 1 live pages, plus the pinned sink page
                // and the write head.
                let bound = 10_usize.div_ceil(page_rows) + 3;
                assert!(
                    state.resident_pages() <= bound,
                    "page_rows={page_rows}: {} resident pages > bound {bound}",
                    state.resident_pages()
                );
            } else {
                assert_eq!(stats.reclaimed, 0, "one-page session has nothing to reclaim");
            }
            assert_eq!(stats.exhausted, 0);
        }
    }

    #[test]
    fn step_on_page_boundary_is_bit_identical() {
        // Capacity an exact multiple of the page size: the last step of
        // every page and the first step of the next both translate
        // correctly (decode_all_paged asserts each row against prefill).
        let pattern = HybridPattern::builder(32)
            .window(Window::causal(7).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let sim = accel(8, 8);
        let qkv = Qkv::random(32, 8, 13);
        for page_rows in [4, 8, 16] {
            assert_eq!(32 % page_rows, 0, "test wants exact page multiples");
            decode_all_paged(&sim, &pattern, &qkv, 8, page_rows);
        }
    }

    #[test]
    fn dilated_pattern_decodes_bit_identically() {
        let pattern = HybridPattern::builder(36)
            .window(Window::dilated(-9, 9, 3).unwrap())
            .window(Window::causal(4).unwrap())
            .global_token(0)
            .global_token(1)
            .build()
            .unwrap()
            .decode_view()
            .unwrap()
            .causal_pattern()
            .clone();
        let sim = accel(4, 4);
        let qkv = Qkv::random(36, 4, 23);
        decode_all(&sim, &pattern, &qkv, 4);
        // Dilation stride 3 with pages of 2 rows: an op's key list skips
        // whole pages between touched ones; translation must still land
        // on the right slots (asserted row-by-row inside).
        decode_all_paged(&sim, &pattern, &qkv, 4, 2);
    }

    #[test]
    fn pages_start_on_a_cache_line() {
        // K and V rows of a fresh page, and of a recycled one resized for
        // another head dimension, start on a 64-byte boundary: a d = 64 row
        // is one line.
        let mut pool = KvPagePool::default();
        let line = |rows: &[Fix8x4]| rows.as_ptr() as usize % ROW_ALIGN;
        for d in [64, 8, 128] {
            let page = pool.allocate(d).unwrap();
            let (k, v) = page.0.halves();
            assert_eq!((k.len(), v.len()), (DEFAULT_PAGE_ROWS * d, DEFAULT_PAGE_ROWS * d));
            assert_eq!((line(k), line(v)), (0, 0), "d = {d}");
            pool.release(page);
        }
    }

    #[test]
    fn global_rows_pin_their_pages() {
        // Globals at positions 0 and 1 pin page 0 (page_rows=2) forever;
        // window pages behind the horizon are freed. With a long tail the
        // session must end with the pinned page still resident and
        // several reclaims behind it.
        let pattern = HybridPattern::builder(48)
            .window(Window::causal(5).unwrap())
            .global_token(0)
            .global_token(1)
            .build()
            .unwrap();
        let sim = accel(8, 8);
        let qkv = Qkv::random(48, 8, 31);
        let (state, pool) = decode_all_paged(&sim, &pattern, &qkv, 8, 2);
        let stats = pool.stats();
        assert!(stats.reclaimed >= 10, "long tail reclaims many pages, got {}", stats.reclaimed);
        // The pinned global page is still materialized.
        assert!(state.resident_pages() >= 1);
        assert!(state.resident_pages() <= 8, "residency stays O(window), not O(history)");
    }

    #[test]
    fn windowless_global_only_pattern_decodes() {
        let pattern = HybridPattern::builder(20).global_token(0).build().unwrap();
        let sim = accel(4, 4);
        let qkv = Qkv::random(20, 4, 5);
        decode_all(&sim, &pattern, &qkv, 4);
        // With no window, *only* the global page stays live; everything
        // else reclaims as soon as its page fills.
        let (state, _pool) = decode_all_paged(&sim, &pattern, &qkv, 4, 2);
        assert!(state.resident_pages() <= 2, "global-only session keeps pinned page + write head");
    }

    #[test]
    fn reset_returns_pages_for_other_sessions() {
        // A pool bounded to exactly one session's worth of pages: session
        // A consumes it, reset hands the pages back, and session B can
        // run to completion on the same pool — the regression test for
        // reset keeping pages captive.
        let pattern = HybridPattern::builder(16)
            .window(Window::causal(3).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let sim = accel(4, 4);
        let (_, decode) = compile(&pattern, &sim);
        let scale = SpatialAccelerator::default_scale(4);
        let qkv = Qkv::random(16, 4, 3);
        // page_rows=16 => a full session needs exactly one page; bound
        // the pool to one.
        let mut pool = KvPagePool::bounded(16, 1);
        let mut scratch = ExecScratch::new();

        let run = |state: &mut DecodeState, pool: &mut KvPagePool, scratch: &mut ExecScratch| {
            sim.prime_token(
                &decode,
                state,
                qkv.q.row(0),
                qkv.k.row(0),
                qkv.v.row(0),
                scale,
                pool,
                scratch,
            )
            .unwrap();
            for t in 1..16 {
                sim.execute_step(
                    &decode,
                    state,
                    qkv.q.row(t),
                    qkv.k.row(t),
                    qkv.v.row(t),
                    scale,
                    pool,
                    scratch,
                )
                .unwrap();
            }
        };

        let mut a = DecodeState::new(&decode, 4);
        run(&mut a, &mut pool, &mut scratch);
        assert_eq!(pool.pages_in_use(), 1);

        // A second session cannot start while A holds the only page...
        let mut b = DecodeState::new(&decode, 4);
        let err = sim.prime_token(
            &decode,
            &mut b,
            qkv.q.row(0),
            qkv.k.row(0),
            qkv.v.row(0),
            scale,
            &mut pool,
            &mut scratch,
        );
        assert!(matches!(err, Err(SimError::PagePoolExhausted { in_use: 1, capacity: 1 })));
        assert!(!b.is_poisoned(), "exhaustion is a clean failure");
        assert_eq!(b.position(), 0, "nothing was ingested");

        // ...but after A resets, its page is immediately reusable by B.
        a.reset(&decode, 4, &mut pool);
        assert_eq!(pool.pages_in_use(), 0);
        run(&mut b, &mut pool, &mut scratch);
        assert_eq!(pool.stats().exhausted, 1);
    }

    #[test]
    fn release_empties_the_page_table() {
        let pattern = HybridPattern::builder(12)
            .window(Window::causal(3).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let sim = accel(4, 4);
        let (_, decode) = compile(&pattern, &sim);
        let scale = SpatialAccelerator::default_scale(4);
        let mut pool = KvPagePool::new(4);
        let mut scratch = ExecScratch::new();
        let row = [0.5f32; 4];
        let mut state = DecodeState::new(&decode, 4);
        sim.prime_token(&decode, &mut state, &row, &row, &row, scale, &mut pool, &mut scratch)
            .unwrap();
        for _ in 1..12 {
            sim.execute_step(&decode, &mut state, &row, &row, &row, scale, &mut pool, &mut scratch)
                .unwrap();
        }
        assert!(pool.pages_in_use() > 0);
        state.release(&mut pool);
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(state.resident_pages(), 0);
        assert_eq!(state.resident_kv_bytes(), 0);
    }

    #[test]
    fn fused_steps_match_sequential_stepping() {
        // Three sessions over one plan, advanced in lockstep: the fused
        // execute_steps pass must produce exactly the bits sequential
        // per-session execute_step calls do.
        let pattern = HybridPattern::builder(24)
            .window(Window::causal(5).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let sim = accel(4, 4);
        let (_, decode) = compile(&pattern, &sim);
        let scale = SpatialAccelerator::default_scale(4);
        let qkvs: Vec<Qkv> = (0..3).map(|s| Qkv::random(24, 4, 40 + s)).collect();

        let mut seq_pool = KvPagePool::new(4);
        let mut fused_pool = KvPagePool::new(4);
        let mut seq_scratch = ExecScratch::new();
        let mut fused_scratch = ExecScratch::new();
        let mut seq: Vec<DecodeState> = (0..3).map(|_| DecodeState::new(&decode, 4)).collect();
        let mut fused: Vec<DecodeState> = (0..3).map(|_| DecodeState::new(&decode, 4)).collect();
        for (qkv, state) in qkvs.iter().zip(seq.iter_mut()) {
            sim.prime_token(
                &decode,
                state,
                qkv.q.row(0),
                qkv.k.row(0),
                qkv.v.row(0),
                scale,
                &mut seq_pool,
                &mut seq_scratch,
            )
            .unwrap();
        }
        for (qkv, state) in qkvs.iter().zip(fused.iter_mut()) {
            sim.prime_token(
                &decode,
                state,
                qkv.q.row(0),
                qkv.k.row(0),
                qkv.v.row(0),
                scale,
                &mut fused_pool,
                &mut fused_scratch,
            )
            .unwrap();
        }
        for t in 1..24 {
            let sequential: Vec<StepOutput> = qkvs
                .iter()
                .zip(seq.iter_mut())
                .map(|(qkv, state)| {
                    sim.execute_step(
                        &decode,
                        state,
                        qkv.q.row(t),
                        qkv.k.row(t),
                        qkv.v.row(t),
                        scale,
                        &mut seq_pool,
                        &mut seq_scratch,
                    )
                    .unwrap()
                })
                .collect();
            let mut batch: Vec<BatchStep<'_>> = qkvs
                .iter()
                .zip(fused.iter_mut())
                .map(|(qkv, state)| BatchStep {
                    state,
                    q_t: qkv.q.row(t),
                    k_t: qkv.k.row(t),
                    v_t: qkv.v.row(t),
                    scale,
                })
                .collect();
            let fused_out =
                sim.execute_steps(&decode, &mut batch, &mut fused_pool, &mut fused_scratch);
            for (s, f) in sequential.iter().zip(fused_out) {
                assert_eq!(*s, f.unwrap(), "fused step diverged at t={t}");
            }
        }
        for (s, f) in seq.iter().zip(&fused) {
            assert_eq!(s.saturation_events(), f.saturation_events());
        }
    }

    #[test]
    fn every_row_expands_to_its_lowered_ops() {
        // A step's ops are the lowered ops with its destination, in lowered
        // (prefill merge) order; so are a global row's. The plan holds them
        // as row programs, and expands them for the row.
        let sink = HybridPattern::builder(300)
            .window(Window::causal(64).unwrap())
            .global_tokens([0, 5])
            .build()
            .unwrap();
        let bigbird = salo_patterns::bigbird(96, 12, 3, 1, 42).unwrap();
        let gathers = bigbird.decode_view().unwrap().into_causal_pattern();
        for (pattern, sim) in
            [(&sink, accel(8, 8)), (&gathers, SpatialAccelerator::default_instance())]
        {
            let plan = ExecutionPlan::build(pattern, sim.config().hw).unwrap();
            let lowered = LoweredPlan::lower(&plan);
            let decode = DecodePlan::lower(&plan, &lowered).unwrap();
            assert_eq!(decode.gather_keys, lowered.gather_keys());
            let with_dest = |t: u32| lowered.ops().iter().filter(move |op| op.dest == t);
            let mut expanded = 0;
            for t in 0..pattern.n() as u32 {
                let got: Vec<_> = match decode.global_rows.iter().find(|g| g.token == t) {
                    Some(g) => {
                        let mut ops = Vec::new();
                        let program = &decode.program_ops[g.start as usize..g.end as usize];
                        expand(program, t, decode.globals(), &mut ops);
                        ops
                    }
                    None => decode.step_ops(t as usize).collect(),
                };
                assert_eq!(got, with_dest(t).copied().collect::<Vec<_>>(), "row {t}");
                expanded += got.len();
            }
            assert_eq!(expanded, lowered.ops().len());
        }
    }

    #[test]
    fn a_window_slides_one_row_program_over_every_step() {
        // Every step row of a sink window runs the last row's program:
        // shifted, clipped at the sequence start, the sink's key trimmed
        // off, and the sink's cell held back until a part reaches the
        // sequence. The only other program is the sink's own empty step.
        // On an 8 × 8 array, and at the `decode_long` shape on the
        // default one (33 ops a row).
        for (n, w, sim, ops) in
            [(300, 64, accel(8, 8), 9), (8192, 1024, SpatialAccelerator::default_instance(), 33)]
        {
            let pattern = HybridPattern::builder(n)
                .window(Window::causal(w).unwrap())
                .global_token(0)
                .build()
                .unwrap();
            let (_, decode) = compile(&pattern, &sim);
            assert_eq!(decode.programs.len() - 1, 2, "one program for the steps, one empty");
            let last = decode.row_program[n - 1];
            assert!((1..n).all(|t| decode.row_program[t] == last));
            assert!(decode.step_program(0).is_empty());
            assert_eq!(decode.step_program(n - 1).len(), ops);
            let global_ops = decode.global_rows.iter().map(|g| (g.end - g.start) as usize);
            let held = ops + global_ops.sum::<usize>();
            assert_eq!(decode.program_ops.len(), held, "no row but the last is kept");
        }
    }

    #[test]
    fn anticausal_plan_rejected() {
        let pattern =
            HybridPattern::builder(24).window(Window::symmetric(7).unwrap()).build().unwrap();
        let sim = accel(8, 8);
        let plan = ExecutionPlan::build(&pattern, sim.config().hw).unwrap();
        let lowered = LoweredPlan::lower(&plan);
        assert!(matches!(DecodePlan::lower(&plan, &lowered), Err(SimError::AnticausalPlan { .. })));
    }

    #[test]
    fn step_guards_capacity_priming_and_dimensions() {
        let pattern = HybridPattern::builder(8)
            .window(Window::causal(3).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let sim = accel(4, 4);
        let (_, decode) = compile(&pattern, &sim);
        assert_eq!(decode.min_step(), 1);
        let mut state = DecodeState::new(&decode, 4);
        let mut pool = KvPagePool::default();
        let mut scratch = ExecScratch::new();
        let row = [0.5f32; 4];

        // Stepping before the prompt covers the global token fails.
        assert!(matches!(
            sim.execute_step(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch),
            Err(SimError::DecodeNotPrimed { position: 0, min_step: 1 })
        ));
        // Wrong token dimension fails without mutating the state.
        let short = [0.5f32; 3];
        assert!(matches!(
            sim.prime_token(&decode, &mut state, &short, &row, &row, 0.5, &mut pool, &mut scratch),
            Err(SimError::TokenDim { expected: 4, got: 3 })
        ));
        assert_eq!(state.position(), 0);

        sim.prime_token(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch)
            .unwrap();
        for _ in 1..8 {
            sim.execute_step(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch)
                .unwrap();
        }
        // Capacity exhausted.
        assert!(matches!(
            sim.execute_step(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch),
            Err(SimError::DecodeCapacity { n: 8 })
        ));

        // A state from another plan is refused.
        let other = HybridPattern::builder(12).window(Window::causal(3).unwrap()).build().unwrap();
        let (_, other_decode) = compile(&other, &sim);
        assert!(matches!(
            sim.execute_step(
                &other_decode,
                &mut state,
                &row,
                &row,
                &row,
                0.5,
                &mut pool,
                &mut scratch
            ),
            Err(SimError::StaleDecodeState { state_n: 8, plan_n: 12 })
        ));

        // Even with equal capacity AND equal global count, a different
        // plan (global at another position, different window) is refused
        // — the guard compares the program fingerprint, not just shapes.
        let same_shape = HybridPattern::builder(8)
            .window(Window::causal(2).unwrap())
            .global_token(3)
            .build()
            .unwrap();
        let (_, same_shape_decode) = compile(&same_shape, &sim);
        assert_ne!(decode.fingerprint(), same_shape_decode.fingerprint());
        let mut state = DecodeState::new(&decode, 4);
        sim.prime_token(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch)
            .unwrap();
        assert!(matches!(
            sim.execute_step(
                &same_shape_decode,
                &mut state,
                &row,
                &row,
                &row,
                0.5,
                &mut pool,
                &mut scratch
            ),
            Err(SimError::StaleDecodeState { state_n: 8, plan_n: 8 })
        ));
    }

    #[test]
    fn poisoned_state_rejects_advances_until_reset() {
        // A step that fails after its token entered the history leaves
        // the state inconsistent (appended K/V, advanced position):
        // every further advance must be refused, validation errors must
        // NOT poison (they precede the mutation), and reset() recovers.
        let pattern = HybridPattern::builder(8)
            .window(Window::causal(3).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let sim = accel(4, 4);
        let (_, decode) = compile(&pattern, &sim);
        let mut state = DecodeState::new(&decode, 4);
        let mut pool = KvPagePool::default();
        let mut scratch = ExecScratch::new();
        let row = [0.5f32; 4];

        // Validation failures leave the state clean and usable.
        let short = [0.5f32; 3];
        assert!(sim
            .prime_token(&decode, &mut state, &short, &row, &row, 0.5, &mut pool, &mut scratch)
            .is_err());
        assert!(!state.is_poisoned());
        sim.prime_token(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch)
            .unwrap();
        sim.execute_step(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch)
            .unwrap();

        // A mid-step failure poisons: both step and prime are refused.
        state.poisoned = true;
        let position = state.position();
        assert!(matches!(
            sim.execute_step(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch),
            Err(SimError::PoisonedDecodeState)
        ));
        assert!(matches!(
            sim.prime_token(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch),
            Err(SimError::PoisonedDecodeState)
        ));
        assert_eq!(state.position(), position, "refused advances do not move the session");

        // Reset rebinds the state to a clean, decodable session.
        state.reset(&decode, 4, &mut pool);
        assert!(!state.is_poisoned());
        sim.prime_token(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch)
            .unwrap();
        sim.execute_step(&decode, &mut state, &row, &row, &row, 0.5, &mut pool, &mut scratch)
            .unwrap();
    }

    #[test]
    fn a_step_whose_second_op_fails_poisons_the_session_and_fails_the_prefill() {
        // A failure the datapath produces itself, in the middle of a
        // group: a LUT whose low end rounds to zero, keys that score high
        // at positions 0..4 of every eight and low at 4..8, a causal window
        // of eight on a four-column array. Row 7's two parts are keys 0..4
        // (a positive sum) and 4..8 (a sum of zero) — its second op fails.
        let d = 8;
        let pattern =
            HybridPattern::builder(16).window(Window::causal(8).unwrap()).build().unwrap();
        let config =
            AcceleratorConfig { hw: HardwareMeta::new(4, 4, 1, 1).unwrap(), ..Default::default() };
        let exp = ExpLut::with_domain(8, -16.0, -8.0).unwrap();
        let sim = SpatialAccelerator::with_exp(config, exp);
        let (plan, decode) = compile(&pattern, &sim);
        assert_eq!(decode.step_ops(7).len(), 2);
        let q = [1.0f32; 8];
        let k_at = |t: usize| if t % 8 < 4 { [1.0f32; 8] } else { [-2.0f32; 8] };
        let zero_sum = salo_fixed::FixedError::NonPositiveReciprocal { raw: 0 };

        let mut state = DecodeState::new(&decode, d);
        let mut pool = KvPagePool::default();
        let mut scratch = ExecScratch::new();
        for t in 0..7 {
            sim.execute_step(&decode, &mut state, &q, &k_at(t), &q, 1.0, &mut pool, &mut scratch)
                .unwrap();
        }
        let failed =
            sim.execute_step(&decode, &mut state, &q, &k_at(7), &q, 1.0, &mut pool, &mut scratch);
        assert!(matches!(failed, Err(SimError::Fixed(ref e)) if *e == zero_sum), "{failed:?}");
        assert!(state.is_poisoned());
        assert!(matches!(
            sim.execute_step(&decode, &mut state, &q, &k_at(8), &q, 1.0, &mut pool, &mut scratch),
            Err(SimError::PoisonedDecodeState)
        ));

        // The prefill over the same tokens fails with the same error.
        let ones = salo_kernels::Matrix::from_fn(16, d, |_, _| 1.0);
        let k = salo_kernels::Matrix::from_fn(16, d, |t, _| k_at(t)[0]);
        let prefill = sim.execute_lowered(
            &LoweredPlan::lower(&plan),
            &ones,
            &k,
            &ones,
            1.0,
            &mut ExecScratch::new(),
        );
        assert!(matches!(prefill, Err(SimError::Fixed(ref e)) if *e == zero_sum));
    }

    #[test]
    fn reset_state_is_bit_transparent_across_shapes() {
        let sim = accel(4, 4);
        let a = HybridPattern::builder(24)
            .window(Window::causal(5).unwrap())
            .global_token(0)
            .build()
            .unwrap();
        let b = HybridPattern::builder(16).window(Window::causal(9).unwrap()).build().unwrap();
        let (_, da) = compile(&a, &sim);
        let (_, db) = compile(&b, &sim);

        // Run a on a fresh state, then b and a again on a reused one.
        let qkv_a = Qkv::random(24, 4, 1);
        let qkv_b = Qkv::random(16, 6, 2);
        let (fresh, _) = decode_all(&sim, &a, &qkv_a, 4);

        let mut pool = KvPagePool::new(4);
        let mut state = DecodeState::new(&db, 6);
        let mut scratch = ExecScratch::new();
        let scale = SpatialAccelerator::default_scale(6);
        for t in 0..16 {
            sim.execute_step(
                &db,
                &mut state,
                qkv_b.q.row(t),
                qkv_b.k.row(t),
                qkv_b.v.row(t),
                scale,
                &mut pool,
                &mut scratch,
            )
            .unwrap();
        }
        state.reset(&da, 4, &mut pool);
        let scale = SpatialAccelerator::default_scale(4);
        sim.prime_token(
            &da,
            &mut state,
            qkv_a.q.row(0),
            qkv_a.k.row(0),
            qkv_a.v.row(0),
            scale,
            &mut pool,
            &mut scratch,
        )
        .unwrap();
        for t in 1..24 {
            sim.execute_step(
                &da,
                &mut state,
                qkv_a.q.row(t),
                qkv_a.k.row(t),
                qkv_a.v.row(t),
                scale,
                &mut pool,
                &mut scratch,
            )
            .unwrap();
        }
        let (raw_reused, w_reused) = state.global_row_output(0);
        let (raw_fresh, w_fresh) = fresh.global_row_output(0);
        assert_eq!(raw_reused, raw_fresh, "reused state diverged from fresh");
        assert_eq!(w_reused, w_fresh);
        assert_eq!(state.saturation_events(), fresh.saturation_events());
    }
}
