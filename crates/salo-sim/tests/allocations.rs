//! Heap accounting for the executor: once its scratch is warm, running a
//! program allocates nothing per op. The group buffers are sized in
//! `prepare`, so neither a group's eight slots nor a 2 048-key global row
//! (which may land in any of them) asks the allocator for anything; what a
//! call still allocates is its result — a handful of blocks, whatever the
//! op count.
//!
//! Its own binary, one test: the counting allocator is the process's
//! global allocator. It counts only the calls made on the thread that armed
//! the section being measured, so libtest's main thread, which may allocate
//! while the test runs, is not charged to it. Every section here runs on
//! the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use salo_kernels::Qkv;
use salo_patterns::{longformer, HybridPattern, Window};
use salo_scheduler::{ExecutionPlan, HardwareMeta};
use salo_sim::{
    AcceleratorConfig, DecodePlan, DecodeState, ExecScratch, KvPagePool, LoweredOp, LoweredPlan,
    SpatialAccelerator, DEFAULT_PAGE_ROWS,
};

/// Allocator calls that handed out or moved a block.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is running a measured section. `const`-
    /// initialised and without a destructor, so reading it from inside the
    /// allocator allocates nothing.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter beside it touches no memory but its
// own atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.get() {
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        // SAFETY: `block` came from `alloc`/`realloc` above, i.e. from
        // `System`, with this `layout`.
        unsafe { System.dealloc(block, layout) };
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.get() {
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(block, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`; returns its result and how many allocations it made.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Relaxed);
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    (result, ALLOCATIONS.load(Relaxed) - before)
}

/// What a call may allocate for its result (a prefill's one raw output
/// matrix and its weights, a step's one raw row) with room for a trace
/// buffer growing under `SALO_TRACE=1` — and nothing that scales with ops.
const RESULT_BLOCKS: usize = 8;

#[test]
fn a_warm_executor_allocates_nothing_per_op() {
    let sim = SpatialAccelerator::default_instance();

    // Longformer-2048 on the default array (18 100 ops of at most 32 keys),
    // then dense causal attention on an array one row of which spans the
    // sequence (2 048 ops, the last of 2 048 keys — and whichever slot of
    // a group a long op lands in has to hold it), through one scratch.
    let wide = SpatialAccelerator::new(AcceleratorConfig {
        hw: HardwareMeta::new(2, 2048, 1, 1).expect("geometry"),
        ..Default::default()
    });
    let dense = HybridPattern::builder(2048).window(Window::causal(2048).expect("window")).build();
    let qkv = Qkv::random(2048, 64, 11);
    let scale = SpatialAccelerator::default_scale(64);
    let mut scratch = ExecScratch::new();
    for (sim, pattern, ops, longest) in
        [(&sim, longformer(2048, 256, 1), 18_100, 32), (&wide, dense, 2048, 2048)]
    {
        let plan = ExecutionPlan::build(&pattern.expect("pattern"), sim.config().hw).expect("plan");
        let lowered = LoweredPlan::lower(&plan);
        assert_eq!((lowered.ops().len(), lowered.max_row_keys()), (ops, longest));
        let mut prefill = || {
            sim.execute_lowered(&lowered, &qkv.q, &qkv.k, &qkv.v, scale, &mut scratch)
                .expect("prefill")
        };
        let cold = prefill();
        let (warm, allocations) = measured(&mut prefill);
        assert_eq!(warm.raw, cold.raw);
        assert!(allocations <= RESULT_BLOCKS, "{ops} warm ops made {allocations} allocations");
    }

    // A w = 1024 sink-window step: 33 ops, five groups, on the same
    // scratch (so its buffers have also seen another shape).
    let pattern = HybridPattern::builder(2048)
        .window(Window::causal(1024).expect("window"))
        .global_token(0)
        .build()
        .expect("pattern");
    let plan = ExecutionPlan::build(&pattern, sim.config().hw).expect("plan");
    let decode = DecodePlan::lower(&plan, &LoweredPlan::lower(&plan)).expect("decode plan");
    let mut pool = KvPagePool::default();
    let mut state = DecodeState::new(&decode, 64);
    let mut advance = |t: usize, compute: bool| {
        let (q, k, v) = (qkv.q.row(t), qkv.k.row(t), qkv.v.row(t));
        if compute {
            sim.execute_step(&decode, &mut state, q, k, v, scale, &mut pool, &mut scratch)
                .expect("step");
        } else {
            sim.prime_token(&decode, &mut state, q, k, v, scale, &mut pool, &mut scratch)
                .expect("prime");
        }
    };
    (0..1100).for_each(|t| advance(t, false));
    advance(1100, true);
    // Not the first row of a page (1101 = 4 * 256 + 77): opening one is the
    // pool's business. But a run of the step crosses a page end — its keys
    // 78..=1101 span five pages — so the executor walks that run a page at
    // a time, and allocates nothing for it either.
    const { assert!(!1101usize.is_multiple_of(DEFAULT_PAGE_ROWS)) };
    assert!(decode.step_ops(1101).len() > 32);
    let page = |key: u32| key as usize / DEFAULT_PAGE_ROWS;
    let crosses = |op: LoweredOp| {
        let keys = decode.op_keys(&op).iter();
        keys.clone().min().map(page) != keys.max().map(page)
    };
    assert!(decode.step_ops(1101).any(crosses), "no run of step 1101 crosses a page");
    let ((), allocations) = measured(|| advance(1101, true));
    assert!(allocations <= RESULT_BLOCKS, "a warm w=1024 step made {allocations} allocations");
}
