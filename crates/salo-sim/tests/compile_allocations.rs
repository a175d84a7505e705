//! Heap accounting for a cold compile: pattern → plan → lowered program →
//! decode program.
//!
//! `HybridPattern::from_terms` expands its residual into one arena, so the
//! blocks it asks for do not depend on `n`; `ExecutionPlan::build` and
//! `LoweredPlan::lower` allocate per component, per pass and per global
//! duty, never per row or per key. `DecodePlan::lower` reads the lowered
//! ops a destination row at a time through an index of four bytes an op,
//! dropped before it returns: at its peak it holds that index and a few
//! words a row, never a second copy of the op list, and what it keeps is
//! each distinct row program once and which one every row runs.
//!
//! Its own binary, one test: the counting allocator is the process's
//! global allocator. It counts only the calls made on the thread that armed
//! the section being measured, so libtest's main thread, which may allocate
//! while the test runs, is not charged to it. Every section here runs on
//! the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

use salo_patterns::{bigbird, HybridPattern, Window};
use salo_scheduler::{ExecutionPlan, HardwareMeta};
use salo_sim::{DecodePlan, LoweredPlan};

/// Allocator calls that handed out a fresh block.
static BLOCKS: AtomicUsize = AtomicUsize::new(0);
/// Allocator calls that resized (and maybe moved) a block.
static RESIZES: AtomicUsize = AtomicUsize::new(0);
/// Bytes counted sections allocated less the bytes they freed. A section
/// may free a block it did not count, so this may fall below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has been since [`peak_of`] last reset it.
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Whether this thread is running a measured section. `const`-
    /// initialised and without a destructor, so reading it from inside the
    /// allocator allocates nothing.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's allocator calls counted.
fn armed<T>(f: impl FnOnce() -> T) -> T {
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    result
}

/// Counts `bytes` more as live.
fn grow(bytes: usize) {
    let bytes = bytes as isize;
    PEAK.fetch_max(LIVE.fetch_add(bytes, Relaxed) + bytes, Relaxed);
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters beside it touch no memory but their
// own atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.get() {
            BLOCKS.fetch_add(1, Relaxed);
            grow(layout.size());
        }
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        if ARMED.get() {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
        }
        // SAFETY: `block` came from `alloc`/`realloc` above, i.e. from
        // `System`, with this `layout`.
        unsafe { System.dealloc(block, layout) };
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.get() {
            RESIZES.fetch_add(1, Relaxed);
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => _ = LIVE.fetch_sub((layout.size() - new_size) as isize, Relaxed),
            }
        }
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(block, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a section asked the allocator for: fresh blocks, and resizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Calls {
    blocks: usize,
    resizes: usize,
}

/// Runs `f`; returns its result and the allocator calls it made.
fn measured<T>(f: impl FnOnce() -> T) -> (T, Calls) {
    let (blocks, resizes) = (BLOCKS.load(Relaxed), RESIZES.load(Relaxed));
    let result = armed(f);
    let calls =
        Calls { blocks: BLOCKS.load(Relaxed) - blocks, resizes: RESIZES.load(Relaxed) - resizes };
    (result, calls)
}

/// Runs `f`; returns its result and the most bytes it held at once beyond
/// what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let result = armed(f);
    (result, (PEAK.load(Relaxed) - start) as usize)
}

/// Blocks `ExecutionPlan::build` asks for beyond the plan's global duties:
/// components, the pass list, the seen sets and scratch. (BigBird here
/// needs 22, at either length.)
const BUILD_BLOCKS: usize = 32;
/// Blocks `LoweredPlan::lower` asks for: the op list, the gather arena, the
/// pass bounds, the global mask. (5 here.)
const LOWER_BLOCKS: usize = 8;

#[test]
fn a_cold_compile_allocates_per_duty_not_per_row() {
    let hw = HardwareMeta::default();
    let [short, long] = [512usize, 4096].map(|n| {
        let (pattern, from_terms) = measured(|| bigbird(n, 32, 3, 2, 7).expect("pattern"));
        let (plan, build) = measured(|| ExecutionPlan::build(&pattern, hw).expect("plan"));
        let (lowered, lower) = measured(|| LoweredPlan::lower(&plan));
        // A pass's duty list and each duty's index list are one block each:
        // the plan's own data, O(passes).
        let duty_blocks: usize = plan
            .passes()
            .iter()
            .map(|p| {
                let lists =
                    usize::from(!p.global_col.is_empty()) + usize::from(!p.global_row.is_empty());
                lists + p.global_col.len() + p.global_row.len()
            })
            .sum();
        assert!(lowered.ops().len() > 4 * n, "n = {n}: a program of {} ops", lowered.ops().len());
        // Vectors grown by push resize once per doubling, so a few times
        // per doubling of n — never once per row.
        let doublings = n.ilog2() as usize;
        for (stage, calls) in [("from_terms", from_terms), ("build", build), ("lower", lower)] {
            assert!(calls.resizes <= 3 * doublings, "n = {n}: {stage} resized {calls:?}");
        }
        assert!(build.blocks - duty_blocks <= BUILD_BLOCKS, "n = {n}: build {build:?}");
        assert!(lower.blocks <= LOWER_BLOCKS, "n = {n}: lower {lower:?}");
        (from_terms, build.blocks - duty_blocks, lower)
    });
    // Eight times the rows: the same blocks for the residual's expansion
    // (its run arena grows by push: three more doublings at most) and for
    // everything the plan and program hold that is not a duty.
    assert_eq!(short.0.blocks, long.0.blocks, "from_terms: {short:?} vs {long:?}");
    assert!(long.0.resizes <= short.0.resizes + 3, "from_terms: {short:?} vs {long:?}");
    assert_eq!(short.1, long.1, "build's blocks beyond its duties");
    assert_eq!(short.2.blocks, long.2.blocks, "lower: {short:?} vs {long:?}");

    // The decode program at the `decode_long` window (w = 1024, a sink
    // token, here at n = 2 048): up to 33 ops a row, four bytes of index
    // each while it is lowered, and one 33-op row program kept for every
    // step row. A copy of the op list would be twenty bytes an op more.
    let window = Window::causal(1024).expect("window");
    let pattern = HybridPattern::builder(2048).window(window).global_token(0).build();
    let plan = ExecutionPlan::build(&pattern.expect("pattern"), hw).expect("plan");
    let lowered = LoweredPlan::lower(&plan);
    let (decode, peak) = peak_of(|| DecodePlan::lower(&plan, &lowered).expect("causal plan"));
    let (ops, rows) = (lowered.ops().len(), plan.n());
    assert!(ops > 16 * rows, "a program of {ops} ops");
    assert!(peak <= 4 * ops + 32 * rows, "{peak} B at once for {ops} ops over {rows} rows");
    assert!(decode.resident_bytes() <= peak, "{} B kept", decode.resident_bytes());
}
