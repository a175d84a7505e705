//! Heap accounting for opening a decode session from `f32` rows through
//! `Engine::execute`: the prompt arrives as `f32` heads, and each head is
//! dropped as soon as it is quantized, so none of it is held through the
//! compile and the prime. At its peak the open holds the quantized prompt,
//! the step program and the pages — nothing more, and no `f32` prompt.
//!
//! Its own binary, one test: the counting allocator is the process's
//! global allocator. It counts only the calls made on the thread that armed
//! the section being measured, so libtest's main thread, which may allocate
//! while the test runs, is not charged to it. The open runs on the test's
//! own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

use salo_core::{AttentionRequest, Engine, PatternHandle, Salo};
use salo_kernels::Qkv;
use salo_patterns::{AttentionShape, HybridPattern, Window};
use salo_sim::DEFAULT_PAGE_ROWS;

/// Bytes the armed section allocated less the bytes it freed. It frees the
/// `f32` prompt, which was allocated before it, so this falls below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has been since [`peak_of`] last reset it.
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Whether this thread is running a measured section. `const`-
    /// initialised and without a destructor, so reading it from inside the
    /// allocator allocates nothing.
    static ARMED: Cell<bool> = const { Cell::new(false) };
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

/// Runs `f` with this thread's allocator calls counted; returns its result
/// and the most bytes it held at once beyond what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    (result, (PEAK.load(Relaxed) - start) as usize)
}

/// Room for what is neither prompt, program nor page: the session's table
/// and state, the scratch's op buffers, the response.
const SLACK: usize = 256 << 10;

#[test]
fn an_f32_open_peaks_below_its_quantized_prompt_program_and_pages() {
    // A sink window at n = 4 096 (the compile alone holds ~1 MiB of plan
    // and lowered ops), four heads of d = 64 and a 2 048-row prompt: 6 MiB
    // of `f32` rows, 1.5 MiB quantized.
    let (n, d, heads, rows) = (4096, 64, 4, 2048);
    let pattern = HybridPattern::builder(n)
        .window(Window::causal(256).expect("window"))
        .global_token(0)
        .build()
        .expect("pattern");
    let salo = Salo::default();
    let causal = pattern.decode_view().expect("decodable").into_causal_pattern();
    let unit = AttentionShape::new(n, 1, 1).expect("shape");
    let program = salo.compile(&causal, &unit).expect("compile").decode_plan().expect("program");

    let prompt = Qkv::random_heads(&AttentionShape::new(rows, d, heads).expect("shape"), 5);
    let quantized = heads * 3 * rows * d;
    let request = AttentionRequest::DecodeOpen {
        session: 1,
        pattern: PatternHandle::from_pattern(pattern),
        head_dim: d,
        num_heads: heads,
        prompt,
    };
    let mut engine = salo.engine();
    let (opened, peak) = peak_of(|| engine.execute(request));
    let opened = opened.expect("open").into_opened().expect("an open's answer");
    assert_eq!(opened.position, rows);

    let page = 2 * DEFAULT_PAGE_ROWS * d + 128;
    let pages = engine.kv_pool_stats().high_water * page;
    let bound = quantized + program.resident_bytes() + pages + SLACK;
    assert!(
        peak <= bound,
        "{peak} B at once: {quantized} B of quantized prompt, {} B of program, {pages} B of \
         pages",
        program.resident_bytes()
    );
}
