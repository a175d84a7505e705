//! Heap accounting for the wire codec, deterministic where RSS is not: a
//! request is never resident twice. Decoding a multi-megabyte `Open` off a
//! stream peaks at the decoded request plus small change — not the
//! request plus its frame — and an encoded frame is allocated once, at its
//! exact length — not grown by doubling from 64 bytes. At the gateway's
//! door a prefill's heads and an `Open`'s prompt are never resident as
//! `f32` at all: they are read straight into the 8-bit rows the frame
//! carries.
//!
//! Its own binary, one test: the counting allocator is the process's
//! global allocator. It counts only the calls made on the thread that armed
//! the section being measured, so libtest's main thread, which may allocate
//! while the test runs, is not charged to it. Every section here runs on
//! the test's own thread.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufReader;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

use common::on_grid;
use salo_core::FixedQkv;
use salo_gateway::wire::{
    encode_request, encode_response, read_incoming, read_request, Header, Incoming, PrefillHead,
    Request, Response,
};
use salo_kernels::{Matrix, Qkv};

/// Bytes live, their high-water mark, and the number of allocator calls
/// that handed out or moved a block. `LIVE` is what counted sections
/// allocated less what they freed; a section may free a block it did not
/// count, so it may fall below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is running a measured section. `const`-
    /// initialised and without a destructor, so reading it from inside the
    /// allocator allocates nothing.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn grew(by: usize) {
    let by = by as isize;
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters beside it touch no memory but their
// own atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as it came.
        let block = unsafe { System.alloc(layout) };
        if !block.is_null() && ARMED.get() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        block
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        // SAFETY: `block` came from `alloc`/`realloc` above, i.e. from
        // `System`, with this `layout`.
        unsafe { System.dealloc(block, layout) };
        if ARMED.get() {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
        }
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        let moved = unsafe { System.realloc(block, layout, new_size) };
        if !moved.is_null() && ARMED.get() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`; returns its result, the peak of live heap above where it
/// started, what it left live, and how many allocations it made.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let allocations = ALLOCATIONS.load(Relaxed);
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    let peak = (PEAK.load(Relaxed) - before) as usize;
    let left = usize::try_from(LIVE.load(Relaxed) - before).expect("the section freed on net");
    (result, peak, left, ALLOCATIONS.load(Relaxed) - allocations)
}

const KIB: usize = 1024;

#[test]
fn a_request_is_never_resident_twice() {
    // An `Open` with a 4.5 MiB frame: 12 heads of 2048 x 64 q, k and v, a
    // byte an element on the wire, four in `f32`.
    let (rows, dim, num_heads) = (2048, 64, 12);
    let heads = || (0..num_heads as u64).map(|h| Qkv::random(rows, dim, h));
    let open = Request::Open {
        pattern: salo_patterns::longformer(4096, 64, 1).expect("pattern"),
        head_dim: dim,
        num_heads,
        prompt: heads().collect(),
    };
    let header = Header { tenant: 1, request_id: 1 };
    let fixed_rows = num_heads * rows * dim * 3;

    // (b) Encoding: the frame is allocated at its length and never grown,
    // and it is the only allocation — the pattern's terms are lent, and
    // the rows are quantized straight into the frame.
    let (frame, peak, _, allocations) = measured(|| encode_request(header, &open));
    assert!(frame.len() >= 4096 * KIB, "a {}-byte frame is too small to tell", frame.len());
    assert_eq!(frame.capacity(), frame.len());
    assert!(peak <= frame.len() + KIB, "encoding a {}-byte frame peaked at {peak}", frame.len());
    assert_eq!(allocations, 1, "encoding the open allocated more than its frame");

    let done = Response::PrefillDone {
        heads: (0..2)
            .map(|h| PrefillHead {
                output: Matrix::from_fn(rows, dim, |i, j| (i * dim + j + h) as f32),
                raw: Matrix::from_fn(rows, dim, |i, j| (i + j + h) as i16),
                weights_q16: vec![1 << 16; rows],
            })
            .collect(),
        sim_time_s: 1.0e-3,
        sim_energy_j: 2.0e-6,
    };
    let (reply, peak, _, allocations) = measured(|| encode_response(header, &done));
    assert_eq!((reply.capacity(), peak, allocations), (reply.len(), reply.len(), 1));

    // (a) Decoding off a stream, through a buffer the size of the
    // gateway's: what is live at the peak is the request being built — its
    // `f32` rows, four bytes for each byte of the frame's — and the
    // pattern's scratch, not a copy of the frame beside it.
    let mut stream = BufReader::with_capacity(64 * KIB, frame.as_slice());
    let (read, peak, resident, _) = measured(|| read_request(&mut stream).expect("sound frame"));
    assert_eq!((read.len, read.header), (frame.len(), header));
    let f32_rows = fixed_rows * std::mem::size_of::<f32>();
    assert!(
        resident <= f32_rows + 64 * KIB,
        "the decoded request holds {resident} bytes for {f32_rows} bytes of f32 rows"
    );
    assert!(
        peak <= resident + 256 * KIB,
        "decoding peaked at {peak} bytes for a request of {resident}: the frame was resident too"
    );
    assert_eq!(read.message, Ok(on_grid(&open)), "the on-grid request");

    // (c) At the door, decoded as the gateway's reader decodes it: the
    // prompt is read straight into its quantized rows (a byte an element),
    // so what is live at the peak is those rows and small change — no
    // `f32` head, not even one.
    let door = |frame: &[u8]| {
        let mut stream = BufReader::with_capacity(64 * KIB, frame);
        let (read, peak, _, _) = measured(|| read_incoming(&mut stream).expect("sound frame"));
        assert!(
            peak <= fixed_rows + 256 * KIB,
            "decoding at the door peaked at {peak} bytes for {fixed_rows} bytes of rows"
        );
        read.message
    };
    let Ok(Incoming::Open { prompt, .. }) = door(&frame) else { panic!("not an open") };
    let quantized = heads().map(|head| FixedQkv::quantize(&head));
    assert!(prompt.into_iter().eq(quantized), "the door holds other rows than the sender's");

    // A prefill's heads, the same.
    let shape = salo_patterns::AttentionShape::new(rows, dim, num_heads).expect("shape");
    let prefill = Request::Prefill {
        pattern: salo_patterns::longformer(rows, 64, 1).expect("pattern"),
        shape,
        heads: heads().collect(),
    };
    let frame = encode_request(header, &prefill);
    let Ok(Incoming::Prefill { heads: fixed, .. }) = door(&frame) else { panic!("not a prefill") };
    let quantized = heads().map(|head| FixedQkv::quantize(&head));
    assert!(fixed.into_iter().eq(quantized), "the door holds other rows than the sender's");
}
