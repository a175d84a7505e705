//! What a compiled plan keeps resident. A lowered op names its keys as a
//! run wherever they are an arithmetic progression, so a window plan is
//! O(ops) — these bounds are the guard against a per-key arena (30 MiB at
//! the `decode_long` shape, three copies of it per benchmark process)
//! coming back. A decode program keeps each distinct row program once and
//! which one every position runs, so what it holds on its own is O(rows),
//! not O(ops) — the last two bounds. CI runs them in release with the rest
//! of the workspace.

use salo::core::Salo;
use salo::patterns::{vil_stage, AttentionShape, HybridPattern, Window};

const MIB: usize = 1 << 20;

fn sink_window(n: usize, w: usize) -> HybridPattern {
    let window = Window::causal(w).expect("window");
    HybridPattern::builder(n).window(window).global_token(0).build().expect("pattern")
}

/// Bytes resident after compiling `pattern` and, if `decode`, lowering its
/// decode program.
fn resident_bytes(pattern: &HybridPattern, decode: bool) -> usize {
    let shape = AttentionShape::new(pattern.n(), 1, 1).expect("shape");
    let compiled = Salo::default().compile(pattern, &shape).expect("compile");
    let prefill_only = compiled.resident_bytes();
    if decode {
        let program = compiled.decode_plan().expect("causal plan");
        let grown = compiled.resident_bytes();
        assert_eq!(grown - prefill_only, program.resident_bytes(), "the decode program's share");
    }
    compiled.resident_bytes()
}

#[test]
fn a_decode_plan_at_the_long_context_shape_stays_under_12_mib() {
    // 39.2 MiB with one u32 per (row, key) pair, 30.1 of it the key arena.
    let bytes = resident_bytes(&sink_window(8192, 1024), true);
    assert!(bytes <= 12 * MIB, "{:.1} MiB", bytes as f64 / MIB as f64);
}

#[test]
fn a_decode_plan_at_the_fanout_shape_stays_under_16_mib() {
    // 25.8 MiB before, 13.0 of it the key arena.
    let bytes = resident_bytes(&sink_window(100_000, 32), true);
    assert!(bytes <= 16 * MIB, "{:.1} MiB", bytes as f64 / MIB as f64);
}

#[test]
fn a_gather_plan_costs_what_it_did() {
    // ViL's 2-D window is a real gather (20 829 of its 27 071 ops, 2.5 MiB
    // of keys): its plan was 3.25 MiB on the heap with the per-key arena
    // and stays within 5 % of that.
    let before = 3.25 * MIB as f64;
    let bytes = resident_bytes(&vil_stage(56, 56, 15, 15, 1).expect("pattern"), false) as f64;
    assert!((bytes - before).abs() <= 0.05 * before, "{:.2} MiB", bytes / MIB as f64);
}

/// Bytes the decode program of `pattern` keeps on its own — what a
/// serving runtime caches for a decode session once the compile it was
/// lowered from is dropped.
fn program_bytes(pattern: &HybridPattern) -> usize {
    let shape = AttentionShape::new(pattern.n(), 1, 1).expect("shape");
    let compiled = Salo::default().compile(pattern, &shape).expect("compile");
    compiled.decode_plan().expect("causal plan").resident_bytes()
}

#[test]
fn a_decode_program_at_the_long_context_shape_stays_under_half_a_mib() {
    // 6.9 MiB held per cached decode plan when the program indexed the
    // lowered op list (254 431 step ops): one row program of 33 ops now
    // serves every step row.
    let bytes = program_bytes(&sink_window(8192, 1024));
    assert!(bytes <= MIB / 2, "{:.2} MiB", bytes as f64 / MIB as f64);
}

#[test]
fn a_decode_program_at_the_fanout_shape_stays_under_2_mib() {
    // Which program each of the 100 000 positions runs, and the horizon
    // table, are four bytes a position each; the row program is 2 ops.
    let bytes = program_bytes(&sink_window(100_000, 32));
    assert!(bytes <= 2 * MIB, "{:.2} MiB", bytes as f64 / MIB as f64);
}
