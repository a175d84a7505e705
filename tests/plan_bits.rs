//! Plan identity: every stage of the compile chain produces the same output,
//! field for field, as the recorded one.
//!
//! For each case the test hashes (FNV-1a, 64-bit) the `Debug` rendering of
//! the normalised residual (`SupportRuns`), the `ExecutionPlan` and the
//! `LoweredPlan`, and, for the pattern's causal clip, the same three plus
//! the `DecodePlan`. The cases are every preset family, BigBird at
//! n = 512 over sixteen seeds and fixed seeds of the term-IR generator
//! (`tests/term_ir`), each on the default 32×32 array and on an 8×8 array
//! with one global unit. `tests/golden/plan_bits.txt` holds the digests as
//! they were before the compile chain was rewritten to O(terms + ops);
//! they are never re-recorded. A moved digest names the case and the stage
//! whose output moved.

mod term_ir;

use std::fmt::{self, Debug, Write as _};

use proptest::prelude::*;
use salo::kernels::Qkv;
use salo::patterns::{
    bigbird, grid_2d, longformer, sliding_only, sparse_transformer, star_transformer,
    strided_fixed, vil_stage, BlockLayout, HybridPattern, PatternError, PatternTerm, SupportRuns,
    Window,
};
use salo::scheduler::{ExecutionPlan, HardwareMeta};
use salo::serve::SessionRequest;
use salo::sim::{DecodePlan, LoweredPlan};
use term_ir::{arb_raw_term, build_term};

const GOLDEN: &str = include_str!("golden/plan_bits.txt");

/// FNV-1a over whatever is written into it.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// The digest of `value`'s `Debug` rendering, streamed (never a `String`).
fn digest(value: &impl Debug) -> String {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing cannot fail");
    format!("{:016x}", h.0)
}

/// The stage digests of one pattern on one array: residual, plan, lowered
/// and (`decode`) the decode program. A stage that refuses records its
/// error's digest and ends the list.
fn stages(pattern: &HybridPattern, hw: HardwareMeta, decode: bool) -> String {
    let mut out = digest(pattern.residual());
    let plan = match ExecutionPlan::build(pattern, hw) {
        Ok(plan) => plan,
        Err(e) => return format!("{out} err {}", digest(&e)),
    };
    let lowered = LoweredPlan::lower(&plan);
    write!(out, " {} {}", digest(&plan), digest(&lowered)).expect("string");
    if decode {
        let program = DecodePlan::lower(&plan, &lowered);
        write!(out, " {}", program.map_or_else(|e| format!("err {}", digest(&e)), |p| digest(&p)))
            .expect("string");
    }
    out
}

fn sink_window(n: usize, w: usize) -> Result<HybridPattern, PatternError> {
    HybridPattern::builder(n).window(Window::causal(w)?).global_token(0).build()
}

/// Every case, labelled: preset families, BigBird over seeds, then the
/// term-IR generator at fixed seeds. A pattern that does not build is a
/// case too (its error is what is pinned).
fn cases() -> Vec<(String, Result<HybridPattern, PatternError>)> {
    let support = {
        let mut rows: Vec<Vec<u32>> =
            (0..96u32).map(|i| vec![(i * 7) % 96, (i * 13 + 5) % 96]).collect();
        SupportRuns::from_rows(96, &mut rows)
    };
    let mixed = HybridPattern::from_terms(
        96,
        vec![
            PatternTerm::Window(Window::symmetric(5).expect("window")),
            PatternTerm::Global { token: 3 },
            PatternTerm::BlockSparse { block_rows: 8, layout: BlockLayout::Banded { radius: 1 } },
            PatternTerm::BlockSparse {
                block_rows: 16,
                layout: BlockLayout::Explicit(vec![(0, 5), (5, 0), (2, 2), (0, 5)]),
            },
            PatternTerm::RandomBlocks { count: 2, seed: 9 },
            PatternTerm::Support(support),
        ],
    );
    let dilated = HybridPattern::builder(50)
        .window(Window::dilated(-9, 9, 3).expect("window"))
        .window(Window::dilated(-4, 2, 2).expect("window"))
        .global_token(7)
        .build();
    let narrow = HybridPattern::builder(100)
        .window(Window::sliding(0, 3).expect("window"))
        .global_token(50)
        .build();
    let mut cases: Vec<(String, Result<HybridPattern, PatternError>)> = vec![
        ("longformer(512,64,2)".into(), longformer(512, 64, 2)),
        ("longformer(96,11,2)".into(), longformer(96, 11, 2)),
        ("sliding_only(256,33)".into(), sliding_only(256, 33)),
        ("star_transformer(100)".into(), star_transformer(100)),
        ("sparse_transformer(200,8,6)".into(), sparse_transformer(200, 8, 6)),
        ("strided_fixed(256,16)".into(), strided_fixed(256, 16)),
        ("grid_2d(12,12,5,3,1)".into(), grid_2d(12, 12, 5, 3, 1)),
        ("vil_stage(16,16,7,7,1)".into(), vil_stage(16, 16, 7, 7, 1)),
        ("bigbird(96,12,3,1,42)".into(), bigbird(96, 12, 3, 1, 42)),
        ("sink_window(300,64)".into(), sink_window(300, 64)),
        ("globals(100;0,50)".into(), HybridPattern::builder(100).global_tokens([0, 50]).build()),
        ("dilated_mix(50)".into(), dilated),
        ("narrow_window(100)".into(), narrow),
        ("residual_mix(96)".into(), mixed),
    ];
    for seed in 0..16 {
        cases.push((format!("bigbird(512,32,3,2,{seed})"), bigbird(512, 32, 3, 2, seed)));
    }
    let sizes = 8usize..40;
    let compositions = prop::collection::vec(arb_raw_term(), 1..5);
    for seed in 0..48 {
        let mut rng = proptest::rng_from_seed(seed);
        let n = sizes.sample(&mut rng);
        let terms = compositions.sample(&mut rng).into_iter().map(|raw| build_term(n, raw));
        cases
            .push((format!("term_ir(seed {seed})"), HybridPattern::from_terms(n, terms.collect())));
    }
    cases
}

/// One line per case and array: `label array full <stages> causal <stages>`.
fn lines() -> Vec<String> {
    let arrays =
        [("32x32", HardwareMeta::default()), ("8x8+1", HardwareMeta::new(8, 8, 1, 1).expect("hw"))];
    let mut out = Vec::new();
    for (label, pattern) in cases() {
        let pattern = match pattern {
            Ok(pattern) => pattern,
            Err(e) => {
                out.push(format!("{label} err {}", digest(&e)));
                continue;
            }
        };
        let causal = pattern.decode_view().map(|view| view.into_causal_pattern());
        for (name, hw) in arrays {
            let clipped = causal
                .as_ref()
                .map_or_else(|e| format!("err {}", digest(e)), |c| stages(c, hw, true));
            out.push(format!(
                "{label} {name} full {} causal {clipped}",
                stages(&pattern, hw, false)
            ));
        }
    }
    out
}

#[test]
fn every_compile_stage_matches_its_recorded_digest() {
    let got = lines();
    let want: Vec<&str> = GOLDEN.lines().collect();
    let moved: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != *w)
        .map(|(g, w)| format!("\n  want {w}\n  got  {g}"))
        .collect();
    assert!(moved.is_empty(), "{} of {} cases moved:{}", moved.len(), want.len(), moved.concat());
    assert_eq!(got.len(), want.len(), "case count");
}

/// The serving front door never builds the causal clip: it takes the first
/// decodable step to be the one after the last global, since the clip keeps
/// every global. On every case whose clip exists, that is the decode view's
/// `min_step`, and `SessionRequest::validate` draws its line there: a
/// prompt of `min_step` rows passes, one row fewer does not.
#[test]
fn the_front_doors_first_decodable_step_is_the_decode_views() {
    let mut checked = 0;
    for (label, pattern) in cases() {
        let Some(view) = pattern.as_ref().ok().and_then(|p| p.decode_view().ok()) else {
            continue;
        };
        let pattern = pattern.expect("built");
        let min_step = view.min_step();
        assert_eq!(pattern.globals().last().map_or(0, |&g| g + 1), min_step, "{label}");
        let open = |rows: usize| {
            let prompt = vec![Qkv::random(rows, 1, 0)];
            SessionRequest { pattern: pattern.clone(), head_dim: 1, num_heads: 1, prompt }
                .validate()
        };
        if min_step < pattern.n() {
            assert!(open(min_step).is_ok(), "{label}: a prompt of {min_step} rows");
        }
        if min_step > 0 {
            assert!(open(min_step - 1).is_err(), "{label}: a prompt of {} rows", min_step - 1);
        }
        checked += 1;
    }
    assert!(checked >= 70, "only {checked} cases have a causal clip");
}
