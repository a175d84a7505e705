//! Integration of the scheduler with the simulator: coverage audits,
//! window-splitting equivalence, the reordering path, and the simulator
//! against the exact `f32` reference.

use salo::fixed::{merge_partials, Fix16x8, PartialRow, RecipUnit};
use salo::kernels::{
    fixed_sparse_attention, on_grid_attention, sparse_attention, FixedAttention, Qkv, ON_GRID_BOUND,
};
use salo::patterns::{longformer, sliding_only, sparse_transformer, HybridPattern, Window};
use salo::scheduler::{verify_coverage, ExecutionPlan, HardwareMeta, Permutation};
use salo::sim::{AcceleratorConfig, SpatialAccelerator};

#[test]
fn paper_workload_plans_are_exact_at_scale() {
    // Mid-size instances of each Table 2 family, full coverage audit.
    let hw = HardwareMeta::default();
    for pattern in
        [longformer(512, 64, 1).unwrap(), salo::patterns::grid_2d(16, 16, 5, 5, 1).unwrap()]
    {
        let plan = ExecutionPlan::build(&pattern, hw).unwrap();
        let report = verify_coverage(&plan, &pattern);
        assert!(report.is_exact(), "coverage: {:?}", report.missing.first());
    }
}

#[test]
fn window_split_count_matches_hand_formula() {
    // n=512, w=64 on a 32x32 array: 16 tiles x 2 chunks = 32 candidate
    // passes; boundary clipping keeps all active (window spans sequence).
    let pattern = sliding_only(512, 64).unwrap();
    let plan = ExecutionPlan::build(&pattern, HardwareMeta::default()).unwrap();
    assert_eq!(plan.passes().len(), 32);
}

#[test]
fn splitting_is_invisible_in_the_output() {
    // The same rows computed with one chunk vs many chunks agree to merge
    // rounding: Eq. 2 renormalization at the fixed-point level.
    let n = 64;
    let d = 8;
    let pattern = sliding_only(n, 33).unwrap();
    let qkv = Qkv::random(n, d, 5);
    let scale = 1.0 / (d as f32).sqrt();

    let run = |cols: usize| {
        let config = AcceleratorConfig {
            hw: HardwareMeta::new(8, cols, 0, 0).unwrap(),
            ..Default::default()
        };
        let sim = SpatialAccelerator::new(config);
        let plan = ExecutionPlan::build(&pattern, sim.config().hw).unwrap();
        sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).unwrap()
    };
    let wide = run(64); // whole window in one pass
    let narrow = run(8); // five chunks per row
    let diff = wide.raw.map(Fix16x8::to_f32).max_abs_diff(&narrow.raw.map(Fix16x8::to_f32));
    assert!(diff < 0.05, "split sensitivity {diff}");
    // Total softmax weights agree (sum of exponentials is split-invariant).
    for (a, b) in wide.weights_q16.iter().zip(&narrow.weights_q16) {
        let rel = (*a as f64 - *b as f64).abs() / (*a as f64).max(1.0);
        assert!(rel < 0.02, "weight mismatch {a} vs {b}");
    }
}

#[test]
fn reordering_equals_logical_dilated_execution() {
    // Physically reordering Q/K/V with the dilation permutation and
    // running a *sliding* window equals running the dilated window
    // logically — the §4.2 equivalence, on real data.
    let n = 48;
    let d = 8;
    let dil = 3;
    // Dilated window: offsets {-6, -3, 0, 3, 6}.
    let dilated =
        HybridPattern::builder(n).window(Window::dilated(-6, 6, dil).unwrap()).build().unwrap();
    let qkv = Qkv::random(n, d, 21);
    let dp = FixedAttention::new(d);
    let direct = fixed_sparse_attention(&dilated, &qkv.q, &qkv.k, &qkv.v, &dp).unwrap();

    // Reordered execution: group tokens by residue class.
    let perm = Permutation::dilation_grouping(n, dil);
    let permute = |m: &salo::kernels::Matrix<f32>| m.permute_rows(perm.forward());
    let (qp, kp, vp) = (permute(&qkv.q), permute(&qkv.k), permute(&qkv.v));
    // In reordered space, same-class neighbours sit adjacent: the dilated
    // window becomes sliding offsets {-2..2}, but only within a class.
    // Class boundaries are where the sliding approximation would leak, so
    // restrict to interior rows when comparing.
    let sliding = sliding_only(n, 5).unwrap();
    let reordered = fixed_sparse_attention(&sliding, &qp, &kp, &vp, &dp).unwrap();
    let back = Permutation::from_forward(perm.inverse().forward().to_vec());
    let restored = reordered.to_f32().permute_rows(back.forward());

    let class_len = n / dil;
    let mut checked = 0;
    for i in 0..n {
        let class_pos = perm.inverse().forward()[i] % class_len;
        // Interior of its class: the sliding window stays inside the class.
        if class_pos >= 2 && class_pos + 2 < class_len {
            for c in 0..d {
                let diff = (restored.get(i, c) - direct.to_f32().get(i, c)).abs();
                assert!(diff < 0.05, "row {i} col {c}: {diff}");
            }
            checked += 1;
        }
    }
    assert!(checked > n / 2, "checked {checked} interior rows");
}

/// The simulator on a `rows x cols` array with one global row and column.
fn accel(rows: usize, cols: usize) -> SpatialAccelerator {
    let config = AcceleratorConfig {
        hw: HardwareMeta::new(rows, cols, 1, 1).unwrap(),
        ..Default::default()
    };
    SpatialAccelerator::new(config)
}

#[test]
fn bit_exact_against_golden_when_unsplit() {
    // No globals, window fits one chunk, tile holds each row once:
    // every row is one part, so simulator == golden kernel, bit for bit.
    let n = 24;
    let d = 8;
    let pattern = sliding_only(n, 7).unwrap();
    let qkv = Qkv::random(n, d, 42);
    let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(8, 8, 0, 0).unwrap()).unwrap();
    let sim = accel(8, 8);
    let scale = SpatialAccelerator::default_scale(d);
    let out = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    let golden =
        fixed_sparse_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, &FixedAttention::new(d)).unwrap();
    assert_eq!(out.raw, golden.out, "bit-exact equivalence");
    assert_eq!(out.weights_q16, golden.weights_q16);
}

#[test]
fn close_to_golden_under_window_splitting() {
    // Window wider than the array: rows split into parts and merge in
    // the WSM; agreement is within merge rounding.
    let n = 40;
    let d = 8;
    let pattern = sliding_only(n, 21).unwrap();
    let qkv = Qkv::random(n, d, 7);
    let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(8, 8, 0, 0).unwrap()).unwrap();
    let sim = accel(8, 8);
    let scale = SpatialAccelerator::default_scale(d);
    let out = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    let golden =
        fixed_sparse_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, &FixedAttention::new(d)).unwrap();
    let diff = out.raw.map(Fix16x8::to_f32).max_abs_diff(&golden.to_f32());
    assert!(diff < 0.05, "split-vs-monolithic diff {diff}");
}

#[test]
fn matches_f32_reference_with_globals() {
    let n = 32;
    let d = 8;
    let pattern = longformer(n, 9, 2).unwrap();
    let qkv = Qkv::random(n, d, 11);
    let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(8, 8, 1, 1).unwrap()).unwrap();
    let sim = accel(8, 8);
    let scale = SpatialAccelerator::default_scale(d);
    let out = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    let exact = sparse_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    let output = out.raw.map(Fix16x8::to_f32);
    let diff = output.max_abs_diff(&exact);
    assert!(diff < 0.3, "diff vs f32 reference {diff}");
    let on_grid = on_grid_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    let diff = output.max_abs_diff(&on_grid);
    assert!(diff < ON_GRID_BOUND, "diff vs on-grid reference {diff}");
    assert_eq!(out.report.saturation_events, 0);
}

#[test]
fn dilated_pattern_executes_correctly() {
    let n = 36;
    let d = 4;
    let pattern = HybridPattern::builder(n)
        .window(Window::dilated(-9, 9, 3).unwrap())
        .global_token(0)
        .build()
        .unwrap();
    let qkv = Qkv::random(n, d, 23);
    let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(4, 4, 1, 1).unwrap()).unwrap();
    let sim = accel(4, 4);
    let scale = SpatialAccelerator::default_scale(d);
    let out = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    let exact = sparse_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    let output = out.raw.map(Fix16x8::to_f32);
    assert!(output.max_abs_diff(&exact) < 0.3);
    let on_grid = on_grid_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    assert!(output.max_abs_diff(&on_grid) < ON_GRID_BOUND);
}

#[test]
fn strided_preset_end_to_end() {
    let n = 30;
    let d = 6;
    let pattern = sparse_transformer(n, 3, 4).unwrap();
    let qkv = Qkv::random(n, d, 5);
    let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(6, 6, 1, 1).unwrap()).unwrap();
    let sim = accel(6, 6);
    let scale = SpatialAccelerator::default_scale(d);
    let out = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    let exact = sparse_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    let output = out.raw.map(Fix16x8::to_f32);
    assert!(output.max_abs_diff(&exact) < 0.3);
    let on_grid = on_grid_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, scale).unwrap();
    assert!(output.max_abs_diff(&on_grid) < ON_GRID_BOUND);
}

mod simulator_vs_reference {
    //! The simulator tracks the exact `f32` reference within the
    //! quantization budget on random patterns, data and array geometries.

    use proptest::prelude::*;
    use salo::fixed::Fix16x8;
    use salo::kernels::{on_grid_attention, sparse_attention, Qkv, ON_GRID_BOUND};
    use salo::patterns::{HybridPattern, Window};
    use salo::scheduler::{ExecutionPlan, HardwareMeta};
    use salo::sim::{AcceleratorConfig, SpatialAccelerator};

    fn arb_pattern() -> impl Strategy<Value = HybridPattern> {
        (12usize..40, -6i64..0, 1usize..8, 1usize..4, prop::collection::vec(0usize..12, 0..3))
            .prop_filter_map("valid pattern", |(n, lo, width, dil, globals)| {
                let hi = lo + (width as i64) * dil as i64;
                let w = Window::dilated(lo, hi, dil).ok()?;
                HybridPattern::builder(n)
                    .window(w)
                    .global_tokens(globals.into_iter().filter(move |&g| g < n))
                    .build()
                    .ok()
            })
    }

    fn arb_hw() -> impl Strategy<Value = HardwareMeta> {
        (2usize..9, 2usize..9).prop_map(|(r, c)| HardwareMeta::new(r, c, 1, 1).expect("hw"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Functional execution tracks the exact f32 reference within the
        /// quantization budget, for random patterns/geometries/data.
        #[test]
        fn simulator_tracks_reference(pattern in arb_pattern(), hw in arb_hw(), seed in 0u64..1000) {
            let d = 8usize;
            let plan = match ExecutionPlan::build(&pattern, hw) {
                Ok(p) => p,
                Err(_) => return Ok(()), // degenerate (empty) pattern
            };
            let config = AcceleratorConfig { hw, ..Default::default() };
            let sim = SpatialAccelerator::new(config);
            let qkv = Qkv::random(pattern.n(), d, seed);
            let scale = SpatialAccelerator::default_scale(d);
            let out = sim.execute(&plan, &qkv.q, &qkv.k, &qkv.v, scale).expect("execute");
            let exact = sparse_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, scale).expect("reference");
            let output = out.raw.map(Fix16x8::to_f32);
            let diff = output.max_abs_diff(&exact);
            prop_assert!(diff < 0.4, "diff {diff}");
            let on_grid = on_grid_attention(&pattern, &qkv.q, &qkv.k, &qkv.v, scale).expect("on grid");
            let diff = output.max_abs_diff(&on_grid);
            prop_assert!(diff < ON_GRID_BOUND, "diff vs on-grid reference {diff}");
            prop_assert_eq!(out.report.saturation_events, 0);
        }
    }
}

#[test]
fn fixed_merge_matches_f64_merge() {
    // Cross-layer: the fixed-point WSM and the f64 Eq. 2 reference agree.
    let recip = RecipUnit::new(64);
    let q19 = |v: f64| (v * (1u64 << 19) as f64).round() as i64;
    let a = PartialRow { weight_q16: 3 << 16, out_q19: vec![q19(1.5), q19(-0.75)] };
    let b = PartialRow { weight_q16: 5 << 16, out_q19: vec![q19(0.5), q19(2.0)] };
    let merged = merge_partials(&a, &b, &recip).unwrap();
    let expect = |x: f64, y: f64| (3.0 * x + 5.0 * y) / 8.0;
    let out = merged.to_f64();
    assert!((out[0] - expect(1.5, 0.5)).abs() < 0.01);
    assert!((out[1] - expect(-0.75, 2.0)).abs() < 0.01);
}

mod term_ir;

mod term_coverage {
    //! Exactly-once coverage over random compositions of all five IR
    //! term families (window, global, strided, block-sparse, random
    //! blocks — plus explicit support) on a small PE array.

    pub use super::term_ir::{arb_raw_term, build_term};
    use proptest::prelude::*;
    use salo::patterns::{HybridPattern, PatternTerm};
    use salo::scheduler::{verify_coverage, ExecutionPlan, HardwareMeta};

    proptest! {
        /// Every schedulable composition plans with exactly-once coverage:
        /// each allowed (query, key) cell is computed by precisely one
        /// pass, no cell is missed, none is duplicated.
        #[test]
        fn random_term_compositions_plan_exactly_once(
            n in 8usize..40,
            raws in prop::collection::vec(arb_raw_term(), 1..5),
        ) {
            let terms: Vec<PatternTerm> =
                raws.into_iter().map(|raw| build_term(n, raw)).collect();
            let Ok(pattern) = HybridPattern::from_terms(n, terms) else {
                // All-empty composition; nothing to schedule.
                return Ok(());
            };
            let hw = HardwareMeta::new(8, 8, 1, 1).unwrap();
            let plan = ExecutionPlan::build(&pattern, hw).expect("plan");
            let report = verify_coverage(&plan, &pattern);
            prop_assert!(
                report.is_exact(),
                "missing {:?} spurious {:?}",
                report.missing.first(),
                report.spurious.first()
            );
        }
    }
}

mod lowered_program {
    //! The run-encoded program is the scheduler's walk: expanding each
    //! lowered op's keys gives, op for op, what walking the plan with
    //! `Component::key_at` gives — on every preset family and on random
    //! term compositions — and an op is a gather only when its keys are
    //! no arithmetic progression.

    use super::term_coverage::{arb_raw_term, build_term};
    use proptest::prelude::*;
    use salo::patterns::{
        bigbird, longformer, sliding_only, sparse_transformer, vil_stage, HybridPattern,
        PatternTerm, Window,
    };
    use salo::scheduler::{ExecutionPlan, HardwareMeta, SupplementalKind};
    use salo::sim::{KeySpan, LoweredOpKind, LoweredPlan};

    /// `(kind, dest, keys)` of every op the plan walk produces, in order.
    fn walk(plan: &ExecutionPlan) -> Vec<(LoweredOpKind, usize, Vec<u32>)> {
        let mut ops = Vec::new();
        for pass in plan.passes() {
            let comp = &plan.components()[pass.component];
            let chunk = &comp.offsets()[pass.chunk_start..pass.chunk_start + pass.chunk_len];
            for p in pass.tile_start..pass.tile_start + pass.tile_len {
                let qi = comp.queries()[p];
                let keys: Vec<u32> = chunk
                    .iter()
                    .filter_map(|&o| comp.key_at(p, o))
                    .filter(|&k| !plan.is_global(k))
                    .map(|k| k as u32)
                    .collect();
                if !plan.is_global(qi) && !keys.is_empty() {
                    ops.push((LoweredOpKind::Row, qi, keys));
                }
            }
            for duty in &pass.global_col {
                for &qi in &duty.fresh_queries {
                    ops.push((LoweredOpKind::SingleKey, qi as usize, vec![duty.token as u32]));
                }
            }
            for duty in pass.global_row.iter().filter(|d| !d.fresh_keys.is_empty()) {
                ops.push((LoweredOpKind::Row, duty.token, duty.fresh_keys.clone()));
            }
        }
        for sup in plan.supplemental() {
            match sup.kind {
                SupplementalKind::GlobalRow { token, start, end } if start < end => {
                    ops.push((LoweredOpKind::Row, token, (start as u32..end as u32).collect()));
                }
                SupplementalKind::GlobalRow { .. } => {}
                SupplementalKind::GlobalCol { token, start, end } => {
                    for qi in start..end {
                        ops.push((LoweredOpKind::SingleKey, qi, vec![token as u32]));
                    }
                }
            }
        }
        ops
    }

    fn is_progression(keys: &[u32]) -> bool {
        keys.windows(2).all(|w| w[1] > w[0] && w[1] - w[0] == keys[1] - keys[0])
    }

    /// Lowers `pattern` and checks the program against the walk. Returns
    /// the lowered plan for structural assertions.
    fn lowered_like_the_walk(pattern: &HybridPattern, hw: HardwareMeta) -> LoweredPlan {
        let plan = ExecutionPlan::build(pattern, hw).expect("plan");
        let low = LoweredPlan::lower(&plan);
        let want = walk(&plan);
        assert_eq!(low.ops().len(), want.len(), "op count");
        let (mut run_keys, mut next_gather) = (0u64, 0u32);
        for (i, (op, (kind, dest, keys))) in low.ops().iter().zip(&want).enumerate() {
            let got: Vec<u32> = low.op_keys(op).iter().collect();
            assert_eq!((op.kind, op.dest as usize, &got), (*kind, *dest, keys), "op {i}");
            assert_eq!(op.key_len as usize, keys.len(), "op {i}: key_len");
            match op.keys {
                KeySpan::Run { .. } => run_keys += u64::from(op.key_len),
                KeySpan::Gather { start } => {
                    // The arena holds the gathers back to back and nothing
                    // that could have been a run.
                    assert_eq!(start, next_gather, "op {i}: arena order");
                    next_gather += op.key_len;
                    assert!(!is_progression(keys), "op {i}: run-shaped keys {keys:?} listed");
                }
            }
        }
        assert_eq!(next_gather as usize, low.gather_keys().len(), "arena fully used");
        let stats = plan.stats();
        assert_eq!(low.stats(), &stats);
        assert_eq!(
            run_keys + low.gather_keys().len() as u64,
            stats.active_cells + stats.global_col_scores + stats.global_row_scores,
            "every score is one run key or one gather key"
        );
        low
    }

    fn gather_ops(low: &LoweredPlan) -> usize {
        low.ops().iter().filter(|op| matches!(op.keys, KeySpan::Gather { .. })).count()
    }

    fn sink_window(n: usize, w: usize) -> HybridPattern {
        let window = Window::causal(w).expect("window");
        HybridPattern::builder(n).window(window).global_token(0).build().expect("pattern")
    }

    #[test]
    fn every_preset_family_lowers_to_the_walk() {
        let small = HardwareMeta::new(8, 8, 1, 1).expect("hw");
        let no_globals = HardwareMeta::new(8, 8, 0, 0).expect("hw");
        let dilated = |lo, hi, d| Window::dilated(lo, hi, d).expect("window");
        let patterns = [
            (longformer(96, 11, 2).expect("pattern"), small),
            (vil_stage(8, 8, 3, 3, 1).expect("pattern"), small),
            (bigbird(64, 8, 2, 1, 7).expect("pattern"), small),
            (sparse_transformer(60, 4, 5).expect("pattern"), small),
            (sliding_only(48, 7).expect("pattern"), no_globals),
            (HybridPattern::builder(40).global_token(3).build().expect("pattern"), small),
            (sink_window(80, 24), small),
            (sink_window(64, 5).decode_view().expect("causal").into_causal_pattern(), small),
            (
                HybridPattern::builder(50)
                    .window(dilated(-9, 9, 3))
                    .window(dilated(-4, 2, 2))
                    .global_token(7)
                    .build()
                    .expect("pattern"),
                small,
            ),
        ];
        for (pattern, hw) in &patterns {
            lowered_like_the_walk(pattern, *hw);
        }
    }

    #[test]
    fn lowered_program_pins_window_patterns_to_an_empty_gather_arena() {
        // The two served window shapes are runs throughout: this is the
        // guard against a per-key arena coming back.
        let hw = HardwareMeta::default();
        for pattern in [sink_window(8192, 1024), longformer(2048, 256, 1).expect("pattern")] {
            let low = LoweredPlan::lower(&ExecutionPlan::build(&pattern, hw).expect("plan"));
            assert!(low.gather_keys().is_empty(), "n = {}", pattern.n());
            assert_eq!(gather_ops(&low), 0);
        }
    }

    #[test]
    fn lowered_program_pins_both_kinds_in_one_plan() {
        // ViL's 2-D window chunks are not consecutive and BigBird's random
        // blocks are row-support gathers; both also have run-shaped ops.
        let hw = HardwareMeta::default();
        for pattern in [vil_stage(56, 56, 15, 15, 1), bigbird(512, 32, 3, 2, 7)] {
            let low = lowered_like_the_walk(&pattern.expect("pattern"), hw);
            let gathers = gather_ops(&low);
            assert!(gathers > 0 && gathers < low.ops().len(), "{gathers} gather ops");
        }
    }

    #[test]
    fn a_global_strictly_inside_a_row_span_lists_exactly_those_rows() {
        // Radius 4 on an 8-wide array: a row's 8-key chunk holds global
        // token 20 strictly inside for the rows whose chunk covers keys
        // 19..=21; every other row (20 at an end of its span, or outside
        // it) stays a run.
        let pattern = HybridPattern::builder(48)
            .window(Window::sliding(-4, 3).expect("window"))
            .global_token(20)
            .build()
            .expect("pattern");
        let low = lowered_like_the_walk(&pattern, HardwareMeta::new(8, 8, 1, 1).expect("hw"));
        let listed: Vec<u32> = low
            .ops()
            .iter()
            .filter(|op| matches!(op.keys, KeySpan::Gather { .. }))
            .map(|op| op.dest)
            .collect();
        // Row i reads i-4..=i+3: 20 is strictly inside for 18 <= i <= 23,
        // row 20 is the global row itself (no window op).
        assert_eq!(listed, [18, 19, 21, 22, 23]);
    }

    proptest! {
        #[test]
        fn random_term_compositions_lower_to_the_walk(
            n in 8usize..40,
            raws in prop::collection::vec(arb_raw_term(), 1..5),
            cols in 2usize..9,
        ) {
            let terms: Vec<PatternTerm> =
                raws.into_iter().map(|raw| build_term(n, raw)).collect();
            let Ok(pattern) = HybridPattern::from_terms(n, terms) else {
                return Ok(());
            };
            lowered_like_the_walk(&pattern, HardwareMeta::new(4, cols, 1, 1).expect("hw"));
        }
    }
}

#[test]
fn supplemental_passes_fill_global_gaps() {
    // A window too narrow to stream all keys past the global row: the
    // scheduler must emit supplemental passes and stay exact.
    let pattern = HybridPattern::builder(100)
        .window(Window::sliding(0, 3).unwrap())
        .global_token(50)
        .build()
        .unwrap();
    let plan = ExecutionPlan::build(&pattern, HardwareMeta::new(4, 4, 1, 1).unwrap()).unwrap();
    let report = verify_coverage(&plan, &pattern);
    assert!(report.is_exact());
}
