//! End-to-end integration: pattern -> scheduler -> simulator vs the exact
//! reference kernels, across every preset pattern family.

use std::sync::Arc;

use salo::core::{AttentionRequest, Engine, PatternHandle, ReferenceEngine, Salo};
use salo::kernels::{on_grid_attention, sparse_attention, Matrix, Qkv, ON_GRID_BOUND};
use salo::patterns::{
    bigbird, grid_2d, longformer, sparse_transformer, star_transformer, AttentionShape, DenseMask,
    FitConfig, HybridPattern, Window,
};
use salo::scheduler::HardwareMeta;
use salo::sim::AcceleratorConfig;

fn small_salo() -> Salo {
    let config =
        AcceleratorConfig { hw: HardwareMeta::new(8, 8, 1, 1).unwrap(), ..Default::default() };
    Salo::new(config)
}

/// [`on_grid_attention`] on one head at the engine's scale.
fn on_grid(pattern: &HybridPattern, head: &Qkv) -> Matrix<f32> {
    let scale = 1.0 / (head.head_dim() as f32).sqrt();
    on_grid_attention(pattern, &head.q, &head.k, &head.v, scale).expect("on grid")
}

fn check_pattern(pattern: &HybridPattern, d: usize, seed: u64, tolerance: f32) {
    let salo = small_salo();
    let shape = AttentionShape::new(pattern.n(), d, 1).unwrap();
    let mut engine = salo.engine();
    let handle = engine.prepare(pattern, &shape).expect("compile");
    let head = Qkv::random(pattern.n(), d, seed);
    let out = engine
        .execute(AttentionRequest::Prefill { pattern: handle, shape, heads: vec![head.clone()] })
        .expect("execute")
        .into_prefill()
        .expect("prefill response");
    let scale = 1.0 / (d as f32).sqrt();
    let exact = sparse_attention(pattern, &head.q, &head.k, &head.v, scale).expect("reference");
    let diff = out.heads[0].output.max_abs_diff(&exact);
    assert!(diff < tolerance, "diff {diff} over tolerance {tolerance}");
    let on_grid = on_grid_attention(pattern, &head.q, &head.k, &head.v, scale).expect("on grid");
    let diff = out.heads[0].output.max_abs_diff(&on_grid);
    assert!(diff < ON_GRID_BOUND, "diff vs on-grid reference {diff}");
    assert_eq!(out.telemetry.saturation_events, 0, "no saturation on unit-normal inputs");
}

#[test]
fn longformer_preset_end_to_end() {
    check_pattern(&longformer(96, 16, 1).unwrap(), 16, 11, 0.35);
}

#[test]
fn star_transformer_preset_end_to_end() {
    check_pattern(&star_transformer(80).unwrap(), 8, 12, 0.35);
}

#[test]
fn sparse_transformer_preset_end_to_end() {
    check_pattern(&sparse_transformer(72, 6, 5).unwrap(), 8, 13, 0.35);
}

#[test]
fn vil_grid_preset_end_to_end() {
    check_pattern(&grid_2d(10, 10, 3, 3, 1).unwrap(), 8, 14, 0.35);
}

#[test]
fn dilated_plus_global_end_to_end() {
    let p = HybridPattern::builder(64)
        .window(Window::dilated(-16, 16, 4).unwrap())
        .window(Window::symmetric(5).unwrap())
        .global_tokens([0, 31])
        .build()
        .unwrap();
    check_pattern(&p, 8, 15, 0.35);
}

#[test]
fn multi_head_layer_matches_reference() {
    let salo = small_salo();
    let pattern = longformer(64, 9, 1).unwrap();
    let shape = AttentionShape::new(64, 8, 4).unwrap();
    let mut engine = salo.engine();
    let handle = engine.prepare(&pattern, &shape).unwrap();
    let heads = Qkv::random_heads(&shape, 33);
    let request = AttentionRequest::Prefill { pattern: handle, shape, heads: heads.clone() };
    let run = engine.execute(request.clone()).unwrap().into_prefill().unwrap();
    let reference = ReferenceEngine::new().execute(request).unwrap().into_prefill().unwrap();
    for (h, (ours, exact)) in run.heads.iter().zip(&reference.heads).enumerate() {
        let diff = ours.output.max_abs_diff(&exact.output);
        assert!(diff < 0.35, "head {h} diff {diff}");
        let diff = ours.output.max_abs_diff(&on_grid(&pattern, &heads[h]));
        assert!(diff < ON_GRID_BOUND, "head {h} diff vs on-grid reference {diff}");
    }
    // Layer latency = sum of head latencies; energy likewise.
    let per_head: f64 = run.heads.iter().map(|h| h.report.as_ref().unwrap().timing.time_s).sum();
    assert!((run.telemetry.sim_time_s.unwrap() - per_head).abs() < 1e-12);
}

#[test]
fn end_to_end_matches_reference() {
    let salo = small_salo();
    let pattern = longformer(48, 9, 1).unwrap();
    let shape = AttentionShape::new(48, 8, 2).unwrap();
    let compiled = Arc::new(salo.compile(&pattern, &shape).unwrap());
    let heads = Qkv::random_heads(&shape, 77);
    let mut engine = salo.engine();
    let run = engine
        .execute(AttentionRequest::Prefill {
            pattern: PatternHandle::from_plan(Arc::clone(&compiled)),
            shape,
            heads: heads.clone(),
        })
        .unwrap()
        .into_prefill()
        .unwrap();
    assert_eq!(run.heads.len(), 2);

    let mut reference = ReferenceEngine::new();
    let handle = reference.prepare(&pattern, &shape).unwrap();
    let request = AttentionRequest::Prefill { pattern: handle, shape, heads: heads.clone() };
    let reference = reference.execute(request).unwrap().into_prefill().unwrap();
    for ((ours, exact), head) in run.heads.iter().zip(&reference.heads).zip(&heads) {
        let diff = ours.output.max_abs_diff(&exact.output);
        assert!(diff < 0.3, "head diff {diff}");
        let diff = ours.output.max_abs_diff(&on_grid(&pattern, head));
        assert!(diff < ON_GRID_BOUND, "head diff vs on-grid reference {diff}");
    }
    assert!(run.telemetry.sim_time_s.unwrap() > 0.0);
    assert!(run.telemetry.sim_energy_j.unwrap() > 0.0);
    assert_eq!(run.telemetry.engine, "lowered");
}

#[test]
fn single_head_consistency_with_sparse_reference() {
    let salo = small_salo();
    let pattern = longformer(40, 7, 2).unwrap();
    let shape = AttentionShape::new(40, 8, 1).unwrap();
    let mut engine = salo.engine();
    let handle = engine.prepare(&pattern, &shape).unwrap();
    let head = Qkv::random(40, 8, 5);
    let out = engine
        .execute(AttentionRequest::Prefill { pattern: handle, shape, heads: vec![head.clone()] })
        .unwrap()
        .into_prefill()
        .unwrap();
    let scale = 1.0 / (8f32).sqrt();
    let exact = sparse_attention(&pattern, &head.q, &head.k, &head.v, scale).unwrap();
    assert!(out.heads[0].output.max_abs_diff(&exact) < 0.3);
    let on_grid = on_grid_attention(&pattern, &head.q, &head.k, &head.v, scale).unwrap();
    assert!(out.heads[0].output.max_abs_diff(&on_grid) < ON_GRID_BOUND);
}

#[test]
fn default_instance_handles_full_scale_compile() {
    // The real Table 2 workloads compile on the default instance; only
    // estimated here (functional execution at n=4096 belongs to benches).
    let salo = Salo::default_config();
    for (pattern, d, heads) in [
        (longformer(4096, 512, 1).unwrap(), 64usize, 12usize),
        (grid_2d(56, 56, 15, 15, 1).unwrap(), 64, 3),
        (grid_2d(28, 28, 15, 15, 1).unwrap(), 64, 6),
    ] {
        let shape = AttentionShape::new(pattern.n(), d, heads).unwrap();
        let compiled = salo.compile(&pattern, &shape).unwrap();
        let supplemental = compiled.lowered.stats().supplemental_passes;
        assert_eq!(supplemental, 0, "paper workloads need no supplemental");
        let t = salo.estimate(&compiled);
        assert!(t.cycles.total > 0);
        assert!(t.utilization.mac_utilization > 0.5);
    }
}

#[test]
fn autotuned_pattern_costs_no_more_cycles_than_its_preset() {
    // `examples/autotune.rs` prints the table for these three masks.
    let salo = Salo::default_config();
    let n = 256;
    let shape = AttentionShape::new(n, 64, 1).unwrap();
    for (name, preset) in [
        ("longformer(256, 32, 2)", longformer(n, 32, 2).unwrap()),
        ("bigbird(256, 16, 2, 2, 7)", bigbird(n, 16, 2, 2, 7).unwrap()),
        ("sparse_transformer(256, 16, 4)", sparse_transformer(n, 16, 4).unwrap()),
    ] {
        let mask = DenseMask::from_pattern(&preset);
        let baseline = salo.estimate(&salo.compile(&preset, &shape).unwrap());
        let report = salo.autotune_pattern(&mask, &shape, 0.95, FitConfig::default()).unwrap();
        let tuned = salo.estimate(&salo.compile(&report.pattern, &shape).unwrap());
        assert!(
            tuned.cycles.total <= baseline.cycles.total,
            "{name}: tuned pattern must not cost more than the preset ({} vs {} cycles)",
            tuned.cycles.total,
            baseline.cycles.total
        );
    }
}

#[test]
fn outputs_are_bounded_by_value_range() {
    // Attention outputs are convex combinations of V rows: the simulator
    // must respect that up to quantization slack.
    let salo = small_salo();
    let pattern = longformer(48, 7, 1).unwrap();
    let shape = AttentionShape::new(48, 8, 1).unwrap();
    let mut engine = salo.engine();
    let handle = engine.prepare(&pattern, &shape).unwrap();
    let head = Qkv::random(48, 8, 99);
    let out = engine
        .execute(AttentionRequest::Prefill { pattern: handle, shape, heads: vec![head.clone()] })
        .unwrap()
        .into_prefill()
        .unwrap();
    let mut vmax = 0.0f32;
    for i in 0..48 {
        for &x in head.v.row(i) {
            vmax = vmax.max(x.abs());
        }
    }
    for i in 0..48 {
        for &o in out.heads[0].output.row(i) {
            assert!(o.abs() <= vmax + 0.1, "output {o} exceeds value range {vmax}");
        }
    }
}
