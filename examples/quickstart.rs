//! Quickstart: build a hybrid sparse attention pattern, compile it, and
//! execute it through the unified engine API — once on the fast
//! fixed-point backend, once on the `f32` reference backend — then
//! compare the two.
//!
//! Run with: `cargo run --release --example quickstart`

use salo::core::{AttentionRequest, Engine, Salo};
use salo::kernels::Qkv;
use salo::patterns::{AttentionShape, HybridPattern, Window};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A Longformer-style pattern: sliding window of 64 plus one global
    //    token, over a 512-token sequence.
    let pattern =
        HybridPattern::builder(512).window(Window::symmetric(64)?).global_token(0).build()?;
    let stats = pattern.stats();
    println!(
        "pattern: n={} nnz={} density={:.4} ({}x compression vs dense)",
        pattern.n(),
        stats.nnz,
        stats.density,
        stats.compression() as u64
    );

    // 2. Compile for the default (Table 1) accelerator instance: the
    //    engine's `prepare` runs the data scheduler once and attaches the
    //    lowered plan to the returned handle.
    let salo = Salo::default_config();
    let shape = AttentionShape::new(512, 64, 1)?;
    let mut engine = salo.engine(); // the fast fixed-point backend
    let handle = engine.prepare(&pattern, &shape)?;
    let plan = handle.plan().expect("the fixed-point engine attaches the compiled plan");
    let plan_stats = plan.lowered.stats();
    println!(
        "plan: {} passes, occupancy {:.1}% (engine '{}')",
        plan_stats.passes,
        plan_stats.occupancy * 100.0,
        engine.name()
    );

    // 3. Execute one head functionally (bit-accurate fixed point): one
    //    typed request in, one typed response out.
    let head = Qkv::random(512, 64, 42);
    let request =
        AttentionRequest::Prefill { pattern: handle.clone(), shape, heads: vec![head.clone()] };
    let out = engine.execute(request.clone())?.into_prefill()?;
    let telemetry = &out.telemetry;
    println!(
        "executed: {} cycles = {:.3} us @ 1 GHz, energy {:.3} uJ",
        telemetry.sim_cycles.unwrap_or(0),
        telemetry.sim_time_s.unwrap_or(0.0) * 1e6,
        telemetry.sim_energy_j.unwrap_or(0.0) * 1e6
    );

    // 4. Run the *same request* through the `f32` reference backend and
    //    compare — backend comparison is a one-liner per engine.
    let exact = salo.reference_engine().execute(request)?.into_prefill()?;
    let diff = out.heads[0].output.max_abs_diff(&exact.heads[0].output);
    println!("max |fixed - f32| = {diff:.4} (quantization error only)");
    assert!(diff < 0.3, "fixed-point output should track the reference");
    println!("ok");
    Ok(())
}
