//! Vision Longformer (ViL): 2-D windowed attention on the accelerator.
//!
//! Shows how a 2-D window over an image grid flattens into banded 1-D
//! windows (the paper's Fig. 2c), how close the flattened approximation is
//! to the exact 2-D mask, and runs a scaled ViL stage functionally.
//!
//! Run with: `cargo run --release --example vision_longformer`

use salo::core::{AttentionRequest, Engine, Salo};
use salo::kernels::sparse_attention;
use salo::models::{vil_stage1, vil_stage_layer};
use salo::patterns::{grid_2d, DenseMask};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The flattened band decomposition of a 2-D window.
    let pattern = grid_2d(12, 12, 5, 5, 1)?;
    println!(
        "12x12 grid, 5x5 window -> {} band components of width {} each",
        pattern.windows().len(),
        pattern.windows()[0].width()
    );
    let exact = DenseMask::grid_2d_exact(12, 12, 5, 5, 1)?;
    let flat = DenseMask::from_pattern(&pattern);
    println!(
        "flattened-vs-exact 2-D mask agreement: {:.2}% (divergence is the \
         image-edge wrap of Fig. 2c's flattening)",
        flat.agreement(&exact) * 100.0
    );

    // Full-size stage-1 estimate.
    let salo = Salo::default_config();
    let stage1 = vil_stage1();
    let compiled = salo.compile(&stage1.pattern, &stage1.shape)?;
    let t = salo.estimate(&compiled);
    println!(
        "\nViL-stage1 (56x56 patches, 15x15 window, 3 heads): {:.3} ms, {} passes/head",
        t.time_s * 1e3,
        compiled.lowered.stats().passes
    );

    // Scaled functional run: 16x16 grid, 5x5 window, one 64-dim head.
    let scaled = vil_stage_layer(16, 16, 5, 5, 64, 1)?;
    let mut engine = salo.engine();
    let handle = engine.prepare(&scaled.pattern, &scaled.shape)?;
    let heads = scaled.qkv_heads(3);
    let run = engine
        .execute(AttentionRequest::Prefill {
            pattern: handle,
            shape: scaled.shape,
            heads: heads.clone(),
        })?
        .into_prefill()?;
    let reference =
        sparse_attention(&scaled.pattern, &heads[0].q, &heads[0].k, &heads[0].v, scaled.scale())?;
    let diff = run.heads[0].output.max_abs_diff(&reference);
    println!(
        "scaled run (16x16 grid): {:.3} us simulated, max |err| {:.4}",
        run.telemetry.sim_time_s.unwrap_or(0.0) * 1e6,
        diff
    );
    assert!(diff < 0.3);
    println!("ok");
    Ok(())
}
