//! The paper's flagship workload: a Longformer-Base-4096 attention layer.
//!
//! Estimates the full-size layer on the Table 1 instance (as Fig. 7 does),
//! then functionally executes a 1/8-scale version and validates it against
//! the exact reference.
//!
//! Run with: `cargo run --release --example longformer`

use salo::baselines::{cpu_xeon_e5_2630_v3, gtx_1080ti};
use salo::core::{AttentionRequest, Engine, Salo};
use salo::models::{longformer_base_4096, longformer_layer};
use salo_paper::compare_workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let salo = Salo::default_config();

    // Full-size estimate + baseline comparison (the Fig. 7 protocol).
    let workload = longformer_base_4096();
    let row = compare_workload(&salo, &workload, &cpu_xeon_e5_2630_v3(), &gtx_1080ti())?;
    println!("Longformer-Base-4096 attention layer (12 heads, window 512):");
    println!(
        "  SALO : {:.3} ms, utilization {:.1}%",
        row.salo_latency_s * 1e3,
        row.salo_utilization * 100.0
    );
    println!(
        "  CPU  : {:.1} ms -> speedup {:.2}x (paper 83.57x)",
        row.cpu_latency_s * 1e3,
        row.speedup_cpu()
    );
    println!(
        "  GPU  : {:.1} ms -> speedup {:.2}x (paper 7.38x)",
        row.gpu_latency_s * 1e3,
        row.speedup_gpu()
    );
    println!(
        "  energy: {:.2} mJ vs CPU {:.0} mJ ({:.0}x) / GPU {:.0} mJ ({:.0}x)",
        row.salo_energy_j * 1e3,
        row.cpu_energy_j * 1e3,
        row.energy_saving_cpu(),
        row.gpu_energy_j * 1e3,
        row.energy_saving_gpu()
    );

    // Scaled-down functional execution: n=512, w=64, 2 heads.
    let scaled = longformer_layer(512, 64, 128, 1)?;
    let mut engine = salo.engine();
    let handle = engine.prepare(&scaled.pattern, &scaled.shape)?;
    let heads = scaled.qkv_heads(7);
    let request = AttentionRequest::Prefill { pattern: handle, shape: scaled.shape, heads };
    let run = engine.execute(request.clone())?.into_prefill()?;
    let reference = salo.reference_engine().execute(request)?.into_prefill()?;
    let mut worst = 0.0f32;
    for (ours, exact) in run.heads.iter().zip(&reference.heads) {
        worst = worst.max(ours.output.max_abs_diff(&exact.output));
    }
    println!("\nscaled functional run (n=512, w=64, 2 heads):");
    println!(
        "  simulated latency {:.3} us, max |err| vs f32 reference {:.4}",
        run.telemetry.sim_time_s.unwrap_or(0.0) * 1e6,
        worst
    );
    assert!(worst < 0.3);
    println!("ok");
    Ok(())
}
