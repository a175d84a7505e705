//! Design-space walk over the choices DESIGN.md calls out: pass
//! pipelining, array geometry, the diagonal-reuse dataflow, buffer sizing
//! and the input fraction-bit split.
//!
//! Run with: `cargo run --release --example ablation_study`

use salo::core::Salo;
use salo::models::longformer_layer;
use salo::patterns::longformer;
use salo::quant::sweep_fraction_bits;
use salo::scheduler::{ExecutionPlan, HardwareMeta};
use salo::sim::{AcceleratorConfig, BufferAnalysis, SpatialAccelerator, TrafficReport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = longformer_layer(4096, 512, 768, 1)?;

    // 1. Pass pipelining: the steady-state interval vs serialized stages.
    println!("-- pipelining (Longformer-4096, d=64, 12 heads) --");
    for pipelined in [false, true] {
        let config = AcceleratorConfig { pipelined, ..Default::default() };
        let salo = Salo::new(config);
        let compiled = salo.compile(&workload.pattern, &workload.shape)?;
        let t = salo.estimate(&compiled);
        println!(
            "  {}: {:>8.3} ms, utilization {:.1}%",
            if pipelined { "pipelined " } else { "serialized" },
            t.time_s * 1e3,
            t.utilization.mac_utilization * 100.0
        );
    }

    // 2. Array geometry at a fixed PE budget of 1024.
    println!("\n-- array geometry (1024 PEs) --");
    for (r, c) in [(32usize, 32usize), (64, 16), (16, 64), (128, 8)] {
        let config = AcceleratorConfig { hw: HardwareMeta::new(r, c, 1, 1)?, ..Default::default() };
        let salo = Salo::new(config);
        let compiled = salo.compile(&workload.pattern, &workload.shape)?;
        let t = salo.estimate(&compiled);
        println!(
            "  {r:>3}x{c:<3}: {:>8.3} ms, {:>5} passes, occupancy {:.1}%",
            t.time_s * 1e3,
            compiled.lowered.stats().passes,
            t.utilization.occupancy * 100.0
        );
    }

    // 3. The diagonal-reuse dataflow (the §4.1 claim, quantified).
    println!("\n-- key/value reuse --");
    let plan = ExecutionPlan::build(&workload.pattern, HardwareMeta::default())?;
    let traffic = TrafficReport::from_plan(&plan, 64);
    println!(
        "  diagonal streaming: {:.1} MB    per-cell reloads: {:.1} MB    reuse {:.1}x",
        traffic.kv_bytes_diagonal as f64 / 1e6,
        traffic.kv_bytes_naive as f64 / 1e6,
        traffic.reuse_factor()
    );

    // 4. Buffer sizing against the sliding working set.
    println!("\n-- buffers (Table 1 sizes, d = 64) --");
    let analysis = BufferAnalysis::analyze(&AcceleratorConfig::default(), &plan, 64);
    println!(
        "  working set {:.1} KB vs key buffer {} vectors: fits = {}, reload factor {:.2}",
        analysis.kv_working_set_bytes as f64 / 1024.0,
        analysis.key_capacity_vectors,
        analysis.fits,
        analysis.reload_factor
    );

    // 5. Fraction bits of the 8-bit input format.
    println!("\n-- input fraction bits (8-bit storage, unit-normal inputs) --");
    let pattern = longformer(256, 32, 1)?;
    for p in sweep_fraction_bits(&pattern, 32, 11, &[2, 3, 4, 5, 6])? {
        println!(
            "  Q.{}: range +-{:<4} SQNR {:>5.1} dB, clipped {:.2}%",
            p.frac_bits,
            p.range,
            p.sqnr_db,
            p.clipped * 100.0
        );
    }
    println!("\nthe paper's Q.4 sits on the SQNR plateau with zero clipping");

    // Keep the default instance honest.
    let _ = SpatialAccelerator::default_instance();
    Ok(())
}
