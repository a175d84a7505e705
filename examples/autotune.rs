//! Cost-driven pattern autotuning: for each reference sparsity mask, the
//! tuner sweeps the pattern zoo (windows, globals, strided columns, block
//! grids, captured residuals), prices every candidate that meets the
//! coverage budget by *simulated cycles on the configured array*, and
//! returns the cheapest covering pattern.
//!
//! `tests/end_to_end.rs` (`autotuned_pattern_costs_no_more_cycles_than_its_preset`)
//! holds that each fitted pattern costs no more cycles than its preset.
//!
//! Run with: `cargo run --release --example autotune`

use salo::core::Salo;
use salo::patterns::{
    bigbird, longformer, sparse_transformer, AttentionShape, DenseMask, FitConfig, HybridPattern,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let salo = Salo::default_config();
    let n = 256;
    let d = 64;
    let shape = AttentionShape::new(n, d, 1)?;

    // Reference masks, each paired with the preset that generated it —
    // the baseline the tuner must beat or match.
    let references: Vec<(&str, HybridPattern)> = vec![
        ("longformer(256, 32, 2)", longformer(n, 32, 2)?),
        ("bigbird(256, 16, 2, 2, 7)", bigbird(n, 16, 2, 2, 7)?),
        ("sparse_transformer(256, 16, 4)", sparse_transformer(n, 16, 4)?),
    ];

    println!("autotuned patterns (n = {n}, d = {d}, coverage budget 95%)");
    println!(
        "{:<32} {:>12} {:>12} {:>10} {:>10} {:>11}",
        "mask source", "preset cyc", "tuned cyc", "speedup", "coverage", "candidates"
    );
    for (name, preset) in references {
        let mask = DenseMask::from_pattern(&preset);
        let baseline = salo.estimate(&salo.compile(&preset, &shape)?);
        let report = salo.autotune_pattern(&mask, &shape, 0.95, FitConfig::default())?;
        let tuned = salo.estimate(&salo.compile(&report.pattern, &shape)?);
        println!(
            "{:<32} {:>12} {:>12} {:>9.2}x {:>9.1}% {:>11}",
            name,
            baseline.cycles.total,
            tuned.cycles.total,
            baseline.cycles.total as f64 / tuned.cycles.total as f64,
            report.coverage * 100.0,
            report.candidates
        );
        println!(
            "{:<32} energy {:.2} uJ -> {:.2} uJ",
            "",
            baseline.energy_j * 1e6,
            tuned.energy_j * 1e6
        );
    }
    Ok(())
}
