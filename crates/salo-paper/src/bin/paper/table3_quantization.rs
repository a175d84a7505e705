//! E7 — Table 3: impact of SALO's fixed-point quantization on accuracy.
//!
//! Substitution: we have neither the pretrained checkpoints nor the paper's
//! datasets, so this runs the synthetic end-to-end tasks from `salo_paper::quant`
//! (see its module docs and DESIGN.md §4) plus raw attention-output error
//! metrics on Table 2-shaped patterns. The claim under test is the same as
//! the paper's: Q.4 inputs / 16-bit outputs cost at most a few tenths of a
//! point.

use salo_paper::quant::{attention_error, sweep_fraction_bits, table3_rows};
use salo_paper::{banner, render_table};
use salo_patterns::{grid_2d, longformer};

pub fn run() {
    banner("Table 3 (substitute): accuracy with f32 vs quantized attention");
    let rows_data = table3_rows(2).expect("quantization tasks");
    let mut rows = Vec::new();
    for r in &rows_data {
        rows.push(vec![
            r.name.clone(),
            r.proxy_for.clone(),
            format!("{:.2}%", r.ours.accuracy_f32 * 100.0),
            format!("{:.2}%", r.ours.accuracy_quantized * 100.0),
            format!("{:.2}%", r.ours.accuracy_quantized_finetuned * 100.0),
            format!("{:.2}% -> {:.2}%", r.paper_original, r.paper_quantized),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "synthetic task",
                "proxies",
                "original (f32)",
                "quantized",
                "quantized+finetune",
                "paper (original -> quantized)"
            ],
            &rows
        )
    );

    banner("Raw attention-output error (fixed point vs f32, normalized inputs)");
    let patterns = [
        ("Longformer-shaped (n=512, w=64, 1 global)", longformer(512, 64, 1).expect("p")),
        ("ViL-shaped (24x24 grid, 7x7 window)", grid_2d(24, 24, 7, 7, 1).expect("p")),
    ];
    let mut rows = Vec::new();
    for (name, p) in &patterns {
        let r = attention_error(p, 64, 9).expect("error analysis");
        rows.push(vec![
            (*name).to_string(),
            format!("{:.2e}", r.mse),
            format!("{:.3}", r.max_abs),
            format!("{:.1} dB", r.sqnr_db),
            format!("{:.1}%", r.argmax_agreement * 100.0),
            r.saturation_events.to_string(),
        ]);
    }
    print!(
        "{}",
        render_table(
            &["pattern", "MSE", "max |err|", "SQNR", "argmax agreement", "saturations"],
            &rows
        )
    );

    banner("Why Q.4: fraction-bit sweep of the 8-bit input format");
    let pattern = longformer(256, 32, 1).expect("pattern");
    let sweep = sweep_fraction_bits(&pattern, 64, 17, &[1, 2, 3, 4, 5, 6, 7]).expect("sweep");
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                format!("Q.{}", p.frac_bits),
                format!("+-{}", p.range),
                format!("{:.1} dB", p.sqnr_db),
                format!("{:.4}", p.max_abs),
                format!("{:.2}%", p.clipped * 100.0),
            ]
        })
        .collect();
    print!("{}", render_table(&["format", "range", "output SQNR", "max |err|", "clipped"], &rows));
    println!("\nthe paper's Q.4 split sits on the SQNR plateau with zero clipping (6.4)");
}
