//! E3 — Table 2: key parameters of the evaluated attention layers,
//! including the sparsity column recomputed from our pattern library.

use salo_paper::models::table2_rows;
use salo_paper::{banner, render_table};

pub fn run() {
    banner("Table 2: Key parameters of attention layers");
    let rows: Vec<Vec<String>> = table2_rows()
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                r.sequence,
                r.window,
                r.hidden.to_string(),
                r.global_tokens.to_string(),
                format!("{:.3}", r.sparsity),
                format!("{:.3}", r.exact_density),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "workload",
                "sequence",
                "window",
                "hidden",
                "globals",
                "sparsity (nominal)",
                "exact density"
            ],
            &rows
        )
    );
    println!("\npaper's Table 2 sparsity column: 0.125 / 0.072 / 0.288");
}
