//! §2.2 quantified: SALO against the other attention accelerators the
//! paper surveys (A³, SpAtten, Sanger), on the Longformer workload across
//! sequence lengths.
//!
//! The paper's critiques, made measurable: A³ hits its SRAM ceiling and
//! spills; SpAtten's pruning leaves a quadratic core; Sanger predicts a
//! quadratic score matrix before computing. SALO's structured hybrid
//! patterns keep it linear.

use salo_core::Salo;
use salo_paper::baselines::{A3Model, SangerModel, SpAttenModel};
use salo_paper::models::longformer_layer;
use salo_paper::{banner, fmt_time, render_table};

pub fn run() {
    banner("Section 2.2 quantified: accelerator scaling on Longformer (w=512, 12 heads)");
    let salo = Salo::default_config();
    let sanger = SangerModel::default();
    let a3 = A3Model::default();
    let spatten = SpAttenModel::default();

    let mut rows = Vec::new();
    for n in [1024usize, 2048, 4096, 8192, 16384] {
        let workload = longformer_layer(n, 512, 768, 1).expect("workload");
        let compiled = salo.compile(&workload.pattern, &workload.shape).expect("plan");
        let t_salo = salo.estimate(&compiled).time_s;
        let t_sanger = sanger.latency_s(n, workload.nnz(), 64, 12);
        let t_a3 = a3.latency_s(n, 64, 12);
        let t_spatten = spatten.latency_s(n, 64, 12);
        let spilled = n > a3.max_resident_seq_len(64);
        rows.push(vec![
            n.to_string(),
            fmt_time(t_salo),
            fmt_time(t_sanger),
            format!("{}{}", fmt_time(t_a3), if spilled { " (SRAM spill)" } else { "" }),
            fmt_time(t_spatten),
        ]);
    }
    print!(
        "{}",
        render_table(
            &["n", "SALO", "Sanger (predict+sparse)", "A3 (approx)", "SpAtten (pruned dense)"],
            &rows
        )
    );
    println!(
        "\nA3 key-SRAM ceiling at d=64: n = {} tokens; SpAtten effective density {:.2}",
        a3.max_resident_seq_len(64),
        spatten.effective_density()
    );
    println!(
        "note: A3 computes *approximate* attention (top-{} candidates/query) — a \
         different accuracy class; SALO computes the exact hybrid pattern.",
        a3.candidates_per_query
    );
}
