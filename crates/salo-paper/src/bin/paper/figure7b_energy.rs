//! E5 — Fig. 7b: SALO energy saving over CPU and GPU, paper values
//! alongside.
//!
//! SALO energy is synthesized-power x time (the paper's method); baseline
//! energies use the per-FLOP constants calibrated in `salo_paper::baselines`
//! (see EXPERIMENTS.md for the derivation from the paper's own ratios).

use salo_core::Salo;
use salo_paper::models::paper;
use salo_paper::{banner, figure7_comparisons, fmt_ratio, render_table};

pub fn run() {
    banner("Figure 7b: energy saving of SALO vs CPU and GPU");
    let salo = Salo::default_config();
    let rows_data = figure7_comparisons(&salo).expect("figure 7 workloads compile");

    let mut rows = Vec::new();
    for (row, expect) in rows_data.iter().zip(&paper::FIGURE7) {
        rows.push(vec![
            row.workload.clone(),
            format!("{:.3} mJ", row.salo_energy_j * 1e3),
            format!("{:.1} mJ", row.cpu_energy_j * 1e3),
            format!("{:.1} mJ", row.gpu_energy_j * 1e3),
            format!(
                "{} (paper {})",
                fmt_ratio(row.energy_saving_cpu()),
                fmt_ratio(expect.energy_cpu)
            ),
            format!(
                "{} (paper {})",
                fmt_ratio(row.energy_saving_gpu()),
                fmt_ratio(expect.energy_gpu)
            ),
        ]);
    }
    let avg_cpu =
        rows_data.iter().map(|r| r.energy_saving_cpu()).sum::<f64>() / rows_data.len() as f64;
    let avg_gpu =
        rows_data.iter().map(|r| r.energy_saving_gpu()).sum::<f64>() / rows_data.len() as f64;
    rows.push(vec![
        "Average".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{} (paper {})", fmt_ratio(avg_cpu), fmt_ratio(paper::AVG_ENERGY_CPU)),
        format!("{} (paper {})", fmt_ratio(avg_gpu), fmt_ratio(paper::AVG_ENERGY_GPU)),
    ]);
    print!(
        "{}",
        render_table(
            &[
                "workload",
                "SALO energy",
                "CPU energy",
                "GPU energy",
                "saving vs CPU",
                "saving vs GPU"
            ],
            &rows
        )
    );
}
