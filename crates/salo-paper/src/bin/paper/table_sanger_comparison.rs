//! E6 — §6.3: comparison with Sanger at equal PE count, sparsity and
//! frequency.
//!
//! The table sweeps the paper's sparsity range (0.05–0.30) on a
//! Longformer-scale layer. SALO's latency comes from a real scheduler plan
//! through the cycle model; Sanger's from the §6.3 analytical model
//! (quadratic low-precision prediction + sparse attention at 55–75 %
//! utilization). The paper's headline is 1.33x at matched sparsity — our
//! model lands there at the dense end of the range and grows toward low
//! sparsity, where Sanger's prediction step dominates.

use salo_core::Salo;
use salo_paper::baselines::SangerModel;
use salo_paper::models::longformer_layer;
use salo_paper::models::paper;
use salo_paper::{banner, fmt_ratio, fmt_time, render_table};

pub fn run() {
    banner("Section 6.3: SALO vs Sanger (1024 PEs, 1 GHz, matched sparsity)");
    let salo = Salo::default_config();
    let sanger = SangerModel::default();
    let n = 4096usize;
    let heads = 12usize;
    let d = 64usize;

    let mut rows = Vec::new();
    for window in [128usize, 256, 512, 768, 1024, 1228] {
        let workload = longformer_layer(n, window, heads * d, 0).expect("workload");
        let compiled = salo.compile(&workload.pattern, &workload.shape).expect("plan");
        let report = salo.estimate(&compiled);
        let density = workload.nnz() as f64 / (n as f64 * n as f64);
        let sanger_t = sanger.latency_s(n, workload.nnz(), d, heads);
        rows.push(vec![
            format!("{density:.3}"),
            fmt_time(report.time_s),
            fmt_time(sanger_t),
            fmt_ratio(sanger_t / report.time_s),
            format!("{:.1}%", report.utilization.mac_utilization * 100.0),
            format!("{:.1}%", sanger.utilization(density) * 100.0),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "density",
                "SALO latency",
                "Sanger latency",
                "SALO speedup",
                "SALO util",
                "Sanger util"
            ],
            &rows
        )
    );
    println!(
        "\npaper: {}x speedup at matched sparsity; SALO util > {:.0}%, Sanger {:.0}-{:.0}%",
        paper::SANGER_SPEEDUP,
        paper::SALO_UTILIZATION_MIN * 100.0,
        paper::SANGER_UTILIZATION.0 * 100.0,
        paper::SANGER_UTILIZATION.1 * 100.0
    );
}
