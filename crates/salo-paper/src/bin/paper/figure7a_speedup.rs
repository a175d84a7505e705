//! E4 — Fig. 7a: SALO speedup over CPU and GPU on the three evaluation
//! workloads, paper values alongside.

use salo_core::Salo;
use salo_paper::models::paper;
use salo_paper::{banner, figure7_comparisons, fmt_ratio, fmt_time, render_table};

pub fn run() {
    banner("Figure 7a: speedup of SALO vs CPU and GPU");
    let salo = Salo::default_config();
    let rows_data = figure7_comparisons(&salo).expect("figure 7 workloads compile");

    let mut rows = Vec::new();
    for (row, expect) in rows_data.iter().zip(&paper::FIGURE7) {
        rows.push(vec![
            row.workload.clone(),
            fmt_time(row.salo_latency_s),
            fmt_time(row.cpu_latency_s),
            fmt_time(row.gpu_latency_s),
            format!("{} (paper {})", fmt_ratio(row.speedup_cpu()), fmt_ratio(expect.speedup_cpu)),
            format!("{} (paper {})", fmt_ratio(row.speedup_gpu()), fmt_ratio(expect.speedup_gpu)),
            format!("{:.1}%", row.salo_utilization * 100.0),
        ]);
    }
    let avg_cpu = rows_data.iter().map(|r| r.speedup_cpu()).sum::<f64>() / rows_data.len() as f64;
    let avg_gpu = rows_data.iter().map(|r| r.speedup_gpu()).sum::<f64>() / rows_data.len() as f64;
    rows.push(vec![
        "Average".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{} (paper {})", fmt_ratio(avg_cpu), fmt_ratio(paper::AVG_SPEEDUP_CPU)),
        format!("{} (paper {})", fmt_ratio(avg_gpu), fmt_ratio(paper::AVG_SPEEDUP_GPU)),
        "-".into(),
    ]);
    print!(
        "{}",
        render_table(
            &[
                "workload",
                "SALO latency",
                "CPU latency",
                "GPU latency",
                "speedup vs CPU",
                "speedup vs GPU",
                "SALO util"
            ],
            &rows
        )
    );
}
