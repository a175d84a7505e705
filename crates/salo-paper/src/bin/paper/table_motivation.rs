//! E1 — §2.1 motivation: dense attention latency grows quadratically with
//! sequence length.
//!
//! Two views are printed:
//!
//! 1. the calibrated GTX 1080Ti model over BERT-base attention, anchored
//!    to the paper's measurements (9.20 ms at n = 2048, 145.70 ms at
//!    n = 8192);
//! 2. real wall-clock measurements of the reproduction's dense f32 attention
//!    on *this* machine (one head, scaled down), demonstrating the same
//!    quadratic growth with live numbers.

use salo_paper::baselines::{gtx_1080ti, host};
use salo_paper::models::{bert_base, paper};
use salo_paper::{banner, fmt_time, render_table};

pub fn run() {
    banner("Motivation (2.1): dense BERT attention latency vs sequence length");

    let gpu = gtx_1080ti();
    let mut rows = Vec::new();
    let mut t2048 = 0.0f64;
    for n in [512usize, 1024, 2048, 4096, 8192] {
        let w = bert_base(n).expect("bert workload");
        let t = gpu.latency_s(&w.baseline());
        if n == 2048 {
            t2048 = t;
        }
        let paper_note = match n {
            2048 => format!("{} ms (paper)", paper::BERT_GPU_LATENCY_MS_N2048),
            8192 => format!("{} ms (paper)", paper::BERT_GPU_LATENCY_MS_N8192),
            _ => "-".into(),
        };
        let rel = if t2048 > 0.0 { format!("{:.2}x", t / t2048) } else { "-".into() };
        rows.push(vec![n.to_string(), fmt_time(t), rel, paper_note]);
    }
    print!("{}", render_table(&["n", "GTX 1080Ti model", "vs n=2048", "paper anchor"], &rows));

    banner("Same experiment measured on this host (one 64-dim head, f32 kernel)");
    let mut rows = Vec::new();
    let mut base = 0.0f64;
    for n in [256usize, 512, 1024, 2048] {
        let m = host::measure_dense(n, 64, 3, 42);
        if n == 256 {
            base = m.median_s;
        }
        rows.push(vec![
            n.to_string(),
            fmt_time(m.median_s),
            format!("{:.2}x", m.median_s / base),
            format!("{:.1}x expected if quadratic", (n as f64 / 256.0).powi(2)),
        ]);
    }
    print!("{}", render_table(&["n", "measured", "vs n=256", "quadratic reference"], &rows));
}
