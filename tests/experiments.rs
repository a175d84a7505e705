//! Shape assertions for every paper experiment (E1–E7): who wins, by
//! roughly what factor, and where the crossovers fall.

use salo::baselines::{cpu_xeon_e5_2630_v3, gtx_1080ti, SangerModel};
use salo::core::Salo;
use salo::models::{bert_base, longformer_layer, paper, table2_rows};
use salo::quant::table3_rows;
use salo_paper::figure7_comparisons;

/// E1 — motivation: dense GPU attention grows quadratically; the paper's
/// two anchors are matched.
#[test]
fn e1_motivation_quadratic_growth() {
    let gpu = gtx_1080ti();
    let t = |n: usize| gpu.latency_s(&bert_base(n).unwrap().baseline());
    let (t2048, t8192) = (t(2048), t(8192));
    assert!((t2048 * 1e3 / paper::BERT_GPU_LATENCY_MS_N2048 - 1.0).abs() < 0.1);
    assert!((t8192 * 1e3 / paper::BERT_GPU_LATENCY_MS_N8192 - 1.0).abs() < 0.1);
    assert!((t8192 / t2048 - 15.8).abs() < 1.0, "quadratic ratio {}", t8192 / t2048);
}

/// E2 — Table 1: the default instance is the synthesized one.
#[test]
fn e2_table1_instance() {
    let salo = Salo::default_config();
    let c = salo.config();
    assert_eq!((c.hw.pe_rows, c.hw.pe_cols), paper::table1::PE_ARRAY);
    assert_eq!(c.hw.global_rows, paper::table1::GLOBAL_PE_ROWS);
    assert_eq!(c.hw.global_cols, paper::table1::GLOBAL_PE_COLS);
    assert!((c.power_w * 1e3 - paper::table1::POWER_MW).abs() < 0.01);
    assert!((c.area_mm2 - paper::table1::AREA_MM2).abs() < 0.01);
    assert!((c.freq_ghz - paper::table1::FREQUENCY_GHZ).abs() < f64::EPSILON);
}

/// E3 — Table 2: sparsity column reproduced.
#[test]
fn e3_table2_sparsity() {
    let rows = table2_rows();
    let paper_sparsity = [0.125, 0.072, 0.288];
    for (row, &expect) in rows.iter().zip(&paper_sparsity) {
        assert!((row.sparsity - expect).abs() < 0.004, "{}: {}", row.name, row.sparsity);
    }
}

/// E4/E5 — Fig. 7: speedups and energy savings, with the paper's
/// orderings and magnitudes.
#[test]
fn e4_e5_figure7_shape() {
    let rows = figure7_comparisons(&Salo::default_config()).unwrap();
    // Who wins: SALO, everywhere, against both baselines.
    for row in &rows {
        assert!(row.speedup_cpu() > 1.0 && row.speedup_gpu() > 1.0);
    }
    // By what factor: tens against CPU, 7-30x against GPU, hundreds in
    // energy.
    let avg_cpu = rows.iter().map(|r| r.speedup_cpu()).sum::<f64>() / 3.0;
    let avg_gpu = rows.iter().map(|r| r.speedup_gpu()).sum::<f64>() / 3.0;
    assert!((60.0..120.0).contains(&avg_cpu), "avg cpu {avg_cpu}");
    assert!((12.0..25.0).contains(&avg_gpu), "avg gpu {avg_gpu}");
    let avg_e_cpu = rows.iter().map(|r| r.energy_saving_cpu()).sum::<f64>() / 3.0;
    let avg_e_gpu = rows.iter().map(|r| r.energy_saving_gpu()).sum::<f64>() / 3.0;
    assert!((120.0..260.0).contains(&avg_e_cpu), "avg cpu energy {avg_e_cpu}");
    assert!((180.0..400.0).contains(&avg_e_gpu), "avg gpu energy {avg_e_gpu}");
    // Where the gaps sit: the GPU gap is smallest on Longformer (banded
    // 1-D is the most GEMM-friendly sparse implementation).
    assert!(rows[0].speedup_gpu() < rows[1].speedup_gpu().min(rows[2].speedup_gpu()));
}

/// E6 — Sanger comparison: utilization bands and the 1.33x headline at
/// the dense end of the sparsity range.
#[test]
fn e6_sanger_shape() {
    let salo = Salo::default_config();
    let sanger = SangerModel::default();
    let mut speedups = Vec::new();
    for window in [256usize, 512, 1024, 1228] {
        let w = longformer_layer(4096, window, 768, 0).unwrap();
        let compiled = salo.compile(&w.pattern, &w.shape).unwrap();
        let report = salo.estimate(&compiled);
        let t_sanger = sanger.latency_s(4096, w.nnz(), 64, 12);
        let speedup = t_sanger / report.time_s;
        assert!(speedup > 1.0, "SALO must win at window {window}");
        // SALO's structured-pattern utilization exceeds Sanger's.
        let density = w.nnz() as f64 / (4096.0 * 4096.0);
        assert!(report.utilization.mac_utilization > sanger.utilization(density));
        speedups.push((density, speedup));
    }
    // The densest point lands near the paper's 1.33x headline.
    let (density, headline) = *speedups.last().unwrap();
    assert!(density > 0.25, "densest sweep point {density}");
    assert!(
        (headline / paper::SANGER_SPEEDUP - 1.0).abs() < 0.15,
        "headline speedup {headline} vs paper {}",
        paper::SANGER_SPEEDUP
    );
    // Advantage grows as density falls (prediction step dominates).
    assert!(speedups.first().unwrap().1 > speedups.last().unwrap().1);
}

/// E7 — Table 3: quantization costs at most a few points on the synthetic
/// tasks (paper: a few tenths on real ones).
#[test]
fn e7_quantization_accuracy() {
    let rows = table3_rows(1).unwrap();
    for row in &rows {
        let drop = row.ours.accuracy_f32 - row.ours.accuracy_quantized;
        assert!(drop.abs() < 0.1, "{}: drop {drop}", row.name);
        assert!(
            row.ours.accuracy_quantized_finetuned + 0.03 >= row.ours.accuracy_quantized,
            "{}: finetuning should not hurt",
            row.name
        );
    }
}

/// Cross-check: CPU is never faster than GPU on these workloads, and both
/// lose to SALO on energy by orders of magnitude.
#[test]
fn baseline_orderings() {
    let cpu = cpu_xeon_e5_2630_v3();
    let gpu = gtx_1080ti();
    for w in
        [longformer_layer(2048, 256, 768, 1).unwrap(), longformer_layer(8192, 512, 768, 1).unwrap()]
    {
        let b = w.baseline();
        assert!(cpu.latency_s(&b) > gpu.latency_s(&b));
    }
}
