//! The paper's evaluation protocol: SALO vs CPU/GPU per workload (§6.2).

use salo_core::{Salo, SaloError};

use crate::baselines::{cpu_xeon_e5_2630_v3, gtx_1080ti, Device};
use crate::models::{longformer_base_4096, vil_stage1, vil_stage2, Workload};

/// One workload's comparison row (a bar group of Fig. 7a + 7b).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// SALO layer latency (seconds).
    pub salo_latency_s: f64,
    /// SALO layer energy (joules, lumped `P x t`).
    pub salo_energy_j: f64,
    /// SALO PE-array MAC utilization.
    pub salo_utilization: f64,
    /// CPU layer latency (seconds).
    pub cpu_latency_s: f64,
    /// CPU layer energy (joules, per-FLOP model).
    pub cpu_energy_j: f64,
    /// GPU layer latency (seconds).
    pub gpu_latency_s: f64,
    /// GPU layer energy (joules).
    pub gpu_energy_j: f64,
}

impl Comparison {
    /// Speedup over the CPU baseline.
    #[must_use]
    pub fn speedup_cpu(&self) -> f64 {
        self.cpu_latency_s / self.salo_latency_s
    }

    /// Speedup over the GPU baseline.
    #[must_use]
    pub fn speedup_gpu(&self) -> f64 {
        self.gpu_latency_s / self.salo_latency_s
    }

    /// Energy saving over the CPU baseline.
    #[must_use]
    pub fn energy_saving_cpu(&self) -> f64 {
        self.cpu_energy_j / self.salo_energy_j
    }

    /// Energy saving over the GPU baseline.
    #[must_use]
    pub fn energy_saving_gpu(&self) -> f64 {
        self.gpu_energy_j / self.salo_energy_j
    }
}

/// Runs one workload through the SALO estimate and both baseline models.
///
/// # Errors
///
/// Returns compile errors from the scheduler.
pub fn compare_workload(
    salo: &Salo,
    workload: &Workload,
    cpu: &Device,
    gpu: &Device,
) -> Result<Comparison, SaloError> {
    let compiled = salo.compile(&workload.pattern, &workload.shape)?;
    let report = salo.estimate(&compiled);
    let baseline = workload.baseline();
    Ok(Comparison {
        workload: workload.name.clone(),
        salo_latency_s: report.time_s,
        salo_energy_j: report.energy_j,
        salo_utilization: report.utilization.mac_utilization,
        cpu_latency_s: cpu.latency_s(&baseline),
        cpu_energy_j: cpu.energy_j(&baseline),
        gpu_latency_s: gpu.latency_s(&baseline),
        gpu_energy_j: gpu.energy_j(&baseline),
    })
}

/// Runs the three Fig. 7 workloads (Longformer, ViL stage 1, ViL stage 2)
/// against the paper's CPU and GPU baselines.
///
/// # Errors
///
/// Returns the first compile error encountered.
pub fn figure7_comparisons(salo: &Salo) -> Result<Vec<Comparison>, SaloError> {
    let cpu = cpu_xeon_e5_2630_v3();
    let gpu = gtx_1080ti();
    let workloads = [longformer_base_4096(), vil_stage1(), vil_stage2()];
    workloads.iter().map(|w| compare_workload(salo, w, &cpu, &gpu)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::paper;

    #[test]
    fn figure7_shape_holds() {
        let salo = Salo::default_config();
        let rows = figure7_comparisons(&salo).unwrap();
        assert_eq!(rows.len(), 3);

        for (row, expect) in rows.iter().zip(&paper::FIGURE7) {
            // SALO wins everywhere, by a lot.
            assert!(row.speedup_cpu() > 20.0, "{}: cpu {}", row.workload, row.speedup_cpu());
            assert!(row.speedup_gpu() > 3.0, "{}: gpu {}", row.workload, row.speedup_gpu());
            // Within ~35 % of the paper's reported ratios.
            let rel = |ours: f64, theirs: f64| (ours / theirs - 1.0).abs();
            assert!(
                rel(row.speedup_cpu(), expect.speedup_cpu) < 0.35,
                "{}: cpu speedup {} vs paper {}",
                row.workload,
                row.speedup_cpu(),
                expect.speedup_cpu
            );
            assert!(
                rel(row.speedup_gpu(), expect.speedup_gpu) < 0.35,
                "{}: gpu speedup {} vs paper {}",
                row.workload,
                row.speedup_gpu(),
                expect.speedup_gpu
            );
            assert!(
                rel(row.energy_saving_cpu(), expect.energy_cpu) < 0.35,
                "{}: cpu energy {} vs paper {}",
                row.workload,
                row.energy_saving_cpu(),
                expect.energy_cpu
            );
            assert!(
                rel(row.energy_saving_gpu(), expect.energy_gpu) < 0.45,
                "{}: gpu energy {} vs paper {}",
                row.workload,
                row.energy_saving_gpu(),
                expect.energy_gpu
            );
        }

        // Averages in the neighbourhood of the abstract's 89.33x / 17.66x.
        let avg_cpu: f64 = rows.iter().map(Comparison::speedup_cpu).sum::<f64>() / 3.0;
        let avg_gpu: f64 = rows.iter().map(Comparison::speedup_gpu).sum::<f64>() / 3.0;
        assert!((avg_cpu / paper::AVG_SPEEDUP_CPU - 1.0).abs() < 0.25, "avg cpu speedup {avg_cpu}");
        assert!((avg_gpu / paper::AVG_SPEEDUP_GPU - 1.0).abs() < 0.25, "avg gpu speedup {avg_gpu}");

        // Orderings the paper's bars show: GPU gains are smallest on
        // Longformer (large GEMM-friendly bands) and larger on ViL stages.
        assert!(rows[0].speedup_gpu() < rows[1].speedup_gpu());
        assert!(rows[0].speedup_gpu() < rows[2].speedup_gpu());
        // Energy savings are in the hundreds against both baselines.
        for row in &rows {
            assert!(row.energy_saving_cpu() > 100.0);
            assert!(row.energy_saving_gpu() > 100.0);
        }
    }

    #[test]
    fn longformer_utilization_above_threshold() {
        let salo = Salo::default_config();
        let rows = figure7_comparisons(&salo).unwrap();
        assert!(
            rows[0].salo_utilization > paper::SALO_UTILIZATION_MIN,
            "Longformer utilization {}",
            rows[0].salo_utilization
        );
    }
}
