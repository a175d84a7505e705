//! Roofline-style CPU/GPU latency and energy models.

use super::{BaselineWorkload, ExecutionFamily};

/// A calibrated baseline device.
///
/// Latency model per workload family:
///
/// ```text
/// t = max(executed_flops / (peak_flops * eff_family),
///         executed_flops * bytes_per_flop_family / mem_bw) + overhead
/// ```
///
/// Dense attention on big GEMMs is compute-limited (with an efficiency
/// well below peak because the softmax and unfused elementwise stages sit
/// between the two matmuls). Sparse window implementations are
/// memory-limited: chunking/unfolding multiplies buffer traffic, which the
/// per-family `bytes_per_flop` captures.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Device display name.
    pub name: String,
    /// Peak f32 throughput (FLOP/s).
    pub peak_flops: f64,
    /// Memory bandwidth (bytes/s).
    pub mem_bw: f64,
    /// Achieved fraction of peak on dense attention chains.
    pub dense_efficiency: f64,
    /// Effective buffer bytes moved per executed FLOP for 1-D banded
    /// (Longformer-style chunked) implementations.
    pub banded1d_bytes_per_flop: f64,
    /// Effective bytes per FLOP for 2-D windowed (ViL sliding-chunk /
    /// unfold) implementations.
    pub windowed2d_bytes_per_flop: f64,
    /// Fixed per-layer overhead (kernel launches, framework dispatch).
    pub overhead_s: f64,
    /// Energy per executed FLOP (picojoules) — the measured-energy model
    /// implied by the paper's Fig. 7b ratios.
    pub energy_per_flop_pj: f64,
}

impl Device {
    /// Latency of one attention layer under the workload's family.
    #[must_use]
    pub fn latency_s(&self, w: &BaselineWorkload) -> f64 {
        let flops = w.executed_flops();
        let (eff, bpf) = match w.family {
            // Dense GEMMs keep data resident; memory time is folded into
            // the dense efficiency (anchored to the paper's BERT
            // latencies, which scale perfectly quadratically).
            ExecutionFamily::Dense => (self.dense_efficiency, 0.0),
            ExecutionFamily::Banded1d => (self.dense_efficiency, self.banded1d_bytes_per_flop),
            ExecutionFamily::Windowed2d => (self.dense_efficiency, self.windowed2d_bytes_per_flop),
        };
        let compute = flops / (self.peak_flops * eff);
        let memory = flops * bpf / self.mem_bw;
        compute.max(memory) + self.overhead_s
    }

    /// Energy of one attention layer (per-FLOP model).
    #[must_use]
    pub fn energy_j(&self, w: &BaselineWorkload) -> f64 {
        w.executed_flops() * self.energy_per_flop_pj * 1e-12
    }
}

/// The paper's CPU baseline: Intel Xeon E5-2630 v3 (8 cores, 2.4 GHz,
/// AVX2) with MKL.
///
/// Calibration: peak = 8 cores x 2.4 GHz x 32 FLOP/cycle = 614.4 GFLOP/s;
/// stream bandwidth 59 GB/s (4-channel DDR4-1866); dense efficiency 0.25
/// (MKL GEMM chain with interleaved softmax); banded/windowed bytes-per-
/// FLOP 3.1/4.0 fit the paper's CPU speedups (83.57x / 83.12x / 101.31x)
/// to within ~15 %; 68 pJ/FLOP reproduces the Fig. 7b CPU energy ratios.
#[must_use]
pub fn cpu_xeon_e5_2630_v3() -> Device {
    Device {
        name: "Intel Xeon E5-2630 v3 (MKL)".into(),
        peak_flops: 614.4e9,
        mem_bw: 59.0e9,
        dense_efficiency: 0.25,
        banded1d_bytes_per_flop: 3.1,
        windowed2d_bytes_per_flop: 4.0,
        overhead_s: 20e-6,
        energy_per_flop_pj: 68.0,
    }
}

/// The paper's GPU baseline: NVIDIA GTX 1080Ti with PyTorch 1.5 + cuDNN.
///
/// Calibration: peak 11.34 TFLOP/s, 484 GB/s. Dense efficiency 0.1235
/// anchors the §2.1 measurements exactly (9.20 ms at n = 2048 -> achieved
/// ~1.4 TFLOP/s on the unfused attention chain, and the same efficiency
/// reproduces 145.70 ms at n = 8192). Banded/windowed bytes-per-FLOP
/// 2.2/8.0 fit the paper's GPU speedups (7.38x / 20.10x / 25.51x) to
/// within ~12 %; 115 pJ/FLOP reproduces the Fig. 7b GPU energy ratios.
#[must_use]
pub fn gtx_1080ti() -> Device {
    Device {
        name: "NVIDIA GTX 1080Ti (cuDNN)".into(),
        peak_flops: 11.34e12,
        mem_bw: 484.0e9,
        dense_efficiency: 0.1235,
        banded1d_bytes_per_flop: 2.2,
        windowed2d_bytes_per_flop: 8.0,
        overhead_s: 50e-6,
        energy_per_flop_pj: 115.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert(n: usize) -> BaselineWorkload {
        BaselineWorkload {
            name: format!("BERT-base n={n}"),
            seq_len: n,
            model_dim: 768,
            num_heads: 12,
            nnz: (n as u64) * (n as u64),
            family: ExecutionFamily::Dense,
        }
    }

    #[test]
    fn gpu_anchors_match_section_2_1() {
        let gpu = gtx_1080ti();
        // 9.20 ms at n = 2048.
        let t2048 = gpu.latency_s(&bert(2048)) * 1e3;
        assert!((t2048 - 9.20).abs() / 9.20 < 0.10, "t(2048) = {t2048} ms");
        // 145.70 ms at n = 8192 (the paper calls it ~16x).
        let t8192 = gpu.latency_s(&bert(8192)) * 1e3;
        assert!((t8192 - 145.70).abs() / 145.70 < 0.10, "t(8192) = {t8192} ms");
        let ratio = t8192 / t2048;
        assert!((ratio - 16.0).abs() < 1.0, "quadratic ratio {ratio}");
    }

    #[test]
    fn cpu_slower_than_gpu_on_dense() {
        let (cpu, gpu) = (cpu_xeon_e5_2630_v3(), gtx_1080ti());
        let w = bert(2048);
        assert!(cpu.latency_s(&w) > 5.0 * gpu.latency_s(&w));
    }

    #[test]
    fn sparse_families_memory_bound() {
        let gpu = gtx_1080ti();
        let w = BaselineWorkload {
            name: "longformer".into(),
            seq_len: 4096,
            model_dim: 768,
            num_heads: 12,
            nnz: 2_105_344,
            family: ExecutionFamily::Banded1d,
        };
        let t = gpu.latency_s(&w);
        // Effective throughput ~ bw / bytes-per-flop = 220 GFLOP/s.
        let eff = w.sparse_flops() / t;
        assert!((eff - 220e9).abs() / 220e9 < 0.15, "effective {eff}");
        // The 2-D family is slower per FLOP.
        let mut w2 = w.clone();
        w2.family = ExecutionFamily::Windowed2d;
        assert!(gpu.latency_s(&w2) > t);
    }

    #[test]
    fn energy_models() {
        let cpu = cpu_xeon_e5_2630_v3();
        let w = bert(1024);
        let e = cpu.energy_j(&w);
        assert!((e - w.dense_flops() * 68e-12).abs() < 1e-9);
    }

    #[test]
    fn overhead_dominates_tiny_layers() {
        let gpu = gtx_1080ti();
        let tiny = BaselineWorkload {
            name: "tiny".into(),
            seq_len: 8,
            model_dim: 64,
            num_heads: 1,
            nnz: 64,
            family: ExecutionFamily::Dense,
        };
        let t = gpu.latency_s(&tiny);
        assert!(t >= gpu.overhead_s);
        assert!(t < gpu.overhead_s * 1.1);
    }
}
