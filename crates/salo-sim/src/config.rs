//! Accelerator configuration: the paper's Table 1 instance and knobs for
//! the ablation studies.

use salo_patterns::StableHasher;
use salo_scheduler::HardwareMeta;

/// Per-stage timing parameters (cycles), matching the five-stage data path
/// of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// Stage-2 latency: LUT lookup plus one MAC.
    pub exp_cycles: u32,
    /// Latency of the reciprocal unit at the row edge (stage 3).
    pub inv_latency: u32,
    /// Stage-4 normalization multiply.
    pub norm_cycles: u32,
    /// Inter-pass synchronization bubble in pipelined mode.
    pub sync_cycles: u32,
}

impl Default for TimingParams {
    fn default() -> Self {
        Self { exp_cycles: 2, inv_latency: 4, norm_cycles: 1, sync_cycles: 1 }
    }
}

/// On-chip buffer sizes (KB), from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferConfig {
    /// Query buffer (16 KB in Table 1).
    pub query_kb: usize,
    /// Key buffer (32 KB).
    pub key_kb: usize,
    /// Value buffer (32 KB).
    pub value_kb: usize,
    /// Output buffer (32 KB).
    pub output_kb: usize,
}

impl Default for BufferConfig {
    fn default() -> Self {
        Self { query_kb: 16, key_kb: 32, value_kb: 32, output_kb: 32 }
    }
}

/// Full accelerator configuration.
///
/// [`AcceleratorConfig::default`] reproduces the synthesized instance of
/// Table 1: a `32 x 32` PE array with one global row/column at 1 GHz,
/// 532.66 mW and 4.56 mm² in FreePDK 45 nm.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Array geometry (shared with the data scheduler).
    pub hw: HardwareMeta,
    /// Clock frequency in GHz (Table 1: 1 GHz).
    pub freq_ghz: f64,
    /// Segments in the piecewise-linear exponential LUT.
    pub exp_segments: usize,
    /// Entries in the reciprocal LUT.
    pub recip_entries: usize,
    /// Stage timing parameters.
    pub timing: TimingParams,
    /// On-chip buffers.
    pub buffers: BufferConfig,
    /// Synthesized power (W), Table 1: 532.66 mW.
    pub power_w: f64,
    /// Synthesized area (mm²), Table 1: 4.56 mm².
    pub area_mm2: f64,
    /// Whether consecutive passes overlap in the PE pipeline (stage 1 of
    /// pass `p+1` fills while stages 3–5 of pass `p` drain). On by
    /// default; disabling it is the pipelining ablation.
    pub pipelined: bool,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self {
            hw: HardwareMeta::default(),
            freq_ghz: 1.0,
            exp_segments: 32,
            recip_entries: 64,
            timing: TimingParams::default(),
            buffers: BufferConfig::default(),
            power_w: 0.53266,
            area_mm2: 4.56,
            pipelined: true,
        }
    }
}

impl AcceleratorConfig {
    /// Peak MAC throughput of the PE array in MAC/s.
    #[must_use]
    pub fn peak_macs_per_s(&self) -> f64 {
        self.hw.array_pes() as f64 * self.freq_ghz * 1e9
    }

    /// Cycle time in seconds.
    #[must_use]
    pub fn cycle_time_s(&self) -> f64 {
        1e-9 / self.freq_ghz
    }

    /// A stable 64-bit fingerprint of the full configuration.
    ///
    /// `AcceleratorConfig` carries `f64` fields, so it cannot derive
    /// `Eq`/`Hash`; the fingerprint hashes every field (floats by IEEE-754
    /// bit pattern) with the release-stable [`StableHasher`], making the
    /// configuration usable inside persistent cache keys. Equal configs
    /// always fingerprint identically (modulo `-0.0`/`NaN` bit
    /// distinctions); distinct configs collide only with ~2^-64
    /// probability, so cache users should verify the actual config on a
    /// hit, as `salo-serve`'s plan cache does.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive destructuring: adding a field without hashing it is a
        // compile error, so a new knob can never silently alias plan-cache
        // keys of configs that differ in it.
        let Self {
            hw: HardwareMeta { pe_rows, pe_cols, global_rows, global_cols },
            freq_ghz,
            exp_segments,
            recip_entries,
            timing: TimingParams { exp_cycles, inv_latency, norm_cycles, sync_cycles },
            buffers: BufferConfig { query_kb, key_kb, value_kb, output_kb },
            power_w,
            area_mm2,
            pipelined,
        } = *self;
        let mut h = StableHasher::new();
        h.write_usize(pe_rows);
        h.write_usize(pe_cols);
        h.write_usize(global_rows);
        h.write_usize(global_cols);
        h.write_f64(freq_ghz);
        h.write_usize(exp_segments);
        h.write_usize(recip_entries);
        h.write_u64(u64::from(exp_cycles));
        h.write_u64(u64::from(inv_latency));
        h.write_u64(u64::from(norm_cycles));
        h.write_u64(u64::from(sync_cycles));
        h.write_usize(query_kb);
        h.write_usize(key_kb);
        h.write_usize(value_kb);
        h.write_usize(output_kb);
        h.write_f64(power_w);
        h.write_f64(area_mm2);
        h.write_bool(pipelined);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = AcceleratorConfig::default();
        assert_eq!(c.hw.pe_rows, 32);
        assert_eq!(c.hw.pe_cols, 32);
        assert!((c.freq_ghz - 1.0).abs() < f64::EPSILON);
        assert!((c.power_w - 0.53266).abs() < 1e-9);
        assert!((c.area_mm2 - 4.56).abs() < 1e-9);
        assert_eq!(c.buffers.query_kb, 16);
        assert_eq!(c.buffers.key_kb, 32);
        assert_eq!(c.buffers.value_kb, 32);
        assert_eq!(c.buffers.output_kb, 32);
        assert!(c.pipelined);
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = AcceleratorConfig::default();
        assert_eq!(base.fingerprint(), AcceleratorConfig::default().fingerprint());

        let variants = [
            AcceleratorConfig { freq_ghz: 2.0, ..AcceleratorConfig::default() },
            AcceleratorConfig { exp_segments: 16, ..AcceleratorConfig::default() },
            AcceleratorConfig { pipelined: false, ..AcceleratorConfig::default() },
            AcceleratorConfig {
                hw: HardwareMeta::new(16, 64, 1, 1).unwrap(),
                ..AcceleratorConfig::default()
            },
            AcceleratorConfig {
                timing: TimingParams { sync_cycles: 2, ..TimingParams::default() },
                ..AcceleratorConfig::default()
            },
            AcceleratorConfig {
                buffers: BufferConfig { key_kb: 64, ..BufferConfig::default() },
                ..AcceleratorConfig::default()
            },
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "variant {v:?} must differ");
        }
    }

    #[test]
    fn peak_throughput() {
        let c = AcceleratorConfig::default();
        // 1024 PEs at 1 GHz: ~1.02e12 MAC/s — "nearly equal" to Sanger's
        // 64x16 array at the same frequency (§6.3).
        assert!((c.peak_macs_per_s() - 1.024e12).abs() < 1e9);
        assert!((c.cycle_time_s() - 1e-9).abs() < 1e-18);
    }
}
