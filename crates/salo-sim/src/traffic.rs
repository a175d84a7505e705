//! Buffer traffic accounting: the data-reuse claim of §4.1, quantified.
//!
//! SALO's diagonal connections let a key/value vector entering the array
//! serve up to `#row` successive queries; without them every PE row would
//! load its own copy from the key/value buffers. This module derives both
//! figures from an execution plan so the ablation bench can report the
//! reuse factor.

use salo_scheduler::{ExecutionPlan, PlanStats};

/// Byte traffic between buffers and the PE array for one head.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrafficReport {
    /// Key+value bytes streamed with the diagonal-reuse dataflow.
    pub kv_bytes_diagonal: u64,
    /// Key+value bytes a reuse-free dataflow would load (one copy per
    /// active cell).
    pub kv_bytes_naive: u64,
    /// Query bytes loaded (one row per tile row per pass).
    pub q_bytes: u64,
    /// Output bytes written (16-bit elements, once per query row).
    pub out_bytes: u64,
}

impl TrafficReport {
    /// Derives traffic for head dimension `d` from a plan.
    ///
    /// Inputs are 8-bit (1 byte/element), outputs 16-bit.
    #[must_use]
    pub fn from_plan(plan: &ExecutionPlan, d: usize) -> Self {
        let q_loads = plan.passes().iter().map(|p| p.tile_len as u64).sum();
        Self::from_parts(&plan.stats(), q_loads, plan.n(), d)
    }

    /// Derives traffic from precomputed plan figures — the form the
    /// lowered execution path uses, with no plan traversal. `q_loads` is
    /// the query-row load count summed over main passes.
    #[must_use]
    pub fn from_parts(stats: &PlanStats, q_loads: u64, n: usize, d: usize) -> Self {
        let d = d as u64;
        // Each streamed key vector brings its value vector along (k and v
        // share the diagonal path, Fig. 5).
        Self {
            kv_bytes_diagonal: stats.streamed_keys * d * 2,
            kv_bytes_naive: stats.naive_key_loads * d * 2,
            q_bytes: q_loads * d,
            out_bytes: n as u64 * d * 2,
        }
    }

    /// The reuse factor: naive loads over diagonal loads.
    #[must_use]
    pub fn reuse_factor(&self) -> f64 {
        if self.kv_bytes_diagonal == 0 {
            return 1.0;
        }
        self.kv_bytes_naive as f64 / self.kv_bytes_diagonal as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salo_patterns::sliding_only;
    use salo_scheduler::HardwareMeta;

    #[test]
    fn reuse_factor_substantial_for_sliding_windows() {
        let p = sliding_only(512, 64).unwrap();
        let plan = ExecutionPlan::build(&p, HardwareMeta::default()).unwrap();
        let t = TrafficReport::from_plan(&plan, 64);
        // With a 32-row array, each streamed vector serves up to 32 rows.
        assert!(t.reuse_factor() > 8.0, "reuse {}", t.reuse_factor());
        assert!(t.reuse_factor() <= 32.0 + 1e-9);
        assert!(t.q_bytes > 0);
        assert_eq!(t.out_bytes, 512 * 64 * 2);
    }

    #[test]
    fn default_is_zeroed() {
        let t = TrafficReport::default();
        assert_eq!((t.kv_bytes_diagonal, t.kv_bytes_naive, t.q_bytes, t.out_bytes), (0, 0, 0, 0));
        assert_eq!(t.reuse_factor(), 1.0);
    }
}
