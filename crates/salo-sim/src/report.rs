//! Execution and timing reports.

use crate::{CycleBreakdown, TrafficReport};
use salo_trace::StageProfile;

/// PE utilization figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationReport {
    /// Fraction of array cell slots holding useful score positions
    /// (scheduler occupancy: clipping and masking cost).
    pub occupancy: f64,
    /// Fraction of array PE-cycles spent on useful MAC work — the paper's
    /// utilization metric (>75 % on hybrid patterns, §6.3).
    pub mac_utilization: f64,
}

/// A timing-only estimate (no functional execution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Cycle totals.
    pub cycles: CycleBreakdown,
    /// Wall-clock seconds at the configured frequency.
    pub time_s: f64,
    /// Lumped energy (synthesized power x time).
    pub energy_j: f64,
    /// Utilization figures.
    pub utilization: UtilizationReport,
    /// Buffer traffic estimate.
    pub traffic: TrafficReport,
}

/// The report attached to a functional execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// The timing estimate for the executed plan, lumped energy included.
    pub timing: TimingReport,
    /// Fixed-point saturation events observed (0 in healthy runs).
    pub saturation_events: u64,
    /// Host-measured per-stage cost of the lowered datapath, present when
    /// the executing scratch had profiling enabled
    /// ([`ExecScratch::set_profiling`](crate::ExecScratch::set_profiling)).
    pub stages: Option<StageProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_are_plain_data() {
        let cycles =
            CycleBreakdown { passes: 1, per_pass: 2, fill_drain: 3, per_head: 5, total: 5 };
        let t = TimingReport {
            cycles,
            time_s: 5e-9,
            energy_j: 1e-9,
            utilization: UtilizationReport { occupancy: 0.9, mac_utilization: 0.8 },
            traffic: TrafficReport::default(),
        };
        assert_eq!(t.cycles.total, 5);
        let e = ExecutionReport { timing: t, saturation_events: 0, stages: None };
        assert_eq!(e.saturation_events, 0);
        assert!(e.stages.is_none());
    }
}
