//! Energy accounting.
//!
//! The paper reports SALO's energy as synthesized power times execution
//! time (Table 1's 532.66 mW at 1 GHz), and that lumped `P × t` figure is
//! the model: [`EnergyModel::lumped_energy_j`] fills
//! [`TimingReport::energy_j`](crate::TimingReport::energy_j), which is the
//! only energy the wire reply, the serving report and Fig. 7b read.

use crate::AcceleratorConfig;

/// The accelerator energy model.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    power_w: f64,
    cycle_time_s: f64,
}

impl EnergyModel {
    /// Builds the model from a configuration's power and frequency.
    #[must_use]
    pub fn new(config: &AcceleratorConfig) -> Self {
        Self { power_w: config.power_w, cycle_time_s: config.cycle_time_s() }
    }

    /// Lumped energy for a cycle count: `P x t` (the paper's methodology).
    #[must_use]
    pub fn lumped_energy_j(&self, cycles: u64) -> f64 {
        self.power_w * cycles as f64 * self.cycle_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lumped_energy_is_power_times_time() {
        let m = EnergyModel::new(&AcceleratorConfig::default());
        // 1e9 cycles at 1 GHz = 1 s -> 0.53266 J.
        let e = m.lumped_energy_j(1_000_000_000);
        assert!((e - 0.53266).abs() < 1e-9, "e {e}");
    }
}
