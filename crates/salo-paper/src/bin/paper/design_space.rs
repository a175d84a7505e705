//! Design-space exploration: array geometry at a fixed 1024-PE budget,
//! scored on latency, power, area, and efficiency — the quantitative
//! backdrop to the paper's 32x32 choice.
//!
//! Latency comes from real scheduler plans through the cycle model; power
//! and area from the component model calibrated to Table 1 (see
//! `salo_sim::AreaPowerModel`). The global-token capacity column shows the
//! constraint the paper states in §5.2: `n_g <= min(n/#row, w/#col)`.

use salo_core::Salo;
use salo_paper::models::longformer_base_4096;
use salo_paper::{banner, fmt_time, render_table};
use salo_scheduler::HardwareMeta;
use salo_sim::{bandwidth_report, AcceleratorConfig, AreaPowerModel, CycleModel};

pub fn run() {
    banner("Design space: 1024-PE geometries on Longformer-Base-4096");
    let workload = longformer_base_4096();
    let model = AreaPowerModel::calibrated();
    let (n, w) = (4096usize, 512usize);

    let mut rows = Vec::new();
    for (r, c) in [(8usize, 128usize), (16, 64), (32, 32), (64, 16), (128, 8)] {
        let config = AcceleratorConfig {
            hw: HardwareMeta::new(r, c, 1, 1).expect("hw"),
            ..Default::default()
        };
        let salo = Salo::new(config.clone());
        let compiled = salo.compile(&workload.pattern, &workload.shape).expect("plan");
        let t = salo.estimate(&compiled);
        let ap = model.estimate(&config);
        let energy_mj = ap.power_w * t.time_s * 1e3;
        let ng_capacity = (n / r).min(w / c);
        let interval = CycleModel::new(&config).pass_interval(64);
        let bw = bandwidth_report(&config, 64, interval);
        rows.push(vec![
            format!("{r}x{c}"),
            fmt_time(t.time_s),
            format!("{:.1}%", t.utilization.mac_utilization * 100.0),
            format!("{:.1} mW", ap.power_w * 1e3),
            format!("{:.2} mm2", ap.area_mm2),
            format!("{energy_mj:.2} mJ"),
            ng_capacity.to_string(),
            if bw.feasible {
                "yes".into()
            } else {
                let worst = bw.output_bpc.max(bw.key_bpc).max(bw.query_bpc);
                format!("no ({worst:.0} B/cy)")
            },
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "geometry",
                "latency",
                "util",
                "power",
                "area",
                "energy/layer",
                "max globals",
                "ports ok"
            ],
            &rows
        )
    );
    println!(
        "\ntaller arrays amortize the stage-3 ripple and look faster — but their \
         short intervals exceed the output-buffer port bandwidth (last column): \
         they are not schedulable as modeled. 32x32 sits on the energy knee, \
         balances the global-token bounds (n/#row vs w/#col) and meets its \
         port budget — the paper's pick."
    );
}
