//! E2 — Table 1: synthesis details of the SALO instance.
//!
//! Power and area come from the paper's Synopsys DC synthesis at FreePDK
//! 45 nm (we have no synthesis flow; see DESIGN.md §4). Everything else is
//! recomputed from the simulator configuration, including the derived
//! LUT storage of the fixed-point function units.

use salo_fixed::{ExpLut, RecipUnit};
use salo_paper::models::paper::table1;
use salo_paper::{banner, render_table};
use salo_sim::AcceleratorConfig;

pub fn run() {
    banner("Table 1: Synthesis details (paper values + derived configuration)");
    let config = AcceleratorConfig::default();
    let exp = ExpLut::new(config.exp_segments);
    let recip = RecipUnit::new(config.recip_entries);

    let rows = vec![
        vec![
            "PE array size".into(),
            format!("{} x {}", config.hw.pe_rows, config.hw.pe_cols),
            format!("{} x {}", table1::PE_ARRAY.0, table1::PE_ARRAY.1),
        ],
        vec![
            "Global PE column".into(),
            config.hw.global_cols.to_string(),
            table1::GLOBAL_PE_COLS.to_string(),
        ],
        vec![
            "Global PE row".into(),
            config.hw.global_rows.to_string(),
            table1::GLOBAL_PE_ROWS.to_string(),
        ],
        vec![
            "Weighted sum modules".into(),
            (config.hw.pe_rows + config.hw.global_rows).to_string(),
            table1::WEIGHTED_SUM_MODULES.to_string(),
        ],
        vec![
            "Query buffer".into(),
            format!("{} KB", config.buffers.query_kb),
            format!("{} KB", table1::BUFFERS_KB.0),
        ],
        vec![
            "Key buffer".into(),
            format!("{} KB", config.buffers.key_kb),
            format!("{} KB", table1::BUFFERS_KB.1),
        ],
        vec![
            "Value buffer".into(),
            format!("{} KB", config.buffers.value_kb),
            format!("{} KB", table1::BUFFERS_KB.2),
        ],
        vec![
            "Output buffer".into(),
            format!("{} KB", config.buffers.output_kb),
            format!("{} KB", table1::BUFFERS_KB.3),
        ],
        vec![
            "Frequency".into(),
            format!("{} GHz", config.freq_ghz),
            format!("{} GHz", table1::FREQUENCY_GHZ),
        ],
        vec![
            "Power".into(),
            format!("{:.2} mW (synthesis constant)", config.power_w * 1e3),
            format!("{} mW", table1::POWER_MW),
        ],
        vec![
            "Area".into(),
            format!("{:.2} mm2 (synthesis constant)", config.area_mm2),
            format!("{} mm2", table1::AREA_MM2),
        ],
        vec![
            "exp LUT (derived)".into(),
            format!("{} segments, {} bits", exp.segments(), exp.storage_bits()),
            "-".into(),
        ],
        vec![
            "recip LUT (derived)".into(),
            format!("{} entries, {} bits", recip.entries(), recip.storage_bits()),
            "-".into(),
        ],
        vec![
            "Peak throughput (derived)".into(),
            format!("{:.2} TMAC/s", config.peak_macs_per_s() / 1e12),
            "-".into(),
        ],
    ];
    print!("{}", render_table(&["parameter", "this reproduction", "paper (Table 1)"], &rows));
}
