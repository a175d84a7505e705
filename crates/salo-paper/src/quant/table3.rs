//! Assembly of the Table 3 substitute: three tasks, paper numbers
//! alongside.

use salo_patterns::{grid_2d, longformer};

use super::{run_task, TaskConfig, TaskResult};

/// One row of the quantization-accuracy table.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTableRow {
    /// Task name (the paper model it proxies).
    pub name: String,
    /// The paper dataset it proxies.
    pub proxy_for: String,
    /// Paper-reported original accuracy (%).
    pub paper_original: f64,
    /// Paper-reported quantized accuracy (%).
    pub paper_quantized: f64,
    /// Our synthetic-task result (fractions in `[0, 1]`).
    pub ours: TaskResult,
}

/// Runs the three proxy tasks. `scale` shrinks the workload for quick runs
/// (1 = the full benchmark size used by `table3_quantization`).
///
/// # Errors
///
/// Propagates kernel errors.
///
/// # Panics
///
/// Panics if `scale == 0`.
pub fn table3_rows(scale: usize) -> Result<Vec<QuantTableRow>, salo_kernels::KernelError> {
    assert!(scale > 0, "scale must be positive");
    let samples = 120 * scale;
    let tasks = [
        (
            "Longformer-window (synthetic)",
            "IMDB",
            95.34,
            95.20,
            TaskConfig {
                pattern: longformer(128 * scale.min(4), 16, 1).expect("pattern"),
                head_dim: 16,
                train_samples: samples * 3 / 5,
                test_samples: samples * 2 / 5,
                margin: 0.15,
                seed: 101,
            },
        ),
        (
            "Longformer-globals (synthetic)",
            "Hyperpartisan",
            93.42,
            93.46,
            TaskConfig {
                pattern: longformer(128 * scale.min(4), 24, 4).expect("pattern"),
                head_dim: 16,
                train_samples: samples * 3 / 5,
                test_samples: samples * 2 / 5,
                margin: 0.1,
                seed: 202,
            },
        ),
        (
            "ViL-2D-window (synthetic)",
            "ImageNet-1K",
            82.87,
            82.80,
            TaskConfig {
                pattern: grid_2d(12, 12, 5, 5, 1).expect("pattern"),
                head_dim: 16,
                train_samples: samples * 3 / 5,
                test_samples: samples * 2 / 5,
                margin: 0.08,
                seed: 303,
            },
        ),
    ];

    let mut rows = Vec::with_capacity(tasks.len());
    for (name, proxy, orig, quant, config) in tasks {
        rows.push(QuantTableRow {
            name: name.to_string(),
            proxy_for: proxy.to_string(),
            paper_original: orig,
            paper_quantized: quant,
            ours: run_task(&config)?,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_reproduce_the_claim_at_small_scale() {
        let rows = table3_rows(1).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            // The claim: quantization does not meaningfully degrade
            // accuracy. Allow a few points at this reduced sample size.
            let drop = row.ours.accuracy_f32 - row.ours.accuracy_quantized;
            assert!(drop.abs() < 0.1, "{}: drop {drop}", row.name);
            assert!(row.ours.accuracy_f32 > 0.8, "{}: f32 {}", row.name, row.ours.accuracy_f32);
            // Paper deltas are fractions of a point.
            assert!((row.paper_original - row.paper_quantized).abs() < 0.2);
        }
    }
}
