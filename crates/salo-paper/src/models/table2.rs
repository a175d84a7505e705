//! Reproduction of Table 2: key parameters of the attention layers.

use super::{longformer_base_4096, vil_stage1, vil_stage2, Workload};

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Workload name.
    pub name: String,
    /// Sequence length description ("4096" or "56 x 56").
    pub sequence: String,
    /// Window size description ("512" or "15 x 15").
    pub window: String,
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// Number of global tokens.
    pub global_tokens: usize,
    /// Nominal sparsity (the paper's Table 2 column).
    pub sparsity: f64,
    /// Exact density after clipping/overlap (ours, for comparison).
    pub exact_density: f64,
}

fn row(w: &Workload, sequence: &str, window: &str) -> Table2Row {
    let s = w.stats();
    Table2Row {
        name: w.name.clone(),
        sequence: sequence.to_string(),
        window: window.to_string(),
        hidden: w.shape.model_dim(),
        global_tokens: w.pattern.globals().len(),
        sparsity: s.nominal_density,
        exact_density: s.density,
    }
}

/// Builds the three rows of Table 2 from the workload definitions.
#[must_use]
pub fn table2_rows() -> Vec<Table2Row> {
    vec![
        row(&longformer_base_4096(), "4096", "512"),
        row(&vil_stage1(), "56 x 56", "15 x 15"),
        row(&vil_stage2(), "28 x 28", "15 x 15"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_table2() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 3);
        // Paper values: 0.125, 0.072, 0.288.
        let paper = [0.125, 0.072, 0.288];
        for (row, &expect) in rows.iter().zip(&paper) {
            assert!(
                (row.sparsity - expect).abs() < 0.004,
                "{}: {} vs paper {}",
                row.name,
                row.sparsity,
                expect
            );
            assert_eq!(row.global_tokens, 1);
            // Exact density differs only by boundary clipping.
            assert!(row.exact_density <= row.sparsity + 1e-9);
        }
        assert_eq!(rows[0].hidden, 768);
        assert_eq!(rows[1].hidden, 192);
        assert_eq!(rows[2].hidden, 384);
    }
}
