use crate::SchedulerError;

/// Description of the spatial accelerator's geometry, as the data scheduler
/// sees it (the paper's "hardware metadata", Fig. 3).
///
/// The synthesized SALO instance (Table 1) is a `32 x 32` PE array with one
/// global PE row and one global PE column, which [`HardwareMeta::default`]
/// reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HardwareMeta {
    /// PE array rows (`#row`): the query-tile height.
    pub pe_rows: usize,
    /// PE array columns (`#col`): the window-chunk width.
    pub pe_cols: usize,
    /// Number of global PE rows (global-query units).
    pub global_rows: usize,
    /// Number of global PE columns (global-key units).
    pub global_cols: usize,
}

impl Default for HardwareMeta {
    fn default() -> Self {
        Self { pe_rows: 32, pe_cols: 32, global_rows: 1, global_cols: 1 }
    }
}

impl HardwareMeta {
    /// Creates a geometry, validating that the PE array is non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulerError::InvalidHardware`] if either array dimension
    /// is zero.
    pub fn new(
        pe_rows: usize,
        pe_cols: usize,
        global_rows: usize,
        global_cols: usize,
    ) -> Result<Self, SchedulerError> {
        if pe_rows == 0 || pe_cols == 0 {
            return Err(SchedulerError::InvalidHardware {
                reason: format!("PE array {pe_rows}x{pe_cols} has a zero dimension"),
            });
        }
        Ok(Self { pe_rows, pe_cols, global_rows, global_cols })
    }

    /// Total PEs in the main array.
    #[must_use]
    pub fn array_pes(&self) -> usize {
        self.pe_rows * self.pe_cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let hw = HardwareMeta::default();
        assert_eq!(hw.pe_rows, 32);
        assert_eq!(hw.pe_cols, 32);
        assert_eq!(hw.global_rows, 1);
        assert_eq!(hw.global_cols, 1);
        assert_eq!(hw.array_pes(), 1024);
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(HardwareMeta::new(0, 32, 1, 1).is_err());
        assert!(HardwareMeta::new(32, 0, 1, 1).is_err());
        assert!(HardwareMeta::new(1, 1, 0, 0).is_ok());
    }
}
