//! One accelerator pass: a query tile times a window-offset chunk.

/// Duty assigned to a global PE column during a pass: compute the scores of
/// the tile's queries against one global token's key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalColDuty {
    /// The global token (sequence index) whose key column is computed.
    pub token: usize,
    /// Queries (sequence indices) whose `(i, token)` score is computed for
    /// the first time in this pass. Queries already covered in earlier
    /// passes are skipped by the hardware's valid-bit.
    pub fresh_queries: Vec<u32>,
}

/// Duty assigned to a global PE row during a pass: compute one global
/// token's query against the keys streaming through the array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalRowDuty {
    /// The global token (sequence index) whose query row is computed.
    pub token: usize,
    /// Keys (sequence indices) scored for the first time in this pass.
    pub fresh_keys: Vec<u32>,
}

/// One pass of the PE array: queries `tile_start..tile_start+tile_len`
/// (virtual indices of a component) against offsets
/// `chunk_start..chunk_start+chunk_len` (indices into the component's
/// offset list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pass {
    /// Index into the plan's component list.
    pub component: usize,
    /// First virtual query row of the tile.
    pub tile_start: usize,
    /// Tile height (`<= pe_rows`).
    pub tile_len: usize,
    /// First offset index of the chunk.
    pub chunk_start: usize,
    /// Chunk width (`<= pe_cols`).
    pub chunk_len: usize,
    /// Global-column duties this pass (at most `global_cols` entries).
    pub global_col: Vec<GlobalColDuty>,
    /// Global-row duties this pass (at most `global_rows` entries).
    pub global_row: Vec<GlobalRowDuty>,
}

/// What a supplemental pass computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupplementalKind {
    /// Stream keys `[start, end)` past a global PE row for `token`.
    GlobalRow {
        /// The global token whose query row needs these keys.
        token: usize,
        /// Key range start (sequence index).
        start: usize,
        /// Key range end (exclusive).
        end: usize,
    },
    /// Load queries `[start, end)` against a global PE column for `token`.
    GlobalCol {
        /// The global token whose key column needs these queries.
        token: usize,
        /// Query range start (sequence index).
        start: usize,
        /// Query range end (exclusive).
        end: usize,
    },
}

/// A pass that exists only to feed a global PE unit: emitted when the
/// window passes do not naturally stream some keys/queries past the global
/// units. The paper's workloads never need these (their windows sweep the
/// whole sequence), but arbitrary user patterns can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupplementalPass {
    /// What the pass computes.
    pub kind: SupplementalKind,
}

impl Pass {
    /// Number of distinct keys streamed (after clipping).
    #[must_use]
    pub fn streamed_key_count(&self, offsets: &[i64], num_keys: usize) -> usize {
        self.streamed(offsets, num_keys).map(|(s, e)| e - s).sum()
    }

    /// The virtual key ranges streamed through the array during this pass,
    /// one at a time: the Minkowski sum of the tile rows and the chunk
    /// offsets, merged into disjoint ranges. `offsets` must be the owning
    /// component's offset list.
    fn streamed<'a>(
        &self,
        offsets: &'a [i64],
        num_keys: usize,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let chunk = offsets[self.chunk_start..self.chunk_start + self.chunk_len].iter();
        let (tile_start, tile_len) = (self.tile_start as i64, self.tile_len as i64);
        let mut chunk = chunk.map(move |&o| (tile_start + o, tile_start + o + tile_len)).peekable();
        // Each offset's row span, merged with the spans it overlaps or
        // touches (offsets ascend), then clipped to the keys.
        std::iter::from_fn(move || {
            let (lo, mut hi) = chunk.next()?;
            while let Some((_, next_hi)) = chunk.next_if(|&(next_lo, _)| next_lo <= hi) {
                hi = hi.max(next_hi);
            }
            Some((lo, hi))
        })
        .filter_map(move |(lo, hi)| {
            let (lo, hi) = (lo.max(0) as usize, (hi.max(0) as usize).min(num_keys));
            (lo < hi).then_some((lo, hi))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(tile_start: usize, tile_len: usize, chunk_start: usize, chunk_len: usize) -> Pass {
        Pass {
            component: 0,
            tile_start,
            tile_len,
            chunk_start,
            chunk_len,
            global_col: Vec::new(),
            global_row: Vec::new(),
        }
    }

    #[test]
    fn contiguous_offsets_stream_one_range() {
        let offsets: Vec<i64> = (-2..=2).collect();
        let p = pass(10, 4, 0, 5);
        // virtuals: 10..14 + (-2..=2) => 8..16 (exclusive 16)
        assert_eq!(p.streamed(&offsets, 100).collect::<Vec<_>>(), vec![(8, 16)]);
        assert_eq!(p.streamed_key_count(&offsets, 100), 8);
    }

    #[test]
    fn gapped_offsets_stream_separate_ranges() {
        let offsets: Vec<i64> = vec![-10, 0, 10];
        let p = pass(20, 3, 0, 3);
        assert_eq!(
            p.streamed(&offsets, 100).collect::<Vec<_>>(),
            vec![(10, 13), (20, 23), (30, 33)]
        );
    }

    #[test]
    fn overlapping_band_ranges_merge() {
        let offsets: Vec<i64> = vec![0, 2, 4];
        let p = pass(0, 4, 0, 3);
        // 0..4, 2..6, 4..8 merge into 0..8.
        assert_eq!(p.streamed(&offsets, 100).collect::<Vec<_>>(), vec![(0, 8)]);
    }

    #[test]
    fn clipping_at_sequence_edges() {
        let offsets: Vec<i64> = (-4..=0).collect();
        let p = pass(0, 4, 0, 5);
        // virtuals -4..4 clipped to 0..4.
        assert_eq!(p.streamed(&offsets, 100).collect::<Vec<_>>(), vec![(0, 4)]);
        // Clipping at the top end.
        let p = pass(98, 2, 4, 1); // offset 0 only
        assert_eq!(p.streamed(&offsets, 100).collect::<Vec<_>>(), vec![(98, 100)]);
        // Entirely out of range.
        let p = pass(0, 2, 0, 1); // offset -4
        assert!(p.streamed(&offsets, 100).next().is_none());
        assert_eq!(p.streamed_key_count(&offsets, 100), 0);
    }

    #[test]
    fn chunk_subsets_respected() {
        let offsets: Vec<i64> = vec![-8, -4, 0, 4, 8];
        let p = pass(50, 2, 1, 2); // offsets -4, 0
        assert_eq!(p.streamed(&offsets, 100).collect::<Vec<_>>(), vec![(46, 48), (50, 52)]);
    }
}
