use crate::{HybridPattern, PatternError};

/// A dense boolean attention mask: `n x n`, row-major, `true` where the score
/// is kept.
///
/// Used as the ground truth in tests and as the input to
/// [`fit_pattern`](crate::fit_pattern), which decomposes an arbitrary mask
/// back into SALO's window/global component language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseMask {
    n: usize,
    bits: Vec<bool>,
}

impl DenseMask {
    /// Creates an all-false mask of size `n x n`.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::EmptySequence`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, PatternError> {
        if n == 0 {
            return Err(PatternError::EmptySequence);
        }
        Ok(Self { n, bits: vec![false; n * n] })
    }

    /// Materializes a [`HybridPattern`] into a dense mask.
    #[must_use]
    pub fn from_pattern(p: &HybridPattern) -> Self {
        let n = p.n();
        let mut mask = Self { n, bits: vec![false; n * n] };
        for i in 0..n {
            for j in p.row_keys(i) {
                mask.bits[i * n + j] = true;
            }
        }
        mask
    }

    /// The *exact* 2-D window mask over an `h x w` grid (clipped at image
    /// edges, no flattening wrap-around), plus `ng` global tokens.
    ///
    /// This is what a 2-D vision model actually computes; the flattened
    /// band approximation used by [`grid_2d`](crate::grid_2d) differs at the
    /// image-row boundaries. Comparing the two quantifies that divergence.
    ///
    /// # Errors
    ///
    /// Returns an error if any extent is zero.
    pub fn grid_2d_exact(
        h: usize,
        w: usize,
        wh: usize,
        ww: usize,
        ng: usize,
    ) -> Result<Self, PatternError> {
        if h == 0 || w == 0 || wh == 0 || ww == 0 {
            return Err(PatternError::InvalidGrid { reason: "zero extent".into() });
        }
        let n = h * w;
        let mut mask = Self::new(n)?;
        let (hh, hw) = ((wh / 2) as i64, (ww / 2) as i64);
        for r in 0..h as i64 {
            for c in 0..w as i64 {
                let i = (r * w as i64 + c) as usize;
                for dr in -hh..=hh {
                    for dc in -hw..=hw {
                        let (rr, cc) = (r + dr, c + dc);
                        if rr >= 0 && rr < h as i64 && cc >= 0 && cc < w as i64 {
                            mask.bits[i * n + (rr * w as i64 + cc) as usize] = true;
                        }
                    }
                }
            }
        }
        for g in 0..ng.min(n) {
            for t in 0..n {
                mask.bits[g * n + t] = true;
                mask.bits[t * n + g] = true;
            }
        }
        Ok(mask)
    }

    /// Mask size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether position `(i, j)` is kept.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `j >= n`.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n);
        self.bits[i * self.n + j]
    }

    /// Sets position `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `j >= n`.
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        assert!(i < self.n && j < self.n);
        self.bits[i * self.n + j] = value;
    }

    /// Number of kept positions.
    #[must_use]
    pub fn nnz(&self) -> u64 {
        self.bits.iter().filter(|&&b| b).count() as u64
    }

    /// Positions kept in `self` but not in `other`, plus vice versa.
    ///
    /// # Panics
    ///
    /// Panics if the masks have different sizes.
    #[must_use]
    fn symmetric_difference(&self, other: &Self) -> u64 {
        assert_eq!(self.n, other.n, "mask size mismatch");
        self.bits.iter().zip(&other.bits).filter(|(a, b)| a != b).count() as u64
    }

    /// Fraction of positions on which `self` and `other` agree.
    #[must_use]
    pub fn agreement(&self, other: &Self) -> f64 {
        1.0 - self.symmetric_difference(other) as f64 / (self.n as f64 * self.n as f64)
    }

    /// Iterates kept positions in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.n;
        self.bits.iter().enumerate().filter(|(_, &b)| b).map(move |(idx, _)| (idx / n, idx % n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{grid_2d, longformer};

    #[test]
    fn from_pattern_round_trips_nnz() {
        let p = longformer(64, 8, 1).unwrap();
        let m = DenseMask::from_pattern(&p);
        assert_eq!(m.nnz(), p.nnz());
        for (i, j) in m.iter() {
            assert!(p.allows(i, j));
        }
    }

    #[test]
    fn exact_2d_vs_flattened_bands() {
        let exact = DenseMask::grid_2d_exact(6, 6, 3, 3, 0).unwrap();
        let flat = DenseMask::from_pattern(&grid_2d(6, 6, 3, 3, 0).unwrap());
        // Flattened version wraps at image-row edges, so it keeps strictly
        // more positions at columns 0 and w-1 and misses none of the exact
        // interior.
        for (i, j) in exact.iter() {
            let (r1, c1) = (i / 6, i % 6);
            let (r2, c2) = (j / 6, j % 6);
            // interior positions agree
            if (1..5).contains(&c1) && (1..5).contains(&c2) && r1.abs_diff(r2) <= 1 {
                assert!(flat.get(i, j), "flat missing interior ({i},{j})");
            }
        }
        assert!(flat.agreement(&exact) > 0.9);
    }

    #[test]
    fn set_get_and_diff() {
        let mut a = DenseMask::new(4).unwrap();
        let b = DenseMask::new(4).unwrap();
        assert_eq!(a.symmetric_difference(&b), 0);
        a.set(1, 2, true);
        assert!(a.get(1, 2));
        assert_eq!(a.symmetric_difference(&b), 1);
        assert!((a.agreement(&b) - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty() {
        assert!(DenseMask::new(0).is_err());
        assert!(DenseMask::grid_2d_exact(0, 4, 3, 3, 0).is_err());
    }

    #[test]
    fn global_tokens_in_exact_grid() {
        let m = DenseMask::grid_2d_exact(4, 4, 3, 3, 1).unwrap();
        for t in 0..16 {
            assert!(m.get(0, t));
            assert!(m.get(t, 0));
        }
    }
}
