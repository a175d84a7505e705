use crate::PatternError;

/// One window component of a hybrid sparse attention pattern.
///
/// A window is a set of *relative offsets*: query `q_i` attends key `k_j`
/// whenever `j - i` is one of the window's offsets and `j` is inside the
/// sequence. Offsets run from `lo` to `hi` inclusive with a stride of
/// `dilation` (the paper's dilated window attention, §2.3); `dilation == 1`
/// gives plain sliding window attention.
///
/// The offset set is translation invariant: every query uses the same set,
/// shifted by its own position. This is exactly the property the SALO
/// dataflow exploits for key/value reuse between successive queries (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    lo: i64,
    hi: i64,
    dilation: usize,
}

impl Window {
    /// Creates a sliding window attending relative offsets `lo..=hi`.
    ///
    /// # Errors
    ///
    /// Returns an error if `lo > hi`.
    pub fn sliding(lo: i64, hi: i64) -> Result<Self, PatternError> {
        Self::dilated(lo, hi, 1)
    }

    /// Creates a dilated window attending offsets `lo, lo + d, ..., hi`.
    ///
    /// # Errors
    ///
    /// Returns an error if `lo > hi`, if `dilation` is zero, or if
    /// `hi - lo` is not a multiple of `dilation`.
    pub fn dilated(lo: i64, hi: i64, dilation: usize) -> Result<Self, PatternError> {
        if dilation == 0 {
            return Err(PatternError::ZeroDilation);
        }
        if lo > hi {
            return Err(PatternError::InvalidWindowRange { lo, hi });
        }
        let span = (hi - lo) as u64;
        if !span.is_multiple_of(dilation as u64) {
            return Err(PatternError::MisalignedDilation { lo, hi, dilation });
        }
        Ok(Self { lo, hi, dilation })
    }

    /// Creates a symmetric sliding window of total size `w` (the paper's
    /// window size parameter): offsets `-(w/2) ..= w - w/2 - 1`.
    ///
    /// For `w = 512` this yields offsets `-256..=255`, matching
    /// Longformer-Base-4096's window of 256 tokens to each side.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::EmptyWindow`] if `w == 0`.
    pub fn symmetric(w: usize) -> Result<Self, PatternError> {
        if w == 0 {
            return Err(PatternError::EmptyWindow);
        }
        let lo = -((w / 2) as i64);
        let hi = lo + w as i64 - 1;
        Self::sliding(lo, hi)
    }

    /// Creates a causal sliding window of size `w`: offsets `-(w-1) ..= 0`.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::EmptyWindow`] if `w == 0`.
    pub fn causal(w: usize) -> Result<Self, PatternError> {
        if w == 0 {
            return Err(PatternError::EmptyWindow);
        }
        Self::sliding(-(w as i64 - 1), 0)
    }

    /// Lower relative offset (`a` in the paper's `[a, b]` range).
    #[must_use]
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// Upper relative offset (`b` in the paper's `[a, b]` range).
    #[must_use]
    pub fn hi(&self) -> i64 {
        self.hi
    }

    /// Dilation (`d` in the paper); 1 for plain sliding windows.
    #[must_use]
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// Number of offsets in the window (`w = (hi - lo)/d + 1`), i.e. the
    /// number of keys each interior query attends through this window.
    #[must_use]
    pub fn width(&self) -> usize {
        ((self.hi - self.lo) as u64 / self.dilation as u64 + 1) as usize
    }

    /// Whether the window is dilated (`dilation > 1`).
    #[must_use]
    pub fn is_dilated(&self) -> bool {
        self.dilation > 1
    }

    /// Iterates the relative offsets of the window in increasing order.
    pub fn offsets(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.width() as i64).map(move |k| self.lo + k * self.dilation as i64)
    }

    /// Whether relative offset `delta = j - i` belongs to the window.
    #[must_use]
    pub fn contains_offset(&self, delta: i64) -> bool {
        delta >= self.lo
            && delta <= self.hi
            && (self.dilation == 1 || (delta - self.lo) % self.dilation as i64 == 0)
    }

    /// Shifts the window by a constant offset, preserving dilation.
    ///
    /// Used to build banded patterns such as the flattened 2-D windows of
    /// Vision Longformer, where each image row of the window becomes one
    /// shifted band.
    #[must_use]
    pub fn shifted(&self, delta: i64) -> Self {
        Self { lo: self.lo + delta, hi: self.hi + delta, dilation: self.dilation }
    }

    /// The causal restriction of this window: the offsets `<= 0`, on the
    /// same dilation grid. `None` if the window lies entirely in the
    /// future (`lo > 0`).
    ///
    /// The surviving upper bound is the largest grid point `lo + k*d`
    /// that is `<= 0`; it always exists when `lo <= 0` (at worst `lo`
    /// itself), so the result can never degenerate below `lo`.
    #[must_use]
    pub fn causal_clip(&self) -> Option<Self> {
        if self.lo > 0 {
            return None; // entirely in the future
        }
        let hi = self.hi.min(0);
        // Largest offset <= 0 on the window's grid. `hi - lo >= 0` here,
        // so truncating division is floor division and `aligned_hi` stays
        // in `[lo, 0]`.
        let aligned_hi = self.lo + ((hi - self.lo) / self.dilation as i64) * self.dilation as i64;
        debug_assert!((self.lo..=0).contains(&aligned_hi));
        Some(Self { lo: self.lo, hi: aligned_hi, dilation: self.dilation })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_window_offsets() {
        let w = Window::sliding(-2, 2).unwrap();
        assert_eq!(w.width(), 5);
        assert_eq!(w.offsets().collect::<Vec<_>>(), vec![-2, -1, 0, 1, 2]);
        assert!(w.contains_offset(0));
        assert!(!w.contains_offset(3));
    }

    #[test]
    fn dilated_window_offsets() {
        let w = Window::dilated(-4, 4, 2).unwrap();
        assert_eq!(w.width(), 5);
        assert_eq!(w.offsets().collect::<Vec<_>>(), vec![-4, -2, 0, 2, 4]);
        assert!(w.contains_offset(-2));
        assert!(!w.contains_offset(-1));
        assert!(w.is_dilated());
    }

    #[test]
    fn symmetric_matches_longformer_convention() {
        let w = Window::symmetric(512).unwrap();
        assert_eq!(w.lo(), -256);
        assert_eq!(w.hi(), 255);
        assert_eq!(w.width(), 512);
        // Odd windows are centered.
        let w = Window::symmetric(15).unwrap();
        assert_eq!(w.lo(), -7);
        assert_eq!(w.hi(), 7);
    }

    #[test]
    fn causal_window() {
        let w = Window::causal(4).unwrap();
        assert_eq!(w.offsets().collect::<Vec<_>>(), vec![-3, -2, -1, 0]);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert_eq!(
            Window::sliding(3, 1).unwrap_err(),
            PatternError::InvalidWindowRange { lo: 3, hi: 1 }
        );
        assert_eq!(Window::dilated(0, 4, 0).unwrap_err(), PatternError::ZeroDilation);
        assert_eq!(
            Window::dilated(0, 5, 2).unwrap_err(),
            PatternError::MisalignedDilation { lo: 0, hi: 5, dilation: 2 }
        );
        assert_eq!(Window::symmetric(0).unwrap_err(), PatternError::EmptyWindow);
        assert_eq!(Window::causal(0).unwrap_err(), PatternError::EmptyWindow);
    }

    #[test]
    fn shifted_preserves_width_and_dilation() {
        let w = Window::dilated(-4, 4, 2).unwrap().shifted(56);
        assert_eq!(w.lo(), 52);
        assert_eq!(w.hi(), 60);
        assert_eq!(w.width(), 5);
        assert_eq!(w.dilation(), 2);
    }
}
