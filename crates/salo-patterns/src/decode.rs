//! The decode view of a hybrid pattern: its causal clip and first
//! decodable step, for autoregressive generation.
//!
//! Prefill executes a pattern over a complete sequence at once; decoding
//! produces one query position `t` per step, attending only keys that
//! already exist (`j <= t`). The decode view fixes the semantics of a
//! [`HybridPattern`] under that regime:
//!
//! * every window is restricted to its causal part ([`HybridPattern::causal`]),
//!   preserving the dilation grid, then clipped to `[0, t]` at each step;
//! * a global *column* `g` contributes key `g` to every step with `t >= g`;
//! * a global *row* `g` is never decoded as a step — its query attends
//!   keys that may not exist yet at position `g`, so causal models place
//!   global tokens in the prompt and their rows accumulate incrementally
//!   as the sequence grows (the simulator's running global-duty partials).
//!
//! A step `t` is therefore *decodable* once every global token is in the
//! past (`t >= min_step`), and its key set then equals the corresponding
//! row of the causal prefill — the invariant the execution-level decode
//! datapath is tested against, bit for bit.

use crate::{HybridPattern, PatternError};

/// A [`HybridPattern`] prepared for autoregressive decoding: its causal
/// clip and the first decodable step ([`min_step`](Self::min_step)).
///
/// Construction clips the pattern once; step `t`'s keys are row `t` of
/// [`causal_pattern`](Self::causal_pattern).
///
/// # Example
///
/// ```
/// use salo_patterns::{HybridPattern, Window};
///
/// let p = HybridPattern::builder(16)
///     .window(Window::symmetric(5)?) // offsets -2..=2
///     .global_token(0)
///     .build()?;
/// let view = p.decode_view()?;
/// assert_eq!(view.min_step(), 1, "token 0 is global: decode starts at 1");
/// // Step 8 attends the causal window {6, 7, 8} plus the global key 0.
/// assert_eq!(view.causal_pattern().row_keys(8), vec![0, 6, 7, 8]);
/// # Ok::<(), salo_patterns::PatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeView {
    causal: HybridPattern,
    min_step: usize,
}

impl HybridPattern {
    /// Builds the decode view of this pattern.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::EmptyPattern`] if nothing survives causal
    /// clipping (every window entirely in the future and no globals).
    pub fn decode_view(&self) -> Result<DecodeView, PatternError> {
        let causal = self.causal()?;
        let min_step = causal.globals().iter().max().map_or(0, |&g| g + 1);
        Ok(DecodeView { causal, min_step })
    }
}

impl DecodeView {
    /// Sequence capacity `n` (the maximum number of decoded positions).
    #[must_use]
    pub fn n(&self) -> usize {
        self.causal.n()
    }

    /// The causally clipped pattern the view indexes — the pattern a
    /// prefill oracle must run for step outputs to be comparable.
    #[must_use]
    pub fn causal_pattern(&self) -> &HybridPattern {
        &self.causal
    }

    /// Consumes the view, yielding the causal pattern without a clone.
    #[must_use]
    pub fn into_causal_pattern(self) -> HybridPattern {
        self.causal
    }

    /// First decodable step: the position after the last global token
    /// (0 when the pattern has no globals). Positions before it belong to
    /// the prompt.
    #[must_use]
    pub fn min_step(&self) -> usize {
        self.min_step
    }
}

#[cfg(test)]
/// The per-step key sets, spelled out — the oracle the view tests check
/// the causal pattern's rows against.
impl DecodeView {
    /// The active key set of query position `t`: the causal window band
    /// clipped to `[0, t]` (dilation grid preserved) plus every global
    /// token `<= t`; for a global `t`, the whole history `0..=t`. Sorted
    /// and deduplicated.
    ///
    /// For decodable steps this equals the causal pattern's full row key
    /// set — no key is clipped away, which is exactly what makes the step
    /// computable from the existing history.
    ///
    /// # Panics
    ///
    /// Panics if `t >= n` (caller logic error, matching
    /// [`HybridPattern::row_keys`]).
    #[must_use]
    fn keys_at(&self, t: usize) -> Vec<usize> {
        assert!(t < self.causal.n(), "step {t} outside capacity {n}", n = self.causal.n());
        if self.causal.is_global(t) {
            return (0..=t).collect();
        }
        let mut keys = self.causal.row_keys(t);
        keys.retain(|&j| j <= t);
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Window;

    #[test]
    fn view_of_symmetric_window_with_sink() {
        let p = HybridPattern::builder(12)
            .window(Window::symmetric(7).unwrap()) // -3..=3
            .global_token(0)
            .build()
            .unwrap();
        let view = p.decode_view().unwrap();
        assert_eq!(view.n(), 12);
        assert_eq!(view.min_step(), 1);
        // Causal clipping: window keeps -3..=0 only.
        assert_eq!(view.keys_at(6), vec![0, 3, 4, 5, 6]);
        // Near the start, the band clips to [0, t].
        assert_eq!(view.keys_at(1), vec![0, 1]);
    }

    #[test]
    fn global_step_attends_whole_history() {
        let p = HybridPattern::builder(10)
            .window(Window::causal(2).unwrap())
            .global_token(3)
            .build()
            .unwrap();
        let view = p.decode_view().unwrap();
        assert_eq!(view.min_step(), 4);
        assert_eq!(view.keys_at(3), vec![0, 1, 2, 3]);
        // A pre-min_step non-global position clips the future global away.
        assert_eq!(view.keys_at(1), vec![0, 1]);
        // Decodable steps see the global key.
        assert_eq!(view.keys_at(5), vec![3, 4, 5]);
    }

    #[test]
    fn decodable_keys_match_causal_prefill_rows() {
        // The load-bearing invariant: for t >= min_step, keys_at equals the
        // causal pattern's full row key set.
        let p = HybridPattern::builder(40)
            .window(Window::symmetric(9).unwrap())
            .window(Window::dilated(-10, 8, 3).unwrap())
            .global_token(0)
            .global_token(2)
            .build()
            .unwrap();
        let view = p.decode_view().unwrap();
        assert_eq!(view.min_step(), 3);
        for t in view.min_step()..view.n() {
            assert_eq!(view.keys_at(t), view.causal_pattern().row_keys(t), "step {t}");
        }
    }

    #[test]
    fn dilation_grid_preserved_in_view() {
        let p = HybridPattern::builder(30)
            .window(Window::dilated(-7, 5, 3).unwrap()) // causal part: -7,-4,-1
            .build()
            .unwrap();
        let view = p.decode_view().unwrap();
        assert_eq!(view.min_step(), 0);
        assert_eq!(view.keys_at(10), vec![3, 6, 9]);
        assert_eq!(view.keys_at(2), vec![1], "grid clips to [0, t]");
    }

    #[test]
    fn future_only_pattern_has_no_view() {
        let p = HybridPattern::builder(8).window(Window::sliding(1, 3).unwrap()).build().unwrap();
        assert!(matches!(p.decode_view(), Err(PatternError::EmptyPattern)));
    }

    #[test]
    fn globals_only_view() {
        let p = HybridPattern::builder(6).global_token(1).build().unwrap();
        let view = p.decode_view().unwrap();
        assert_eq!(view.min_step(), 2);
        assert_eq!(view.keys_at(4), vec![1]);
        assert_eq!(view.keys_at(1), vec![0, 1], "global step sees its history");
    }
}
