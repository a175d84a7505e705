//! Order statistics for noisy hosts.
//!
//! A small shared guest runs at two speeds: the full one while the
//! neighbouring hardware thread is idle, and about 0.7 of it while the
//! neighbour is busy, changing every few tens of milliseconds and in
//! proportions that drift over minutes. Whole-run means and medians
//! follow that mix, not the program. The interference only ever slows a
//! run down, so the program's own speed is the fast end of what a run
//! saw: a run is cut into short windows, and the reported value is the
//! *quiet window* — the best window that still has [`BEYOND`] windows
//! beyond it (the highest for a throughput, the lowest for a latency).
//! Ten lucky windows cannot move it, nearly all the others may stall
//! before it moves, and it is always a window that really happened. It is
//! the same rule a tail percentile is reported by, turned towards the
//! quiet end.

/// Nearest-rank percentile of ascending `sorted`: the smallest element
/// with at least `q` of the samples at or below it. `q` in `(0, 1]`.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The finite values, ascending (a window without samples is NaN).
fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median by nearest rank (the lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted_copy(values), 0.5).unwrap_or(0.0)
}

/// The quiet window of a higher-is-better series.
pub fn quiet_high(windows: &[f64]) -> f64 {
    tail(&sorted_copy(windows), 1.0).value
}

/// The quiet window of a lower-is-better series.
pub fn quiet_low(windows: &[f64]) -> f64 {
    let mut descending = sorted_copy(windows);
    descending.reverse();
    tail(&descending, 1.0).value
}

/// A tail percentile that is a real order statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile actually reported, at most the one asked for.
    pub percentile: f64,
    pub samples: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The highest percentile not above `want` that still has at least
/// [`BEYOND`] samples beyond it; with fewer than `2 * BEYOND + 1`
/// samples no tail is supported and the median is returned. `sorted`
/// runs from the near end to the far end of the distribution.
pub fn tail(sorted: &[f64], want: f64) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 0.0, samples: 0 };
    }
    // 0-based index of the order statistic with exactly BEYOND above it.
    let deepest = n.saturating_sub(BEYOND + 1);
    let wanted = ((want * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = wanted.min(deepest).max((n - 1) / 2);
    Tail { value: sorted[index], percentile: (index + 1) as f64 / n as f64, samples: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_window_ignores_lucky_windows_and_stalls() {
        let calm = [100.0; 40];
        assert_eq!(quiet_high(&calm), 100.0);
        assert_eq!(quiet_low(&calm), 100.0);

        // Throughput: one window twice as fast, two windows stalled.
        let mut tput = calm;
        tput[3] = 200.0;
        assert_eq!(quiet_high(&tput), 100.0, "a single lucky window must not move it");
        tput[7] = 5.0;
        tput[8] = 10.0;
        assert_eq!(quiet_high(&tput), 100.0, "a two-window stall must not move it");

        // Latency: one window twice as fast, two windows stalled.
        let mut lat = calm;
        lat[0] = 50.0;
        assert_eq!(quiet_low(&lat), 100.0, "a single lucky window must not move it");
        lat[5] = 900.0;
        lat[6] = 4000.0;
        assert_eq!(quiet_low(&lat), 100.0, "a two-window stall must not move it");

        // A whole-run mean would have moved on both.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&tput) - 100.0).abs() > 0.5 && (mean(&lat) - 100.0).abs() > 100.0);

        // A host that is busy for most of the run: the quiet tenth is
        // still found, from either end.
        let mut busy = [70.0; 40];
        busy[..12].fill(100.0);
        assert_eq!(quiet_high(&busy), 100.0);
        let mut slow = [140.0; 40];
        slow[20..32].fill(100.0);
        assert_eq!(quiet_low(&slow), 100.0);
    }

    #[test]
    fn quiet_window_is_a_window_that_happened_with_ten_beyond() {
        let windows: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(quiet_high(&windows), 230.0);
        assert_eq!(quiet_low(&windows), 11.0);
        // Too few windows for ten beyond: the median, never an extreme.
        let few = [9.0, 1.0, 5.0, 7.0, 3.0, 11.0, 2.0, 8.0];
        assert_eq!(quiet_high(&few), 5.0);
        assert_eq!(quiet_low(&few), 7.0);
        assert_eq!(quiet_high(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_percentile() {
        let sorted: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&sorted, 0.99);
        assert_eq!((t.value, t.percentile, t.samples), (1980.0, 0.99, 2000));

        // 500 samples cannot support p99 (5 beyond): fall back to the
        // order statistic with exactly ten beyond it.
        let t = tail(&sorted[..500], 0.99);
        assert_eq!(t.value, 490.0);
        assert_eq!(sorted[..500].iter().filter(|&&v| v > t.value).count(), BEYOND);
        assert!(t.percentile < 0.99);

        // Exactly at the limit: 1000 samples, p99 has ten beyond.
        assert_eq!(tail(&sorted[..1000], 0.99).value, 990.0);

        // Too few for any tail: the median, never an extreme.
        let t = tail(&sorted[..15], 0.99);
        assert_eq!((t.value, t.samples), (8.0, 15));
        assert_eq!(tail(&[], 0.99).samples, 0);
    }
}
