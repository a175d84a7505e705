//! A sorted set of disjoint half-open index ranges.
//!
//! Used by the global-token scheduler to track which keys/queries a global
//! PE unit has already seen, so that every `(global token, position)` pair
//! is computed exactly once across passes (§5.2).

/// A set of `usize` indices stored as sorted, disjoint, non-adjacent
/// half-open ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    ranges: Vec<(usize, usize)>,
}

impl IntervalSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `index` is in the set.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        self.ranges
            .binary_search_by(|&(s, e)| {
                if index < s {
                    std::cmp::Ordering::Greater
                } else if index >= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Inserts a single index; returns `true` if it was fresh.
    pub fn insert(&mut self, index: usize) -> bool {
        self.insert_range(index, index + 1) == 1
    }

    /// Inserts `[start, end)`; returns how many indices were fresh.
    ///
    /// The common cases write in place: a range that touches no stored
    /// range is inserted, one that touches a single range widens it.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn insert_range(&mut self, start: usize, end: usize) -> usize {
        assert!(start <= end, "inverted range");
        if start == end {
            return 0;
        }
        // The stored ranges overlapping or adjacent to [start, end).
        let first = self.ranges.partition_point(|&(_, e)| e < start);
        let last = first + self.ranges[first..].partition_point(|&(s, _)| s <= end);
        if first == last {
            self.ranges.insert(first, (start, end));
            return end - start;
        }
        let touched = &self.ranges[first..last];
        let already: usize = touched.iter().map(|&(s, e)| e.min(end) - s.max(start)).sum();
        self.ranges[first] = (start.min(touched[0].0), end.max(touched[touched.len() - 1].1));
        self.ranges.drain(first + 1..last);
        (end - start) - already
    }

    /// Number of indices in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The gaps of the set within `[0, n)`, as ranges.
    #[must_use]
    pub fn gaps(&self, n: usize) -> Vec<(usize, usize)> {
        self.gaps_within(0, n).collect()
    }

    /// The gaps of the set within `[start, end)`, ascending, as ranges.
    pub fn gaps_within(
        &self,
        start: usize,
        end: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let first = self.ranges.partition_point(|&(_, e)| e <= start);
        let mut stored = self.ranges[first..].iter().take_while(move |&&(s, _)| s < end);
        let mut cursor = start;
        std::iter::from_fn(move || {
            while cursor < end {
                let Some(&(s, e)) = stored.next() else {
                    return Some((std::mem::replace(&mut cursor, end), end));
                };
                let gap = (cursor, s);
                cursor = cursor.max(e);
                if gap.0 < gap.1 {
                    return Some(gap);
                }
            }
            None
        })
    }

    /// The stored ranges.
    #[must_use]
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = IntervalSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_adjacent_ranges() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert_range(0, 4), 4);
        assert_eq!(s.insert_range(4, 8), 4);
        assert_eq!(s.ranges().len(), 1);
        assert_eq!(s.ranges()[0], (0, 8));
    }

    #[test]
    fn overlapping_inserts_count_fresh_only() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert_range(10, 20), 10);
        assert_eq!(s.insert_range(15, 25), 5);
        assert_eq!(s.insert_range(0, 40), 25);
        assert_eq!(s.len(), 40);
    }

    #[test]
    fn bridge_between_ranges() {
        let mut s = IntervalSet::new();
        s.insert_range(0, 3);
        s.insert_range(7, 10);
        assert_eq!(s.ranges().len(), 2);
        assert_eq!(s.insert_range(2, 8), 4); // 3..7 fresh
        assert_eq!(s.ranges(), &[(0, 10)]);
    }

    #[test]
    fn gaps_enumerated() {
        let mut s = IntervalSet::new();
        s.insert_range(2, 4);
        s.insert_range(8, 9);
        assert_eq!(s.gaps(12), vec![(0, 2), (4, 8), (9, 12)]);
        assert_eq!(s.gaps(3), vec![(0, 2)]);
        let empty = IntervalSet::new();
        assert_eq!(empty.gaps(3), vec![(0, 3)]);
        assert!(empty.gaps(0).is_empty());
    }

    #[test]
    fn inserts_between_over_and_across_ranges() {
        let mut s = IntervalSet::new();
        s.insert_range(10, 12);
        s.insert_range(20, 22);
        assert_eq!(s.insert_range(0, 2), 2, "before every range");
        assert_eq!(s.insert_range(15, 16), 1, "between two ranges");
        assert_eq!(s.ranges(), &[(0, 2), (10, 12), (15, 16), (20, 22)]);
        assert_eq!(s.insert_range(11, 13), 1, "widens the one range it touches");
        assert_eq!(s.insert_range(12, 21), 6, "across three ranges");
        assert_eq!(s.ranges(), &[(0, 2), (10, 22)]);
    }

    #[test]
    fn gaps_within_a_window() {
        let mut s = IntervalSet::new();
        s.insert_range(2, 4);
        s.insert_range(8, 9);
        let gaps = |a, b| s.gaps_within(a, b).collect::<Vec<_>>();
        assert_eq!(gaps(3, 12), vec![(4, 8), (9, 12)]);
        assert_eq!(gaps(0, 3), vec![(0, 2)]);
        assert_eq!(gaps(5, 8), vec![(5, 8)]);
        assert!(gaps(2, 4).is_empty());
        assert!(gaps(6, 6).is_empty());
    }

    #[test]
    fn empty_range_insert_is_noop() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert_range(5, 5), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn scattered_then_filled() {
        let mut s = IntervalSet::new();
        for i in (0..100).step_by(2) {
            s.insert(i);
        }
        assert_eq!(s.len(), 50);
        assert_eq!(s.ranges().len(), 50);
        for i in (1..100).step_by(2) {
            s.insert(i);
        }
        assert_eq!(s.ranges().len(), 1);
    }
}
