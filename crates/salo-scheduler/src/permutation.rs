//! Permutations for the data-reordering step (§4.2).
//!
//! To run a dilated window with gap `d`, SALO reorders the sequence so that
//! tokens of the same residue class modulo `d` become contiguous; the
//! dilated window then looks like a plain sliding window. This module
//! provides the permutation as a first-class object so workloads can
//! physically reorder their Q/K/V matrices (as the paper's data scheduler
//! does) and un-reorder the outputs.

/// A permutation of `0..n`.
///
/// `perm[new_index] = old_index`: applying the permutation gathers rows
/// from their old positions into the new order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<usize>,
}

impl Permutation {
    /// The identity permutation.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self { forward: (0..n).collect() }
    }

    /// Builds the dilation reordering: tokens grouped by `index % d`,
    /// classes in increasing residue order, original order inside a class.
    ///
    /// For `n = 8, d = 2` the new order is `[0, 2, 4, 6, 1, 3, 5, 7]`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn dilation_grouping(n: usize, d: usize) -> Self {
        assert!(d > 0, "dilation must be positive");
        let mut forward = Vec::with_capacity(n);
        for r in 0..d {
            forward.extend((r..n).step_by(d));
        }
        Self { forward }
    }

    /// Builds a permutation from an explicit gather list.
    ///
    /// # Panics
    ///
    /// Panics if `forward` is not a permutation of `0..len`.
    #[must_use]
    pub fn from_forward(forward: Vec<usize>) -> Self {
        let n = forward.len();
        let mut seen = vec![false; n];
        for &idx in &forward {
            assert!(idx < n && !seen[idx], "not a permutation");
            seen[idx] = true;
        }
        Self { forward }
    }

    /// Length of the permuted domain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the domain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The gather list (`new -> old`).
    #[must_use]
    pub fn forward(&self) -> &[usize] {
        &self.forward
    }

    /// The inverse permutation (`old -> new`).
    #[must_use]
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.forward.len()];
        for (new, &old) in self.forward.iter().enumerate() {
            inv[old] = new;
        }
        Self { forward: inv }
    }

    /// Applies the permutation to a slice, gathering `out[new] = data[old]`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    #[must_use]
    pub fn apply<T: Clone>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.forward.len(), "length mismatch");
        self.forward.iter().map(|&old| data[old].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dilation_grouping_example_from_paper() {
        // d = 2 groups even then odd indices.
        let p = Permutation::dilation_grouping(8, 2);
        assert_eq!(p.forward(), &[0, 2, 4, 6, 1, 3, 5, 7]);
        // d = 3 on 7 elements: classes 0,3,6 | 1,4 | 2,5.
        let p = Permutation::dilation_grouping(7, 3);
        assert_eq!(p.forward(), &[0, 3, 6, 1, 4, 2, 5]);
    }

    #[test]
    fn identity_is_neutral() {
        let id = Permutation::identity(5);
        let data = vec![10, 20, 30, 40, 50];
        assert_eq!(id.apply(&data), data);
        assert_eq!(id.inverse(), id);
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::dilation_grouping(10, 3);
        let data: Vec<i32> = (0..10).collect();
        let permuted = p.apply(&data);
        let restored = p.inverse().apply(&permuted);
        assert_eq!(restored, data);
        // And the other way round.
        let p_inv = p.inverse();
        assert_eq!(p_inv.inverse(), p);
    }

    #[test]
    fn dilated_window_becomes_sliding_after_reorder() {
        // The §4.2 equivalence: q_i attends k_{i+2k} (dilation 2). After
        // grouping by parity, attention partners are adjacent.
        let n = 12;
        let d = 2;
        let p = Permutation::dilation_grouping(n, d);
        let inv = p.inverse();
        for i in 0..n {
            for delta in [-4i64, -2, 0, 2, 4] {
                let j = i as i64 + delta;
                if j < 0 || j >= n as i64 {
                    continue;
                }
                let (ni, nj) = (inv.forward()[i], inv.forward()[j as usize]);
                // Same class, quotient distance delta/d.
                assert_eq!(nj as i64 - ni as i64, delta / d as i64, "i={i} delta={delta}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_duplicates() {
        let _ = Permutation::from_forward(vec![0, 0, 1]);
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert_eq!(p.apply(&Vec::<u8>::new()), Vec::<u8>::new());
    }
}
