use salo_patterns::AttentionShape;

use crate::{gaussian_matrix, KernelError, Matrix};

/// One head's query, key and value matrices (`n x d` each).
#[derive(Debug, Clone, PartialEq)]
pub struct Qkv {
    /// Query matrix.
    pub q: Matrix<f32>,
    /// Key matrix.
    pub k: Matrix<f32>,
    /// Value matrix.
    pub v: Matrix<f32>,
}

impl Qkv {
    /// Bundles three matrices, validating that they share one shape.
    ///
    /// # Errors
    ///
    /// Returns a dimension error on shape mismatch.
    pub fn new(q: Matrix<f32>, k: Matrix<f32>, v: Matrix<f32>) -> Result<Self, KernelError> {
        if q.shape() != k.shape() || q.shape() != v.shape() {
            return Err(KernelError::DimMismatch {
                context: "qkv bundle",
                left: q.shape(),
                right: if q.shape() != k.shape() { k.shape() } else { v.shape() },
            });
        }
        Ok(Self { q, k, v })
    }

    /// Deterministic standard-normal inputs for an `n x d` head.
    ///
    /// Attention inputs sit downstream of layer normalization, so a unit
    /// normal is the right synthetic distribution.
    #[must_use]
    pub fn random(n: usize, d: usize, seed: u64) -> Self {
        Self {
            q: gaussian_matrix(seed.wrapping_mul(3).wrapping_add(1), n, d, 0.0, 1.0),
            k: gaussian_matrix(seed.wrapping_mul(3).wrapping_add(2), n, d, 0.0, 1.0),
            v: gaussian_matrix(seed.wrapping_mul(3).wrapping_add(3), n, d, 0.0, 1.0),
        }
    }

    /// One random [`Qkv`] per head of `shape`.
    #[must_use]
    pub fn random_heads(shape: &AttentionShape, seed: u64) -> Vec<Self> {
        (0..shape.num_heads)
            .map(|h| Self::random(shape.seq_len, shape.head_dim, seed.wrapping_add(h as u64 * 101)))
            .collect()
    }

    /// Sequence length.
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.q.rows()
    }

    /// Head dimension.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.q.cols()
    }

    /// Checks that an attention kernel's query, key and value operands
    /// share one shape.
    ///
    /// # Errors
    ///
    /// Returns a dimension error naming the first operand that disagrees
    /// with the query.
    pub fn check_shapes(
        q: &Matrix<f32>,
        k: &Matrix<f32>,
        v: &Matrix<f32>,
    ) -> Result<(), KernelError> {
        if q.shape() != k.shape() {
            return Err(KernelError::DimMismatch {
                context: "attention q/k",
                left: q.shape(),
                right: k.shape(),
            });
        }
        if q.shape() != v.shape() {
            return Err(KernelError::DimMismatch {
                context: "attention q/v",
                left: q.shape(),
                right: v.shape(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_shapes() {
        let a = Matrix::zeros(4, 2);
        let b = Matrix::zeros(4, 3);
        assert!(Qkv::new(a.clone(), b.clone(), a.clone()).is_err());
        assert!(Qkv::new(a.clone(), a.clone(), b).is_err());
        let ok = Qkv::new(a.clone(), a.clone(), a).unwrap();
        assert_eq!(ok.seq_len(), 4);
        assert_eq!(ok.head_dim(), 2);
    }

    #[test]
    fn random_is_deterministic_and_distinct() {
        let a = Qkv::random(8, 4, 1);
        let b = Qkv::random(8, 4, 1);
        assert_eq!(a, b);
        assert_ne!(a.q, a.k, "q and k use distinct streams");
        let c = Qkv::random(8, 4, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn per_head_generation() {
        let shape = AttentionShape::new(16, 8, 3).unwrap();
        let heads = Qkv::random_heads(&shape, 9);
        assert_eq!(heads.len(), 3);
        assert_eq!(heads[0].seq_len(), 16);
        assert_ne!(heads[0], heads[1]);
    }
}
