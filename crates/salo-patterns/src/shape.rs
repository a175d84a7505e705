use crate::PatternError;

/// The dimensions of one attention computation (one head).
///
/// SALO processes attention head by head: a sequence of `seq_len` tokens, each
/// represented by `head_dim`-dimensional query/key/value vectors. The
/// multi-head structure of a full layer is captured by `num_heads`; heads are
/// independent and are executed back to back on the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttentionShape {
    /// Number of tokens in the sequence (`n` in the paper).
    pub seq_len: usize,
    /// Dimension of each head's query/key/value vectors (`d` in the paper).
    pub head_dim: usize,
    /// Number of attention heads (`h` in the paper).
    pub num_heads: usize,
}

impl AttentionShape {
    /// Creates a shape, validating that all dimensions are non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::EmptySequence`] if any dimension is zero.
    pub fn new(seq_len: usize, head_dim: usize, num_heads: usize) -> Result<Self, PatternError> {
        if seq_len == 0 || head_dim == 0 || num_heads == 0 {
            return Err(PatternError::EmptySequence);
        }
        Ok(Self { seq_len, head_dim, num_heads })
    }

    /// Model ("hidden") dimension: `head_dim * num_heads`.
    #[must_use]
    pub fn model_dim(&self) -> usize {
        self.head_dim * self.num_heads
    }

    /// Number of multiply-accumulate operations for *dense* attention over
    /// all heads: `2 * n^2 * d` per head (the two matrix multiplications).
    #[must_use]
    pub fn dense_macs(&self) -> u64 {
        2 * (self.seq_len as u64) * (self.seq_len as u64) * (self.model_dim() as u64)
    }

    /// Number of MACs for sparse attention over all heads, given the number
    /// of non-masked score positions `nnz` of one head's pattern.
    #[must_use]
    pub fn sparse_macs(&self, nnz: u64) -> u64 {
        2 * nnz * self.model_dim() as u64
    }

    /// Floating-point operations for dense attention (2 FLOPs per MAC).
    #[must_use]
    pub fn dense_flops(&self) -> u64 {
        2 * self.dense_macs()
    }

    /// Floating-point operations for sparse attention (2 FLOPs per MAC).
    #[must_use]
    pub fn sparse_flops(&self, nnz: u64) -> u64 {
        2 * self.sparse_macs(nnz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_dimensions() {
        assert!(AttentionShape::new(0, 64, 1).is_err());
        assert!(AttentionShape::new(128, 0, 1).is_err());
        assert!(AttentionShape::new(128, 64, 0).is_err());
        let s = AttentionShape::new(128, 64, 12).unwrap();
        assert_eq!(s.model_dim(), 768);
    }

    #[test]
    fn dense_macs_are_quadratic() {
        let s = AttentionShape::new(100, 64, 1).unwrap();
        let s2 = AttentionShape::new(200, 64, 1).unwrap();
        assert_eq!(s2.dense_macs(), 4 * s.dense_macs());
    }

    #[test]
    fn sparse_macs_scale_with_nnz() {
        let s = AttentionShape::new(4096, 64, 12).unwrap();
        // BERT-like dense equivalence: nnz = n^2 recovers dense count.
        let n2 = (s.seq_len * s.seq_len) as u64;
        assert_eq!(s.sparse_macs(n2), s.dense_macs());
        assert_eq!(s.sparse_flops(10), 2 * s.sparse_macs(10));
    }
}
