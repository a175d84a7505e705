use crate::KernelError;

/// A dense row-major matrix.
///
/// Deliberately small: just the operations the attention kernels and the
/// simulator need. Generic over `Copy` element types so the same container
/// holds `f32` activations and fixed-point formats.
///
/// # Example
///
/// ```
/// use salo_kernels::Matrix;
/// let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy> Matrix<T> {
    /// Creates a matrix filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, fill: T) -> Self {
        let len = rows.checked_mul(cols).expect("matrix size overflow");
        Self { rows, cols, data: vec![fill; len] }
    }

    /// Builds a matrix element-wise from a function of `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, KernelError> {
        if data.len() != rows * cols {
            return Err(KernelError::DimMismatch {
                context: "from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: T) {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.rows, "row {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Applies `f` to every element, producing a new matrix.
    #[must_use]
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Reorders rows by `perm` (`new row i = old row perm[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rows`.
    #[must_use]
    pub fn permute_rows(&self, perm: &[usize]) -> Matrix<T> {
        assert_eq!(perm.len(), self.rows, "permutation length mismatch");
        let mut out = Vec::with_capacity(self.data.len());
        for &src in perm {
            out.extend_from_slice(self.row(src));
        }
        Matrix { rows: self.rows, cols: self.cols, data: out }
    }
}

impl Matrix<f32> {
    /// An all-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix<f32>) -> Result<Matrix<f32>, KernelError> {
        if self.cols != rhs.rows {
            return Err(KernelError::DimMismatch {
                context: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix<f32> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Largest absolute difference against another matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix<f32>) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }

    /// Mean squared difference against another matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn mse(&self, other: &Matrix<f32>) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum();
        sum / self.data.len() as f64
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_fn(3, 2, |i, j| (10 * i + j) as f32);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0]);
        let mut m = m;
        m.set(0, 0, 99.0);
        assert_eq!(m.get(0, 0), 99.0);
        m.row_mut(2)[0] = -1.0;
        assert_eq!(m.get(2, 0), -1.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0f32; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f32);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(4, 2), a.get(2, 4));
    }

    #[test]
    fn diff_metrics() {
        let a = Matrix::zeros(2, 2);
        let mut b = Matrix::zeros(2, 2);
        b.set(1, 1, 0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!((a.mse(&b) - 0.0625).abs() < 1e-9);
        assert!((b.frobenius() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn permute_rows_reorders() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f32);
        let p = m.permute_rows(&[3, 2, 1, 0]);
        assert_eq!(p.get(0, 0), 3.0);
        assert_eq!(p.get(3, 1), 0.0);
    }

    #[test]
    fn map_changes_type() {
        let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f32);
        let d = m.map(|x| x as f64 * 2.0);
        assert_eq!(d.get(1, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_panics_out_of_bounds() {
        let m = Matrix::<f32>::zeros(2, 2);
        let _ = m.get(2, 0);
    }
}
