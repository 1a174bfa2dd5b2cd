use std::fmt;
use std::ops::{Index, IndexMut};

use crate::NumericError;

/// A dense, row-major matrix of `f64` values.
///
/// The modified-nodal-analysis matrices produced by the circuit simulator
/// are small (tens of unknowns), so a dense representation with an
/// in-place LU factorization is both simpler and faster than a sparse one.
///
/// # Example
///
/// ```
/// use castg_numeric::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// assert_eq!(m[(0, 0)], 2.0);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Reuses the existing storage when the element counts match, so
    /// hot loops can refresh a scratch matrix without reallocating.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Resets every entry to zero, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `value` to the entry at `(row, col)`.
    ///
    /// This is the natural operation for MNA stamping, where several
    /// devices contribute to the same matrix position.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// Computes `self * x` for a vector `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch { expected: self.cols, actual: x.len() });
        }
        let mut y = vec![0.0; self.rows];
        if self.cols > 0 {
            for (yi, row) in y.iter_mut().zip(self.data.chunks_exact(self.cols)) {
                *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
            }
        }
        Ok(y)
    }

    /// Returns a view of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major storage, for in-crate kernels that stride it flat.
    #[inline]
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major storage, for in-crate kernels.
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.5e}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_index() {
        let mut m = Matrix::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        m[(2, 1)] = 5.0;
        assert_eq!(m[(2, 1)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_builds_expected_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn add_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add(0, 0, 1.5);
        m.add(0, 0, 2.5);
        assert_eq!(m[(0, 0)], 4.0);
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let y = m.mul_vec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn clone_from_reuses_storage_and_copies_contents() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut dst = Matrix::zeros(2, 2);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        // Dimension changes are handled too.
        let mut small = Matrix::zeros(1, 1);
        small.clone_from(&src);
        assert_eq!(small, src);
    }

    #[test]
    fn mul_vec_rejects_wrong_dimension() {
        let m = Matrix::zeros(2, 3);
        let err = m.mul_vec(&[1.0]).unwrap_err();
        assert_eq!(err, NumericError::DimensionMismatch { expected: 3, actual: 1 });
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.clear();
        assert_eq!(m, Matrix::zeros(2, 2));
    }

    #[test]
    fn display_contains_every_entry() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let s = m.to_string();
        assert!(s.contains("1.0"));
        assert!(s.contains("2.0"));
    }
}
