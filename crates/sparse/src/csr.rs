//! Compressed sparse row (CSR) format — the reference format for validation
//! and for the Two-Step baseline's row-major streaming.

use crate::coo::CooMatrix;

/// A CSR sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array (`rows + 1` entries).
    #[must_use]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// One row's `(column, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        self.col_idx[start..end].iter().copied().zip(self.values[start..end].iter().copied())
    }

    /// Sparse matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "operand length mismatch");
        (0..self.rows).map(|row| self.row(row).map(|(col, value)| value * x[col]).sum()).collect()
    }

    /// Transposes the matrix (used by apps needing `Aᵀx`).
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.cols, self.rows);
        for row in 0..self.rows {
            for (col, value) in self.row(row) {
                coo.push(col, row, value);
            }
        }
        coo.sum_duplicates();
        CsrMatrix::from(&coo)
    }
}

impl From<&CooMatrix> for CsrMatrix {
    fn from(coo: &CooMatrix) -> Self {
        let mut row_ptr = vec![0usize; coo.rows() + 1];
        for &(row, _, _) in coo.entries() {
            row_ptr[row + 1] += 1;
        }
        for i in 0..coo.rows() {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = Vec::with_capacity(coo.nnz());
        let mut values = Vec::with_capacity(coo.nnz());
        // COO entries are sorted row-major after sum_duplicates.
        for &(_, col, value) in coo.entries() {
            col_idx.push(col);
            values.push(value);
        }
        Self { rows: coo.rows(), cols: coo.cols(), row_ptr, col_idx, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2], [0, 0, 3], [4, 5, 0]]
        CsrMatrix::from(&CooMatrix::from_triplets(
            3,
            3,
            [(0, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0), (2, 1, 5.0)],
        ))
    }

    #[test]
    fn conversion_preserves_structure() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_ptr(), &[0, 2, 3, 5]);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 4.0), (1, 5.0)]);
    }

    #[test]
    fn multiply_matches_dense_reference() {
        let coo = CooMatrix::from_triplets(
            3,
            3,
            [(0, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0), (2, 1, 5.0)],
        );
        let csr = CsrMatrix::from(&coo);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(csr.multiply(&x), coo.multiply_dense(&x));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        let back = m.transpose().transpose();
        let x = [1.0, -1.0, 0.5];
        assert_eq!(m.multiply(&x), back.multiply(&x));
    }

    #[test]
    fn empty_rows_are_represented() {
        let m = CsrMatrix::from(&CooMatrix::from_triplets(3, 3, [(2, 2, 7.0)]));
        assert_eq!(m.row(0).count(), 0);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.multiply(&[0.0, 0.0, 2.0]), vec![0.0, 0.0, 14.0]);
    }
}
