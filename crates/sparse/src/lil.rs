//! List-of-lists (LIL) format (paper Sec. IV-D).
//!
//! The paper streams sparse matrices to FAFNIR in LIL: the non-zeros are
//! compressed along one dimension and carry explicit indices in the other,
//! which makes it trivial to split a large matrix into chunks along the
//! *non-compressed* dimension for parallel streaming. We compress along
//! columns — one sorted `(row, value)` list per column — so a column chunk
//! is exactly the slice of the operand vector it needs, and each leaf PE
//! can stream `value × x[col]` products in row order.
//!
//! The lists are stored CSC-style, in the flat layout of the merge tree's
//! levels (`stream::Streams`): every column's `(row, value)` list end to
//! end in one array, plus each column's end offset. A build is a stable
//! counting sort by column followed by a stable sort of each column by
//! row, so equal rows keep their input order.

use crate::coo::CooMatrix;
use crate::stream::Streams;

/// A LIL sparse matrix: one row-sorted `(row, value)` list per column.
///
/// # Examples
///
/// ```
/// use fafnir_sparse::{CooMatrix, LilMatrix};
///
/// let coo = CooMatrix::from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 2.0)]);
/// let lil = LilMatrix::from(&coo);
/// assert_eq!(lil.multiply(&[3.0, 4.0]), vec![3.0, 8.0]);
/// assert_eq!(lil.column_chunks(1).count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LilMatrix {
    rows: usize,
    /// Column `col`'s list is stream `col`.
    columns: Streams,
}

impl LilMatrix {
    /// Builds from `(row, col, value)` triplets, summing repeated
    /// coordinates in input order, the way [`CooMatrix::from_triplets`]
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or a coordinate is out of bounds.
    #[must_use]
    pub(crate) fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        let mut columns = Streams::by_column(rows, cols, triplets);
        columns.sum_equal_rows();
        Self { rows, columns }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.columns.len()
    }

    /// Stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.columns.total()
    }

    /// One column's `(row, value)` list, sorted by row.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of bounds.
    #[must_use]
    pub fn column(&self, col: usize) -> &[(usize, f64)] {
        self.columns.get(col)
    }

    /// Iterates over column chunks of `chunk_cols` columns each — the
    /// paper's splitting through the non-compressed dimension (Fig. 8's
    /// rounds).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_cols` is zero.
    pub fn column_chunks(&self, chunk_cols: usize) -> impl Iterator<Item = LilChunk<'_>> {
        assert!(chunk_cols > 0, "chunk size must be non-zero");
        let total = self.cols();
        (0..total.div_ceil(chunk_cols)).map(move |chunk| {
            let start = chunk * chunk_cols;
            let end = (start + chunk_cols).min(total);
            LilChunk { matrix: self, start, end }
        })
    }

    /// Sparse matrix–vector product (reference path through LIL).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols(), "operand length mismatch");
        let mut y = vec![0.0; self.rows];
        for (col, &scale) in x.iter().enumerate() {
            for &(row, value) in self.column(col) {
                y[row] += value * scale;
            }
        }
        y
    }
}

impl From<&CooMatrix> for LilMatrix {
    /// Keeps the COO's entries as stored: a coordinate pushed twice stays
    /// two entries of its column.
    fn from(coo: &CooMatrix) -> Self {
        Self {
            rows: coo.rows(),
            columns: Streams::by_column(coo.rows(), coo.cols(), coo.entries()),
        }
    }
}

/// A view of a consecutive column range of a [`LilMatrix`].
#[derive(Debug, Clone, Copy)]
pub struct LilChunk<'a> {
    matrix: &'a LilMatrix,
    start: usize,
    end: usize,
}

impl<'a> LilChunk<'a> {
    /// First column (inclusive).
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Last column (exclusive).
    #[must_use]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Columns in the chunk.
    #[must_use]
    pub fn width(&self) -> usize {
        self.end - self.start
    }

    /// Non-zeros in the chunk.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.matrix.columns.total_in(self.start..self.end)
    }

    /// Iterates the chunk's columns as `(col, list)` pairs.
    pub fn columns(&self) -> impl Iterator<Item = (usize, &'a [(usize, f64)])> + '_ {
        (self.start..self.end).map(move |col| (col, self.matrix.column(col)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (CooMatrix, LilMatrix) {
        let coo = CooMatrix::from_triplets(
            3,
            4,
            [(0, 0, 1.0), (2, 0, 4.0), (0, 2, 2.0), (1, 2, 3.0), (2, 3, 5.0)],
        );
        let lil = LilMatrix::from(&coo);
        (coo, lil)
    }

    #[test]
    fn columns_are_row_sorted() {
        let (_, lil) = sample();
        assert_eq!(lil.column(0), &[(0, 1.0), (2, 4.0)]);
        assert_eq!(lil.column(1), &[]);
        assert_eq!(lil.column(2), &[(0, 2.0), (1, 3.0)]);
        assert_eq!(lil.nnz(), 5);
    }

    #[test]
    fn from_triplets_sums_repeats_in_input_order_and_from_keeps_them() {
        let triplets = [(2, 1, 0.1), (0, 1, 1.0), (2, 1, 0.2), (1, 0, 4.0), (2, 1, 0.3)];
        let lil = LilMatrix::from_triplets(3, 3, &triplets);
        assert_eq!(lil.column(0), &[(1, 4.0)]);
        assert_eq!(lil.column(1), &[(0, 1.0), (2, 0.1 + 0.2 + 0.3)]);
        assert_eq!(lil.column(2), &[]);
        assert_eq!(lil.nnz(), 3);
        assert_eq!(lil, LilMatrix::from(&CooMatrix::from_triplets(3, 3, triplets)));

        let mut pushed = CooMatrix::new(3, 3);
        for (row, col, value) in triplets {
            pushed.push(row, col, value);
        }
        let kept = LilMatrix::from(&pushed);
        assert_eq!(kept.column(1), &[(0, 1.0), (2, 0.1), (2, 0.2), (2, 0.3)]);
        assert_eq!(kept.nnz(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triplets_rejects_an_out_of_bounds_row() {
        let _ = LilMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn from_triplets_rejects_a_zero_dimension() {
        let _ = LilMatrix::from_triplets(2, 0, &[]);
    }

    #[test]
    fn an_empty_coo_converts_to_an_empty_lil() {
        let lil = LilMatrix::from(&CooMatrix::default());
        assert_eq!((lil.rows(), lil.cols(), lil.nnz()), (0, 0, 0));
        assert_eq!(lil.column_chunks(1).count(), 0);
        assert_eq!(lil.multiply(&[]), Vec::<f64>::new());
    }

    #[test]
    fn multiply_matches_dense_reference() {
        let (coo, lil) = sample();
        let x = [1.0, 9.0, 2.0, 0.5];
        assert_eq!(lil.multiply(&x), coo.multiply_dense(&x));
    }

    #[test]
    fn chunks_cover_all_columns_without_overlap() {
        let (_, lil) = sample();
        let chunks: Vec<_> = lil.column_chunks(3).collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!((chunks[0].start(), chunks[0].end()), (0, 3));
        assert_eq!((chunks[1].start(), chunks[1].end()), (3, 4));
        assert_eq!(chunks.iter().map(LilChunk::nnz).sum::<usize>(), lil.nnz());
        assert_eq!(chunks[1].width(), 1);
    }

    #[test]
    fn chunk_columns_expose_offsets() {
        let (_, lil) = sample();
        let chunk = lil.column_chunks(2).nth(1).unwrap();
        let cols: Vec<usize> = chunk.columns().map(|(col, _)| col).collect();
        assert_eq!(cols, vec![2, 3]);
    }
}
