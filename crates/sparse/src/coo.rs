//! Coordinate (COO) sparse-matrix format — the interchange format the
//! generators produce and the other formats convert from.

/// A sparse matrix as a list of `(row, col, value)` triplets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// An empty matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self { rows, cols, entries: Vec::new() }
    }

    /// Builds from triplets, summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[must_use]
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut matrix = Self::new(rows, cols);
        for (row, col, value) in triplets {
            matrix.push(row, col, value);
        }
        matrix.sum_duplicates();
        matrix
    }

    /// Appends one entry (duplicates allowed until
    /// [`CooMatrix::sum_duplicates`]).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "entry ({row},{col}) out of bounds");
        self.entries.push((row, col, value));
    }

    /// Sorts entries row-major and merges duplicate coordinates by summing.
    /// Zero-valued results are kept (explicit zeros are legal).
    pub fn sum_duplicates(&mut self) {
        self.entries.sort_by_key(|&(row, col, _)| (row, col));
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(self.entries.len());
        for &(row, col, value) in &self.entries {
            match merged.last_mut() {
                Some((r, c, v)) if *r == row && *c == col => *v += value,
                _ => merged.push((row, col, value)),
            }
        }
        self.entries = merged;
    }

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

    /// Stored entries (after duplicate summing, sorted row-major).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Density `nnz / (rows × cols)`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// The triplets, in insertion (or sorted, after summing) order.
    #[must_use]
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Dense matrix–vector product reference (small matrices only).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn multiply_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "operand length mismatch");
        let mut y = vec![0.0; self.rows];
        for &(row, col, value) in &self.entries {
            y[row] += value * x[col];
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sums_duplicates_and_sorts() {
        let m = CooMatrix::from_triplets(2, 2, [(1, 0, 2.0), (0, 0, 1.0), (1, 0, 3.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.entries(), &[(0, 0, 1.0), (1, 0, 5.0)]);
    }

    #[test]
    fn multiply_dense_matches_hand_computation() {
        // [[1, 2], [0, 3]] × [4, 5] = [14, 15]
        let m = CooMatrix::from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        assert_eq!(m.multiply_dense(&[4.0, 5.0]), vec![14.0, 15.0]);
    }

    #[test]
    fn density_is_fraction_of_cells() {
        let m = CooMatrix::from_triplets(4, 4, [(0, 0, 1.0), (3, 3, 1.0)]);
        assert!((m.density() - 2.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_entry_panics() {
        let mut m = CooMatrix::new(2, 2);
        m.push(2, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = CooMatrix::new(0, 4);
    }
}
