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
        let triplets = triplets.into_iter();
        let mut matrix = Self::new(rows, cols);
        matrix.entries.reserve(triplets.size_hint().0);
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
    ///
    /// Repeated coordinates sum in insertion order. The sort is stable: a
    /// counting scatter into buckets of `2^shift` consecutive rows, then a
    /// stable sort by `(row, col)` inside each bucket. The shift is the
    /// smallest that leaves at most `nnz.next_power_of_two()` buckets, so
    /// the sort keeps O(nnz) state whatever the row count: a 2^28-row
    /// matrix holding three entries counts four buckets, not 2^28 rows.
    pub fn sum_duplicates(&mut self) {
        let len = self.entries.len();
        if len > 1 {
            let (shift, buckets) = row_buckets(self.rows, len);
            // `ends[bucket]` first counts the bucket, then holds its start
            // and advances as the bucket fills, ending one past it.
            let mut ends = vec![0usize; buckets];
            for &(row, _, _) in &self.entries {
                ends[row >> shift] += 1;
            }
            let mut start = 0;
            for end in &mut ends {
                (start, *end) = (start + *end, start);
            }
            let mut sorted = vec![(0, 0, 0.0); len];
            for &entry in &self.entries {
                let end = &mut ends[entry.0 >> shift];
                sorted[*end] = entry;
                *end += 1;
            }
            let mut start = 0;
            for &end in &ends {
                sorted[start..end].sort_by_key(|&(row, col, _)| (row, col));
                start = end;
            }
            self.entries = sorted;
        }
        // `dedup_by` passes the later entry first and keeps the earlier.
        self.entries.dedup_by(|(row, col, value), (kept_row, kept_col, sum)| {
            let repeat = row == kept_row && col == kept_col;
            if repeat {
                *sum += *value;
            }
            repeat
        });
        self.entries.shrink_to_fit();
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

/// The row buckets [`CooMatrix::sum_duplicates`] scatters into, as
/// `(shift, count)`: buckets of `2^shift` rows, with the smallest shift that
/// leaves at most `entries.next_power_of_two()` of them. `entries` is at
/// least two, so the shift stays below `usize::BITS`.
fn row_buckets(rows: usize, entries: usize) -> (u32, usize) {
    let row_bits = usize::BITS - (rows - 1).leading_zeros();
    let shift = row_bits.saturating_sub(entries.next_power_of_two().trailing_zeros());
    (shift, ((rows - 1) >> shift) + 1)
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
    fn repeats_sum_in_insertion_order() {
        // 1e16 + 1 rounds back to 1e16, so each order has one exact sum;
        // other rows and cells sit between the repeats.
        let m = CooMatrix::from_triplets(
            3,
            2,
            [(2, 1, 4.0), (0, 0, 1e16), (1, 1, 2.0), (0, 0, 1.0), (2, 1, 0.5), (0, 0, -1e16)],
        );
        assert_eq!(m.entries(), &[(0, 0, 0.0), (1, 1, 2.0), (2, 1, 4.5)]);
        let m = CooMatrix::from_triplets(1, 1, [(0, 0, 1e16), (0, 0, -1e16), (0, 0, 1.0)]);
        assert_eq!(m.entries(), &[(0, 0, 1.0)]);
    }

    #[test]
    fn bucket_shift_is_the_smallest_within_the_entry_bound() {
        for rows in [1, 2, 3, 7, 8, 9, 1_000, 1 << 14, (1 << 28) + 1, usize::MAX] {
            for entries in [2, 3, 4, 5, 1_000, 500_000] {
                let (shift, buckets) = row_buckets(rows, entries);
                let limit = entries.next_power_of_two();
                assert_eq!(buckets, ((rows - 1) >> shift) + 1, "{rows} rows, {entries} entries");
                assert!(buckets <= limit, "{rows} rows, {entries} entries: {buckets} buckets");
                assert!(
                    shift == 0 || ((rows - 1) >> (shift - 1)) + 1 > limit,
                    "{rows} rows, {entries} entries: shift {shift} is wider than needed"
                );
            }
        }
    }

    #[test]
    fn a_matrix_far_taller_than_its_entries_sums_in_four_buckets() {
        // Four buckets of 2^26 rows each, not one count per row.
        let n = 1 << 28;
        assert_eq!(row_buckets(n, 3), (26, 4));
        let mut m = CooMatrix::new(n, n);
        m.push(n - 1, 5, 1.0);
        m.push(3, n - 1, 2.0);
        m.push(n - 1, 5, 0.25);
        m.sum_duplicates();
        assert_eq!(m.entries(), &[(3, n - 1, 2.0), (n - 1, 5, 1.25)]);
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
