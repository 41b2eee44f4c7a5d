//! Structural characterization of sparse matrices.
//!
//! Fig. 14's commentary ties FAFNIR's advantage to matrix structure
//! ("sparseness is a reason that makes \[some workloads\] more suitable for
//! Fafnir"). This module computes the structural facts that argument rests
//! on: density, degree distributions and their skew, bandwidth, and
//! symmetry — the profile one would report for a SuiteSparse input.

use crate::coo::CooMatrix;

/// Structural profile of a sparse matrix.
///
/// # Examples
///
/// ```
/// use fafnir_sparse::{gen, MatrixProfile};
///
/// let profile = MatrixProfile::of(&gen::banded(100, 2, 1));
/// assert_eq!(profile.bandwidth, 2);
/// assert!(profile.row_degree_gini < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixProfile {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// `nnz / (rows × cols)`.
    pub density: f64,
    /// Mean non-zeros per row.
    pub mean_row_degree: f64,
    /// Largest row degree.
    pub max_row_degree: usize,
    /// Largest column degree.
    pub max_col_degree: usize,
    /// Gini coefficient of the row-degree distribution (0 = uniform,
    /// → 1 = extremely skewed, e.g. power-law graphs).
    pub row_degree_gini: f64,
    /// Matrix bandwidth: `max |i − j|` over stored entries (0 for empty or
    /// purely diagonal matrices).
    pub bandwidth: usize,
    /// True when the sparsity pattern and values are symmetric (square
    /// matrices only).
    pub symmetric: bool,
}

impl MatrixProfile {
    /// Computes the profile of a matrix.
    #[must_use]
    pub fn of(matrix: &CooMatrix) -> Self {
        let mut row_degree = vec![0usize; matrix.rows()];
        let mut col_degree = vec![0usize; matrix.cols()];
        let mut bandwidth = 0usize;
        for &(row, col, _) in matrix.entries() {
            row_degree[row] += 1;
            col_degree[col] += 1;
            bandwidth = bandwidth.max(row.abs_diff(col));
        }
        let symmetric = matrix.rows() == matrix.cols() && {
            // Entries are sorted; look each (i, j, v) up as (j, i, v). The
            // comparison is relative (with an absolute floor near zero): an
            // absolute 1e-12 cutoff misreported large-valued symmetric
            // matrices as unsymmetric, since values around 1e6 that agree to
            // machine precision still differ by ~1e-10 in absolute terms.
            matrix.entries().iter().all(|&(row, col, value)| {
                row == col
                    || matrix
                        .entries()
                        .binary_search_by(|probe| (probe.0, probe.1).cmp(&(col, row)))
                        .map(|pos| {
                            let mirror = matrix.entries()[pos].2;
                            let scale = value.abs().max(mirror.abs());
                            (mirror - value).abs() <= 1e-12 + 1e-9 * scale
                        })
                        .unwrap_or(false)
            })
        };
        Self {
            rows: matrix.rows(),
            cols: matrix.cols(),
            nnz: matrix.nnz(),
            density: matrix.density(),
            mean_row_degree: matrix.nnz() as f64 / matrix.rows() as f64,
            max_row_degree: row_degree.iter().copied().max().unwrap_or(0),
            max_col_degree: col_degree.iter().copied().max().unwrap_or(0),
            row_degree_gini: gini(&row_degree),
            bandwidth,
            symmetric,
        }
    }

    /// A one-line summary for reports.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}x{}, {} nnz ({:.4} %), row degree mean {:.1} max {} (gini {:.2}), \
             bandwidth {}, {}",
            self.rows,
            self.cols,
            self.nnz,
            self.density * 100.0,
            self.mean_row_degree,
            self.max_row_degree,
            self.row_degree_gini,
            self.bandwidth,
            if self.symmetric { "symmetric" } else { "unsymmetric" },
        )
    }
}

/// Gini coefficient of a non-negative distribution (0 for uniform or empty).
fn gini(values: &[usize]) -> f64 {
    let total: usize = values.iter().sum();
    if values.is_empty() || total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<usize> = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let weighted: f64 =
        sorted.iter().enumerate().map(|(rank, &value)| (rank as f64 + 1.0) * value as f64).sum();
    (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn banded_profile_has_tight_bandwidth_and_low_skew() {
        let matrix = gen::banded(200, 3, 41);
        let profile = MatrixProfile::of(&matrix);
        assert_eq!(profile.bandwidth, 3);
        assert!(profile.row_degree_gini < 0.1, "gini {}", profile.row_degree_gini);
        assert!(!profile.summary().is_empty());
    }

    #[test]
    fn rmat_profile_is_skewed_and_wide() {
        let matrix = gen::rmat(9, 20_000, 42);
        let profile = MatrixProfile::of(&matrix);
        assert!(profile.row_degree_gini > 0.4, "gini {}", profile.row_degree_gini);
        assert!(profile.bandwidth > 100);
        assert!(!profile.symmetric);
    }

    #[test]
    fn spd_profile_is_symmetric() {
        let matrix = gen::spd_banded(80, 2, 43);
        let profile = MatrixProfile::of(&matrix);
        assert!(profile.symmetric);
        assert_eq!(profile.bandwidth, 2);
    }

    #[test]
    fn symmetry_check_tolerates_rounding_on_large_values() {
        // Values around 1e6 that agree to ~machine precision: the mirrored
        // entries differ by 1e-9 in absolute terms, which the old absolute
        // 1e-12 cutoff flagged as unsymmetric.
        let large = CooMatrix::from_triplets(
            3,
            3,
            [
                (0, 0, 2.5e6),
                (0, 1, 1.0e6),
                (1, 0, 1.0e6 + 1.0e-9),
                (1, 2, -3.0e6),
                (2, 1, -3.0e6 - 1.0e-9),
            ],
        );
        assert!(MatrixProfile::of(&large).symmetric, "rounding-level skew is symmetric");

        // A genuinely asymmetric large-valued matrix must still be caught.
        let broken = CooMatrix::from_triplets(2, 2, [(0, 1, 1.0e6), (1, 0, 1.0e6 + 1.0)]);
        assert!(!MatrixProfile::of(&broken).symmetric, "a 1.0 gap at 1e6 is real asymmetry");
    }

    #[test]
    fn uniform_profile_matches_generator_parameters() {
        let matrix = gen::uniform(100, 100, 0.05, 44);
        let profile = MatrixProfile::of(&matrix);
        assert!((profile.density - 0.05).abs() < 0.01);
        assert!((profile.mean_row_degree - 5.0).abs() < 1.0);
        assert!(profile.row_degree_gini < 0.35);
    }

    #[test]
    fn gini_edge_cases() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12, "uniform → 0");
        // One holder of everything → close to (n−1)/n.
        let skewed = gini(&[0, 0, 0, 100]);
        assert!(skewed > 0.7, "got {skewed}");
    }

    #[test]
    fn merge_share_drives_fafnir_suitability() {
        // The mechanism behind Fig. 14's workload-to-workload differences:
        // FAFNIR's advantage shrinks with the fraction of work that lands in
        // merge iterations. Profile + merge share together explain the
        // suite's ordering.
        let timing = crate::SpmvTiming::paper();
        let suite = [
            gen::banded(2_048, 4, 45),
            gen::rmat(11, 120_000, 46),
            gen::uniform(512, 512, 0.01, 47),
        ];
        let mut measured: Vec<(f64, f64)> = Vec::new(); // (merge share, speedup)
        for coo in &suite {
            let lil = crate::lil::LilMatrix::from(coo);
            let x = vec![1.0; coo.cols()];
            let fafnir = crate::fafnir_spmv::execute(&lil, &x, 256);
            let baseline = crate::two_step::execute(&lil, &x, 256);
            let merge_share =
                fafnir.volumes[1..].iter().sum::<u64>() as f64 / fafnir.volumes[0] as f64;
            measured.push((merge_share, crate::two_step::speedup(&timing, &fafnir, &baseline)));
        }
        // Sort by merge share; speedup must be non-increasing along it.
        measured.sort_by(|a, b| a.0.total_cmp(&b.0));
        for window in measured.windows(2) {
            assert!(
                window[0].1 >= window[1].1 - 0.35,
                "speedup should fall as merge share grows: {measured:?}"
            );
        }
        // And profiles discriminate the workload classes.
        let banded_profile = MatrixProfile::of(&suite[0]);
        let graph_profile = MatrixProfile::of(&suite[1]);
        assert!(banded_profile.row_degree_gini < graph_profile.row_degree_gini);
        assert!(banded_profile.bandwidth < graph_profile.bandwidth);
    }
}
