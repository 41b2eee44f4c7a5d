//! Synthetic sparse-matrix generators.
//!
//! The paper's Fig. 14 evaluates SpMV workloads from scientific computing
//! and graph analytics (SuiteSparse-style inputs we do not ship). These
//! generators span the same axes — size, density, and degree skew:
//!
//! * [`uniform`] — Erdős–Rényi-style uniform sparsity (scientific kernels),
//! * [`rmat`] — R-MAT power-law graphs (graph analytics),
//! * [`banded`] — banded diagonal-dominant systems (PDE/solver matrices).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coo::CooMatrix;

/// Uniformly random matrix: `round(rows × cols × density)` draws (at least
/// one) of a cell and a value in [-1, 1), with replacement.
///
/// Repeated cells sum, so the matrix stores one entry per distinct cell
/// drawn, about `1 − e^−density` of the cells: close to `density` when it
/// is small, and about 63 % of them at density 1.
///
/// # Panics
///
/// Panics if `density` is outside `(0, 1]` or dimensions are zero.
#[must_use]
pub fn uniform(rows: usize, cols: usize, density: f64, seed: u64) -> CooMatrix {
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let target = ((rows as f64 * cols as f64) * density).round().max(1.0) as usize;
    let cells = (0..target)
        .map(move |_| (rng.gen_range(0..rows), rng.gen_range(0..cols), rng.gen_range(-1.0..1.0)));
    CooMatrix::from_triplets(rows, cols, cells)
}

/// R-MAT power-law graph adjacency matrix: `nnz` edge draws with
/// replacement under the canonical `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`
/// partition weights, each with a value in [0.1, 1).
///
/// An edge descends `scale` levels, picking one quadrant per level. Repeated
/// edges sum, so the matrix stores fewer than `nnz` entries, the more so the
/// denser the draw: `rmat(14, 500_000, 11)` stores 408,771.
///
/// # Panics
///
/// Panics if `scale` is zero (the matrix is `2^scale × 2^scale`).
#[must_use]
pub fn rmat(scale: u32, nnz: usize, seed: u64) -> CooMatrix {
    assert!(scale > 0, "scale must be non-zero");
    let n = 1usize << scale;
    let mut rng = StdRng::seed_from_u64(seed);
    let (a, b, c) = (0.57, 0.19, 0.19);
    let (ab, abc) = (a + b, a + b + c);
    let edges = (0..nnz).map(move |_| {
        let (mut row, mut col) = (0usize, 0usize);
        for _ in 0..scale {
            // One level down, most significant bit first. Top-left below
            // `a`, then top-right, bottom-left and, from `a + b + c`,
            // bottom-right: the quadrant's bits come from comparisons, not
            // from branches on the draw.
            let p: f64 = rng.gen();
            row = (row << 1) | usize::from(p >= ab);
            col = (col << 1) | usize::from(((p >= a) & (p < ab)) | (p >= abc));
        }
        (row, col, rng.gen_range(0.1..1.0))
    });
    CooMatrix::from_triplets(n, n, edges)
}

/// Banded matrix with `bandwidth` off-diagonals on each side and a dominant
/// diagonal (a Jacobi-friendly solver matrix).
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn banded(n: usize, bandwidth: usize, seed: u64) -> CooMatrix {
    assert!(n > 0, "dimension must be non-zero");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for row in 0..n {
        let mut off_diagonal_sum = 0.0;
        let low = row.saturating_sub(bandwidth);
        let high = row.saturating_add(bandwidth).min(n - 1);
        for col in low..=high {
            if col != row {
                let value = rng.gen_range(-0.5..0.5);
                off_diagonal_sum += f64::abs(value);
                triplets.push((row, col, value));
            }
        }
        // Strict diagonal dominance guarantees Jacobi convergence.
        triplets.push((row, row, off_diagonal_sum + rng.gen_range(1.0..2.0)));
    }
    CooMatrix::from_triplets(n, n, triplets)
}

/// Symmetric positive-definite banded matrix (`A = B + Bᵀ` off-diagonal
/// structure with a dominance-boosted diagonal), the input class for
/// conjugate-gradient solvers (the paper's "differential-equation solvers"
/// direction, Sec. VIII).
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn spd_banded(n: usize, bandwidth: usize, seed: u64) -> CooMatrix {
    assert!(n > 0, "dimension must be non-zero");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    let mut row_abs_sum = vec![0.0f64; n];
    for row in 0..n {
        for col in row + 1..=row.saturating_add(bandwidth).min(n - 1) {
            let value: f64 = rng.gen_range(-0.5..0.5);
            triplets.push((row, col, value));
            triplets.push((col, row, value));
            row_abs_sum[row] += value.abs();
            row_abs_sum[col] += value.abs();
        }
    }
    for (row, &sum) in row_abs_sum.iter().enumerate() {
        // Strict diagonal dominance of a symmetric matrix ⇒ SPD.
        triplets.push((row, row, sum + rng.gen_range(0.5..1.5)));
    }
    CooMatrix::from_triplets(n, n, triplets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_hits_requested_density() {
        let m = uniform(100, 100, 0.05, 1);
        // Duplicates merge, so nnz ≤ target; should be close for low density.
        assert!(m.nnz() > 400 && m.nnz() <= 500, "nnz {}", m.nnz());
        assert_eq!(m.rows(), 100);
    }

    #[test]
    fn rmat_is_skewed() {
        let m = rmat(8, 2000, 2);
        assert_eq!(m.rows(), 256);
        // Power-law: the busiest row holds far more than the mean.
        let mut row_counts = vec![0usize; m.rows()];
        for &(row, _, _) in m.entries() {
            row_counts[row] += 1;
        }
        let max = *row_counts.iter().max().unwrap();
        let mean = m.nnz() as f64 / m.rows() as f64;
        assert!(max as f64 > 3.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn banded_is_diagonally_dominant() {
        let m = banded(50, 2, 3);
        let mut diag = vec![0.0; 50];
        let mut off = vec![0.0; 50];
        for &(row, col, value) in m.entries() {
            if row == col {
                diag[row] = value.abs();
            } else {
                off[row] += value.abs();
            }
        }
        for row in 0..50 {
            assert!(diag[row] > off[row], "row {row} not dominant");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform(20, 20, 0.1, 9), uniform(20, 20, 0.1, 9));
        assert_eq!(rmat(5, 100, 9).nnz(), rmat(5, 100, 9).nnz());
        assert_eq!(banded(10, 1, 9), banded(10, 1, 9));
    }

    #[test]
    fn spd_banded_is_symmetric_and_dominant() {
        let m = spd_banded(40, 3, 5);
        let mut dense = vec![vec![0.0; 40]; 40];
        for &(row, col, value) in m.entries() {
            dense[row][col] = value;
        }
        for (i, row) in dense.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                assert!((value - dense[j][i]).abs() < 1e-12, "asymmetric at ({i},{j})");
            }
            let off: f64 =
                row.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, v)| v.abs()).sum();
            assert!(row[i] > off, "row {i} not dominant");
        }
    }

    #[test]
    fn banded_edge_rows_stay_in_bounds() {
        let m = banded(5, 3, 4);
        for &(row, col, _) in m.entries() {
            assert!(row < 5 && col < 5);
        }
    }

    #[test]
    fn a_band_wider_than_the_matrix_fills_it() {
        // `row + bandwidth` used to overflow: a panic in debug builds, and a
        // wrapped, partly empty band in release builds.
        assert_eq!(banded(64, usize::MAX, 1).nnz(), 64 * 64);
        assert_eq!(spd_banded(64, usize::MAX, 1).nnz(), 64 * 64);
    }
}
