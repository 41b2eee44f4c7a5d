//! SpMV-based applications (paper Fig. 14's two domains).
//!
//! * **Scientific computing** — iterative matrix inversion: the Jacobi
//!   method solves `A·x = b` through repeated SpMV, the kernel the paper
//!   names for numeric algebra.
//! * **Graph analytics** — PageRank over an adjacency matrix, the classic
//!   SpMV-powered graph workload.
//!
//! Both run every SpMV through the FAFNIR engine (functional + timed) so an
//! application-level speedup over Two-Step can be reported.

use crate::csr::CsrMatrix;
use crate::fafnir_spmv::{self, SpmvRun, SpmvTiming};
use crate::lil::LilMatrix;
use crate::two_step;

/// Result of an iterative application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Final solution/state vector.
    pub solution: Vec<f64>,
    /// SpMV invocations performed.
    pub spmv_calls: usize,
    /// Whether the iteration converged within the budget.
    pub converged: bool,
    /// Total FAFNIR time across all SpMVs, in nanoseconds.
    pub fafnir_ns: f64,
    /// Total Two-Step time across all SpMVs, in nanoseconds.
    pub two_step_ns: f64,
}

impl AppRun {
    /// Application-level FAFNIR speedup over Two-Step.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.fafnir_ns <= 0.0 {
            1.0
        } else {
            self.two_step_ns / self.fafnir_ns
        }
    }
}

/// Runs one SpMV through both engines, accumulating their times.
fn timed_spmv(
    lil: &LilMatrix,
    x: &[f64],
    vector_size: usize,
    timing: &SpmvTiming,
    fafnir_total: &mut f64,
    two_step_total: &mut f64,
) -> SpmvRun {
    let run = fafnir_spmv::execute(lil, x, vector_size);
    let baseline = two_step::execute(lil, x, vector_size);
    *fafnir_total += timing.fafnir_ns(&run);
    *two_step_total += timing.two_step_ns(&baseline);
    run
}

/// Jacobi iteration solving `A·x = b` (matrix-inversion application).
///
/// `A` must be diagonally dominant (see [`crate::gen::banded`]). Stops when
/// the max-norm update falls below `tolerance` or after `max_iterations`.
///
/// # Panics
///
/// Panics if shapes mismatch or a diagonal element is zero.
#[must_use]
pub fn jacobi_solve(
    a: &CsrMatrix,
    b: &[f64],
    vector_size: usize,
    tolerance: f64,
    max_iterations: usize,
    timing: &SpmvTiming,
) -> AppRun {
    assert_eq!(a.rows(), a.cols(), "Jacobi needs a square matrix");
    assert_eq!(b.len(), a.rows(), "right-hand side length mismatch");
    let n = a.rows();
    // Split A = D + R; iterate x ← D⁻¹ (b − R·x).
    let mut diagonal = vec![0.0; n];
    let mut remainder = crate::coo::CooMatrix::new(n, n);
    for (row, diag) in diagonal.iter_mut().enumerate() {
        for (col, value) in a.row(row) {
            if row == col {
                *diag = value;
            } else {
                remainder.push(row, col, value);
            }
        }
    }
    remainder.sum_duplicates();
    for (row, &d) in diagonal.iter().enumerate() {
        assert!(d != 0.0, "zero diagonal at row {row}");
    }
    let remainder = LilMatrix::from(&remainder);

    let mut x = vec![0.0; n];
    let mut fafnir_ns = 0.0;
    let mut two_step_ns = 0.0;
    let mut calls = 0;
    let mut converged = false;
    for _ in 0..max_iterations {
        let rx = timed_spmv(&remainder, &x, vector_size, timing, &mut fafnir_ns, &mut two_step_ns);
        calls += 1;
        let mut delta: f64 = 0.0;
        for row in 0..n {
            let next = (b[row] - rx.y[row]) / diagonal[row];
            delta = delta.max((next - x[row]).abs());
            x[row] = next;
        }
        if delta < tolerance {
            converged = true;
            break;
        }
    }
    AppRun { solution: x, spmv_calls: calls, converged, fafnir_ns, two_step_ns }
}

/// PageRank over a (column-stochastic-normalized) adjacency matrix.
///
/// # Panics
///
/// Panics if the matrix is not square.
#[must_use]
pub fn pagerank(
    adjacency: &CsrMatrix,
    damping: f64,
    vector_size: usize,
    tolerance: f64,
    max_iterations: usize,
    timing: &SpmvTiming,
) -> AppRun {
    assert_eq!(adjacency.rows(), adjacency.cols(), "PageRank needs a square matrix");
    let n = adjacency.rows();
    // Column-normalize Aᵀ so rank flows along out-edges.
    let transposed = adjacency.transpose();
    let mut normalized = crate::coo::CooMatrix::new(n, n);
    let mut out_degree = vec![0.0; n];
    for row in 0..n {
        for (col, value) in transposed.row(row) {
            out_degree[col] += value.abs();
        }
    }
    for row in 0..n {
        for (col, value) in transposed.row(row) {
            if out_degree[col] > 0.0 {
                normalized.push(row, col, value.abs() / out_degree[col]);
            }
        }
    }
    normalized.sum_duplicates();
    let matrix = LilMatrix::from(&normalized);

    let dangling: Vec<bool> = out_degree.iter().map(|&d| d == 0.0).collect();

    let mut rank = vec![1.0 / n as f64; n];
    let teleport = (1.0 - damping) / n as f64;
    let mut fafnir_ns = 0.0;
    let mut two_step_ns = 0.0;
    let mut calls = 0;
    let mut converged = false;
    for _ in 0..max_iterations {
        let product =
            timed_spmv(&matrix, &rank, vector_size, timing, &mut fafnir_ns, &mut two_step_ns);
        calls += 1;
        // Rank parked on dangling nodes is redistributed uniformly so the
        // vector stays a probability distribution.
        let dangling_mass: f64 =
            rank.iter().zip(&dangling).filter_map(|(r, &d)| d.then_some(*r)).sum();
        let spread = damping * dangling_mass / n as f64;
        let mut delta = 0.0;
        for (current, &product_row) in rank.iter_mut().zip(&product.y) {
            let next = teleport + spread + damping * product_row;
            delta += (next - *current).abs();
            *current = next;
        }
        if delta < tolerance {
            converged = true;
            break;
        }
    }
    AppRun { solution: rank, spmv_calls: calls, converged, fafnir_ns, two_step_ns }
}

/// Conjugate-gradient solve of `A·x = b` for symmetric positive-definite
/// `A` (see [`crate::gen::spd_banded`]) — the classic PDE-solver kernel the
/// paper's conclusion names for FAFNIR's numeric-algebra direction. One
/// SpMV per iteration runs through both engines for the speedup accounting;
/// the vector updates are host-side dot products.
///
/// # Panics
///
/// Panics if the matrix is not square or shapes mismatch.
#[must_use]
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    vector_size: usize,
    tolerance: f64,
    max_iterations: usize,
    timing: &SpmvTiming,
) -> AppRun {
    assert_eq!(a.rows(), a.cols(), "CG needs a square (SPD) matrix");
    assert_eq!(b.len(), a.rows(), "right-hand side length mismatch");
    let n = a.rows();
    let lil = {
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for row in 0..n {
            for (col, value) in a.row(row) {
                coo.push(row, col, value);
            }
        }
        coo.sum_duplicates();
        LilMatrix::from(&coo)
    };
    let dot = |u: &[f64], v: &[f64]| -> f64 { u.iter().zip(v).map(|(x, y)| x * y).sum() };

    let mut x = vec![0.0; n];
    let mut residual = b.to_vec();
    let mut direction = residual.clone();
    let mut rho = dot(&residual, &residual);
    let mut fafnir_ns = 0.0;
    let mut two_step_ns = 0.0;
    let mut calls = 0;
    let mut converged = rho.sqrt() < tolerance;
    for _ in 0..max_iterations {
        if converged {
            break;
        }
        let ad =
            timed_spmv(&lil, &direction, vector_size, timing, &mut fafnir_ns, &mut two_step_ns);
        calls += 1;
        let denominator = dot(&direction, &ad.y);
        assert!(denominator > 0.0, "matrix is not positive definite");
        let alpha = rho / denominator;
        for i in 0..n {
            x[i] += alpha * direction[i];
            residual[i] -= alpha * ad.y[i];
        }
        let rho_next = dot(&residual, &residual);
        if rho_next.sqrt() < tolerance {
            converged = true;
            break;
        }
        let beta = rho_next / rho;
        for i in 0..n {
            direction[i] = residual[i] + beta * direction[i];
        }
        rho = rho_next;
    }
    AppRun { solution: x, spmv_calls: calls, converged, fafnir_ns, two_step_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn jacobi_solves_a_dominant_system() {
        let coo = gen::banded(60, 2, 21);
        let a = CsrMatrix::from(&coo);
        // Construct b = A·x_true so we know the answer.
        let x_true: Vec<f64> = (0..60).map(|i| ((i % 5) as f64) - 2.0).collect();
        let b = a.multiply(&x_true);
        let run = jacobi_solve(&a, &b, 2048, 1e-10, 500, &SpmvTiming::paper());
        assert!(run.converged, "Jacobi should converge on a dominant system");
        for (got, want) in run.solution.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
        assert!(run.spmv_calls > 1);
        assert!(run.speedup() > 1.0);
    }

    #[test]
    fn pagerank_produces_a_probability_vector() {
        let coo = gen::rmat(7, 1200, 22);
        let a = CsrMatrix::from(&coo);
        let run = pagerank(&a, 0.85, 2048, 1e-9, 200, &SpmvTiming::paper());
        assert!(run.converged);
        let sum: f64 = run.solution.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "ranks sum to 1: {sum}");
        assert!(run.solution.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn pagerank_favours_high_in_degree_nodes() {
        // Star graph: entry (row=i, col=0) is the edge i→0 — everyone links
        // to node 0, so node 0 must end up highest ranked.
        let coo = crate::coo::CooMatrix::from_triplets(
            8,
            8,
            (1..8).map(|i| (i, 0usize, 1.0)).collect::<Vec<_>>(),
        );
        let a = CsrMatrix::from(&coo);
        let run = pagerank(&a, 0.85, 2048, 1e-12, 100, &SpmvTiming::paper());
        let top = run
            .solution
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(top, 0, "hub node should rank first: {:?}", run.solution);
    }

    #[test]
    fn conjugate_gradient_solves_an_spd_system() {
        let coo = gen::spd_banded(80, 3, 31);
        let a = CsrMatrix::from(&coo);
        let x_true: Vec<f64> = (0..80).map(|i| ((i % 7) as f64) * 0.5 - 1.5).collect();
        let b = a.multiply(&x_true);
        let run = conjugate_gradient(&a, &b, 2048, 1e-10, 300, &SpmvTiming::paper());
        assert!(run.converged, "CG should converge on an SPD system");
        for (got, want) in run.solution.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert!(run.speedup() > 1.0);
    }

    #[test]
    fn conjugate_gradient_beats_jacobi_on_iterations() {
        // CG converges in far fewer SpMV calls than Jacobi on the same
        // system — the reason solvers prefer it.
        let coo = gen::spd_banded(200, 2, 32);
        let a = CsrMatrix::from(&coo);
        let b = vec![1.0; 200];
        let timing = SpmvTiming::paper();
        let cg = conjugate_gradient(&a, &b, 2048, 1e-9, 500, &timing);
        let jacobi = jacobi_solve(&a, &b, 2048, 1e-9, 500, &timing);
        assert!(cg.converged && jacobi.converged);
        assert!(
            cg.spmv_calls < jacobi.spmv_calls,
            "cg {} vs jacobi {}",
            cg.spmv_calls,
            jacobi.spmv_calls
        );
    }

    #[test]
    fn app_speedup_is_positive_and_bounded() {
        let coo = gen::banded(100, 4, 23);
        let a = CsrMatrix::from(&coo);
        let b = vec![1.0; 100];
        let run = jacobi_solve(&a, &b, 2048, 1e-8, 100, &SpmvTiming::paper());
        let speedup = run.speedup();
        assert!(speedup > 1.0 && speedup <= 4.6, "speedup {speedup}");
    }
}
