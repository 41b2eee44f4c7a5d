//! # fafnir-sparse — sparse-matrix substrate and SpMV engines
//!
//! FAFNIR's second application domain (paper Sec. IV-D): SpMV on the same
//! reduction-tree hardware, using vectorization and the LIL compression
//! format. This crate provides everything that side of the paper needs:
//!
//! * [`coo`], [`csr`], [`lil`] — sparse formats with conversions;
//! * [`mtx`] — Matrix Market I/O, so real SuiteSparse inputs drop in;
//! * [`gen`] — synthetic matrix generators spanning Fig. 14's workload axes
//!   (uniform scientific, R-MAT graphs, banded solver systems);
//! * [`stream`] — row-sorted partial-result streams and their tree merge,
//!   the SpMV-mode dataflow of the PEs;
//! * [`iteration`] — the iterations/rounds plan of Figs. 8–9;
//! * [`fafnir_spmv`] — the FAFNIR SpMV engine (functional + timed);
//! * [`two_step`] — the state-of-the-art Two-Step NDP baseline;
//! * [`analysis`] — structural matrix profiles (degree skew, bandwidth,
//!   symmetry) behind Fig. 14's suitability commentary;
//! * [`partition`] — load-balanced 1D/2D SpMV partitioning across ranks
//!   (row-block, nnz-balanced, column-block, grid) with an explicit
//!   synchronization stage, real-PIM style;
//! * [`report`] — the partitioned-SpMV report (imbalance, sync, speedup);
//! * [`apps`] — Jacobi/conjugate-gradient solvers and PageRank built on the
//!   engines.
//!
//! ```
//! use fafnir_sparse::{gen, fafnir_spmv, lil::LilMatrix};
//!
//! let matrix = LilMatrix::from(&gen::uniform(256, 256, 0.05, 1));
//! let x = vec![1.0; 256];
//! let run = fafnir_spmv::execute(&matrix, &x, 2048);
//! assert_eq!(run.y.len(), 256);
//! println!("{} multiplies, {} iterations", run.ops.multiplies, run.plan.iterations());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod apps;
pub mod coo;
pub mod csr;
pub mod fafnir_spmv;
pub mod gen;
pub mod iteration;
pub mod lil;
pub mod mtx;
pub mod partition;
pub mod report;
pub mod stream;
pub mod two_step;

pub use analysis::MatrixProfile;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use fafnir_spmv::{SpmvRun, SpmvStreamRun, SpmvTiming};
pub use iteration::SpmvPlan;
pub use lil::LilMatrix;
pub use partition::{
    execute_partitioned, PartitionStrategy, PartitionedRun, RankRun, RankSpan, SpmvPartition,
};
pub use report::PartitionReport;
pub use stream::{PartialStream, StreamOps};
