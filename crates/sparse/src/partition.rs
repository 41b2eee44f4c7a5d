//! Load-balanced 1D/2D SpMV partitioning across ranks (real-PIM style).
//!
//! Giannoula et al.'s real-PIM SpMV study splits the matrix across memory
//! ranks — 1D by rows or columns, 2D as a grid — balances either row count
//! or nonzero count per rank, and pays an explicit *synchronization* step
//! to reduce partial results for rows that more than one rank touches.
//! This module is that recipe over the FAFNIR tree:
//!
//! * [`SpmvPartition`] plans one of four [`PartitionStrategy`] layouts over
//!   a [`CooMatrix`], producing per-rank sub-problems (contiguous row/column
//!   windows with their nonzero loads);
//! * [`execute_partitioned`] runs every sub-problem through the existing
//!   [`crate::fafnir_spmv::execute_to_stream`] tree path (paper Sec. IV-D),
//!   one row band per job on the host's cores, and merges each band's
//!   partial rows across its ranks, counting the entries that cross a
//!   partition boundary; at most one band's partial streams are alive per
//!   worker, and the result does not depend on the core count;
//! * [`PartitionedRun`] prices the whole thing through [`SpmvTiming`]: the
//!   parallel makespan is the slowest rank plus the synchronization stage
//!   ([`SpmvTiming::sync_merge_ns`] per cross-rank entry), the way
//!   `fafnir-cluster` prices cross-shard accumulator transfer.
//!
//! Row-partitioned layouts (`RowBlock`, `NnzBalancedRows`) never overlap
//! output rows, so their merge is free; column and grid layouts trade rank
//! parallelism against cross-rank partial-row reduction.

use std::ops::Range;

use fafnir_core::pipeline::map_ordered;
use serde::{Deserialize, Serialize};

use crate::coo::CooMatrix;
use crate::fafnir_spmv::{self, SpmvRun, SpmvTiming};
use crate::iteration::SpmvPlan;
use crate::lil::LilMatrix;
use crate::stream::{merge_tree, PartialStream, StreamOps};

/// How the matrix is split across ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionStrategy {
    /// 1D contiguous row blocks with (near-)equal *row counts* per rank.
    RowBlock,
    /// 1D contiguous row blocks balanced by *nonzero count* per rank — the
    /// load-balancing fix for skewed (power-law) matrices.
    NnzBalancedRows,
    /// 1D contiguous column blocks with (near-)equal column counts; every
    /// rank produces partials for all rows, so the merge pays for it.
    ColumnBlock,
    /// 2D grid of `row_ranks × col_ranks` tiles: row bands bound the merge
    /// width, column bands bound each rank's operand slice.
    Grid {
        /// Row bands.
        row_ranks: usize,
        /// Column bands per row band.
        col_ranks: usize,
    },
}

impl PartitionStrategy {
    /// The most-square 2D grid over `ranks` ranks (e.g. 8 → 2×4, 16 → 4×4).
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero.
    #[must_use]
    pub fn grid(ranks: usize) -> Self {
        assert!(ranks > 0, "a grid needs at least one rank");
        let mut row_ranks = 1;
        // `d > ranks / d` is `d * d > ranks` without the overflow.
        for d in (1..=ranks).take_while(|&d| d <= ranks / d) {
            if ranks.is_multiple_of(d) {
                row_ranks = d;
            }
        }
        Self::Grid { row_ranks, col_ranks: ranks / row_ranks }
    }

    /// True when this layout can split a `rows × cols` matrix over `ranks`
    /// ranks: at least one rank, a 1D layout needs a row (or column) per
    /// rank, and a grid's bands must multiply out to `ranks` with a row per
    /// row band and a column per column band.
    #[must_use]
    pub fn fits(&self, rows: usize, cols: usize, ranks: usize) -> bool {
        ranks > 0
            && match *self {
                Self::RowBlock | Self::NnzBalancedRows => ranks <= rows,
                Self::ColumnBlock => ranks <= cols,
                Self::Grid { row_ranks, col_ranks } => {
                    row_ranks.checked_mul(col_ranks) == Some(ranks)
                        && row_ranks <= rows
                        && col_ranks <= cols
                }
            }
    }

    /// Short name used by the CLI and benchmark records.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::RowBlock => "row",
            Self::NnzBalancedRows => "nnz",
            Self::ColumnBlock => "col",
            Self::Grid { .. } => "grid",
        }
    }
}

/// One rank's sub-problem: a contiguous row/column window and its load.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankSpan {
    /// Rank index.
    pub rank: usize,
    /// Global row window (half-open).
    pub rows: Range<usize>,
    /// Global column window (half-open).
    pub cols: Range<usize>,
    /// Nonzeros inside the window.
    pub nnz: usize,
}

/// A partition plan: per-rank windows over a concrete matrix.
///
/// # Examples
///
/// ```
/// use fafnir_sparse::{gen, PartitionStrategy, SpmvPartition};
///
/// let matrix = gen::rmat(8, 4_000, 7);
/// let row = SpmvPartition::new(&matrix, PartitionStrategy::RowBlock, 8);
/// let nnz = SpmvPartition::new(&matrix, PartitionStrategy::NnzBalancedRows, 8);
/// // Balancing by nonzeros beats balancing by rows on a skewed matrix.
/// assert!(nnz.nnz_imbalance() < row.nnz_imbalance());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpmvPartition {
    /// The layout strategy.
    pub strategy: PartitionStrategy,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Matrix nonzeros.
    pub nnz: usize,
    /// Row-band boundaries (`row_bands + 1` entries, starting 0, ending
    /// `rows`).
    row_bounds: Vec<usize>,
    /// Column-band boundaries (`col_bands + 1` entries).
    col_bounds: Vec<usize>,
    /// Per-rank windows in row-major band order.
    spans: Vec<RankSpan>,
}

/// Even boundaries: `parts + 1` cut points over `0..n`.
fn even_bounds(n: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|k| k * n / parts).collect()
}

/// Boundaries balancing the per-part sum of `counts`, kept strictly
/// increasing so every band spans at least one row.
fn balanced_bounds(counts: &[usize], parts: usize) -> Vec<usize> {
    let n = counts.len();
    let mut prefix = vec![0usize; n + 1];
    for (i, &c) in counts.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let total = prefix[n];
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for k in 1..parts {
        let target = (k * total).div_ceil(parts);
        let cut = prefix.partition_point(|&p| p < target);
        // Strictly increasing, and leave at least one row per later band.
        let cut = cut.max(bounds[k - 1] + 1).min(n - (parts - k));
        bounds.push(cut);
    }
    bounds.push(n);
    bounds
}

/// The rank owning cell `(row, col)`, as a closure over every row's and
/// column's band, tabulated once from the bounds: a per-entry lookup is two
/// loads instead of two binary searches.
fn rank_lookup(row_bounds: &[usize], col_bounds: &[usize]) -> impl Fn(usize, usize) -> usize {
    let tabulate = |bounds: &[usize]| {
        let mut table = Vec::with_capacity(bounds[bounds.len() - 1]);
        for (band, window) in bounds.windows(2).enumerate() {
            table.resize(window[1], band);
        }
        table
    };
    let (row_band, col_band) = (tabulate(row_bounds), tabulate(col_bounds));
    let col_bands = col_bounds.len() - 1;
    move |row, col| row_band[row] * col_bands + col_band[col]
}

impl SpmvPartition {
    /// Plans a partition of `matrix` over `ranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics unless `strategy` [fits](PartitionStrategy::fits) the
    /// matrix's shape over `ranks` ranks.
    #[must_use]
    pub fn new(matrix: &CooMatrix, strategy: PartitionStrategy, ranks: usize) -> Self {
        let (rows, cols) = (matrix.rows(), matrix.cols());
        assert!(
            strategy.fits(rows, cols, ranks),
            "cannot split a {rows}x{cols} matrix over {ranks} ranks as {strategy:?}"
        );
        let (row_bounds, col_bounds) = match strategy {
            PartitionStrategy::RowBlock => (even_bounds(rows, ranks), vec![0, cols]),
            PartitionStrategy::NnzBalancedRows => {
                let mut row_counts = vec![0usize; rows];
                for &(row, _, _) in matrix.entries() {
                    row_counts[row] += 1;
                }
                (balanced_bounds(&row_counts, ranks), vec![0, cols])
            }
            PartitionStrategy::ColumnBlock => (vec![0, rows], even_bounds(cols, ranks)),
            PartitionStrategy::Grid { row_ranks, col_ranks } => {
                (even_bounds(rows, row_ranks), even_bounds(cols, col_ranks))
            }
        };
        let col_bands = col_bounds.len() - 1;
        let mut spans: Vec<RankSpan> = (0..ranks)
            .map(|rank| RankSpan {
                rank,
                rows: row_bounds[rank / col_bands]..row_bounds[rank / col_bands + 1],
                cols: col_bounds[rank % col_bands]..col_bounds[rank % col_bands + 1],
                nnz: 0,
            })
            .collect();
        let rank_of = rank_lookup(&row_bounds, &col_bounds);
        for &(row, col, _) in matrix.entries() {
            spans[rank_of(row, col)].nnz += 1;
        }
        Self { strategy, rows, cols, nnz: matrix.nnz(), row_bounds, col_bounds, spans }
    }

    /// Rank count.
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.spans.len()
    }

    /// Row bands (1 for column partitions).
    #[must_use]
    pub fn row_bands(&self) -> usize {
        self.row_bounds.len() - 1
    }

    /// Column bands per row band (1 for row partitions).
    #[must_use]
    pub fn col_bands(&self) -> usize {
        self.col_bounds.len() - 1
    }

    /// Per-rank windows in row-major band order.
    #[must_use]
    pub fn spans(&self) -> &[RankSpan] {
        &self.spans
    }

    /// Nonzero-load imbalance factor: the busiest rank's nonzeros over the
    /// per-rank mean (max/mean, matching `ClusterReport`'s convention).
    /// 1.0 is perfect balance; `ranks` is total skew. Returns 1.0 for an
    /// empty matrix.
    #[must_use]
    pub fn nnz_imbalance(&self) -> f64 {
        if self.nnz == 0 {
            return 1.0;
        }
        let max = self.spans.iter().map(|s| s.nnz).max().unwrap_or(0) as f64;
        max / (self.nnz as f64 / self.ranks() as f64)
    }
}

/// One rank's executed sub-problem: its plan, volumes, and the size of the
/// partial-result stream it ships to the synchronization stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankRun {
    /// Rank index.
    pub rank: usize,
    /// Stored entries the rank received, counting a repeated coordinate
    /// once per entry, like [`RankSpan::nnz`]; `ops.multiplies` counts the
    /// summed cells it multiplied.
    pub nnz: u64,
    /// The rank's iteration/round plan.
    pub plan: SpmvPlan,
    /// Entries processed per iteration (see
    /// [`crate::fafnir_spmv::SpmvRun::volumes`]).
    pub volumes: Vec<u64>,
    /// Exact operation counts inside the rank.
    pub ops: StreamOps,
    /// Entries in the rank's final combined stream — what crosses the
    /// partition boundary if the merge stage needs it.
    pub partial_entries: u64,
}

/// The record of one partitioned SpMV: result, per-rank runs, and the
/// synchronization stage's measured volume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionedRun {
    /// The product vector `y = A·x`.
    pub y: Vec<f64>,
    /// The partition plan executed.
    pub partition: SpmvPartition,
    /// Per-rank execution records (rank order).
    pub rank_runs: Vec<RankRun>,
    /// Partial-result entries that crossed a partition boundary during the
    /// merge stage (0 for row-partitioned layouts).
    pub sync_entries: u64,
    /// Merge stages performed (one per row band that more than one rank
    /// contributed partials to).
    pub sync_rounds: usize,
    /// Operation counts of the synchronization merges themselves.
    pub sync_ops: StreamOps,
}

impl PartitionedRun {
    /// Each rank's modeled time under `timing`.
    #[must_use]
    pub fn rank_ns(&self, timing: &SpmvTiming) -> Vec<f64> {
        self.rank_runs
            .iter()
            .map(|r| timing.fafnir_parts_ns(&r.volumes, r.plan.total_rounds()))
            .collect()
    }

    /// The slowest rank's time — the parallel phase's makespan.
    #[must_use]
    pub fn critical_path_ns(&self, timing: &SpmvTiming) -> f64 {
        self.rank_ns(timing).into_iter().fold(0.0, f64::max)
    }

    /// The synchronization stage's cost: every cross-rank entry pays
    /// [`SpmvTiming::sync_merge_ns`], every merge stage one round overhead.
    #[must_use]
    pub fn sync_ns(&self, timing: &SpmvTiming) -> f64 {
        self.sync_entries as f64 * timing.sync_merge_ns
            + self.sync_rounds as f64 * timing.round_overhead_ns
    }

    /// End-to-end modeled time: slowest rank, then synchronization.
    #[must_use]
    pub fn total_ns(&self, timing: &SpmvTiming) -> f64 {
        self.critical_path_ns(timing) + self.sync_ns(timing)
    }

    /// Measured speedup over an unpartitioned run of the same problem
    /// (ideal would be the rank count).
    #[must_use]
    pub fn speedup_over(&self, serial: &SpmvRun, timing: &SpmvTiming) -> f64 {
        timing.fafnir_ns(serial) / self.total_ns(timing)
    }

    /// Time-load imbalance factor: slowest rank over the mean rank time
    /// (max/mean). Returns 1.0 when every rank is free.
    #[must_use]
    pub fn time_imbalance(&self, timing: &SpmvTiming) -> f64 {
        let times = self.rank_ns(timing);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        self.critical_path_ns(timing) / mean
    }

    /// The first conservation law this run breaks, if any. A band lost or
    /// run twice breaks the first; each law costs O(ranks).
    fn broken_law(&self) -> Option<&'static str> {
        let partition = &self.partition;
        if !self.rank_runs.iter().map(|r| r.rank).eq(0..partition.ranks()) {
            return Some("rank runs must be ranks 0..ranks in order");
        }
        if self.rank_runs.iter().map(|r| r.nnz).sum::<u64>() != partition.nnz as u64 {
            return Some("every stored entry must reach exactly one rank");
        }
        // Every band has `col_bands` column ranks, so either every band
        // synchronizes or none does.
        let synced = partition.col_bands() > 1;
        let partial: u64 = self.rank_runs.iter().map(|r| r.partial_entries).sum();
        if self.sync_entries != if synced { partial } else { 0 } {
            return Some("sync entries must equal the synchronized bands' partial entries");
        }
        if self.sync_rounds != if synced { partition.row_bands() } else { 0 } {
            return Some("sync rounds must equal the bands with several column ranks");
        }
        None
    }
}

/// One stored entry, `(row, col, value)`, in its rank's local coordinates.
type Triplet = (usize, usize, f64);

/// Runs one rank's window, given as triplets in local coordinates, through
/// the tree path.
fn run_rank(
    span: &RankSpan,
    triplets: &[Triplet],
    x: &[f64],
    vector_size: usize,
) -> (RankRun, PartialStream) {
    let sub = LilMatrix::from_triplets(span.rows.len(), span.cols.len(), triplets);
    let run = fafnir_spmv::execute_to_stream(&sub, &x[span.cols.clone()], vector_size);
    (
        RankRun {
            rank: span.rank,
            nnz: triplets.len() as u64,
            plan: run.plan,
            volumes: run.volumes,
            ops: run.ops,
            partial_entries: run.stream.len() as u64,
        },
        run.stream,
    )
}

/// One row band's executed ranks.
struct BandRun {
    /// The band's rank records, in rank order.
    runs: Vec<RankRun>,
    /// Entries that crossed a partition boundary in the band's merge.
    sync_entries: u64,
    /// Operation counts of the band's merge.
    sync_ops: StreamOps,
}

/// Runs one row band's ranks, freeing each rank's entries once it has run,
/// reduces their partial rows (a balanced merge tree, like the hardware
/// would gang spare PEs) when the band has several column ranks, and
/// scatters them into the band's rows of `y`.
fn run_band(
    (y, band): (&mut [f64], Vec<(&RankSpan, Vec<Triplet>)>),
    x: &[f64],
    vector_size: usize,
) -> BandRun {
    let mut runs = Vec::with_capacity(band.len());
    let mut streams = Vec::with_capacity(band.len());
    for (span, triplets) in band {
        let (run, stream) = run_rank(span, &triplets, x, vector_size);
        runs.push(run);
        streams.push(stream);
    }
    // Synchronization: the band's column ranks share its output rows;
    // different bands' rows are disjoint.
    let mut sync_ops = StreamOps::default();
    let (merged, sync_entries) = if streams.len() > 1 {
        let entries = streams.iter().map(|s| s.len() as u64).sum();
        (merge_tree(streams, &mut sync_ops), entries)
    } else {
        (streams.pop().expect("a band holds one rank per column band"), 0)
    };
    for &(row, value) in merged.entries() {
        y[row] += value;
    }
    BandRun { runs, sync_entries, sync_ops }
}

/// Executes `y = A·x` across a partition. Each row band is one job on the
/// shared ordered pool ([`map_ordered`], one worker per available core):
/// the band's ranks run their windows through the FAFNIR tree path, then
/// their partial rows are reduced across the band's column ranks and
/// scattered into the band's own rows of `y`. Bands write disjoint rows
/// and share no other state, and their records are collected in band
/// order, so `y`, every [`RankRun`] and the synchronization counters are
/// bit-identical for any core count. Each
/// rank's entries are freed once it has run, so beside the input and `y`
/// the driver holds one bucketed copy of the entries, shrinking rank by
/// rank, and per worker one band's partial streams.
///
/// # Panics
///
/// Panics if `x.len()`, the matrix shape and the partition disagree, if
/// `vector_size < 2` (see [`crate::fafnir_spmv::execute`]), or if the run
/// breaks a conservation law: its rank runs must be ranks `0..ranks` in
/// order, every stored entry must reach exactly one rank (the ranks'
/// [`RankRun::nnz`] sum to the matrix's stored entries), and the
/// synchronization counters must account for exactly the partial streams
/// of the bands with more than one column rank. The message names the law
/// that broke.
#[must_use]
pub fn execute_partitioned(
    matrix: &CooMatrix,
    x: &[f64],
    partition: &SpmvPartition,
    vector_size: usize,
) -> PartitionedRun {
    assert_eq!(x.len(), matrix.cols(), "operand length mismatch");
    assert_eq!(
        (partition.rows, partition.cols, partition.nnz),
        (matrix.rows(), matrix.cols(), matrix.nnz()),
        "partition was planned for a different matrix"
    );
    // One pass buckets every entry into its rank's local coordinates; the
    // lookup's row and column tables are freed before the ranks run.
    let buckets = {
        let rank_of = rank_lookup(&partition.row_bounds, &partition.col_bounds);
        let mut buckets: Vec<Vec<Triplet>> =
            partition.spans.iter().map(|s| Vec::with_capacity(s.nnz)).collect();
        for &(row, col, value) in matrix.entries() {
            let rank = rank_of(row, col);
            let span = &partition.spans[rank];
            buckets[rank].push((row - span.rows.start, col - span.cols.start, value));
        }
        buckets
    };
    // Spans are in row-major band order, so each band is the next
    // `col_bands` ranks, and it owns its window of `y`.
    let mut y = vec![0.0; partition.rows];
    let col_bands = partition.col_bands();
    let mut ranks = partition.spans.iter().zip(buckets);
    let mut rows = y.as_mut_slice();
    let bands: Vec<_> = partition
        .row_bounds
        .windows(2)
        .map(|band| {
            let (band_rows, rest) = std::mem::take(&mut rows).split_at_mut(band[1] - band[0]);
            rows = rest;
            (band_rows, ranks.by_ref().take(col_bands).collect::<Vec<_>>())
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let band_runs = map_ordered(bands, cores, |band| run_band(band, x, vector_size));

    let mut rank_runs = Vec::with_capacity(partition.ranks());
    let (mut sync_entries, mut sync_rounds) = (0u64, 0usize);
    let mut sync_ops = StreamOps::default();
    for band in band_runs {
        sync_rounds += usize::from(band.runs.len() > 1);
        rank_runs.extend(band.runs);
        sync_entries += band.sync_entries;
        sync_ops.merge(&band.sync_ops);
    }
    let run = PartitionedRun {
        y,
        partition: partition.clone(),
        rank_runs,
        sync_entries,
        sync_rounds,
        sync_ops,
    };
    if let Some(law) = run.broken_law() {
        panic!("partitioned SpMV broke a conservation law: {law}");
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9_f64.max(y.abs() * 1e-12), "{x} vs {y}");
        }
    }

    fn operand(cols: usize) -> Vec<f64> {
        (0..cols).map(|i| 0.5 + (i % 17) as f64 * 0.25).collect()
    }

    fn strategies(ranks: usize) -> [PartitionStrategy; 4] {
        [
            PartitionStrategy::RowBlock,
            PartitionStrategy::NnzBalancedRows,
            PartitionStrategy::ColumnBlock,
            PartitionStrategy::grid(ranks),
        ]
    }

    #[test]
    fn grid_factorization_is_most_square() {
        assert_eq!(
            PartitionStrategy::grid(1),
            PartitionStrategy::Grid { row_ranks: 1, col_ranks: 1 }
        );
        assert_eq!(
            PartitionStrategy::grid(8),
            PartitionStrategy::Grid { row_ranks: 2, col_ranks: 4 }
        );
        assert_eq!(
            PartitionStrategy::grid(16),
            PartitionStrategy::Grid { row_ranks: 4, col_ranks: 4 }
        );
        assert_eq!(
            PartitionStrategy::grid(7),
            PartitionStrategy::Grid { row_ranks: 1, col_ranks: 7 }
        );
        // The search stops at the square root, so large counts stay cheap.
        assert_eq!(
            PartitionStrategy::grid(1 << 40),
            PartitionStrategy::Grid { row_ranks: 1 << 20, col_ranks: 1 << 20 }
        );
        assert_eq!(
            PartitionStrategy::grid(2 * 1_000_003),
            PartitionStrategy::Grid { row_ranks: 2, col_ranks: 1_000_003 }
        );
    }

    #[test]
    fn a_layout_fits_with_a_row_or_column_per_band() {
        let grid = PartitionStrategy::Grid { row_ranks: 2, col_ranks: 3 };
        assert!(grid.fits(2, 3, 6));
        assert!(!grid.fits(1, 3, 6) && !grid.fits(2, 2, 6) && !grid.fits(2, 3, 5));
        let huge = PartitionStrategy::Grid { row_ranks: usize::MAX, col_ranks: 2 };
        assert!(!huge.fits(usize::MAX, usize::MAX, usize::MAX - 1), "the product wraps");
        assert!(PartitionStrategy::RowBlock.fits(4, 1, 4));
        assert!(!PartitionStrategy::NnzBalancedRows.fits(4, 9, 5));
        assert!(PartitionStrategy::ColumnBlock.fits(1, 4, 4));
        assert!(!PartitionStrategy::ColumnBlock.fits(9, 4, 5));
        assert!(!PartitionStrategy::RowBlock.fits(4, 4, 0), "no ranks");
    }

    #[test]
    fn spans_tile_the_matrix_exactly() {
        let matrix = gen::rmat(7, 2_000, 5);
        for strategy in strategies(8) {
            let partition = SpmvPartition::new(&matrix, strategy, 8);
            assert_eq!(partition.ranks(), 8, "{strategy:?}");
            let total: usize = partition.spans().iter().map(|s| s.nnz).sum();
            assert_eq!(total, matrix.nnz(), "{strategy:?} must cover every entry");
            // Every cell maps to exactly the span that contains it.
            let rank_of = rank_lookup(&partition.row_bounds, &partition.col_bounds);
            for &(row, col, _) in matrix.entries().iter().step_by(97) {
                let span = &partition.spans()[rank_of(row, col)];
                assert!(span.rows.contains(&row) && span.cols.contains(&col));
            }
            // Windows are non-empty even on skewed inputs.
            for span in partition.spans() {
                assert!(!span.rows.is_empty() && !span.cols.is_empty(), "{strategy:?}");
            }
        }
    }

    #[test]
    fn nnz_balancing_beats_row_counting_on_skewed_matrices() {
        let matrix = gen::rmat(9, 30_000, 6);
        let row = SpmvPartition::new(&matrix, PartitionStrategy::RowBlock, 8);
        let nnz = SpmvPartition::new(&matrix, PartitionStrategy::NnzBalancedRows, 8);
        assert!(
            nnz.nnz_imbalance() < row.nnz_imbalance() - 0.2,
            "nnz {} vs row {}",
            nnz.nnz_imbalance(),
            row.nnz_imbalance()
        );
        assert!(nnz.nnz_imbalance() < 1.2, "greedy cuts land near balance");
    }

    #[test]
    fn balanced_bounds_survive_one_row_holding_everything() {
        // All weight in one row: bands stay non-empty and strictly ordered.
        let mut counts = vec![0usize; 10];
        counts[4] = 100;
        let bounds = balanced_bounds(&counts, 4);
        assert_eq!(bounds.first(), Some(&0));
        assert_eq!(bounds.last(), Some(&10));
        for window in bounds.windows(2) {
            assert!(window[0] < window[1], "{bounds:?}");
        }
    }

    #[test]
    fn every_strategy_matches_the_dense_reference() {
        let suite =
            [gen::rmat(7, 3_000, 8), gen::banded(150, 3, 9), gen::uniform(96, 96, 0.08, 10)];
        for matrix in &suite {
            let x = operand(matrix.cols());
            let reference = matrix.multiply_dense(&x);
            let serial = fafnir_spmv::execute(&LilMatrix::from(matrix), &x, 32);
            assert_close(&serial.y, &reference);
            for ranks in [1usize, 3, 8] {
                for strategy in strategies(ranks) {
                    let partition = SpmvPartition::new(matrix, strategy, ranks);
                    let run = execute_partitioned(matrix, &x, &partition, 32);
                    assert_close(&run.y, &reference);
                    assert_close(&run.y, &serial.y);
                    let nnz: u64 = run.rank_runs.iter().map(|r| r.nnz).sum();
                    assert_eq!(nnz, matrix.nnz() as u64, "{strategy:?}");
                }
            }
        }
    }

    #[test]
    fn row_partitions_need_no_synchronization_and_column_partitions_do() {
        let matrix = gen::rmat(7, 2_000, 12);
        let x = operand(matrix.cols());
        for strategy in [PartitionStrategy::RowBlock, PartitionStrategy::NnzBalancedRows] {
            let run =
                execute_partitioned(&matrix, &x, &SpmvPartition::new(&matrix, strategy, 4), 32);
            assert_eq!(run.sync_entries, 0, "{strategy:?}");
            assert_eq!(run.sync_rounds, 0);
        }
        let col = execute_partitioned(
            &matrix,
            &x,
            &SpmvPartition::new(&matrix, PartitionStrategy::ColumnBlock, 4),
            32,
        );
        assert!(col.sync_entries > 0);
        assert_eq!(col.sync_rounds, 1, "one band, one merge stage");
        let timing = SpmvTiming::paper();
        assert!(col.sync_ns(&timing) > 0.0);
        assert!(col.total_ns(&timing) > col.critical_path_ns(&timing));
    }

    #[test]
    fn a_run_that_loses_or_repeats_work_breaks_a_named_law() {
        let matrix = gen::rmat(7, 2_000, 14);
        let x = operand(matrix.cols());
        let grid = SpmvPartition::new(&matrix, PartitionStrategy::grid(8), 8);
        let run = execute_partitioned(&matrix, &x, &grid, 32);
        assert_eq!(run.broken_law(), None);
        let broken = |tamper: &dyn Fn(&mut PartitionedRun)| {
            let mut copy = run.clone();
            tamper(&mut copy);
            copy.broken_law().expect("the tampered run breaks a law")
        };
        let lost = broken(&|r| drop(r.rank_runs.pop()));
        assert!(lost.starts_with("rank runs"), "{lost}");
        let repeated = broken(&|r| r.rank_runs[1] = r.rank_runs[0].clone());
        assert!(repeated.starts_with("rank runs"), "{repeated}");
        let nnz = broken(&|r| r.rank_runs[3].nnz += 1);
        assert!(nnz.starts_with("every stored entry"), "{nnz}");
        let dropped = broken(&|r| r.rank_runs[5].nnz -= 1);
        assert!(dropped.starts_with("every stored entry"), "{dropped}");
        let entries = broken(&|r| r.sync_entries -= 1);
        assert!(entries.starts_with("sync entries"), "{entries}");
        let rounds = broken(&|r| r.sync_rounds += 1);
        assert!(rounds.starts_with("sync rounds"), "{rounds}");
        // Row layouts synchronize nothing.
        let row = SpmvPartition::new(&matrix, PartitionStrategy::NnzBalancedRows, 8);
        let mut run = execute_partitioned(&matrix, &x, &row, 32);
        run.sync_entries = 1;
        assert!(run.broken_law().is_some_and(|law| law.starts_with("sync entries")));
    }

    #[test]
    fn partitioning_speeds_up_over_the_serial_run() {
        let matrix = gen::banded(2_048, 6, 13);
        let x = operand(matrix.cols());
        let timing = SpmvTiming::paper();
        let serial = fafnir_spmv::execute(&LilMatrix::from(&matrix), &x, 64);
        let mut last = 0.0;
        for ranks in [2usize, 4, 8] {
            let partition = SpmvPartition::new(&matrix, PartitionStrategy::NnzBalancedRows, ranks);
            let run = execute_partitioned(&matrix, &x, &partition, 64);
            let speedup = run.speedup_over(&serial, &timing);
            assert!(speedup > 1.2, "{ranks} ranks: {speedup}");
            assert!(speedup > last, "more ranks, more speedup on a balanced band");
            assert!(run.time_imbalance(&timing) >= 1.0);
            last = speedup;
        }
    }

    #[test]
    #[should_panic(expected = "different matrix")]
    fn partition_and_matrix_must_agree() {
        let a = gen::banded(32, 1, 1);
        let b = gen::banded(48, 1, 1);
        let partition = SpmvPartition::new(&a, PartitionStrategy::RowBlock, 4);
        let x = vec![1.0; b.cols()];
        let _ = execute_partitioned(&b, &x, &partition, 32);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_ranks_than_rows_is_rejected() {
        let matrix = gen::banded(4, 1, 1);
        let _ = SpmvPartition::new(&matrix, PartitionStrategy::RowBlock, 8);
    }
}
