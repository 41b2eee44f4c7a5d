//! The partitioned-SpMV report: load, imbalance, sync volume, speedup.
//!
//! This is the record the CLI prints and the benchmark sweep serializes —
//! one partitioned run priced against its unpartitioned serial baseline,
//! with the two imbalance factors (nonzero load and modeled time, both
//! max/mean like `ClusterReport`) and the synchronization stage broken out.

use crate::fafnir_spmv::{SpmvRun, SpmvTiming};
use crate::partition::PartitionedRun;

/// Everything worth reporting about one partitioned SpMV.
///
/// # Examples
///
/// ```
/// use fafnir_sparse::{
///     execute_partitioned, fafnir_spmv, gen, LilMatrix, PartitionReport, PartitionStrategy,
///     SpmvPartition, SpmvTiming,
/// };
///
/// let matrix = gen::banded(512, 4, 1);
/// let x = vec![1.0; matrix.cols()];
/// let partition = SpmvPartition::new(&matrix, PartitionStrategy::NnzBalancedRows, 4);
/// let run = execute_partitioned(&matrix, &x, &partition, 32);
/// let serial = fafnir_spmv::execute(&LilMatrix::from(&matrix), &x, 32);
/// let report =
///     PartitionReport::new(&run, &serial, &SpmvTiming::paper(), &matrix.multiply_dense(&x));
/// assert!(report.speedup > 1.0);
/// assert!(report.max_abs_error < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Strategy name (`row`, `nnz`, `col`, `grid`).
    pub strategy: String,
    /// Rank count.
    pub ranks: usize,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Matrix nonzeros.
    pub nnz: usize,
    /// Nonzeros per rank.
    pub per_rank_nnz: Vec<u64>,
    /// Modeled time per rank in nanoseconds.
    pub per_rank_ns: Vec<f64>,
    /// Nonzero-load imbalance factor (max/mean, 1.0 = perfect).
    pub nnz_imbalance: f64,
    /// Modeled-time imbalance factor (max/mean).
    pub time_imbalance: f64,
    /// Partial entries that crossed a partition boundary.
    pub sync_entries: u64,
    /// Modeled synchronization-stage time in nanoseconds.
    pub sync_ns: f64,
    /// Modeled parallel time: slowest rank plus synchronization.
    pub parallel_ns: f64,
    /// Modeled unpartitioned time of the same problem.
    pub serial_ns: f64,
    /// `serial_ns / parallel_ns` (ideal would be `ranks`).
    pub speedup: f64,
    /// `speedup / ranks` — the fraction of ideal scaling realized.
    pub efficiency: f64,
    /// Largest absolute error against the dense reference result.
    pub max_abs_error: f64,
}

impl PartitionReport {
    /// Prices a partitioned run against its serial baseline and checks the
    /// result against a dense `reference` of the same product.
    ///
    /// # Panics
    ///
    /// Panics if `reference` and the run's result disagree in length.
    #[must_use]
    pub fn new(
        run: &PartitionedRun,
        serial: &SpmvRun,
        timing: &SpmvTiming,
        reference: &[f64],
    ) -> Self {
        assert_eq!(run.y.len(), reference.len(), "reference length mismatch");
        let parallel_ns = run.total_ns(timing);
        let serial_ns = timing.fafnir_ns(serial);
        let ranks = run.partition.ranks();
        let max_abs_error =
            run.y.iter().zip(reference).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        Self {
            strategy: run.partition.strategy.name().to_string(),
            ranks,
            rows: run.partition.rows,
            cols: run.partition.cols,
            nnz: run.partition.nnz,
            per_rank_nnz: run.rank_runs.iter().map(|r| r.nnz).collect(),
            per_rank_ns: run.rank_ns(timing),
            nnz_imbalance: run.partition.nnz_imbalance(),
            time_imbalance: run.time_imbalance(timing),
            sync_entries: run.sync_entries,
            sync_ns: run.sync_ns(timing),
            parallel_ns,
            serial_ns,
            speedup: serial_ns / parallel_ns,
            efficiency: serial_ns / parallel_ns / ranks as f64,
            max_abs_error,
        }
    }

    /// Byte-stable JSON rendering (fixed key order, fixed float widths).
    #[must_use]
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self.per_rank_nnz.iter().map(u64::to_string).collect();
        let times: Vec<String> = self.per_rank_ns.iter().map(|ns| format!("{ns:.1}")).collect();
        format!(
            "{{\n  \"strategy\": \"{}\",\n  \"ranks\": {},\n  \"rows\": {},\n  \
             \"cols\": {},\n  \"nnz\": {},\n  \"per_rank_nnz\": [{}],\n  \
             \"per_rank_ns\": [{}],\n  \"nnz_imbalance\": {:.6},\n  \
             \"time_imbalance\": {:.6},\n  \"sync_entries\": {},\n  \"sync_ns\": {:.1},\n  \
             \"parallel_ns\": {:.1},\n  \"serial_ns\": {:.1},\n  \"speedup\": {:.6},\n  \
             \"efficiency\": {:.6},\n  \"max_abs_error\": {:e}\n}}",
            self.strategy,
            self.ranks,
            self.rows,
            self.cols,
            self.nnz,
            counts.join(", "),
            times.join(", "),
            self.nnz_imbalance,
            self.time_imbalance,
            self.sync_entries,
            self.sync_ns,
            self.parallel_ns,
            self.serial_ns,
            self.speedup,
            self.efficiency,
            self.max_abs_error,
        )
    }

    /// Human-readable table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let mut row = |label: &str, value: String| {
            out.push_str(&format!("{label:<26} {value}\n"));
        };
        row("strategy", self.strategy.clone());
        row("ranks", self.ranks.to_string());
        row("matrix", format!("{}x{}, {} nnz", self.rows, self.cols, self.nnz));
        row("per-rank nnz", format!("{:?}", self.per_rank_nnz));
        row("nnz imbalance", format!("{:.3}", self.nnz_imbalance));
        row("time imbalance", format!("{:.3}", self.time_imbalance));
        row("sync entries", self.sync_entries.to_string());
        row("sync time", format!("{:.1} ns", self.sync_ns));
        row("parallel time", format!("{:.1} ns", self.parallel_ns));
        row("serial time", format!("{:.1} ns", self.serial_ns));
        row("speedup", format!("{:.2}x (ideal {}x)", self.speedup, self.ranks));
        row("efficiency", format!("{:.1} %", self.efficiency * 100.0));
        row("max abs error", format!("{:e}", self.max_abs_error));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fafnir_spmv;
    use crate::lil::LilMatrix;
    use crate::partition::{execute_partitioned, PartitionStrategy, SpmvPartition};
    use crate::{gen, SpmvTiming};

    fn report_for(strategy: PartitionStrategy, ranks: usize) -> PartitionReport {
        let matrix = gen::rmat(7, 3_000, 21);
        let x: Vec<f64> = (0..matrix.cols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let partition = SpmvPartition::new(&matrix, strategy, ranks);
        let run = execute_partitioned(&matrix, &x, &partition, 32);
        let serial = fafnir_spmv::execute(&LilMatrix::from(&matrix), &x, 32);
        PartitionReport::new(&run, &serial, &SpmvTiming::paper(), &matrix.multiply_dense(&x))
    }

    #[test]
    fn report_is_internally_consistent() {
        let report = report_for(PartitionStrategy::NnzBalancedRows, 8);
        assert_eq!(report.strategy, "nnz");
        assert_eq!(report.per_rank_nnz.len(), 8);
        assert_eq!(report.per_rank_nnz.iter().sum::<u64>(), report.nnz as u64);
        assert!(report.nnz_imbalance >= 1.0 && report.time_imbalance >= 1.0);
        assert!((report.speedup / report.ranks as f64 - report.efficiency).abs() < 1e-12);
        assert!(report.max_abs_error < 1e-9, "{}", report.max_abs_error);
        let slowest = report.per_rank_ns.iter().fold(0.0_f64, |a, &b| a.max(b));
        assert!((report.parallel_ns - (slowest + report.sync_ns)).abs() < 1e-6);
    }

    #[test]
    fn per_rank_loads_count_every_stored_entry_of_a_pushed_matrix() {
        // Pushed without `sum_duplicates`: 200 stored entries over 48 cells,
        // so a load counted in summed cells would fall short of `nnz`.
        let mut matrix = crate::CooMatrix::new(24, 16);
        for k in 0..200usize {
            matrix.push(k * 7 % 24, k * 5 % 16, 1.0 + (k % 3) as f64);
        }
        let x: Vec<f64> = (0..matrix.cols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let serial = fafnir_spmv::execute(&LilMatrix::from(&matrix), &x, 8);
        let reference = matrix.multiply_dense(&x);
        for strategy in [
            PartitionStrategy::RowBlock,
            PartitionStrategy::NnzBalancedRows,
            PartitionStrategy::ColumnBlock,
            PartitionStrategy::grid(4),
        ] {
            let run =
                execute_partitioned(&matrix, &x, &SpmvPartition::new(&matrix, strategy, 4), 8);
            let report = PartitionReport::new(&run, &serial, &SpmvTiming::paper(), &reference);
            assert_eq!(report.per_rank_nnz.iter().sum::<u64>(), 200, "{strategy:?}");
            let max = *report.per_rank_nnz.iter().max().expect("four ranks") as f64;
            let imbalance = max / (report.nnz as f64 / report.ranks as f64);
            assert_eq!(imbalance, report.nnz_imbalance, "{strategy:?}");
        }
    }

    #[test]
    fn json_is_byte_stable_and_complete() {
        let report = report_for(PartitionStrategy::grid(4), 4);
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "rendering must be deterministic");
        for key in [
            "\"strategy\": \"grid\"",
            "\"ranks\": 4",
            "\"per_rank_nnz\"",
            "\"nnz_imbalance\"",
            "\"time_imbalance\"",
            "\"sync_entries\"",
            "\"speedup\"",
            "\"efficiency\"",
            "\"max_abs_error\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let table = report.render_table();
        assert!(table.contains("speedup") && table.contains("ideal 4x"));
    }
}
