//! Cross-checks of the partitioned SpMV subsystem: every strategy, on
//! every generator family, must reproduce both the dense reference product
//! and the unpartitioned FAFNIR tree result.

use fafnir_sparse::{
    execute_partitioned, fafnir_spmv, gen, CooMatrix, LilMatrix, PartitionReport,
    PartitionStrategy, SpmvPartition, SpmvTiming,
};

const VECTOR_SIZE: usize = 64;

fn operand(cols: usize) -> Vec<f64> {
    (0..cols).map(|i| -1.5 + (i % 23) as f64 * 0.375).collect()
}

fn assert_close(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let tolerance = 1e-9_f64.max(y.abs() * 1e-12);
        assert!((x - y).abs() < tolerance, "{label}: row {i}: {x} vs {y}");
    }
}

fn suite() -> Vec<(&'static str, CooMatrix)> {
    vec![
        ("uniform", gen::uniform(128, 96, 0.06, 31)),
        ("rmat", gen::rmat(8, 6_000, 32)),
        ("banded", gen::banded(300, 4, 33)),
        ("spd", gen::spd_banded(200, 3, 34)),
    ]
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
fn every_strategy_matches_dense_and_serial_on_every_family() {
    for (family, matrix) in suite() {
        let x = operand(matrix.cols());
        let reference = matrix.multiply_dense(&x);
        let serial = fafnir_spmv::execute(&LilMatrix::from(&matrix), &x, VECTOR_SIZE);
        assert_close(family, &serial.y, &reference);
        for ranks in [2usize, 6, 12] {
            for strategy in strategies(ranks) {
                let label = format!("{family}/{}/{ranks}", strategy.name());
                let partition = SpmvPartition::new(&matrix, strategy, ranks);
                let run = execute_partitioned(&matrix, &x, &partition, VECTOR_SIZE);
                assert_close(&label, &run.y, &reference);
                assert_close(&label, &run.y, &serial.y);
                assert_eq!(
                    run.rank_runs.iter().map(|r| r.nnz).sum::<u64>(),
                    matrix.nnz() as u64,
                    "{label}: every nonzero must be multiplied exactly once"
                );
            }
        }
    }
}

#[test]
fn nnz_balancing_reduces_imbalance_and_time_on_skewed_graphs() {
    let matrix = gen::rmat(9, 40_000, 35);
    let x = operand(matrix.cols());
    let timing = SpmvTiming::paper();
    let serial = fafnir_spmv::execute(&LilMatrix::from(&matrix), &x, VECTOR_SIZE);
    let reference = matrix.multiply_dense(&x);
    let mut reports = Vec::new();
    for strategy in [PartitionStrategy::RowBlock, PartitionStrategy::NnzBalancedRows] {
        let partition = SpmvPartition::new(&matrix, strategy, 8);
        let run = execute_partitioned(&matrix, &x, &partition, VECTOR_SIZE);
        reports.push(PartitionReport::new(&run, &serial, &timing, &reference));
    }
    let (row, nnz) = (&reports[0], &reports[1]);
    assert!(
        nnz.nnz_imbalance < row.nnz_imbalance,
        "nnz-balanced {} must beat row-count {} on a power-law graph",
        nnz.nnz_imbalance,
        row.nnz_imbalance
    );
    assert!(nnz.time_imbalance < row.time_imbalance);
    assert!(nnz.speedup > row.speedup, "less straggling, more speedup");
    assert!(nnz.max_abs_error < 1e-9 && row.max_abs_error < 1e-9);
}

#[test]
fn sync_cost_separates_row_from_column_layouts() {
    let matrix = gen::uniform(200, 200, 0.05, 36);
    let x = operand(matrix.cols());
    let timing = SpmvTiming::paper();
    let row = execute_partitioned(
        &matrix,
        &x,
        &SpmvPartition::new(&matrix, PartitionStrategy::RowBlock, 4),
        VECTOR_SIZE,
    );
    let col = execute_partitioned(
        &matrix,
        &x,
        &SpmvPartition::new(&matrix, PartitionStrategy::ColumnBlock, 4),
        VECTOR_SIZE,
    );
    assert_eq!(row.sync_ns(&timing), 0.0, "disjoint output rows need no merge");
    assert!(col.sync_entries > 0 && col.sync_ns(&timing) > 0.0);
    // A grid pays less sync than a pure column split at equal rank count:
    // fewer column bands means fewer cross-rank partials per row band.
    let grid = execute_partitioned(
        &matrix,
        &x,
        &SpmvPartition::new(&matrix, PartitionStrategy::grid(4), 4),
        VECTOR_SIZE,
    );
    assert!(grid.sync_entries < col.sync_entries);
}

#[test]
fn single_rank_partition_degenerates_to_the_serial_run() {
    let matrix = gen::banded(256, 2, 37);
    let x = operand(matrix.cols());
    let serial = fafnir_spmv::execute(&LilMatrix::from(&matrix), &x, VECTOR_SIZE);
    let partition = SpmvPartition::new(&matrix, PartitionStrategy::RowBlock, 1);
    let run = execute_partitioned(&matrix, &x, &partition, VECTOR_SIZE);
    assert_close("single-rank", &run.y, &serial.y);
    assert_eq!(run.sync_entries, 0);
    assert_eq!(run.rank_runs.len(), 1);
    assert_eq!(run.rank_runs[0].volumes, serial.volumes);
    assert_eq!(run.rank_runs[0].ops, serial.ops);
    let timing = SpmvTiming::paper();
    let speedup = run.speedup_over(&serial, &timing);
    assert!((speedup - 1.0).abs() < 1e-9, "one rank is the serial engine: {speedup}");
}
