//! Partitioned SpMV — load imbalance vs speedup across rank counts.
//!
//! Giannoula et al.'s real-PIM SpMV recipe: split the matrix across ranks
//! (1D rows / columns or a 2D grid), balance by row count or nonzero count,
//! pay an explicit synchronization stage for rows that more than one rank
//! touches. This bench sweeps the four strategies over a power-law R-MAT
//! graph and a banded solver system at four rank counts, verifying every
//! partitioned result against the dense reference and recording the two
//! imbalance factors, sync volume, and modeled speedup. The headline: on
//! the skewed graph, nnz-balanced 1D beats row-count 1D on every rank
//! count; on the uniform band, the two coincide.
//!
//! Regression guard: if an existing `BENCH_spmv.json` shows a materially
//! better simulator rate, this bench refuses to overwrite it unless
//! `--force` is passed (`just bench-spmv --force`).

use std::time::Instant;

use fafnir_bench::{banner, print_table, record};
use fafnir_sparse::{
    execute_partitioned, fafnir_spmv, gen, CooMatrix, LilMatrix, PartitionReport,
    PartitionStrategy, SpmvPartition, SpmvTiming,
};

const RANK_COUNTS: [usize; 4] = [2, 4, 8, 16];
const VECTOR_SIZE: usize = 256;
const SEED: u64 = 7;
const REGRESSION_TOLERANCE: f64 = 0.8;

fn strategies(ranks: usize) -> [PartitionStrategy; 4] {
    [
        PartitionStrategy::RowBlock,
        PartitionStrategy::NnzBalancedRows,
        PartitionStrategy::ColumnBlock,
        PartitionStrategy::grid(ranks),
    ]
}

struct Scenario {
    matrix: &'static str,
    ranks: usize,
    report: PartitionReport,
}

fn sweep_matrix(
    name: &'static str,
    matrix: &CooMatrix,
    wall_s: &mut f64,
    multiplied_nnz: &mut u64,
) -> Vec<Scenario> {
    let x: Vec<f64> = (0..matrix.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();
    let reference = matrix.multiply_dense(&x);
    let timing = SpmvTiming::paper();
    let serial = fafnir_spmv::execute(&LilMatrix::from(matrix), &x, VECTOR_SIZE);
    let mut scenarios = Vec::new();
    for &ranks in &RANK_COUNTS {
        for strategy in strategies(ranks) {
            let partition = SpmvPartition::new(matrix, strategy, ranks);
            let start = Instant::now();
            let run = execute_partitioned(matrix, &x, &partition, VECTOR_SIZE);
            *wall_s += start.elapsed().as_secs_f64();
            *multiplied_nnz += matrix.nnz() as u64;
            let report = PartitionReport::new(&run, &serial, &timing, &reference);
            assert!(
                report.max_abs_error < 1e-6,
                "{name}/{}/{ranks}: partitioned result diverged from the dense \
                 reference by {}",
                strategy.name(),
                report.max_abs_error
            );
            scenarios.push(Scenario { matrix: name, ranks, report });
        }
    }
    scenarios
}

fn main() {
    banner(
        "Partitioned SpMV — imbalance vs speedup across rank counts",
        "1D row / nnz-balanced / column and 2D grid partitions, real-PIM style",
    );

    let rmat = gen::rmat(11, 60_000, SEED);
    let banded = gen::banded(4_096, 8, SEED);
    let mut wall_s = 0.0;
    let mut multiplied_nnz = 0u64;
    let mut scenarios = sweep_matrix("rmat", &rmat, &mut wall_s, &mut multiplied_nnz);
    scenarios.extend(sweep_matrix("banded", &banded, &mut wall_s, &mut multiplied_nnz));

    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            vec![
                s.matrix.to_string(),
                s.report.strategy.clone(),
                format!("{}", s.ranks),
                format!("{:.3}", s.report.nnz_imbalance),
                format!("{:.3}", s.report.time_imbalance),
                format!("{}", s.report.sync_entries),
                format!("{:.2}x", s.report.speedup),
                format!("{:.0} %", s.report.efficiency * 100.0),
            ]
        })
        .collect();
    print_table(
        &["matrix", "strategy", "ranks", "nnz imb", "time imb", "sync", "speedup", "eff"],
        &rows,
    );

    // The headline comparison: nnz balancing must beat row counting on the
    // skewed graph at every rank count.
    let pick = |matrix: &str, strategy: &str, ranks: usize| -> &PartitionReport {
        scenarios
            .iter()
            .find(|s| s.matrix == matrix && s.report.strategy == strategy && s.ranks == ranks)
            .map(|s| &s.report)
            .expect("sweep covers the grid")
    };
    for &ranks in &RANK_COUNTS {
        let (row, nnz) = (pick("rmat", "row", ranks), pick("rmat", "nnz", ranks));
        assert!(
            nnz.nnz_imbalance < row.nnz_imbalance,
            "{ranks} ranks: nnz-balanced {} must beat row-count {}",
            nnz.nnz_imbalance,
            row.nnz_imbalance
        );
    }
    let (row_16, nnz_16) = (pick("rmat", "row", 16), pick("rmat", "nnz", 16));
    let sim_nnz_per_sec = multiplied_nnz as f64 / wall_s;
    println!(
        "\nnnz balancing cuts 16-rank R-MAT imbalance {:.2}x ({:.3} -> {:.3}) and lifts \
         speedup {:.2}x -> {:.2}x; banded row/nnz coincide at {:.3}; \
         simulator rate {sim_nnz_per_sec:.0} nnz/s of wall clock",
        row_16.nnz_imbalance / nnz_16.nnz_imbalance,
        row_16.nnz_imbalance,
        nnz_16.nnz_imbalance,
        row_16.speedup,
        nnz_16.speedup,
        pick("banded", "nnz", 16).nnz_imbalance,
    );

    let sweep: Vec<String> = scenarios
        .iter()
        .map(|s| {
            format!(
                "{{\"matrix\": \"{}\", \"strategy\": \"{}\", \"ranks\": {}, \
                 \"nnz_imbalance\": {:.6}, \"time_imbalance\": {:.6}, \
                 \"sync_entries\": {}, \"sync_ns\": {:.1}, \"speedup\": {:.6}, \
                 \"efficiency\": {:.6}, \"max_abs_error\": {:e}}}",
                s.matrix,
                s.report.strategy,
                s.ranks,
                s.report.nnz_imbalance,
                s.report.time_imbalance,
                s.report.sync_entries,
                s.report.sync_ns,
                s.report.speedup,
                s.report.efficiency,
                s.report.max_abs_error,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"spmv_partition\",\n  \
         \"matrices\": \"rmat scale 11 ({} nnz), banded 4096 bw 8 ({} nnz)\",\n  \
         \"vector_size\": {VECTOR_SIZE},\n  \
         \"sweep\": [\n    {}\n  ],\n  \
         \"rmat_row_imbalance_16\": {:.6},\n  \
         \"rmat_nnz_imbalance_16\": {:.6},\n  \
         \"rmat_row_speedup_16\": {:.6},\n  \
         \"rmat_nnz_speedup_16\": {:.6},\n  \
         \"sim_nnz_per_sec\": {sim_nnz_per_sec:.0}\n}}\n",
        rmat.nnz(),
        banded.nnz(),
        sweep.join(",\n    "),
        row_16.nnz_imbalance,
        nnz_16.nnz_imbalance,
        row_16.speedup,
        nnz_16.speedup,
    );
    record("spmv", &json, &[("sim_nnz_per_sec", sim_nnz_per_sec)], REGRESSION_TOLERANCE);
}
