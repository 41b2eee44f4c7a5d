//! Pins the SpMV engines' exact outputs and accounting.
//!
//! Every case folds into one FNV-1a digest: the `y` bits, the final stream
//! entries, the plan, the per-iteration volumes and every [`StreamOps`]
//! counter of the FAFNIR tree engine; the Two-Step baseline's and
//! [`LilMatrix::multiply`]'s results; [`merge_tree`] and [`merge_two`] on
//! hand-built streams; and, for the partitioned driver, the partition's
//! spans, every [`RankRun`] field, the synchronization counters and
//! [`PartitionReport::to_json`]. The inputs cover R-MAT graphs, banded,
//! uniform and SPD matrices, a matrix with empty columns and a matrix built
//! by pushing unsorted entries with repeated coordinates, at five vector
//! sizes, three rank counts and all four strategies.
//!
//! The digests were recorded with the tree that allocated one stream per
//! column and per PE firing, so a rewrite of the LIL layout, the merge
//! tree or the partitioned driver must reproduce every value bit and
//! counter to pass. When a deliberate model change moves a digest, the
//! failure message prints the full table to paste back here.

use fafnir_sparse::stream::{merge_tree, merge_two};
use fafnir_sparse::{
    execute_partitioned, fafnir_spmv, gen, two_step, CooMatrix, LilMatrix, PartialStream,
    PartitionReport, PartitionStrategy, PartitionedRun, SpmvPartition, SpmvPlan, SpmvTiming,
    StreamOps,
};

/// Tree input vector sizes: the smallest legal, an odd one, and the sizes
/// the benchmarks and the paper use.
const VECTOR_SIZES: [usize; 5] = [2, 3, 16, 256, 2048];
/// Partition rank counts.
const RANK_COUNTS: [usize; 3] = [1, 3, 16];
/// Stream counts of the hand-built merge trees.
const TREE_SIZES: [usize; 5] = [0, 1, 3, 64, 65];

/// The recorded digest of each case, in [`measure`] order.
const RECORDED: &[(&str, u64)] = &[
    ("rmat10/serial", 0xd1f21a77714f6655),
    ("rmat10/two_step", 0x424da42cdec416f9),
    ("rmat10/partitioned", 0x518e49e7f93bcdb4),
    ("rmat12/serial", 0xcfbfd6d54946ae30),
    ("rmat12/two_step", 0x1fd1e319a94af0f8),
    ("rmat12/partitioned", 0xa6e8c6ed26099518),
    ("banded/serial", 0x4ecef8890c231578),
    ("banded/two_step", 0x6c551de2ea02199e),
    ("banded/partitioned", 0x6f48d34944aed8f5),
    ("uniform/serial", 0xf434dc3e9cfcadd6),
    ("uniform/two_step", 0x3bdb64dd46ac8721),
    ("uniform/partitioned", 0x96cd98ccbe8284f4),
    ("spd/serial", 0x27e58116ed4e58e3),
    ("spd/two_step", 0x02705da07352371e),
    ("spd/partitioned", 0x78634eee8429851b),
    ("empty-cols/serial", 0xae7111a7f3983539),
    ("empty-cols/two_step", 0xe14f5bc10c9a02e9),
    ("empty-cols/partitioned", 0x475a513b0332f9b5),
    ("pushed/serial", 0x9b97e95b3185bcbc),
    ("pushed/two_step", 0x81aedc10369e9be6),
    ("pushed/partitioned", 0x6449bad40450668f),
    ("merge_tree/0", 0x40d69e0cf0f65c45),
    ("merge_tree/1", 0xbb6f70370ca957af),
    ("merge_tree/3", 0xdea08b027e07a781),
    ("merge_tree/64", 0x6efbd460ea9e04a7),
    ("merge_tree/65", 0x3dd9644fdc007268),
];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for &value in values {
            self.float(value);
        }
    }

    fn words(&mut self, values: &[u64]) {
        self.word(values.len() as u64);
        for &value in values {
            self.word(value);
        }
    }

    fn stream(&mut self, stream: &PartialStream) {
        self.word(stream.len() as u64);
        for &(row, value) in stream.entries() {
            self.word(row as u64);
            self.float(value);
        }
    }

    fn ops(&mut self, ops: &StreamOps) {
        for value in [ops.compares, ops.adds, ops.forwards, ops.multiplies] {
            self.word(value);
        }
    }

    fn plan(&mut self, plan: &SpmvPlan) {
        self.word(plan.vector_size as u64);
        self.word(plan.columns as u64);
        self.word(plan.rounds_per_iteration.len() as u64);
        for &rounds in &plan.rounds_per_iteration {
            self.word(rounds as u64);
        }
    }

    fn bytes(&mut self, text: &str) {
        self.word(text.len() as u64);
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }
}

/// A small deterministic generator (SplitMix64) for the hand-built inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn value(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 3.0
    }
}

/// A 40 x 30 matrix pushed in random order, with many coordinates
/// repeated: the partitioned driver sums the repeats, the LIL keeps them.
fn pushed() -> CooMatrix {
    let mut matrix = CooMatrix::new(40, 30);
    let mut mix = Mix(91);
    for _ in 0..500 {
        let (row, col) = (mix.below(40), mix.below(30));
        matrix.push(row, col, mix.value());
    }
    for _ in 0..3 {
        matrix.push(5, 7, 1.1);
        matrix.push(39, 0, -0.7);
    }
    matrix
}

fn matrices() -> Vec<(&'static str, CooMatrix)> {
    vec![
        ("rmat10", gen::rmat(10, 8_000, 41)),
        ("rmat12", gen::rmat(12, 16_000, 42)),
        ("banded", gen::banded(600, 5, 43)),
        ("uniform", gen::uniform(300, 200, 0.05, 44)),
        ("spd", gen::spd_banded(400, 3, 45)),
        ("empty-cols", CooMatrix::from_triplets(3, 5, [(0, 1, 1.5), (2, 1, -2.0), (1, 3, 0.25)])),
        ("pushed", pushed()),
    ]
}

/// A dense operand whose values make float sums order-sensitive.
fn operand(cols: usize) -> Vec<f64> {
    (0..cols).map(|i| 0.3 + ((i * 7_919) % 101) as f64 / 37.0).collect()
}

fn strategies(ranks: usize) -> [PartitionStrategy; 4] {
    [
        PartitionStrategy::RowBlock,
        PartitionStrategy::NnzBalancedRows,
        PartitionStrategy::ColumnBlock,
        PartitionStrategy::grid(ranks),
    ]
}

/// True when `strategy` can split `matrix` over `ranks` ranks.
fn fits(matrix: &CooMatrix, strategy: PartitionStrategy, ranks: usize) -> bool {
    match strategy {
        PartitionStrategy::RowBlock | PartitionStrategy::NnzBalancedRows => ranks <= matrix.rows(),
        PartitionStrategy::ColumnBlock => ranks <= matrix.cols(),
        PartitionStrategy::Grid { row_ranks, col_ranks } => {
            row_ranks <= matrix.rows() && col_ranks <= matrix.cols()
        }
    }
}

fn digest_serial(matrix: &CooMatrix, x: &[f64]) -> u64 {
    let lil = LilMatrix::from(matrix);
    let mut fnv = Fnv::new();
    fnv.word(lil.nnz() as u64);
    for vector_size in VECTOR_SIZES {
        let run = fafnir_spmv::execute(&lil, x, vector_size);
        fnv.floats(&run.y);
        fnv.plan(&run.plan);
        fnv.words(&run.volumes);
        fnv.ops(&run.ops);
        let streamed = fafnir_spmv::execute_to_stream(&lil, x, vector_size);
        fnv.stream(&streamed.stream);
        fnv.plan(&streamed.plan);
        fnv.words(&streamed.volumes);
        fnv.ops(&streamed.ops);
    }
    fnv.0
}

fn digest_two_step(matrix: &CooMatrix, x: &[f64]) -> u64 {
    let lil = LilMatrix::from(matrix);
    let mut fnv = Fnv::new();
    fnv.floats(&lil.multiply(x));
    for vector_size in VECTOR_SIZES {
        let run = two_step::execute(&lil, x, vector_size);
        fnv.floats(&run.y);
        fnv.plan(&run.plan);
        fnv.words(&run.volumes);
        fnv.ops(&run.ops);
    }
    fnv.0
}

fn digest_partitioned_run(fnv: &mut Fnv, run: &PartitionedRun, report: &PartitionReport) {
    fnv.floats(&run.y);
    fnv.word(run.rank_runs.len() as u64);
    for rank in &run.rank_runs {
        fnv.word(rank.rank as u64);
        fnv.word(rank.nnz);
        fnv.plan(&rank.plan);
        fnv.words(&rank.volumes);
        fnv.ops(&rank.ops);
        fnv.word(rank.partial_entries);
    }
    fnv.word(run.sync_entries);
    fnv.word(run.sync_rounds as u64);
    fnv.ops(&run.sync_ops);
    fnv.bytes(&report.to_json());
}

/// The partitioned driver over every vector size, rank count and strategy
/// that fits the matrix.
fn digest_partitioned(matrix: &CooMatrix, x: &[f64]) -> u64 {
    let reference = matrix.multiply_dense(x);
    let timing = SpmvTiming::paper();
    let lil = LilMatrix::from(matrix);
    let mut fnv = Fnv::new();
    for vector_size in VECTOR_SIZES {
        let serial = fafnir_spmv::execute(&lil, x, vector_size);
        for ranks in RANK_COUNTS {
            for strategy in strategies(ranks).into_iter().filter(|&s| fits(matrix, s, ranks)) {
                let partition = SpmvPartition::new(matrix, strategy, ranks);
                fnv.word(partition.ranks() as u64);
                for span in partition.spans() {
                    for value in
                        [span.rank, span.rows.start, span.rows.end, span.cols.start, span.cols.end]
                    {
                        fnv.word(value as u64);
                    }
                    fnv.word(span.nnz as u64);
                }
                let run = execute_partitioned(matrix, x, &partition, vector_size);
                let report = PartitionReport::new(&run, &serial, &timing, &reference);
                digest_partitioned_run(&mut fnv, &run, &report);
            }
        }
    }
    fnv.0
}

/// `count` row-sorted streams of 0 to 24 entries; every fifth is empty.
fn hand_built(count: usize) -> Vec<PartialStream> {
    let mut mix = Mix(count as u64 + 7);
    (0..count)
        .map(|k| {
            let len = if k % 5 == 4 { 0 } else { mix.below(25) };
            let mut entries: Vec<(usize, f64)> =
                (0..len).map(|_| (mix.below(48), mix.value())).collect();
            entries.sort_by_key(|&(row, _)| row);
            PartialStream::from_sorted(entries)
        })
        .collect()
}

fn digest_merges() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for count in TREE_SIZES {
        let streams = hand_built(count);
        let mut fnv = Fnv::new();
        for stream in &streams {
            fnv.stream(stream);
        }
        let mut ops = StreamOps::default();
        let merged = merge_tree(streams.clone(), &mut ops);
        fnv.stream(&merged);
        fnv.ops(&ops);
        for pair in streams.chunks(2) {
            let mut ops = StreamOps::default();
            let merged = merge_two(&pair[0], pair.last().expect("non-empty chunk"), &mut ops);
            fnv.stream(&merged);
            fnv.ops(&ops);
        }
        digests.push((format!("merge_tree/{count}"), fnv.0));
    }
    digests
}

fn measure() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for (name, matrix) in matrices() {
        let x = operand(matrix.cols());
        digests.push((format!("{name}/serial"), digest_serial(&matrix, &x)));
        digests.push((format!("{name}/two_step"), digest_two_step(&matrix, &x)));
        digests.push((format!("{name}/partitioned"), digest_partitioned(&matrix, &x)));
    }
    digests.extend(digest_merges());
    digests
}

#[test]
fn every_case_reproduces_the_recorded_spmv_digest() {
    let measured = measure();
    let table: String = measured
        .iter()
        .map(|(name, value)| format!("    (\"{name}\", {value:#018x}),\n"))
        .collect();
    let recorded: Vec<(String, u64)> =
        RECORDED.iter().map(|&(name, value)| (name.to_string(), value)).collect();
    assert_eq!(measured, recorded, "SpMV digests moved; measured table:\n{table}");
}
