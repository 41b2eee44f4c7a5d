//! Pins the header tree's exact behaviour on real gathers.
//!
//! Each case draws seeded batches, plans and gathers them on the
//! cycle-accurate DDR4 model through [`FafnirEngine`], injects the gathered
//! reads into the rank inputs and runs them through both tree backends. An
//! FNV-1a digest folds every root output in order (its indices, each
//! query's remaining set, the `ready_ns` bits), every [`TreeStats`] field,
//! every [`PeFiring`] of `run_traced`, and the cycle-stepped backend's
//! outputs, completion cycle, peak occupancy and stalls at three FIFO
//! capacities, the smallest of which deadlocks (its cycle is folded in).
//! The digests were recorded with the `Arc<Header>` tree that computed
//! unions and differences of sorted index sets, so a rewrite of the
//! injector, the PE or either backend must reproduce every header, counter
//! and timestamp bit for bit to pass.
//!
//! When a deliberate model change moves a digest, the failure message
//! prints the full table to paste back here.

use fafnir_core::cycle_sim::{CycleRun, CycleSimError, CycleTree};
use fafnir_core::exec_trace::PeFiring;
use fafnir_core::inject::{build_rank_inputs, GatheredVector};
use fafnir_core::{
    Batch, EmbeddingSource, FafnirConfig, FafnirEngine, GatherEngine, Item, PeOpCounts,
    ReductionTree, StripedSource, TreeRun, TreeStats,
};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};

/// Batches per case.
const BATCHES: usize = 12;
/// FIFO capacities of the cycle-stepped runs: the paper's batch capacity
/// and two undersized ones, which deadlock on the larger windows.
const FIFO_CAPACITIES: [usize; 3] = [32, 6, 1];

/// The recorded digest of each case, in [`cases`] order.
const RECORDED: &[(&str, u64)] = &[
    ("zipf/9q", 0x71da4478e51ea6e6),
    ("zipf/32q", 0x4579de79a731f1bd),
    ("uniform/9q", 0xa0d5812764b24fe7),
    ("zipf/1pe:1r", 0xceaad7cc957cdd5f),
    ("zipf/1pe:4r", 0xb7c1de6c0f925b66),
    ("zipf/8ranks", 0xe453e02ed7236e5b),
    ("zipf/nodedup", 0xe67d30887798bbc4),
    ("zipf/100-index", 0x84278b7046a18ea6),
];

/// One traffic and system shape.
struct Case {
    name: &'static str,
    popularity: Popularity,
    universe: u64,
    query_len: usize,
    batch_size: usize,
    ranks: usize,
    ranks_per_leaf: usize,
    dedup: bool,
}

const ZIPF: Popularity = Popularity::Zipf { exponent: 1.15 };

fn cases() -> Vec<Case> {
    let base = |name| Case {
        name,
        popularity: ZIPF,
        universe: 2_000,
        query_len: 16,
        batch_size: 9,
        ranks: 32,
        ranks_per_leaf: 2,
        dedup: true,
    };
    vec![
        base("zipf/9q"),
        Case { batch_size: 32, ..base("zipf/32q") },
        Case { popularity: Popularity::Uniform, universe: 10_000_000, ..base("uniform/9q") },
        Case { ranks_per_leaf: 1, ..base("zipf/1pe:1r") },
        Case { ranks_per_leaf: 4, ..base("zipf/1pe:4r") },
        Case { ranks: 8, ..base("zipf/8ranks") },
        Case { dedup: false, ..base("zipf/nodedup") },
        Case { query_len: 100, batch_size: 6, ..base("zipf/100-index") },
    ]
}

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
}

fn digest_item(fnv: &mut Fnv, item: &Item) {
    fnv.word(item.header.indices.len() as u64);
    for index in item.header.indices.iter() {
        fnv.word(u64::from(index.value()));
    }
    fnv.word(item.header.queries.len() as u64);
    for pending in &item.header.queries {
        fnv.word(u64::from(pending.query.0));
        fnv.word(pending.remaining.len() as u64);
        for index in pending.remaining.iter() {
            fnv.word(u64::from(index.value()));
        }
    }
    fnv.float(item.ready_ns);
}

fn digest_ops(fnv: &mut Fnv, ops: &PeOpCounts) {
    for value in [
        ops.compares,
        ops.reduces,
        ops.forwards,
        ops.merges,
        ops.raw_outputs,
        ops.outputs,
        ops.max_input_items,
    ] {
        fnv.word(value);
    }
}

fn digest_stats(fnv: &mut Fnv, stats: &TreeStats) {
    digest_ops(fnv, &stats.ops);
    fnv.word(stats.levels as u64);
    fnv.word(stats.pes as u64);
    fnv.float(stats.completion_ns);
    fnv.word(stats.max_buffer_items);
    fnv.word(stats.incomplete_outputs as u64);
}

fn digest_run(fnv: &mut Fnv, run: &TreeRun) {
    fnv.word(run.outputs.len() as u64);
    for item in &run.outputs {
        digest_item(fnv, item);
    }
    digest_stats(fnv, &run.stats);
}

fn digest_firing(fnv: &mut Fnv, firing: &PeFiring) {
    for value in [firing.level, firing.index, firing.inputs_a, firing.inputs_b, firing.outputs] {
        fnv.word(value as u64);
    }
    fnv.float(firing.first_input_ns);
    fnv.float(firing.last_output_ns);
    digest_ops(fnv, &firing.ops);
}

fn digest_cycle(fnv: &mut Fnv, result: &Result<CycleRun, CycleSimError>) {
    match result {
        Ok(run) => {
            fnv.word(0);
            fnv.word(run.outputs.len() as u64);
            for item in &run.outputs {
                digest_item(fnv, item);
            }
            fnv.word(run.completion_cycle);
            fnv.float(run.completion_ns);
            fnv.word(run.stall_cycles);
            fnv.word(run.max_occupancy as u64);
        }
        Err(CycleSimError::Deadlock { at_cycle, fifo_capacity }) => {
            fnv.word(1);
            fnv.word(*at_cycle);
            fnv.word(*fifo_capacity as u64);
        }
        Err(other) => panic!("unexpected cycle-model error: {other}"),
    }
}

/// Runs one case and returns its digest, counting the cycle-model runs that
/// deadlocked into `deadlocks`.
fn digest(case: &Case, deadlocks: &mut usize) -> u64 {
    let config = FafnirConfig {
        ranks_per_leaf: case.ranks_per_leaf,
        dedup: case.dedup,
        max_query_len: case.query_len.max(16),
        ..FafnirConfig::paper_default()
    };
    let memory = MemoryConfig::with_total_ranks(case.ranks);
    let engine = FafnirEngine::new(config, memory).expect("valid engine");
    let source = StripedSource::new(memory.topology, config.vector_dim);
    let tree = ReductionTree::new(config, case.ranks).expect("valid tree");
    let mut generator = BatchGenerator::new(case.popularity, case.universe, case.query_len, 17);
    let mut fnv = Fnv::new();
    for _ in 0..BATCHES {
        let batch: Batch = generator.batch(case.batch_size);
        for plan in engine.preprocess(&batch, &source).expect("valid batch") {
            let gathered: Vec<GatheredVector> = engine
                .gather(&plan)
                .completions
                .iter()
                .map(|c| GatheredVector {
                    index: c.index,
                    rank: c.rank,
                    value: source.shared_value_of(plan.resolve(c.index)),
                    ready_ns: c.ready_ns,
                })
                .collect();
            let timing = &config.pe_timing;
            let ranks_per_leaf = config.ranks_per_leaf;
            let run = tree.run(build_rank_inputs(
                &plan.batch,
                &gathered,
                case.ranks,
                ranks_per_leaf,
                timing,
            ));
            digest_run(&mut fnv, &run);
            let (traced, trace) = tree.run_traced(build_rank_inputs(
                &plan.batch,
                &gathered,
                case.ranks,
                ranks_per_leaf,
                timing,
            ));
            assert_eq!(traced, run, "{}: run_traced must return the untraced run", case.name);
            fnv.word(trace.firings().len() as u64);
            for firing in trace.firings() {
                digest_firing(&mut fnv, firing);
            }
            for capacity in FIFO_CAPACITIES {
                let result = CycleTree::new(&tree, capacity).expect("non-zero capacity").run(
                    build_rank_inputs(&plan.batch, &gathered, case.ranks, ranks_per_leaf, timing),
                );
                *deadlocks += usize::from(result.is_err());
                digest_cycle(&mut fnv, &result);
            }
        }
    }
    fnv.0
}

#[test]
fn every_case_reproduces_the_recorded_tree_digest() {
    let mut deadlocks = 0;
    let measured: Vec<(&str, u64)> =
        cases().iter().map(|case| (case.name, digest(case, &mut deadlocks))).collect();
    assert!(deadlocks > 0, "no cycle-model run deadlocked: the deadlock cycle is not pinned");
    let table: String = measured
        .iter()
        .map(|(name, value)| format!("    (\"{name}\", {value:#018x}),\n"))
        .collect();
    assert_eq!(measured.as_slice(), RECORDED, "tree digests moved; measured table:\n{table}");
}
