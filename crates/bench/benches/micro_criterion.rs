//! Criterion micro-benchmarks of the hot simulator paths: PE processing,
//! full tree runs, DRAM vector reads, Zipf sampling, and stream merging.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fafnir_core::batch::Batch;
use fafnir_core::inject::{build_rank_inputs, GatheredVector};
use fafnir_core::{
    FafnirConfig, IndexSet, PeTiming, ProcessingElement, ReductionTree, VectorIndex,
};
use fafnir_mem::{MemoryConfig, MemorySystem, Request};
use fafnir_sparse::stream::{merge_tree, PartialStream, StreamOps};
use fafnir_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_pe_process(c: &mut Criterion) {
    let pe = ProcessingElement::default();
    let batch = Batch::from_index_sets(
        (0..8u32).map(|i| IndexSet::from_iter_dedup((0..8).map(move |j| VectorIndex(i * 8 + j)))),
    );
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % 2,
            value: vec![1.0; 128].into(),
            ready_ns: 0.0,
        })
        .collect();
    let inputs = build_rank_inputs(&batch, &gathered, 2, 2, &PeTiming::default());
    c.bench_function("pe_process_32_items", |b| {
        b.iter(|| black_box(pe.process(&inputs[0], &inputs[1])));
    });
}

fn bench_tree_run(c: &mut Criterion) {
    let config = FafnirConfig { vector_dim: 128, ..FafnirConfig::paper_default() };
    let tree = ReductionTree::new(config, 32).expect("tree");
    let batch = Batch::from_index_sets(
        (0..16u32)
            .map(|i| IndexSet::from_iter_dedup((0..16).map(move |j| VectorIndex(i * 16 + j)))),
    );
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % 32,
            value: vec![1.0; 128].into(),
            ready_ns: 0.0,
        })
        .collect();
    let inputs = build_rank_inputs(&batch, &gathered, 32, 2, &PeTiming::default());
    c.bench_function("tree_run_16x16_batch", |b| {
        b.iter_batched(|| inputs.clone(), |i| black_box(tree.run(i)), BatchSize::SmallInput);
    });
}

fn bench_memsim_vector_reads(c: &mut Criterion) {
    c.bench_function("memsim_32_vector_reads", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
            for i in 0..32u64 {
                mem.submit(Request::read(i * 8192, 512));
            }
            black_box(mem.run_until_idle())
        });
    });
}

fn bench_zipf_sampling(c: &mut Criterion) {
    let zipf = Zipf::new(1_000_000, 1.05);
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("zipf_sample_1m_universe", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)));
    });
}

fn bench_stream_merge(c: &mut Criterion) {
    let streams: Vec<PartialStream> = (0..64)
        .map(|s| PartialStream::from_sorted((0..256).map(|i| (i * 64 + s, 1.0)).collect()))
        .collect();
    c.bench_function("merge_tree_64_streams", |b| {
        b.iter_batched(
            || streams.clone(),
            |s| {
                let mut ops = StreamOps::default();
                black_box(merge_tree(s, &mut ops))
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_engine_lookup(c: &mut Criterion) {
    use fafnir_core::{FafnirEngine, GatherEngine, StripedSource};
    let mem = MemoryConfig::ddr4_2400_4ch();
    let engine = FafnirEngine::new(FafnirConfig::paper_default(), mem).expect("engine");
    let source = StripedSource::new(mem.topology, 128);
    let batch = Batch::from_index_sets(
        (0..16u32)
            .map(|i| IndexSet::from_iter_dedup((0..16).map(move |j| VectorIndex(i * 16 + j)))),
    );
    c.bench_function("engine_lookup_16x16", |b| {
        b.iter(|| black_box(engine.lookup(&batch, &source).expect("lookup")));
    });
}

fn bench_spmm(c: &mut Criterion) {
    use fafnir_sparse::{gen, spmm, LilMatrix, SpmvTiming};
    let matrix = LilMatrix::from(&gen::uniform(512, 512, 0.02, 99));
    let x_columns: Vec<Vec<f64>> = (0..4).map(|k| vec![1.0 + k as f64; 512]).collect();
    let timing = SpmvTiming::paper();
    c.bench_function("spmm_512x512_4rhs", |b| {
        b.iter(|| black_box(spmm::execute(&matrix, &x_columns, 2048, &timing)));
    });
}

fn bench_cycle_sim(c: &mut Criterion) {
    use fafnir_core::cycle_sim::CycleTree;
    use fafnir_core::ReductionTree;
    let config = FafnirConfig { vector_dim: 16, ..FafnirConfig::paper_default() };
    let tree = ReductionTree::new(config, 8).expect("tree");
    let batch = Batch::from_index_sets(
        (0..8u32).map(|i| IndexSet::from_iter_dedup((0..8).map(move |j| VectorIndex(i * 8 + j)))),
    );
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % 8,
            value: vec![1.0; 16].into(),
            ready_ns: 50.0,
        })
        .collect();
    let inputs = build_rank_inputs(&batch, &gathered, 8, 2, &PeTiming::default());
    let sim = CycleTree::new(&tree, 32).expect("non-zero capacity");
    c.bench_function("cycle_sim_8x8_batch", |b| {
        b.iter_batched(
            || inputs.clone(),
            |i| black_box(sim.run(i).expect("no deadlock")),
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_pe_process, bench_tree_run, bench_memsim_vector_reads, bench_zipf_sampling, bench_stream_merge, bench_engine_lookup, bench_spmm, bench_cycle_sim
);
criterion_main!(micro);
