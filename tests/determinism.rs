//! Whole-stack determinism: identical seeds and configurations must give
//! bit-identical results across runs — the property that makes every figure
//! in this repository reproducible on any machine.

use fafnir_baselines::{RecNmpEngine, TensorDimmEngine};
use fafnir_core::pipeline::map_ordered;
use fafnir_core::{Batch, FafnirConfig, FafnirEngine, GatherEngine, StripedSource};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};
use fafnir_workloads::tablewise::TablewiseGenerator;
use fafnir_workloads::EmbeddingTableSet;

#[test]
fn generators_are_deterministic_across_instances() {
    let make = || BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 99);
    let a: Vec<_> = {
        let mut g = make();
        (0..5).map(|_| g.batch(16)).collect()
    };
    let b: Vec<_> = {
        let mut g = make();
        (0..5).map(|_| g.batch(16)).collect()
    };
    assert_eq!(a, b);
}

#[test]
fn engine_results_are_bit_identical_across_runs() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let batch = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 7).batch(16);
    let run = || {
        let engine = FafnirEngine::new(FafnirConfig::paper_default(), mem).unwrap();
        engine.lookup(&batch, &source).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "engine runs must be fully deterministic");
}

#[test]
fn baseline_outcomes_are_deterministic() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let batch = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 8).batch(8);
    let fafnir = FafnirEngine::paper_default(mem).unwrap();
    assert_eq!(fafnir.lookup(&batch, &source).unwrap(), fafnir.lookup(&batch, &source).unwrap());
    let recnmp = RecNmpEngine::paper_default(mem);
    assert_eq!(recnmp.lookup(&batch, &source).unwrap(), recnmp.lookup(&batch, &source).unwrap());
    let tensordimm = TensorDimmEngine::paper_default(mem);
    assert_eq!(
        tensordimm.lookup(&batch, &source).unwrap(),
        tensordimm.lookup(&batch, &source).unwrap()
    );
}

/// Runs every batch's lookup on the ordered worker pool with 1, 2 and 8
/// workers and checks the results against lookups made one after another
/// on this thread: each lookup runs its plans on private memory systems and
/// the pool returns results in submission order, never completion order,
/// so the two agree byte for byte at any worker count.
fn assert_pooled_lookups_match_standalone<E: GatherEngine + Sync>(
    engine: &E,
    batches: &[Batch],
    source: &StripedSource,
) {
    let standalone: Vec<_> =
        batches.iter().map(|batch| engine.lookup(batch, source).unwrap()).collect();
    for threads in [1usize, 2, 8] {
        let pooled = map_ordered(batches.iter().collect(), threads, |batch| {
            engine.lookup(batch, source).unwrap()
        });
        assert_eq!(pooled, standalone, "{} at {threads} threads", engine.name());
    }
}

#[test]
fn parallel_driver_is_thread_count_invariant() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let engine = FafnirEngine::paper_default(mem).unwrap();
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 2026);
    let batches: Vec<_> = (0..10).map(|_| generator.batch(16)).collect();
    assert_pooled_lookups_match_standalone(&engine, &batches, &source);
}

/// The invariance holds for the baselines too — any [`GatherEngine`] can
/// ride the pool.
#[test]
fn parallel_driver_is_deterministic_for_baselines() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 2027);
    let batches: Vec<_> = (0..8).map(|_| generator.batch(8)).collect();
    let recnmp = RecNmpEngine::paper_default(mem);
    let tensordimm = TensorDimmEngine::paper_default(mem);
    assert_pooled_lookups_match_standalone(&recnmp, &batches, &source);
    assert_pooled_lookups_match_standalone(&tensordimm, &batches, &source);
}

#[test]
fn spmv_and_apps_are_deterministic() {
    use fafnir_sparse::{fafnir_spmv, gen, LilMatrix};
    let coo = gen::rmat(9, 10_000, 55);
    assert_eq!(coo, gen::rmat(9, 10_000, 55));
    let lil = LilMatrix::from(&coo);
    let x = vec![1.0; coo.cols()];
    assert_eq!(fafnir_spmv::execute(&lil, &x, 64), fafnir_spmv::execute(&lil, &x, 64));
}

#[test]
fn tablewise_traffic_is_deterministic_over_tables() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let tables = EmbeddingTableSet::new(mem.topology, 32, 4_096, 128);
    let mut a = TablewiseGenerator::new(&tables, 16, 1.1, 12);
    let mut b = TablewiseGenerator::new(&tables, 16, 1.1, 12);
    assert_eq!(a.batch(8), b.batch(8));
}
