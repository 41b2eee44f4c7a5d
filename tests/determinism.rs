//! Whole-stack determinism: identical seeds and configurations must give
//! bit-identical results across runs — the property that makes every figure
//! in this repository reproducible on any machine.

use fafnir_baselines::{RecNmpEngine, TensorDimmEngine};
use fafnir_core::{FafnirConfig, FafnirEngine, GatherEngine, StripedSource};
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

/// The tentpole guarantee of [`fafnir_core::ParallelBatchDriver`]: results
/// are byte-identical regardless of the worker count, because every plan is
/// self-contained and merge order is submission order, never completion
/// order.
#[test]
fn parallel_driver_is_thread_count_invariant() {
    use fafnir_core::ParallelBatchDriver;
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let engine = FafnirEngine::paper_default(mem).unwrap();
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 2026);
    let batches: Vec<_> = (0..10).map(|_| generator.batch(16)).collect();

    let single = ParallelBatchDriver::new(1).lookup_stream(&engine, &batches, &source).unwrap();
    for threads in [2usize, 8] {
        let parallel =
            ParallelBatchDriver::new(threads).lookup_stream(&engine, &batches, &source).unwrap();
        assert_eq!(single, parallel, "driver({threads}) diverged from driver(1)");
    }

    // Each software batch's merged result equals a standalone lookup: the
    // driver models replicated instances, so per-batch numbers (outputs,
    // per-query latencies, traffic, memory counters) carry no cross-batch
    // interference.
    assert_eq!(single.per_batch.len(), batches.len());
    for (batch, merged) in batches.iter().zip(&single.per_batch) {
        let standalone = GatherEngine::lookup(&engine, batch, &source).unwrap();
        assert_eq!(merged, &standalone);
    }
}

/// The invariance holds for the baselines too — any [`GatherEngine`] can
/// ride the driver.
#[test]
fn parallel_driver_is_deterministic_for_baselines() {
    use fafnir_core::ParallelBatchDriver;
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 2027);
    let batches: Vec<_> = (0..8).map(|_| generator.batch(8)).collect();
    let recnmp = RecNmpEngine::paper_default(mem);
    let tensordimm = TensorDimmEngine::paper_default(mem);
    let a = ParallelBatchDriver::new(1).lookup_stream(&recnmp, &batches, &source).unwrap();
    let b = ParallelBatchDriver::new(8).lookup_stream(&recnmp, &batches, &source).unwrap();
    assert_eq!(a, b);
    let c = ParallelBatchDriver::new(1).lookup_stream(&tensordimm, &batches, &source).unwrap();
    let d = ParallelBatchDriver::new(8).lookup_stream(&tensordimm, &batches, &source).unwrap();
    assert_eq!(c, d);
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
