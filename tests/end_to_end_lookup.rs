//! Cross-crate integration: every engine, the realistic table layout, and
//! generated traffic must agree functionally and respect the paper's
//! data-movement invariants.

use fafnir_baselines::{NoNdpEngine, RecNmpEngine, TensorDimmEngine};
use fafnir_core::{Batch, FafnirEngine, GatherEngine, ReduceOp};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};
use fafnir_workloads::EmbeddingTableSet;

fn tables() -> (MemoryConfig, EmbeddingTableSet) {
    let mem = MemoryConfig::ddr4_2400_4ch();
    (mem, EmbeddingTableSet::new(mem.topology, 32, 65_536, 128))
}

fn traffic(seed: u64) -> BatchGenerator {
    BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, seed)
}

#[test]
fn all_engines_agree_on_zipf_batches() {
    let (mem, tables) = tables();
    let fafnir = FafnirEngine::paper_default(mem).unwrap();
    let recnmp = RecNmpEngine::paper_default(mem);
    let tensordimm = TensorDimmEngine::paper_default(mem);
    let no_ndp = NoNdpEngine::paper_default(mem);
    let mut generator = traffic(101);
    for _ in 0..3 {
        let batch = generator.batch(16);
        let reference = fafnir_core::engine::reference_lookup(&batch, &tables, ReduceOp::Sum);
        for result in [
            fafnir.lookup(&batch, &tables).unwrap(),
            recnmp.lookup(&batch, &tables).unwrap(),
            tensordimm.lookup(&batch, &tables).unwrap(),
            no_ndp.lookup(&batch, &tables).unwrap(),
        ] {
            assert_eq!(result.outputs.len(), reference.len());
            for ((qa, got), (qb, want)) in result.outputs.iter().zip(&reference) {
                assert_eq!(qa, qb);
                for (x, y) in got.iter().zip(want) {
                    assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4), "{qa}: {x} vs {y}");
                }
            }
        }
    }
}

#[test]
fn fafnir_moves_least_data_to_host() {
    let (mem, tables) = tables();
    let fafnir = FafnirEngine::paper_default(mem).unwrap();
    let recnmp = RecNmpEngine::paper_default(mem);
    let no_ndp = NoNdpEngine::paper_default(mem);
    let batch = traffic(102).batch(32);
    let fafnir_bytes = fafnir.lookup(&batch, &tables).unwrap().traffic.bytes_to_host;
    let recnmp_bytes = recnmp.lookup(&batch, &tables).unwrap().traffic.bytes_to_host;
    let no_ndp_bytes = no_ndp.lookup(&batch, &tables).unwrap().traffic.bytes_to_host;
    // FAFNIR's guarantee: exactly n × v bytes to the host.
    assert_eq!(fafnir_bytes, 32 * 512);
    assert!(fafnir_bytes <= recnmp_bytes);
    assert!(recnmp_bytes <= no_ndp_bytes);
}

#[test]
fn dedup_never_reads_more_than_references() {
    let (mem, tables) = tables();
    let fafnir = FafnirEngine::paper_default(mem).unwrap();
    let mut generator = traffic(103);
    for batch_size in [4usize, 8, 16, 32] {
        let batch = generator.batch(batch_size);
        let reads = fafnir.lookup(&batch, &tables).unwrap().traffic.vectors_read;
        assert_eq!(reads, batch.unique_indices().len() as u64);
        assert!(reads <= batch.total_references() as u64);
    }
}

#[test]
fn fafnir_and_recnmp_share_the_memory_phase_profile() {
    // Both gather whole vectors rank-parallel; with caches off and dedup
    // off they issue the same reads, so memory times must be within noise.
    let (mem, tables) = tables();
    let fafnir = {
        let config = fafnir_core::FafnirConfig {
            dedup: false,
            ..fafnir_core::FafnirConfig::paper_default()
        };
        FafnirEngine::new(config, mem).unwrap()
    };
    let recnmp = RecNmpEngine::paper_default(mem).without_cache();
    let batch = traffic(104).batch(8);
    let fafnir_memory_ns = fafnir.lookup(&batch, &tables).unwrap().latency.memory_ns;
    let recnmp_memory_ns = recnmp.lookup(&batch, &tables).unwrap().latency.memory_ns;
    let ratio = recnmp_memory_ns / fafnir_memory_ns;
    assert!((0.8..1.25).contains(&ratio), "memory phases diverged: {ratio}");
}

#[test]
fn oversized_software_batches_round_trip() {
    let (mem, tables) = tables();
    let fafnir = FafnirEngine::paper_default(mem).unwrap();
    let batch: Batch = traffic(105).batch(100); // > hardware capacity 32
    let result = fafnir.lookup(&batch, &tables).unwrap();
    assert_eq!(result.outputs.len(), 100);
    let reference = fafnir_core::engine::reference_lookup(&batch, &tables, ReduceOp::Sum);
    assert_eq!(result.outputs.len(), reference.len());
}

#[test]
fn mean_reduction_works_end_to_end() {
    let (mem, tables) = tables();
    let config = fafnir_core::FafnirConfig {
        op: ReduceOp::Mean,
        ..fafnir_core::FafnirConfig::paper_default()
    };
    let engine = fafnir_core::FafnirEngine::new(config, mem).unwrap();
    let batch = traffic(106).batch(4);
    let result = engine.lookup(&batch, &tables).unwrap();
    let reference = fafnir_core::engine::reference_lookup(&batch, &tables, ReduceOp::Mean);
    for ((_, got), (_, want)) in result.outputs.iter().zip(&reference) {
        for (x, y) in got.iter().zip(want) {
            assert!((x - y).abs() <= 1e-4_f32.max(y.abs() * 1e-4));
        }
    }
}
