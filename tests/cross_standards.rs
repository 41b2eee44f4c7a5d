//! Cross-standard integration: the full engine must be functionally
//! correct on every memory preset (DDR4-2400, DDR5-4800, HBM2), every page
//! policy, and both table placements, with realistic table-wise traffic.

use fafnir_core::{Batch, FafnirConfig, FafnirEngine, GatherEngine, ReduceOp};
use fafnir_mem::{MemoryConfig, PagePolicy};
use fafnir_workloads::tablewise::TablewiseGenerator;
use fafnir_workloads::{EmbeddingTableSet, TablePlacement};

fn tablewise_batch(tables: &EmbeddingTableSet, seed: u64) -> Batch {
    let mut generator = TablewiseGenerator::new(tables, 16, 1.1, seed);
    generator.batch(16)
}

fn check(mem: MemoryConfig, placement: TablePlacement, seed: u64) {
    let tables = EmbeddingTableSet::new(mem.topology, 32, 4_096, 128).with_placement(placement);
    let batch = tablewise_batch(&tables, seed);
    let engine = FafnirEngine::paper_default(mem).expect("engine");
    let result = engine.lookup(&batch, &tables).expect("lookup");
    let reference = fafnir_core::engine::reference_lookup(&batch, &tables, ReduceOp::Sum);
    assert_eq!(result.outputs.len(), reference.len());
    for ((qa, got), (qb, want)) in result.outputs.iter().zip(&reference) {
        assert_eq!(qa, qb);
        for (x, y) in got.iter().zip(want) {
            assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4), "{qa}: {x} vs {y}");
        }
    }
    assert!(result.latency.total_ns > 0.0);
    assert_eq!(result.traffic.bytes_to_host, 16 * 512);
}

#[test]
fn ddr4_all_policies_and_placements() {
    for policy in [PagePolicy::Open, PagePolicy::Closed, PagePolicy::Adaptive { timeout: 200 }] {
        for placement in [TablePlacement::RankStriped, TablePlacement::TableContiguous] {
            let mut mem = MemoryConfig::ddr4_2400_4ch();
            mem.page_policy = policy;
            check(mem, placement, 301);
        }
    }
}

#[test]
fn ddr5_and_hbm_presets_run_the_same_workload() {
    check(MemoryConfig::ddr5_4800_4ch(), TablePlacement::RankStriped, 302);
    check(MemoryConfig::hbm2_32pc(), TablePlacement::RankStriped, 303);
}

#[test]
fn hbm_beats_nothing_but_matches_functionally_under_refresh() {
    let mut mem = MemoryConfig::hbm2_32pc();
    mem.refresh = true;
    check(mem, TablePlacement::RankStriped, 304);
}

#[test]
fn straggler_system_is_still_functionally_exact() {
    let mut mem = MemoryConfig::ddr4_2400_4ch();
    mem.straggler = Some((0, 0, 300));
    check(mem, TablePlacement::RankStriped, 305);
    // And slower than the healthy system on the same batch.
    let tables = EmbeddingTableSet::new(mem.topology, 32, 4_096, 128);
    let batch = tablewise_batch(&tables, 305);
    let healthy = FafnirEngine::paper_default(MemoryConfig::ddr4_2400_4ch()).unwrap();
    let degraded = FafnirEngine::paper_default(mem).unwrap();
    let healthy_ns = healthy.lookup(&batch, &tables).unwrap().latency.total_ns;
    let degraded_ns = degraded.lookup(&batch, &tables).unwrap().latency.total_ns;
    assert!(degraded_ns > healthy_ns, "{degraded_ns} vs {healthy_ns}");
}

#[test]
fn command_logs_stay_legal_on_every_preset() {
    for mem in
        [MemoryConfig::ddr4_2400_4ch(), MemoryConfig::ddr5_4800_4ch(), MemoryConfig::hbm2_32pc()]
    {
        let mut config = mem;
        config.ndp_data_path = true;
        let mut system = fafnir_mem::MemorySystem::new(config);
        system.enable_command_logs();
        for i in 0..20u64 {
            system.submit(fafnir_mem::Request::read(i * 5_000 * 64, 512));
        }
        system.run_until_idle();
        for log in system.take_command_logs() {
            let violations =
                fafnir_mem::verify_log(&log, &config.timing, config.topology.banks_per_group);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }
}

/// The paper's core routing guarantee restated across standards: batch
/// splitting, dedup, and tail percentiles hold everywhere.
#[test]
fn invariants_hold_across_standards() {
    for mem in
        [MemoryConfig::ddr4_2400_4ch(), MemoryConfig::ddr5_4800_4ch(), MemoryConfig::hbm2_32pc()]
    {
        let tables = EmbeddingTableSet::new(mem.topology, 32, 4_096, 128);
        let batch = tablewise_batch(&tables, 306);
        let config = FafnirConfig { batch_capacity: 8, ..FafnirConfig::paper_default() };
        let engine = fafnir_core::FafnirEngine::new(config, mem).unwrap();
        let result = fafnir_core::GatherEngine::lookup(&engine, &batch, &tables).unwrap();
        assert_eq!(result.outputs.len(), 16);
        assert!(result.traffic.vectors_read <= batch.total_references() as u64);
        assert!(result.completion_percentile_ns(1.0) <= result.latency.total_ns + 1e-9);
    }
}
