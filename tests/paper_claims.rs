//! The paper's headline qualitative claims, asserted as integration tests.
//! Each test names the figure/table it guards; the benchmarks print the
//! full series, these keep the *shape* from regressing.

use fafnir_baselines::{RecNmpEngine, TensorDimmEngine};
use fafnir_core::model::area_power::AsicModel;
use fafnir_core::model::connections::ConnectionModel;
use fafnir_core::model::fpga::{FpgaDeployment, FpgaDevice};
use fafnir_core::{
    Batch, FafnirConfig, FafnirEngine, GatherEngine, IndexSet, StripedSource, VectorIndex,
};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};
use fafnir_workloads::stats::sharing_sweep;

fn traffic(seed: u64) -> BatchGenerator {
    BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, seed)
}

/// Fig. 11: one query, 16 × 512 B vectors, 32 ranks.
fn single_query() -> Batch {
    Batch::from_index_sets([IndexSet::from_iter_dedup((0..16u32).map(|i| VectorIndex(i * 37 + 5)))])
}

#[test]
fn fig11_tensordimm_memory_is_several_times_slower() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let batch = single_query();
    let fafnir = FafnirEngine::paper_default(mem).unwrap().lookup(&batch, &source).unwrap().latency;
    let recnmp = RecNmpEngine::paper_default(mem).lookup(&batch, &source).unwrap().latency;
    let tensordimm = TensorDimmEngine::paper_default(mem).lookup(&batch, &source).unwrap().latency;
    // Paper: 4.45x (up to 16x with no row-buffer hit); we measure ~10x.
    assert!(tensordimm.memory_ns > 3.0 * recnmp.memory_ns);
    assert!(tensordimm.memory_ns < 16.5 * recnmp.memory_ns);
    // RecNMP and FAFNIR gather identically.
    let parity = recnmp.memory_ns / fafnir.memory_ns;
    assert!((0.8..1.25).contains(&parity), "memory parity broken: {parity}");
}

#[test]
fn fig11_compute_ordering_holds() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let batch = single_query();
    let fafnir = FafnirEngine::paper_default(mem).unwrap().lookup(&batch, &source).unwrap();
    let recnmp = RecNmpEngine::paper_default(mem).lookup(&batch, &source).unwrap();
    let tensordimm = TensorDimmEngine::paper_default(mem).lookup(&batch, &source).unwrap();
    // TensorDIMM's serial pipeline ≈ 2.5× FAFNIR's tree.
    let pipeline_ratio = tensordimm.latency.compute_tail_ns / fafnir.latency.compute_tail_ns;
    assert!((1.5..3.5).contains(&pipeline_ratio), "got {pipeline_ratio}");
    // RecNMP forwards work to the CPU: computation exceeds FAFNIR's.
    assert!(recnmp.latency.compute_tail_ns > fafnir.latency.compute_tail_ns);
    // And FAFNIR keeps every reduction at NDP.
    assert_eq!(fafnir.core_elem_ops, 0);
    assert!(recnmp.core_elem_ops > 0);
}

#[test]
fn fig13_speedup_over_recnmp_grows_with_batch() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let fafnir = FafnirEngine::paper_default(mem).unwrap();
    let recnmp = RecNmpEngine::paper_default(mem);
    let mut generator = traffic(201);
    let mut ratios = Vec::new();
    for batch_size in [8usize, 16, 32] {
        let mut ratio = 0.0;
        let trials = 4;
        for _ in 0..trials {
            let batch = generator.batch(batch_size);
            let f = fafnir.lookup(&batch, &source).unwrap();
            let r = recnmp.lookup(&batch, &source).unwrap();
            ratio += f.queries_per_second() / r.queries_per_second();
        }
        ratios.push(ratio / trials as f64);
    }
    assert!(ratios[0] > 1.0, "FAFNIR must beat RecNMP at batch 8: {ratios:?}");
    assert!(ratios[2] > ratios[0], "speedup must grow with batch: {ratios:?}");
}

#[test]
fn fig13_dedup_multiplier_grows_with_batch() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let with_dedup = FafnirEngine::paper_default(mem).unwrap();
    let without =
        FafnirEngine::new(FafnirConfig { dedup: false, ..FafnirConfig::paper_default() }, mem)
            .unwrap();
    let mut generator = traffic(202);
    let mut extras = Vec::new();
    for batch_size in [8usize, 32] {
        let batch = generator.batch(batch_size);
        let on = with_dedup.lookup(&batch, &source).unwrap();
        let off = without.lookup(&batch, &source).unwrap();
        extras.push(off.latency.total_ns / on.latency.total_ns);
        assert!(on.traffic.vectors_read < off.traffic.vectors_read);
    }
    assert!(extras[1] > extras[0], "dedup gain should grow with batch: {extras:?}");
}

#[test]
fn fig15_access_savings_in_paper_band() {
    let mut generator = traffic(203);
    let sweep = sharing_sweep(&mut generator, &[8, 16, 32], 60);
    for (stats, target) in sweep.iter().zip([0.34, 0.43, 0.58]) {
        assert!(
            (stats.mean_savings - target).abs() < 0.1,
            "B={}: {:.2} vs paper {target}",
            stats.batch_size,
            stats.mean_savings
        );
    }
}

#[test]
fn fig9_merge_bound_holds_to_twenty_million_columns() {
    for columns in [1_000, 100_000, 5_000_000, 20_000_000] {
        let plan = fafnir_sparse::SpmvPlan::paper(columns);
        assert!(plan.merge_iterations() <= 2, "{columns} columns: {:?}", plan.rounds_per_iteration);
    }
}

#[test]
fn hardware_models_match_published_totals() {
    let asic = AsicModel::asap7();
    assert!((asic.four_channel_system_power_mw() - 111.64).abs() < 0.5);
    assert!((asic.system_area_mm2(4, 1) - 1.25).abs() < 0.05);
    assert!((asic.per_dimm_power_mw() - 5.9).abs() < 0.1);
    // RecNMP comparison point: 184.2 mW per DIMM at 40 nm.
    assert!(asic.per_dimm_power_mw() < 184.2 / 10.0);

    let [luts, _, _, brams] = FpgaDeployment::paper_system().utilization(&FpgaDevice::xcvu9p());
    assert!(luts <= 0.05 && brams <= 0.131);

    let connections = ConnectionModel::new(32, 4);
    assert_eq!(connections.fafnir_tree(), 66);
    assert_eq!(connections.all_to_all(), 128);
}

#[test]
fn abstract_headline_fafnir_beats_recnmp_by_growing_factors() {
    // The abstract: up to 9.9/15.4/21.3x for batch 8/16/32. We assert the
    // monotone growth and a ≥2x win at batch 32 (absolute factors depend on
    // the authors' host model; see EXPERIMENTS.md).
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let fafnir = FafnirEngine::paper_default(mem).unwrap();
    let recnmp = RecNmpEngine::paper_default(mem);
    let batch = traffic(204).batch(32);
    let f = fafnir.lookup(&batch, &source).unwrap();
    let r = recnmp.lookup(&batch, &source).unwrap();
    assert!(f.queries_per_second() > 2.0 * r.queries_per_second());
}
