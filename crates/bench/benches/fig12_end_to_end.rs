//! Figure 12: end-to-end inference speedup over the 1-rank baseline as
//! ranks grow from 1 to 32.
//!
//! Total inference = embedding lookup + fixed 0.5 ms FC layers + other.
//! Each engine is normalized to its own 1-rank configuration. Paper claim:
//! both RecNMP and FAFNIR track the ideal (linear) line at few ranks, but
//! FAFNIR keeps following it to 32 ranks thanks to the channel node
//! performing *all* reductions at NDP.

use fafnir_baselines::RecNmpEngine;
use fafnir_bench::{banner, print_table, times};
use fafnir_core::{Batch, FafnirConfig, FafnirEngine, GatherEngine};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};
use fafnir_workloads::recsys::{InferenceBreakdown, RecSysModel};
use fafnir_workloads::EmbeddingTableSet;

/// Hardware batches per inference: a production-scale embedding stage, so
/// the 1-rank configuration is embedding-dominated as in the paper.
const REPLICAS: f64 = 2_000.0;
/// Batches averaged per configuration.
const TRIALS: usize = 4;

fn main() {
    banner(
        "Figure 12 — end-to-end inference speedup vs ranks",
        "FAFNIR tracks the ideal linear line to 32 ranks; RecNMP falls off earlier",
    );
    let recsys = RecSysModel::paper_default();
    let batches = workload();

    let fafnir_lat: Vec<f64> = RANKS.iter().map(|&m| fafnir_embedding_ns(m, &batches)).collect();
    let recnmp_lat: Vec<f64> = RANKS.iter().map(|&m| recnmp_embedding_ns(m, &batches)).collect();

    let fafnir_base = recsys.breakdown(fafnir_lat[0] * REPLICAS);
    let recnmp_base = recsys.breakdown(recnmp_lat[0] * REPLICAS);

    let mut rows = Vec::new();
    for (pos, &ranks) in RANKS.iter().enumerate() {
        let fafnir = recsys.breakdown(fafnir_lat[pos] * REPLICAS);
        let recnmp = recsys.breakdown(recnmp_lat[pos] * REPLICAS);
        let ideal = InferenceBreakdown::ideal_speedup(&fafnir_base, ranks as f64);
        rows.push(vec![
            ranks.to_string(),
            times(recnmp.speedup_over(&recnmp_base)),
            times(fafnir.speedup_over(&fafnir_base)),
            times(ideal),
            format!("{:.0} %", fafnir.embedding_share() * 100.0),
        ]);
    }
    print_table(&["ranks", "recnmp", "fafnir", "ideal", "fafnir embed share"], &rows);
    println!("\n(each engine normalized to its own 1-rank system; FC fixed at 0.5 ms)");
}

const RANKS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The same query batches for every configuration.
fn workload() -> Vec<Batch> {
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 1212);
    (0..TRIALS).map(|_| generator.batch(8)).collect()
}

/// Tables sized to fit even the 1-rank system (32 tables × 65 536 rows).
fn tables_for(mem: MemoryConfig) -> EmbeddingTableSet {
    EmbeddingTableSet::new(mem.topology, 32, 65_536, 128)
}

/// Sustained time per hardware batch when batches run back to back: the
/// stages (DRAM gather / NDP tree / core combine) pipeline across batches,
/// so the slowest stage sets the rate.
///
/// For FAFNIR the tree is fully pipelined and all reduction is at NDP, so
/// memory is the bottleneck stage. For RecNMP the core-side combine of
/// forwarded partials is a real stage that cannot be hidden once it exceeds
/// the memory phase.
fn fafnir_embedding_ns(ranks: usize, batches: &[Batch]) -> f64 {
    let mem = MemoryConfig::with_total_ranks(ranks);
    let tables = tables_for(mem);
    let config = FafnirConfig { ranks_per_leaf: ranks.min(2), ..FafnirConfig::paper_default() };
    let engine = FafnirEngine::new(config, mem).expect("fafnir engine");
    batches
        .iter()
        .map(|batch| engine.lookup(batch, &tables).expect("fafnir lookup").sustained_ns())
        .sum::<f64>()
        / batches.len() as f64
}

fn recnmp_embedding_ns(ranks: usize, batches: &[Batch]) -> f64 {
    let mem = MemoryConfig::with_total_ranks(ranks);
    let tables = tables_for(mem);
    let engine = RecNmpEngine::paper_default(mem);
    batches
        .iter()
        .map(|batch| engine.lookup(batch, &tables).expect("recnmp lookup").sustained_ns())
        .sum::<f64>()
        / batches.len() as f64
}
