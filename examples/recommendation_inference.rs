//! Recommendation-system inference: production-like Zipf traffic over
//! realistic embedding tables, comparing FAFNIR against the NDP baselines
//! and folding the result into the end-to-end inference model of Fig. 12.
//!
//! ```sh
//! cargo run --example recommendation_inference
//! ```

use fafnir_baselines::{NoNdpEngine, RecNmpEngine, TensorDimmEngine};
use fafnir_core::{FafnirEngine, GatherEngine};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};
use fafnir_workloads::recsys::RecSysModel;
use fafnir_workloads::EmbeddingTableSet;

fn main() -> Result<(), fafnir_core::FafnirError> {
    let mem = MemoryConfig::ddr4_2400_4ch();
    // 32 embedding tables × 1 M rows × 512 B vectors = 16 GiB, distributed
    // over the 32 ranks as in Fig. 4b.
    let tables = EmbeddingTableSet::paper_default(mem.topology);
    println!(
        "embedding model: {} tables x {} rows, {} B vectors ({} GiB total)",
        tables.tables(),
        tables.rows_per_table(),
        tables.vector_bytes(),
        tables.total_vectors() * tables.vector_bytes() as u64 / (1 << 30),
    );

    // Production-like skewed traffic: batch of 32 queries, 16 lookups each.
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.05 }, 2_000, 16, 2024);
    let batch = generator.batch(32);
    println!(
        "batch: {} queries x 16 indices, {:.0} % unique\n",
        batch.len(),
        batch.unique_fraction() * 100.0
    );

    let fafnir = FafnirEngine::paper_default(mem)?;
    let recnmp = RecNmpEngine::paper_default(mem);
    let tensordimm = TensorDimmEngine::paper_default(mem);
    let no_ndp = NoNdpEngine::paper_default(mem);

    println!(
        "{:<12} {:>12} {:>12} {:>14} {:>10}",
        "engine", "latency", "DRAM reads", "bytes to host", "NDP share"
    );
    let results = vec![
        (fafnir.name(), fafnir.lookup(&batch, &tables)?),
        (recnmp.name(), recnmp.lookup(&batch, &tables)?),
        (tensordimm.name(), tensordimm.lookup(&batch, &tables)?),
        (no_ndp.name(), no_ndp.lookup(&batch, &tables)?),
    ];
    let fafnir_latency = results[0].1.latency.total_ns;
    for (name, result) in &results {
        println!(
            "{:<12} {:>9.1} us {:>12} {:>14} {:>9.0} %",
            name,
            result.latency.total_ns / 1e3,
            result.traffic.vectors_read,
            result.traffic.bytes_to_host,
            result.ndp_fraction() * 100.0
        );
    }

    // End-to-end: embedding stage + fixed FC layers + other (Fig. 12).
    let recsys = RecSysModel::paper_default();
    let inference = recsys.breakdown(fafnir_latency);
    println!("\nend-to-end inference with FAFNIR embedding stage:");
    println!("  embedding: {:>10.1} us", inference.embedding_ns / 1e3);
    println!("  FC layers: {:>10.1} us", inference.fc_ns / 1e3);
    println!("  other    : {:>10.1} us", inference.other_ns / 1e3);
    println!("  total    : {:>10.1} us", inference.total_ns() / 1e3);
    Ok(())
}
