//! Figure 15: memory accesses after eliminating redundant accesses.
//!
//! Paper claims: FAFNIR saves 34 %/43 %/58 % of memory accesses for batch
//! sizes 8/16/32, and the unique accesses per leaf input stay below the
//! batch size.

use fafnir_bench::{
    banner, engines, fafnir_without_dedup, paper_memory, paper_traffic, print_table,
};
use fafnir_core::{GatherEngine, StripedSource};
use fafnir_mem::EnergyModel;

fn main() {
    banner(
        "Figure 15 — memory accesses with and without dedup",
        "savings ~34/43/58 % at B=8/16/32; accesses per leaf input < batch size",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let (fafnir, _, _, _) = engines(mem);
    let fafnir_raw = fafnir_without_dedup(mem);
    let energy = EnergyModel::ddr4();
    let mut generator = paper_traffic(1515);

    let trials = 10;
    let mut rows = Vec::new();
    for batch_size in [8usize, 16, 32] {
        let mut raw_reads = 0u64;
        let mut dedup_reads = 0u64;
        let mut raw_energy = 0.0;
        let mut dedup_energy = 0.0;
        for _ in 0..trials {
            let batch = generator.batch(batch_size);
            let raw = fafnir_raw.lookup(&batch, &source).expect("raw lookup");
            let dedup = fafnir.lookup(&batch, &source).expect("dedup lookup");
            raw_reads += raw.traffic.vectors_read;
            dedup_reads += dedup.traffic.vectors_read;
            raw_energy += energy.dynamic_nj(&raw.memory);
            dedup_energy += energy.dynamic_nj(&dedup.memory);
        }
        let savings = 1.0 - dedup_reads as f64 / raw_reads as f64;
        rows.push(vec![
            batch_size.to_string(),
            (raw_reads / trials).to_string(),
            (dedup_reads / trials).to_string(),
            format!("{:.1} %", savings * 100.0),
            format!("{:.1}", dedup_reads as f64 / trials as f64 / 16.0),
            format!("{:.1} %", (1.0 - dedup_energy / raw_energy) * 100.0),
        ]);
    }
    print_table(
        &[
            "batch",
            "vector reads (no dedup)",
            "vector reads (dedup)",
            "savings",
            "reads per leaf input",
            "DRAM energy saved",
        ],
        &rows,
    );
    println!("\npaper: savings 34 % / 43 % / 58 %; per-leaf accesses stay below the batch size");
    println!("(16 leaf PEs at 1PE:2R over 32 ranks)");
}
