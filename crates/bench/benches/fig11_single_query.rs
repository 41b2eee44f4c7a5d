//! Figure 11: single-query latency breakdown (memory vs computation).
//!
//! One query of 16 × 512 B vectors over 32 ranks. Paper claims:
//! * TensorDIMM's memory phase ≈ 4.45× RecNMP/FAFNIR (row-buffer loss),
//! * TensorDIMM's computation ≈ 2.5× FAFNIR (pipeline vs tree),
//! * RecNMP's computation exceeds FAFNIR's (≈25 % forwarded to the CPU),
//! * RecNMP and FAFNIR have identical memory latency.

use fafnir_bench::{banner, engines, ns, paper_memory, print_table, times};
use fafnir_core::{Batch, GatherEngine, IndexSet, LookupResult, StripedSource, VectorIndex};

fn main() {
    banner(
        "Figure 11 — single-query latency breakdown",
        "TensorDIMM memory ~4.45x RecNMP/FAFNIR; TensorDIMM compute ~2.5x FAFNIR",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    // 16 pseudo-random indices spread over the 32 ranks.
    let batch = Batch::from_index_sets([IndexSet::from_iter_dedup(
        (0..16u32).map(|i| VectorIndex(i * 37 + 5)),
    )]);
    let (fafnir, recnmp, tensordimm, _) = engines(mem);

    let fafnir = fafnir.lookup(&batch, &source).expect("fafnir lookup");
    let recnmp = recnmp.lookup(&batch, &source).expect("recnmp lookup");
    let tensordimm = tensordimm.lookup(&batch, &source).expect("tensordimm lookup");

    let rows = vec![row("fafnir", &fafnir), row("recnmp", &recnmp), row("tensordimm", &tensordimm)];
    print_table(&["engine", "memory", "compute", "total", "NDP share"], &rows);

    println!();
    println!(
        "memory ratio tensordimm/recnmp : {}",
        times(tensordimm.latency.memory_ns / recnmp.latency.memory_ns)
    );
    println!(
        "compute ratio tensordimm/fafnir: {}",
        times(tensordimm.latency.compute_tail_ns / fafnir.latency.compute_tail_ns)
    );
    println!(
        "compute ratio recnmp/fafnir    : {}",
        times(recnmp.latency.compute_tail_ns / fafnir.latency.compute_tail_ns)
    );
    println!(
        "memory ratio recnmp/fafnir     : {}",
        times(recnmp.latency.memory_ns / fafnir.latency.memory_ns)
    );
    println!("\npaper: 4.45x, 2.5x, >1x, ~1x respectively");
}

fn row(name: &str, result: &LookupResult) -> Vec<String> {
    vec![
        name.into(),
        ns(result.latency.memory_ns),
        ns(result.latency.compute_tail_ns),
        ns(result.latency.total_ns),
        format!("{:.0} %", result.ndp_fraction() * 100.0),
    ]
}
