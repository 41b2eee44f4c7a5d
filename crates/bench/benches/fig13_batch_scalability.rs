//! Figure 13: lookup speedup over RecNMP as batch size grows.
//!
//! Paper claims: RecNMP ≈15× TensorDIMM; FAFNIR-without-dedup beats RecNMP
//! by ≈3.1×/6.7×/12.3× at batch 8/16/32; dedup adds up to ≈3.4× more
//! (9.9×/15.4×/21.3× headline totals).
//!
//! Throughput here is latency-based (one batch in flight per host round
//! trip), the service model recommendation inference uses.

use fafnir_bench::{
    banner, engines, fafnir_without_dedup, paper_memory, paper_traffic, print_table, times,
};
use fafnir_core::{FafnirConfig, FafnirEngine, GatherEngine, StripedSource};

fn main() {
    banner(
        "Figure 13 — speedup over RecNMP vs batch size",
        "FAFNIR/RecNMP grows with batch; dedup adds an extra multiplier",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let (fafnir, recnmp, tensordimm, _) = engines(mem);
    let recnmp_no_cache = fafnir_baselines::RecNmpEngine::paper_default(mem).without_cache();
    let fafnir_raw = fafnir_without_dedup(mem);
    let mut generator = paper_traffic(1313);

    let trials = 6;
    let mut rows = Vec::new();
    for batch_size in [8usize, 16, 32] {
        let mut throughput = [0.0f64; 5]; // tensordimm, recnmp, recnmp-nc, fafnir-raw, fafnir
        for _ in 0..trials {
            let batch = generator.batch(batch_size);
            throughput[0] +=
                tensordimm.lookup(&batch, &source).expect("tensordimm").queries_per_second();
            throughput[1] += recnmp.lookup(&batch, &source).expect("recnmp").queries_per_second();
            throughput[2] +=
                recnmp_no_cache.lookup(&batch, &source).expect("recnmp-nc").queries_per_second();
            throughput[3] +=
                fafnir_raw.lookup(&batch, &source).expect("fafnir-raw").queries_per_second();
            throughput[4] += fafnir.lookup(&batch, &source).expect("fafnir").queries_per_second();
        }
        let [td, rn, rn_nc, fr, fd] = throughput.map(|t| t / trials as f64);
        rows.push(vec![
            batch_size.to_string(),
            times(rn / td),
            times(fr / rn_nc),
            times(fd / rn),
            times(fd / fr),
        ]);
    }
    print_table(
        &[
            "batch",
            "recnmp/tensordimm",
            "fafnir/recnmp (no dedup, no cache)",
            "fafnir/recnmp (full)",
            "dedup extra",
        ],
        &rows,
    );
    println!("\npaper: recnmp ~15x tensordimm; fafnir/recnmp 3.1/6.7/12.3x without dedup,");
    println!("       up to +3.4x extra from dedup (headline 9.9/15.4/21.3x)");

    // Second view: FAFNIR's autonomous NDP pipeline measured with
    // lookup_stream (no host round trip per batch) against RecNMP's
    // slowest-stage sustained rate (its host combine bounds pipelining).
    println!("\nsustained (pipelined) view:");
    let core_engine = FafnirEngine::new(FafnirConfig::paper_default(), mem).expect("engine");
    let mut generator = paper_traffic(1414);
    let mut rows = Vec::new();
    for batch_size in [8usize, 16, 32] {
        let batches: Vec<_> = (0..trials).map(|_| generator.batch(batch_size)).collect();
        let stream = core_engine.lookup_stream(&batches, &source).expect("stream");
        let mut recnmp_qps = 0.0;
        for batch in &batches {
            recnmp_qps +=
                recnmp.lookup(batch, &source).expect("recnmp").sustained_queries_per_second();
        }
        recnmp_qps /= trials as f64;
        rows.push(vec![
            batch_size.to_string(),
            format!("{:.1} Mq/s", stream.queries_per_second() / 1e6),
            format!("{:.1} Mq/s", recnmp_qps / 1e6),
            times(stream.queries_per_second() / recnmp_qps),
        ]);
    }
    print_table(&["batch", "fafnir (measured)", "recnmp (sustained)", "speedup"], &rows);
}
