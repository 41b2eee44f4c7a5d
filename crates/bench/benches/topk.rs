//! Top-K similarity serving — recall/latency vs k.
//!
//! The Top-K operator turns the reduction tree into a near-memory
//! re-ranker: the query vector scores candidate embeddings as they are
//! gathered and only `2k` floats (the best `(index, score)` pairs) ever
//! cross to the host. This bench runs the two-stage serving flow — proxy
//! shortlist from the universe, exact near-memory re-rank of the shortlist
//! — and sweeps `k`, recording recall@k against the exact full-universe
//! top-k and the simulated batch latency. Because the accumulator width
//! never leaks into the tree's timing, latency stays flat in `k` while the
//! host transfer shrinks from `n × v` to `n × 2k`.
//!
//! Regression guard: if an existing `BENCH_topk.json` shows materially
//! better mean recall, this bench refuses to overwrite it unless `--force`
//! is passed (`just bench topk --force`).

use std::sync::Arc;
use std::time::Instant;

use fafnir_bench::{banner, paper_memory, print_table, record, Layout, Object};
use fafnir_core::{Batch, FafnirConfig, FafnirEngine, GatherEngine, ReduceOp, TopKOperator};
use fafnir_workloads::similarity::{recall_at_k, SimilarityWorkload};
use fafnir_workloads::EmbeddingTableSet;

const UNIVERSE: u32 = 4_096;
const VECTOR_DIM: usize = 32;
const SHORTLIST: usize = 256;
const PROXY_DIMS: usize = 16;
const QUERIES: u64 = 8;
const K_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];
const REGRESSION_TOLERANCE: f64 = 0.9;

fn main() {
    banner(
        "Top-K similarity serving — recall/latency vs k",
        "near-memory re-ranking returns 2k floats per query instead of the full vector",
    );

    let mem = paper_memory();
    let tables = EmbeddingTableSet::new(mem.topology, 4, UNIVERSE / 4, VECTOR_DIM);
    let workload = SimilarityWorkload::new(&tables, UNIVERSE, 9).with_proxy_dims(PROXY_DIMS);

    let mut rows = Vec::new();
    let mut sweep = Vec::new();
    let mut recalls = Vec::new();
    let mut wall_s = 0.0;
    let mut lookups = 0u64;
    for k in K_SWEEP {
        let config = FafnirConfig {
            op: ReduceOp::TopK { k },
            vector_dim: VECTOR_DIM,
            max_query_len: SHORTLIST,
            ..FafnirConfig::paper_default()
        };
        let mut latency_ns = 0.0;
        let mut recall_sum = 0.0;
        for query in 0..QUERIES {
            let query_vec = workload.query_vector(query);
            let shortlist = workload.shortlist(&query_vec, SHORTLIST);
            let operator = Arc::new(TopKOperator::with_scoring(k, query_vec.clone()));
            let engine =
                FafnirEngine::new(config, mem).expect("topk engine").with_operator(operator);
            let batch = Batch::from_index_sets([shortlist]);
            let start = Instant::now();
            let result = engine.lookup(&batch, &tables).expect("topk lookup");
            wall_s += start.elapsed().as_secs_f64();
            lookups += 1;
            latency_ns += result.latency.total_ns;
            let reported = TopKOperator::decode(&result.outputs[0].1);
            let exact = workload.exact_top_k(&query_vec, k);
            recall_sum += recall_at_k(&reported, &exact);
        }
        let mean_latency_ns = latency_ns / QUERIES as f64;
        let mean_recall = recall_sum / QUERIES as f64;
        recalls.push(mean_recall);
        rows.push(vec![
            format!("{k}"),
            format!("{mean_recall:.3}"),
            format!("{:.2} us", mean_latency_ns / 1e3),
            format!("{} B", 2 * k * 4),
        ]);
        let row = Object::new(Layout::OneLine)
            .field("k", k)
            .num("recall", mean_recall, 6)
            .num("mean_latency_ns", mean_latency_ns, 3)
            .field("host_bytes_per_query", 2 * k * 4);
        sweep.push(row);
    }
    print_table(&["k", "recall@k", "batch latency", "host bytes/query"], &rows);

    let mean_recall = recalls.iter().sum::<f64>() / recalls.len() as f64;
    let lookups_per_sec = lookups as f64 / wall_s;
    println!(
        "\nshortlist {SHORTLIST} of {UNIVERSE} candidates: mean recall {mean_recall:.3} \
         across k = {K_SWEEP:?}; bench rate {lookups_per_sec:.0} lookups/s of wall clock"
    );

    let scenario = format!(
        "shortlist {SHORTLIST} of {UNIVERSE} candidates, proxy over {PROXY_DIMS} of {VECTOR_DIM} \
         dims, {QUERIES} queries per k"
    );
    let fields = Object::new(Layout::Pretty)
        .str("scenario", &scenario)
        .rows("k_sweep", sweep)
        .num("mean_recall", mean_recall, 6)
        .num("lookups_per_sec", lookups_per_sec, 0);
    // Recall is deterministic (seeded queries, seeded tables), so any drop
    // means the reduction or the workload changed behaviour; the wall-clock
    // rate is recorded for context but too noisy to gate on.
    record("topk", &["mean_recall"], REGRESSION_TOLERANCE, fields);
}
