//! Serving under deadline batching — the Fig. 3 dedup win as a latency
//! trade-off.
//!
//! Fig. 3 measures unique-index savings per *given* batch; an online
//! service has to build that batch out of an arrival stream first, paying
//! queue latency for every extra companion. This bench sweeps the deadline
//! window of the `fafnir-serve` batcher over Zipf-1.15 traffic at a fixed
//! offered rate and records how DRAM reads per query fall while p50 wait
//! rises — plus the simulator's own wall-clock rate, which is the number
//! that guards against the serving loop getting slower.
//!
//! Regression guard: if an existing `BENCH_serving.json` shows materially
//! better dedup savings or simulator throughput, this bench refuses to
//! overwrite it unless `--force` is passed (`just bench serving --force`).

use std::time::Instant;

use fafnir_bench::{banner, paper_memory, paper_traffic, print_table, record, Layout, Object};
use fafnir_core::{FafnirEngine, StripedSource};
use fafnir_serve::{simulate, BatchPolicy, ServeConfig, ServeReport};
use fafnir_workloads::arrival::ArrivalProcess;

const RATE_QPS: f64 = 2e6;
const QUERIES: usize = 512;
const WINDOWS_NS: [f64; 3] = [1_000.0, 4_000.0, 16_000.0];
const REGRESSION_TOLERANCE: f64 = 0.8;

fn main() {
    banner(
        "Serving — deadline batching vs DRAM reads per query",
        "longer batching windows buy Fig. 3 dedup savings with queue latency",
    );

    let mem = paper_memory();
    let engine = FafnirEngine::paper_default(mem).expect("paper defaults");
    let source = StripedSource::new(mem.topology, 128);

    // One run per window on this thread, so the guarded rate is one
    // core's; only the simulations are timed.
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    let mut wall_s = 0.0;
    for max_wait_ns in WINDOWS_NS {
        let config = ServeConfig {
            arrivals: ArrivalProcess::Poisson { rate_qps: RATE_QPS },
            policy: BatchPolicy::Deadline { max_wait_ns, max_batch: 32 },
            queries: QUERIES,
            ..ServeConfig::default()
        };
        let mut traffic = paper_traffic(7);
        let start = Instant::now();
        let outcome = simulate(&engine, &source, &mut traffic, &config).expect("serving run");
        wall_s += start.elapsed().as_secs_f64();
        let report = ServeReport::new(&config, &outcome);
        rows.push(vec![
            format!("{:.0} us", max_wait_ns / 1e3),
            format!("{:.1}", report.mean_batch_size),
            format!("{:.2}", report.dram_reads_per_query),
            format!("{:.1} %", report.dedup_savings * 100.0),
            format!("{:.2} us", report.queue_wait.p50_ns / 1e3),
            format!("{:.2} us", report.latency.p99_ns / 1e3),
        ]);
        reports.push(report);
    }
    print_table(&["window", "batch", "reads/query", "dedup", "p50 wait", "p99 latency"], &rows);

    let widest = reports.last().expect("three windows");
    let dedup_savings = widest.dedup_savings;
    let sim_queries_per_sec = (QUERIES * WINDOWS_NS.len()) as f64 / wall_s;
    println!(
        "\nwidest window: {:.2} reads/query ({:.1} % dedup), \
         simulator rate {sim_queries_per_sec:.0} queries/s of wall clock",
        widest.dram_reads_per_query,
        dedup_savings * 100.0
    );

    let per_window = WINDOWS_NS.iter().zip(&reports).map(|(&window, report)| {
        Object::new(Layout::OneLine)
            .num("window_ns", window, 0)
            .num("mean_batch_size", report.mean_batch_size, 3)
            .num("dram_reads_per_query", report.dram_reads_per_query, 6)
            .num("dedup_savings", report.dedup_savings, 6)
            .num("p50_queue_wait_ns", report.queue_wait.p50_ns, 3)
            .num("p99_latency_ns", report.latency.p99_ns, 3)
    });
    let traffic = format!("Zipf-1.15 over 2000 indices, 16 per query, {RATE_QPS:.0} qps offered");
    let fields = Object::new(Layout::Pretty)
        .str("traffic", &traffic)
        .str("policy", "deadline, max_batch 32")
        .field("queries_per_window", QUERIES)
        .rows("windows", per_window)
        .num("dedup_savings_widest", dedup_savings, 6)
        .num("sim_queries_per_sec", sim_queries_per_sec, 0);
    record(
        "serving",
        &["dedup_savings_widest", "sim_queries_per_sec"],
        REGRESSION_TOLERANCE,
        fields,
    );
}
