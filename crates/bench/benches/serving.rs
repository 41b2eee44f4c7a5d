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
//! overwrite it unless `--force` is passed (`just bench-serving --force`).

use std::time::Instant;

use fafnir_bench::{banner, paper_memory, paper_traffic, print_table, record};
use fafnir_core::{FafnirEngine, StripedSource};
use fafnir_serve::{run_scenarios, BatchPolicy, Scenario, ServeConfig, ServeReport};
use fafnir_workloads::arrival::ArrivalProcess;

const RATE_QPS: f64 = 2e6;
const QUERIES: usize = 512;
const WINDOWS_NS: [f64; 3] = [1_000.0, 4_000.0, 16_000.0];
const REGRESSION_TOLERANCE: f64 = 0.8;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scenario_threads: usize = args
        .iter()
        .position(|arg| arg == "--scenario-threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|raw| raw.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1);
    banner(
        "Serving — deadline batching vs DRAM reads per query",
        "longer batching windows buy Fig. 3 dedup savings with queue latency",
    );

    let mem = paper_memory();
    let engine = FafnirEngine::paper_default(mem).expect("paper defaults");
    let source = StripedSource::new(mem.topology, 128);

    // One scenario per window, all through the deterministic runner: the
    // per-window reports are byte-identical for every --scenario-threads N.
    let scenarios: Vec<Scenario> = WINDOWS_NS
        .iter()
        .map(|&max_wait_ns| {
            let config = ServeConfig {
                arrivals: ArrivalProcess::Poisson { rate_qps: RATE_QPS },
                policy: BatchPolicy::Deadline { max_wait_ns, max_batch: 32 },
                queries: QUERIES,
                ..ServeConfig::default()
            };
            Scenario::new(format!("{max_wait_ns:.0} ns window"), config, paper_traffic(7))
        })
        .collect();
    let configs: Vec<ServeConfig> = scenarios.iter().map(|s| s.config).collect();
    let start = Instant::now();
    let results = run_scenarios(&engine, &source, scenarios, scenario_threads);
    let wall_s = start.elapsed().as_secs_f64();

    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for ((result, config), max_wait_ns) in results.into_iter().zip(configs).zip(WINDOWS_NS) {
        let outcome = result.outcome.expect("serving run");
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

    let per_window: Vec<String> = WINDOWS_NS
        .iter()
        .zip(&reports)
        .map(|(window, report)| {
            format!(
                "{{\"window_ns\": {window:.0}, \"mean_batch_size\": {:.3}, \
                 \"dram_reads_per_query\": {:.6}, \"dedup_savings\": {:.6}, \
                 \"p50_queue_wait_ns\": {:.3}, \"p99_latency_ns\": {:.3}}}",
                report.mean_batch_size,
                report.dram_reads_per_query,
                report.dedup_savings,
                report.queue_wait.p50_ns,
                report.latency.p99_ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \
         \"traffic\": \"Zipf-1.15 over 2000 indices, 16 per query, {RATE_QPS:.0} qps offered\",\n  \
         \"policy\": \"deadline, max_batch 32\",\n  \"queries_per_window\": {QUERIES},\n  \
         \"windows\": [\n    {}\n  ],\n  \
         \"dedup_savings_widest\": {dedup_savings:.6},\n  \
         \"sim_queries_per_sec\": {sim_queries_per_sec:.0}\n}}\n",
        per_window.join(",\n    ")
    );
    record(
        "serving",
        &json,
        &[("dedup_savings_widest", dedup_savings), ("sim_queries_per_sec", sim_queries_per_sec)],
        REGRESSION_TOLERANCE,
    );
}
