//! Serving under faults — the hedging tail-latency-vs-DRAM trade-off.
//!
//! The FAFNIR dedup win (Fig. 3) is measured per DRAM read, and hedged
//! dispatch *spends* DRAM reads to buy tail latency: a duplicate attempt
//! re-issues the batch's deduplicated reads on a second worker. This bench
//! pins a straggler-replica fault plan (one of two workers at 8× service
//! time) and sweeps the hedge delay, recording how p99.9 latency collapses
//! while DRAM reads per query climb. A crash/restart churn scenario with
//! bounded retries rides along to keep the recovery path honest.
//!
//! Regression guard: if an existing `BENCH_fault_resilience.json` shows a
//! materially better hedged p99.9 speedup or simulator rate, this bench
//! refuses to overwrite it unless `--force` is passed
//! (`just bench fault_resilience --force`).

use std::time::Instant;

use fafnir_bench::{banner, paper_memory, paper_traffic, print_table, record, Layout, Object};
use fafnir_core::json;
use fafnir_core::{FafnirEngine, StripedSource};
use fafnir_serve::{simulate_resilient, BatchPolicy, ResilienceConfig, ServeConfig, ServeReport};
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::faults::FaultPlan;

const RATE_QPS: f64 = 2e6;
const QUERIES: usize = 512;
const SLOWDOWN: f64 = 8.0;
const HEDGE_DELAYS_NS: [Option<f64>; 3] = [None, Some(6_000.0), Some(3_000.0)];
const REGRESSION_TOLERANCE: f64 = 0.9;

fn serve_config() -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { rate_qps: RATE_QPS },
        policy: BatchPolicy::Deadline { max_wait_ns: 20_000.0, max_batch: 32 },
        workers: 2,
        queries: QUERIES,
        ..ServeConfig::default()
    }
}

fn main() {
    banner(
        "Fault resilience — hedged dispatch vs DRAM reads per query",
        "a duplicate dispatch re-issues deduplicated DRAM reads to cut the straggler tail",
    );

    let mem = paper_memory();
    let engine = FafnirEngine::paper_default(mem).expect("paper defaults");
    let source = StripedSource::new(mem.topology, 128);
    let config = serve_config();

    let mut rows = Vec::new();
    let mut reports = Vec::new();
    let mut wall_s = 0.0;
    let mut simulated_queries = 0usize;
    for hedge_ns in HEDGE_DELAYS_NS {
        let resilience = ResilienceConfig {
            faults: FaultPlan::slow_workers(2, 1, SLOWDOWN),
            timeout_ns: None,
            retries: 0,
            backoff_ns: 1_000.0,
            hedge_ns,
        };
        let mut traffic = paper_traffic(7);
        let start = Instant::now();
        let outcome = simulate_resilient(&engine, &source, &mut traffic, &config, &resilience)
            .expect("resilient serving run");
        wall_s += start.elapsed().as_secs_f64();
        simulated_queries += QUERIES;
        let report = ServeReport::new(&config, &outcome);
        rows.push(vec![
            hedge_ns.map_or("off".to_string(), |h| format!("{:.0} us", h / 1e3)),
            format!("{:.2} us", report.latency.p999_ns / 1e3),
            format!("{:.2} us", report.latency.p50_ns / 1e3),
            format!("{:.2}", report.dram_reads_per_query),
            format!("{}", report.hedges),
            format!("{}", report.hedge_wins),
        ]);
        reports.push(report);
    }
    print_table(&["hedge delay", "p99.9", "p50", "reads/query", "hedges", "won"], &rows);

    let baseline = &reports[0];
    let hedged = reports.last().expect("hedge sweep");
    let p999_speedup_hedged = baseline.latency.p999_ns / hedged.latency.p999_ns;
    let dram_cost = hedged.dram_reads_per_query / baseline.dram_reads_per_query;

    // The recovery path: seeded crash/restart churn with bounded retries.
    let churn = ResilienceConfig {
        faults: FaultPlan::crash_restart(2, 20_000.0, 10_000.0, 1e9, 11),
        timeout_ns: Some(50_000.0),
        retries: 4,
        backoff_ns: 500.0,
        hedge_ns: None,
    };
    let mut traffic = paper_traffic(7);
    let start = Instant::now();
    let churn_outcome = simulate_resilient(&engine, &source, &mut traffic, &config, &churn)
        .expect("churn serving run");
    wall_s += start.elapsed().as_secs_f64();
    simulated_queries += QUERIES;
    let churn_report = ServeReport::new(&config, &churn_outcome);
    let churn_delivery = churn_report.served as f64 / churn_report.offered as f64;

    let sim_queries_per_sec = simulated_queries as f64 / wall_s;
    println!(
        "\nhedging: p99.9 {:.1}x better for {:.2}x DRAM reads; \
         churn: {:.1} % delivered with {} retries / {} crashes; \
         simulator rate {sim_queries_per_sec:.0} queries/s of wall clock",
        p999_speedup_hedged,
        dram_cost,
        churn_delivery * 100.0,
        churn_report.retries,
        churn_report.crashes,
    );

    let per_delay = HEDGE_DELAYS_NS.iter().zip(&reports).map(|(hedge_ns, report)| {
        Object::new(Layout::OneLine)
            .field("hedge_ns", hedge_ns.map_or("null".to_string(), |h| json::fixed(h, 0)))
            .num("p999_latency_ns", report.latency.p999_ns, 3)
            .num("p50_latency_ns", report.latency.p50_ns, 3)
            .num("dram_reads_per_query", report.dram_reads_per_query, 6)
            .field("hedges", report.hedges)
            .field("hedge_wins", report.hedge_wins)
    });
    let traffic = format!("Zipf-1.15 over 2000 indices, 16 per query, {RATE_QPS:.0} qps offered");
    let fields = Object::new(Layout::Pretty)
        .str("traffic", &traffic)
        .str("fault_plan", &format!("1 of 2 workers at {SLOWDOWN:.0}x service time"))
        .field("queries_per_scenario", QUERIES)
        .rows("hedge_sweep", per_delay)
        .num("p999_speedup_hedged", p999_speedup_hedged, 6)
        .num("dram_cost_hedged", dram_cost, 6)
        .num("churn_delivery", churn_delivery, 6)
        .field("churn_retries", churn_report.retries)
        .field("churn_crashes", churn_report.crashes)
        .num("sim_queries_per_sec", sim_queries_per_sec, 0);
    record(
        "fault_resilience",
        &["p999_speedup_hedged", "churn_delivery", "sim_queries_per_sec"],
        REGRESSION_TOLERANCE,
        fields,
    );
}
