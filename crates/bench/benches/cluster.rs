//! Sharded cluster serving — throughput, balance, and cross-shard traffic.
//!
//! One FAFNIR tree serves whatever fits its 32 ranks; a cluster shards the
//! row space over independent trees and merges split queries through the
//! `ReduceOperator` trait. This bench sweeps the shard count at two Zipf
//! skews and records simulated throughput, the per-shard read imbalance
//! factor, and the accumulator bytes crossing shard boundaries — then
//! shows how replicating the hot 5 % of rows relieves the skewed case.
//! The sweep runs under the fast functional memory model; a cycle-model
//! spot check keeps the calibrated path honest.
//!
//! Regression guard: if an existing `BENCH_cluster.json` shows a materially
//! better simulator rate, this bench refuses to overwrite it unless
//! `--force` is passed (`just bench cluster --force`).

use std::time::Instant;

use fafnir_bench::{banner, print_table, record, Layout, Object};
use fafnir_cluster::{cluster_setup, ClusterReport, RouterPolicy};
use fafnir_core::{FafnirConfig, ShardPlan, ShardStrategy, VectorIndex};
use fafnir_mem::MemoryModelKind;
use fafnir_serve::{simulate, ServeConfig, ServeReport};
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::query::{BatchGenerator, Popularity};
use fafnir_workloads::zipf::Zipf;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SKEWS: [f64; 2] = [0.8, 1.15];
const UNIVERSE: u64 = 2_000;
const QUERY_LEN: usize = 16;
const QUERIES: usize = 512;
const RATE_QPS: f64 = 2e6;
const HOT_FRACTION: f64 = 0.05;
const SEED: u64 = 7;
const REGRESSION_TOLERANCE: f64 = 0.8;

fn serve_config() -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { rate_qps: RATE_QPS },
        workers: 4,
        queries: QUERIES,
        ..ServeConfig::default()
    }
}

struct Scenario {
    shards: usize,
    skew: f64,
    replicated: usize,
    report: ClusterReport,
}

fn run_scenario(
    shards: usize,
    skew: f64,
    model: MemoryModelKind,
    replicate_hot: f64,
    wall_s: &mut f64,
) -> Scenario {
    let mut plan = ShardPlan::new(shards, ShardStrategy::RowRange { universe: UNIVERSE as u32 });
    if replicate_hot > 0.0 {
        let hot = Zipf::new(UNIVERSE, skew.max(0.0)).hot_set(replicate_hot);
        plan = plan.with_replicated(hot.into_iter().map(|id| VectorIndex(id as u32)));
    }
    let replicated = plan.replicated().len();
    let (cluster, source) =
        cluster_setup(FafnirConfig::paper_default(), model, plan, RouterPolicy::RoundRobin)
            .expect("paper defaults");
    let mut traffic =
        BatchGenerator::new(Popularity::Zipf { exponent: skew }, UNIVERSE, QUERY_LEN, SEED);
    let config = serve_config();
    let start = Instant::now();
    let outcome = simulate(&cluster, &source, &mut traffic, &config).expect("cluster serving run");
    *wall_s += start.elapsed().as_secs_f64();
    let report = ClusterReport::new(&cluster, &ServeReport::new(&config, &outcome));
    Scenario { shards, skew, replicated, report }
}

fn main() {
    banner(
        "Sharded cluster — throughput, imbalance, cross-shard traffic vs shard count",
        "row-range sharding over independent trees; split queries merge via ReduceOperator",
    );

    let mut wall_s = 0.0;
    let mut simulated_queries = 0usize;
    let mut scenarios = Vec::new();
    for &skew in &SKEWS {
        for &shards in &SHARD_COUNTS {
            scenarios.push(run_scenario(shards, skew, MemoryModelKind::Fast, 0.0, &mut wall_s));
            simulated_queries += QUERIES;
        }
    }
    // Hot-row replication relief at the most skewed, most sharded point.
    let relieved = run_scenario(8, 1.15, MemoryModelKind::Fast, HOT_FRACTION, &mut wall_s);
    simulated_queries += QUERIES;
    // Cycle-model spot check so the calibrated path stays exercised.
    let cycle = run_scenario(4, 1.15, MemoryModelKind::Cycle, 0.0, &mut wall_s);
    simulated_queries += QUERIES;

    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            vec![
                format!("{}", s.shards),
                format!("{:.2}", s.skew),
                format!("{:.0}", s.report.throughput_qps),
                format!("{:.3}", s.report.imbalance),
                format!("{:.3}", s.report.stats.split_fraction()),
                format!("{}", s.report.stats.cross_shard_bytes),
                format!("{:.2} us", s.report.latency.p99_ns / 1e3),
            ]
        })
        .collect();
    print_table(&["shards", "skew", "sim q/s", "imbalance", "split", "xfer bytes", "p99"], &rows);

    let skewed_8 = scenarios.last().expect("sweep ran");
    let imbalance_relief = skewed_8.report.imbalance / relieved.report.imbalance;
    let sim_queries_per_sec = simulated_queries as f64 / wall_s;
    println!(
        "\nreplicating the hot {:.0} % ({} rows) cuts 8-shard imbalance {:.2}x \
         ({:.3} -> {:.3}); cycle spot check {:.0} q/s vs fast {:.0} q/s; \
         simulator rate {sim_queries_per_sec:.0} queries/s of wall clock",
        HOT_FRACTION * 100.0,
        relieved.replicated,
        imbalance_relief,
        skewed_8.report.imbalance,
        relieved.report.imbalance,
        cycle.report.throughput_qps,
        scenarios[SHARD_COUNTS.len() + 2].report.throughput_qps,
    );

    let sweep = scenarios.iter().map(|s| {
        Object::new(Layout::OneLine)
            .field("shards", s.shards)
            .num("skew", s.skew, 2)
            .num("throughput_qps", s.report.throughput_qps, 3)
            .num("imbalance", s.report.imbalance, 6)
            .num("split_fraction", s.report.stats.split_fraction(), 6)
            .field("cross_shard_bytes", s.report.stats.cross_shard_bytes)
            .num("p99_latency_ns", s.report.latency.p99_ns, 3)
    });
    let traffic =
        format!("Zipf over {UNIVERSE} indices, {QUERY_LEN} per query, {RATE_QPS:.0} qps offered");
    let fields = Object::new(Layout::Pretty)
        .str("traffic", &traffic)
        .str("strategy", "rowrange, round-robin router")
        .field("queries_per_scenario", QUERIES)
        .rows("sweep", sweep)
        .field("replicated_hot_rows", relieved.replicated)
        .num("imbalance_bare_8_shards", skewed_8.report.imbalance, 6)
        .num("imbalance_replicated_8_shards", relieved.report.imbalance, 6)
        .num("imbalance_relief", imbalance_relief, 6)
        .num("cycle_throughput_qps", cycle.report.throughput_qps, 3)
        .num("sim_queries_per_sec", sim_queries_per_sec, 0);
    record("cluster", &["sim_queries_per_sec"], REGRESSION_TOLERANCE, fields);
}
