//! Cluster-level statistics and the serving-integrated report.

use fafnir_core::json::{Layout, Object};
use fafnir_serve::{LatencyStats, ServeReport};

use crate::engine::ClusterEngine;

/// Counters a [`ClusterEngine`] accumulates across lookups.
///
/// Every field is either an order-independent sum or (for `merge_ns`)
/// sorted at snapshot time, so concurrent scenario threads sharing one
/// engine cannot perturb a report.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Batches answered.
    pub batches: u64,
    /// Queries across all batches (including empty ones the engine omits).
    pub queries: u64,
    /// Queries whose indices spanned more than one shard.
    pub split_queries: u64,
    /// Replicated-row placements the router's policy decided.
    pub replicated_routes: u64,
    /// Sub-queries routed to each shard.
    pub per_shard_queries: Vec<u64>,
    /// DRAM vector reads each shard actually issued (post-dedup) — the
    /// load signal behind the imbalance factor.
    pub per_shard_vectors_read: Vec<u64>,
    /// Partial-accumulator bytes moved between shards by the merge stage.
    pub cross_shard_bytes: u64,
    /// Per-batch merge-stage latency samples (0 for batches with no split
    /// query); sorted in snapshots.
    pub merge_ns: Vec<f64>,
}

impl ClusterStats {
    /// Zeroed counters for `shards` shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            batches: 0,
            queries: 0,
            split_queries: 0,
            replicated_routes: 0,
            per_shard_queries: vec![0; shards],
            per_shard_vectors_read: vec![0; shards],
            cross_shard_bytes: 0,
            merge_ns: Vec::new(),
        }
    }

    /// Shard-imbalance factor: the busiest shard's vector reads over the
    /// per-shard mean. 1.0 is perfect balance; `shards` is total skew.
    /// Returns 1.0 when no reads were issued.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.per_shard_vectors_read.iter().sum();
        if total == 0 || self.per_shard_vectors_read.is_empty() {
            return 1.0;
        }
        let max = *self.per_shard_vectors_read.iter().max().expect("non-empty") as f64;
        let mean = total as f64 / self.per_shard_vectors_read.len() as f64;
        max / mean
    }

    /// Fraction of queries that spanned more than one shard.
    #[must_use]
    pub fn split_fraction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.split_queries as f64 / self.queries as f64
        }
    }
}

/// The cluster-level serving report: routing and merge counters joined
/// with the virtual-time serving simulation's tail latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Shard count.
    pub shards: usize,
    /// Sharding strategy name (`tablewise`, `rowhash`, `rowrange`).
    pub strategy: String,
    /// Replicated-row router policy name.
    pub policy: String,
    /// Rows in the frozen replica set.
    pub replicated_rows: usize,
    /// Accumulated routing/merge counters.
    pub stats: ClusterStats,
    /// Shard-imbalance factor (max/mean vector reads).
    pub imbalance: f64,
    /// Merge-stage latency summary over per-batch samples.
    pub merge: LatencyStats,
    /// Queries served by the simulation.
    pub served: usize,
    /// Queries shed by admission control.
    pub shed: usize,
    /// Serving throughput in queries per second.
    pub throughput_qps: f64,
    /// End-to-end serving latency summary (p50/p95/p99/p99.9).
    pub latency: LatencyStats,
}

impl ClusterReport {
    /// Joins a cluster engine's counter snapshot with a serving report.
    #[must_use]
    pub fn new(engine: &ClusterEngine, serve: &ServeReport) -> Self {
        let stats = engine.stats();
        Self {
            shards: engine.shards(),
            strategy: engine.plan().strategy_name().to_string(),
            policy: engine.policy().name().to_string(),
            replicated_rows: engine.plan().replicated().len(),
            imbalance: stats.imbalance(),
            merge: LatencyStats::of(&stats.merge_ns),
            served: serve.served,
            shed: serve.shed,
            throughput_qps: serve.throughput_qps,
            latency: serve.latency,
            stats,
        }
    }

    /// Byte-stable JSON rendering (fixed key order, fixed float widths).
    #[must_use]
    pub fn to_json(&self) -> String {
        Object::new(Layout::Pretty)
            .field("shards", self.shards)
            .str("strategy", &self.strategy)
            .str("policy", &self.policy)
            .field("replicated_rows", self.replicated_rows)
            .field("batches", self.stats.batches)
            .field("queries", self.stats.queries)
            .field("split_queries", self.stats.split_queries)
            .num("split_fraction", self.stats.split_fraction(), 6)
            .field("replicated_routes", self.stats.replicated_routes)
            .list("per_shard_queries", &self.stats.per_shard_queries)
            .list("per_shard_vectors_read", &self.stats.per_shard_vectors_read)
            .num("imbalance", self.imbalance, 6)
            .field("cross_shard_bytes", self.stats.cross_shard_bytes)
            .field("merge_ns", self.merge.to_json())
            .field("served", self.served)
            .field("shed", self.shed)
            .num("throughput_qps", self.throughput_qps, 3)
            .field("latency", self.latency.to_json())
            .to_string()
    }

    /// Human-readable table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let mut row = |label: &str, value: String| {
            out.push_str(&format!("{label:<26} {value}\n"));
        };
        row("shards", self.shards.to_string());
        row("strategy", self.strategy.clone());
        row("router policy", self.policy.clone());
        row("replicated rows", self.replicated_rows.to_string());
        row("batches", self.stats.batches.to_string());
        row("queries", self.stats.queries.to_string());
        row(
            "split queries",
            format!("{} ({:.2} %)", self.stats.split_queries, self.stats.split_fraction() * 100.0),
        );
        row("replicated routes", self.stats.replicated_routes.to_string());
        row("per-shard queries", format!("{:?}", self.stats.per_shard_queries));
        row("per-shard vector reads", format!("{:?}", self.stats.per_shard_vectors_read));
        row("shard imbalance", format!("{:.3}", self.imbalance));
        row("cross-shard traffic", format!("{} B", self.stats.cross_shard_bytes));
        row("merge p50 / max", format!("{:.1} / {:.1} ns", self.merge.p50_ns, self.merge.max_ns));
        row("served / shed", format!("{} / {}", self.served, self.shed));
        row("throughput", format!("{:.0} q/s", self.throughput_qps));
        row("latency p50", format!("{:.1} ns", self.latency.p50_ns));
        row("latency p95", format!("{:.1} ns", self.latency.p95_ns));
        row("latency p99", format!("{:.1} ns", self.latency.p99_ns));
        row("latency p99.9", format!("{:.1} ns", self.latency.p999_ns));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_is_one_for_perfect_balance_and_idle_clusters() {
        let mut stats = ClusterStats::new(4);
        assert!((stats.imbalance() - 1.0).abs() < 1e-12);
        stats.per_shard_vectors_read = vec![10, 10, 10, 10];
        assert!((stats.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_hits_shard_count_under_total_skew() {
        let mut stats = ClusterStats::new(4);
        stats.per_shard_vectors_read = vec![40, 0, 0, 0];
        assert!((stats.imbalance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn split_fraction_handles_zero_queries() {
        let stats = ClusterStats::new(2);
        assert_eq!(stats.split_fraction(), 0.0);
    }
}
