//! # fafnir-cluster — sharded multi-tree serving
//!
//! One FAFNIR tree is bounded in both table capacity and hot-row bandwidth
//! by its 32 ranks. This crate scales *out* instead of up: it shards the
//! embedding-index space across multiple independent trees
//! ([`fafnir_core::ShardPlan`] — table-wise, row-hash, or contiguous
//! row-range), routes each query's indices to the shards that own them
//! ([`router`]), and combines per-shard partial accumulators through the
//! [`fafnir_core::ReduceOperator`] trait so every operator
//! (sum/mean/max/min/argmax/top-k) works cluster-wide ([`engine`]).
//!
//! The pieces, in CODA's co-location framing:
//!
//! * **ownership** — a [`fafnir_core::ShardPlan`] pins every row to a home
//!   shard, optionally replicating a frozen hot set everywhere;
//! * **routing** — replicated rows are placed by a marginal-cost model
//!   (per-shard DRAM reads are equal, so cross-shard transfer bytes decide),
//!   with round-robin or least-loaded tie-breaking ([`RouterPolicy`]);
//! * **merge** — each shard's tree sends every query's unfinalized root
//!   accumulator; the cluster combines them in ascending shard order and
//!   finalizes once, so single-shard queries keep the one-tree bits;
//! * **serving** — [`ClusterEngine`] implements
//!   [`fafnir_core::LookupService`], so the deterministic virtual-time
//!   simulation in `fafnir_serve` (fault plans, retries, hedging) drives a
//!   cluster unchanged, and [`ClusterReport`] joins routing counters with
//!   the serving tail percentiles.
//!
//! ```
//! use fafnir_cluster::{cluster_setup, ClusterReport, RouterPolicy};
//! use fafnir_core::{FafnirConfig, ShardPlan, ShardStrategy};
//! use fafnir_mem::MemoryModelKind;
//! use fafnir_serve::{simulate, ServeConfig, ServeReport};
//! use fafnir_workloads::query::{BatchGenerator, Popularity};
//!
//! # fn main() -> Result<(), fafnir_serve::ServeError> {
//! let plan = ShardPlan::new(4, ShardStrategy::RowRange { universe: 2_000 });
//! let (cluster, source) = cluster_setup(
//!     FafnirConfig::paper_default(),
//!     MemoryModelKind::Fast,
//!     plan,
//!     RouterPolicy::RoundRobin,
//! )?;
//! let mut traffic = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 7);
//! let config = ServeConfig { queries: 64, ..ServeConfig::default() };
//! let outcome = simulate(&cluster, &source, &mut traffic, &config)?;
//! let report = ClusterReport::new(&cluster, &ServeReport::new(&config, &outcome));
//! assert_eq!(report.shards, 4);
//! assert!(report.imbalance >= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod report;
pub mod router;

pub use engine::{cluster_setup, ClusterEngine};
pub use report::{ClusterReport, ClusterStats};
pub use router::{route, RoutedBatch, RouterPolicy, SubQuery};

#[cfg(test)]
mod tests {
    use super::*;
    use fafnir_core::{
        indexset, Batch, FafnirConfig, GatherEngine, LookupService, ReduceOp, ShardPlan,
        ShardStrategy, StripedSource, VectorIndex,
    };
    use fafnir_mem::{MemoryConfig, MemoryModelKind};

    fn cluster(
        shards: usize,
        strategy: ShardStrategy,
        op: ReduceOp,
    ) -> (ClusterEngine, StripedSource) {
        let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
        cluster_setup(
            config,
            MemoryModelKind::Fast,
            ShardPlan::new(shards, strategy),
            RouterPolicy::RoundRobin,
        )
        .expect("paper defaults are valid")
    }

    fn test_batch() -> Batch {
        Batch::from_index_sets([
            indexset![1, 2, 5, 6],
            indexset![3, 4, 5],
            indexset![100, 900, 1500],
            indexset![7],
        ])
    }

    #[test]
    fn one_shard_cluster_matches_the_single_tree_bit_for_bit() {
        for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::TopK { k: 4 }] {
            let (cluster, source) = cluster(1, ShardStrategy::RowHash, op);
            let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
            let mut mem = MemoryConfig::ddr4_2400_4ch();
            mem.model = MemoryModelKind::Fast;
            let single = fafnir_core::FafnirEngine::new(config, mem).expect("valid");
            let batch = test_batch();
            let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
            let theirs = GatherEngine::lookup(&single, &batch, &source).expect("engine lookup");
            assert_eq!(ours.outputs, theirs.outputs, "op {op:?}");
            assert_eq!(ours.traffic.vectors_read, theirs.traffic.vectors_read);
        }
    }

    #[test]
    fn host_bytes_match_the_single_tree_for_every_operator() {
        // n × v × 4 whatever the operator's output width: argmax and top-k
        // outputs are wider or narrower than a vector, but the modeled root
        // sends one vector-sized result per query either way.
        let mut mem = MemoryConfig::ddr4_2400_4ch();
        mem.model = MemoryModelKind::Fast;
        let batch = test_batch();
        for op in [
            ReduceOp::Sum,
            ReduceOp::Mean,
            ReduceOp::Max,
            ReduceOp::Min,
            ReduceOp::ArgMax,
            ReduceOp::TopK { k: 4 },
        ] {
            let (cluster, source) = cluster(8, ShardStrategy::RowRange { universe: 2_000 }, op);
            let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
            let single = fafnir_core::FafnirEngine::new(config, mem).expect("valid");
            let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
            let theirs = GatherEngine::lookup(&single, &batch, &source).expect("engine lookup");
            assert_eq!(ours.traffic.bytes_to_host, theirs.traffic.bytes_to_host, "op {op:?}");
            assert_eq!(ours.traffic.bytes_to_host, 4 * 128 * 4, "op {op:?}");
        }
    }

    #[test]
    fn sharded_lookup_is_deterministic() {
        let (cluster, source) =
            cluster(4, ShardStrategy::RowRange { universe: 2_000 }, ReduceOp::Sum);
        let a = LookupService::lookup(&cluster, &test_batch(), &source).expect("lookup");
        let b = LookupService::lookup(&cluster, &test_batch(), &source).expect("lookup");
        assert_eq!(a, b);
    }

    #[test]
    fn split_queries_and_cross_shard_traffic_are_counted() {
        let (cluster, source) =
            cluster(4, ShardStrategy::RowRange { universe: 2_000 }, ReduceOp::Sum);
        // Query 2 spans ranges [0,500), [500,1000), [1500,2000) → 3 shards.
        let _ = LookupService::lookup(&cluster, &test_batch(), &source).expect("lookup");
        let stats = cluster.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.split_queries, 1);
        // Two partial transfers of a 128-float accumulator.
        assert_eq!(stats.cross_shard_bytes, 2 * 128 * 4);
        assert!(stats.imbalance() >= 1.0);
    }

    #[test]
    fn empty_batches_are_rejected_like_the_single_engine() {
        let (cluster, source) = cluster(2, ShardStrategy::RowHash, ReduceOp::Sum);
        let err = LookupService::lookup(&cluster, &Batch::new(), &source).unwrap_err();
        assert!(matches!(err, fafnir_core::FafnirError::InvalidBatch(_)));
    }

    #[test]
    fn replication_spreads_a_hot_row_over_shards() {
        let plan = ShardPlan::new(2, ShardStrategy::RowRange { universe: 100 })
            .with_replicated([VectorIndex(0)]);
        let (cluster, source) = cluster_setup(
            FafnirConfig::paper_default(),
            MemoryModelKind::Fast,
            plan,
            RouterPolicy::RoundRobin,
        )
        .expect("valid");
        // Four bare hot-row queries round-robin across both shards.
        let batch =
            Batch::from_index_sets([indexset![0], indexset![0], indexset![0], indexset![0]]);
        let _ = LookupService::lookup(&cluster, &batch, &source).expect("lookup");
        let stats = cluster.stats();
        assert_eq!(stats.per_shard_queries, vec![2, 2]);
        assert_eq!(stats.replicated_routes, 4);
        // Without replication all four land on shard 0.
        let plan = ShardPlan::new(2, ShardStrategy::RowRange { universe: 100 });
        let (bare, source) = cluster_setup(
            FafnirConfig::paper_default(),
            MemoryModelKind::Fast,
            plan,
            RouterPolicy::RoundRobin,
        )
        .expect("valid");
        let _ = LookupService::lookup(&bare, &batch, &source).expect("lookup");
        assert_eq!(bare.stats().per_shard_queries, vec![4, 0]);
    }

    #[test]
    fn cluster_serves_under_the_simulator_with_faults() {
        use fafnir_serve::{simulate_resilient, ResilienceConfig, ServeConfig};
        use fafnir_workloads::query::{BatchGenerator, Popularity};

        let (cluster, source) = cluster(4, ShardStrategy::RowHash, ReduceOp::Sum);
        let config = ServeConfig { queries: 96, ..ServeConfig::default() };
        let resilience = ResilienceConfig::none(config.workers);
        let mut traffic = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 7);
        let outcome = simulate_resilient(&cluster, &source, &mut traffic, &config, &resilience)
            .expect("simulation runs");
        let report = fafnir_serve::ServeReport::new(&config, &outcome);
        assert_eq!(report.served + report.shed, 96);
        let cluster_report = ClusterReport::new(&cluster, &report);
        assert_eq!(cluster_report.shards, 4);
        assert!(cluster_report.latency.p99_ns >= cluster_report.latency.p50_ns);
        let json = cluster_report.to_json();
        assert!(json.contains("\"strategy\": \"rowhash\""));
        assert!(json.contains("\"imbalance\""));
    }
}
