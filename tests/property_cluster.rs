//! Property tests pinning the cluster's parity contract: for arbitrary
//! batches, shard counts 1..8, and both row-wise strategies,
//!
//! * a query resolved by a **single shard** is `to_bits`-identical to the
//!   single-tree reference engine on the same batch (for every operator);
//! * **selection** operators (max/min/argmax/top-k) are exactly
//!   associative, so even split queries are `to_bits`-identical to the
//!   single tree;
//! * **every** operator (including float sum/mean, whose grouping changes
//!   rounding) is `to_bits`-identical to an independent tree-order oracle:
//!   each routed sub-query runs alone on a one-tree engine whose operator
//!   skips its finalize step, and the partials combine in ascending shard
//!   order and finalize once — the documented `ReduceOperator` merge
//!   semantics. A fixed batch of co-resident operands pins the same oracle
//!   where a shard's tree order and ascending index order round apart;
//! * sum and mean stay within the engine-level tolerance of the flat
//!   software reference even when queries split.

use std::sync::Arc;

use proptest::prelude::*;

use fafnir_cluster::{route, ClusterEngine, RouterPolicy};
use fafnir_core::{
    indexset, Batch, FafnirConfig, FafnirEngine, GatherEngine, IndexSet, LookupService, QueryId,
    ReduceOp, ReduceOperator, ShardPlan, ShardStrategy, StripedSource, VectorIndex,
};
use fafnir_mem::{MemoryConfig, MemoryModelKind};

const UNIVERSE: u32 = 96;

fn batch_strategy() -> impl Strategy<Value = Batch> {
    proptest::collection::vec(proptest::collection::vec(0u32..UNIVERSE, 1..10), 1..12).prop_map(
        |sets| {
            sets.into_iter()
                .map(|s| IndexSet::from_iter_dedup(s.into_iter().map(VectorIndex)))
                .collect()
        },
    )
}

fn op_for(choice: usize) -> ReduceOp {
    [
        ReduceOp::Sum,
        ReduceOp::Mean,
        ReduceOp::Max,
        ReduceOp::Min,
        ReduceOp::ArgMax,
        ReduceOp::TopK { k: 3 },
    ][choice]
}

fn strategy_for(rowhash: bool) -> ShardStrategy {
    if rowhash {
        ShardStrategy::RowHash
    } else {
        ShardStrategy::RowRange { universe: UNIVERSE }
    }
}

fn small_config(op: ReduceOp) -> (FafnirConfig, MemoryConfig) {
    let mut mem = MemoryConfig::with_total_ranks(8);
    mem.model = MemoryModelKind::Fast;
    let config =
        FafnirConfig { op, ranks_per_leaf: 2, vector_dim: 8, ..FafnirConfig::paper_default() };
    (config, mem)
}

fn build(
    op: ReduceOp,
    plan: ShardPlan,
    policy: RouterPolicy,
) -> (ClusterEngine, FafnirEngine, StripedSource) {
    let (config, mem) = small_config(op);
    let cluster = ClusterEngine::new(config, mem, plan, policy).expect("valid config");
    let single = FafnirEngine::new(config, mem).expect("valid config");
    let source = StripedSource::new(mem.topology, 8);
    (cluster, single, source)
}

fn bits(value: &[f32]) -> Vec<u32> {
    value.iter().map(|x| x.to_bits()).collect()
}

/// The number of distinct home shards a query's indices land on (no
/// replication): 1 means the cluster must be bit-equal to the single tree.
fn shards_touched(plan: &ShardPlan, indices: &IndexSet) -> usize {
    let mut shards: Vec<usize> = indices.iter().map(|i| plan.home_shard(i)).collect();
    shards.sort_unstable();
    shards.dedup();
    shards.len()
}

/// An operator without its finalize step: a one-tree engine built with it
/// outputs every query's unfinalized root accumulator.
#[derive(Debug)]
struct Unfinalized(Arc<dyn ReduceOperator>);

impl ReduceOperator for Unfinalized {
    fn name(&self) -> String {
        self.0.name()
    }

    fn acc_dim(&self, dim: usize) -> usize {
        self.0.acc_dim(dim)
    }

    fn lift(&self, index: VectorIndex, value: &[f32]) -> Vec<f32> {
        self.0.lift(index, value)
    }

    fn combine_into(&self, acc: &mut [f32], other: &[f32]) {
        self.0.combine_into(acc, other);
    }
}

/// Independent tree-order oracle: every routed sub-query runs alone on a
/// one-tree engine that outputs its root accumulator; a query's partials
/// combine in ascending shard order and finalize once.
fn tree_order_reference(
    batch: &Batch,
    plan: &ShardPlan,
    policy: RouterPolicy,
    op: ReduceOp,
    source: &StripedSource,
) -> Vec<(QueryId, Vec<f32>)> {
    let (config, mem) = small_config(op);
    let operator = op.operator();
    let tree = FafnirEngine::new(config, mem)
        .expect("valid config")
        .with_operator(Arc::new(Unfinalized(Arc::clone(&operator))));
    let routed = route(batch, plan, policy);
    batch
        .queries()
        .iter()
        .enumerate()
        .filter_map(|(position, query)| {
            let mut acc: Option<Vec<f32>> = None;
            for &shard in &routed.touched[position] {
                let sub = routed.per_shard[shard]
                    .iter()
                    .find(|sq| sq.position == position)
                    .expect("touched shards hold a sub-query");
                let alone = Batch::from_index_sets([sub.indices.clone()]);
                let mut result = GatherEngine::lookup(&tree, &alone, source).expect("tree lookup");
                let (_, partial) = result.outputs.pop().expect("one output per sub-query");
                match &mut acc {
                    None => acc = Some(partial),
                    Some(acc) => operator.combine_into(acc, &partial),
                }
            }
            acc.map(|acc| (query.id, operator.finalize(&acc)))
        })
        .collect()
}

#[test]
fn split_queries_group_each_shard_in_its_tree_order() {
    // Shard 0 owns rows 0..48 and shard 1 the rest. Rows r, r + 8 and
    // r + 16 share rank r, so shard 0's tree pre-reduces them on one side
    // before it combines sides, which rounds apart from a fold in index
    // order.
    let plan = ShardPlan::new(2, ShardStrategy::RowRange { universe: UNIVERSE });
    let batch = Batch::from_index_sets([
        indexset![0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 50],
        indexset![4, 5, 12, 13, 20, 21, 28, 29, 60, 61],
    ]);
    for op in [ReduceOp::Sum, ReduceOp::Mean] {
        let (cluster, _, source) = build(op, plan.clone(), RouterPolicy::RoundRobin);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        let want = tree_order_reference(&batch, &plan, RouterPolicy::RoundRobin, op, &source);
        assert_eq!(ours.outputs.len(), want.len());
        for ((qa, got), (qb, expected)) in ours.outputs.iter().zip(&want) {
            assert_eq!(qa, qb);
            assert_eq!(bits(got), bits(expected), "{qa:?} under {op:?}");
        }
    }
}

proptest! {
    // Few random shapes put co-resident operands in one shard's sub-query,
    // the case where a shard's tree order changes float rounding, so this
    // property runs more cases than the others.
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn every_operator_matches_the_grouped_fold_reference_bitwise(
        batch in batch_strategy(),
        shards in 1usize..9,
        rowhash in any::<bool>(),
        op_choice in 0usize..6,
        least_loaded in any::<bool>(),
        replicated_prefix in 0u32..16,
    ) {
        let op = op_for(op_choice);
        let policy = if least_loaded { RouterPolicy::LeastLoaded } else { RouterPolicy::RoundRobin };
        let plan = ShardPlan::new(shards, strategy_for(rowhash))
            .with_replicated((0..replicated_prefix).map(VectorIndex));
        let (cluster, _, source) = build(op, plan.clone(), policy);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        let want = tree_order_reference(&batch, &plan, policy, op, &source);
        prop_assert_eq!(ours.outputs.len(), want.len());
        for ((qa, got), (qb, expected)) in ours.outputs.iter().zip(&want) {
            prop_assert_eq!(qa, qb);
            prop_assert_eq!(
                bits(got), bits(expected),
                "query {:?} must match the tree-order oracle under {:?}", qa, op
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn single_shard_queries_match_the_single_tree_bitwise(
        batch in batch_strategy(),
        shards in 1usize..9,
        rowhash in any::<bool>(),
        op_choice in 0usize..6,
    ) {
        let op = op_for(op_choice);
        let plan = ShardPlan::new(shards, strategy_for(rowhash));
        let (cluster, single, source) = build(op, plan.clone(), RouterPolicy::RoundRobin);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        let theirs = GatherEngine::lookup(&single, &batch, &source).expect("single lookup");
        prop_assert_eq!(ours.outputs.len(), theirs.outputs.len());
        for (((qa, got), (qb, want)), query) in
            ours.outputs.iter().zip(&theirs.outputs).zip(batch.queries())
        {
            prop_assert_eq!(qa, qb);
            if shards_touched(&plan, &query.indices) == 1 {
                prop_assert_eq!(
                    bits(got), bits(want),
                    "single-shard query {:?} must be bit-equal under {:?}", qa, op
                );
            }
        }
    }

    #[test]
    fn selection_operators_match_the_single_tree_bitwise_everywhere(
        batch in batch_strategy(),
        shards in 1usize..9,
        rowhash in any::<bool>(),
        op_choice in 2usize..6, // max, min, argmax, topk — exactly associative
    ) {
        let op = op_for(op_choice);
        let plan = ShardPlan::new(shards, strategy_for(rowhash));
        let (cluster, single, source) = build(op, plan, RouterPolicy::RoundRobin);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        let theirs = GatherEngine::lookup(&single, &batch, &source).expect("single lookup");
        prop_assert_eq!(ours.outputs.len(), theirs.outputs.len());
        for ((qa, got), (qb, want)) in ours.outputs.iter().zip(&theirs.outputs) {
            prop_assert_eq!(qa, qb);
            prop_assert_eq!(bits(got), bits(want), "{:?} under {:?}", qa, op);
        }
    }

    #[test]
    fn sum_stays_within_engine_tolerance_of_the_flat_reference(
        batch in batch_strategy(),
        shards in 2usize..9,
        rowhash in any::<bool>(),
        mean in any::<bool>(),
    ) {
        // Mean catches a shard that finalizes its own partial: it would
        // divide per shard and sum the count lane as a value.
        let op = if mean { ReduceOp::Mean } else { ReduceOp::Sum };
        let plan = ShardPlan::new(shards, strategy_for(rowhash));
        let (cluster, _, source) = build(op, plan, RouterPolicy::RoundRobin);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        let reference = fafnir_core::engine::reference_lookup(&batch, &source, op);
        prop_assert_eq!(ours.outputs.len(), reference.len());
        for ((qa, got), (qb, want)) in ours.outputs.iter().zip(&reference) {
            prop_assert_eq!(qa, qb);
            for (x, y) in got.iter().zip(want) {
                let tolerance = 1e-4_f32.max(y.abs() * 1e-5);
                prop_assert!((x - y).abs() <= tolerance, "{:?}: {} vs {}", qa, x, y);
            }
        }
    }

    #[test]
    fn cluster_traffic_counts_unique_indices_per_shard(
        batch in batch_strategy(),
        shards in 1usize..9,
    ) {
        // Per-shard dedup: each shard reads exactly its owned unique
        // indices once, so the cluster-wide read count equals the number
        // of (shard, unique index) pairs — with no replication that is
        // exactly the batch's unique indices.
        let plan = ShardPlan::new(shards, ShardStrategy::RowRange { universe: UNIVERSE });
        let (cluster, _, source) = build(ReduceOp::Sum, plan, RouterPolicy::RoundRobin);
        let ours = LookupService::lookup(&cluster, &batch, &source).expect("cluster lookup");
        prop_assert_eq!(ours.traffic.vectors_read, batch.unique_indices().len() as u64);
    }
}
