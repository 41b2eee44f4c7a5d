//! Property tests pinning the timing-only lookup: for arbitrary batches,
//! `LookupService::lookup_timing` returns exactly what `lookup` returns
//! with its outputs cleared, field by field, with every time compared by
//! its bits. They cover FAFNIR on both memory models with all six
//! operators and 1, 2 and 4 ranks per leaf, and an 8-shard row-range
//! cluster, whose statistics must not move either.

use proptest::prelude::*;

use fafnir_cluster::{ClusterEngine, RouterPolicy};
use fafnir_core::{
    Batch, FafnirConfig, FafnirEngine, IndexSet, LookupResult, LookupService, ReduceOp, ShardPlan,
    ShardStrategy, StripedSource, VectorIndex,
};
use fafnir_mem::{MemoryConfig, MemoryModelKind};

const UNIVERSE: u32 = 96;

const OPERATORS: [ReduceOp; 6] = [
    ReduceOp::Sum,
    ReduceOp::Mean,
    ReduceOp::Max,
    ReduceOp::Min,
    ReduceOp::ArgMax,
    ReduceOp::TopK { k: 3 },
];

const MODELS: [MemoryModelKind; 2] = [MemoryModelKind::Cycle, MemoryModelKind::Fast];

/// A random batch over a small universe, to provoke sharing and
/// co-resident operands.
fn batch_strategy() -> impl Strategy<Value = Batch> {
    proptest::collection::vec(proptest::collection::vec(0u32..UNIVERSE, 1..10), 1..12).prop_map(
        |sets| {
            sets.into_iter()
                .map(|s| IndexSet::from_iter_dedup(s.into_iter().map(VectorIndex)))
                .collect()
        },
    )
}

fn memory(model: MemoryModelKind) -> MemoryConfig {
    MemoryConfig { model, ..MemoryConfig::with_total_ranks(8) }
}

/// Every time a result holds, as bits.
fn time_bits(result: &LookupResult) -> Vec<u64> {
    let latency = &result.latency;
    result
        .per_query_ns
        .iter()
        .map(|&(_, ns)| ns)
        .chain([
            latency.total_ns,
            latency.memory_ns,
            latency.compute_tail_ns,
            latency.compute_busy_ns,
            latency.host_link_ns,
            result.tree.completion_ns,
        ])
        .map(f64::to_bits)
        .collect()
}

/// `timing` must be `full` with its outputs cleared. The destructuring
/// names every field, so a field added to `LookupResult` must be added here.
fn check_timing_only(timing: &LookupResult, full: &LookupResult) -> Result<(), TestCaseError> {
    let LookupResult {
        outputs,
        per_query_ns,
        latency: _,
        memory,
        tree,
        traffic,
        ndp_elem_ops,
        core_elem_ops,
    } = timing;
    prop_assert!(outputs.is_empty(), "a timing-only lookup returned outputs");
    prop_assert_eq!(full.outputs.len(), per_query_ns.len());
    prop_assert_eq!(time_bits(timing), time_bits(full));
    let ids = |times: &[(fafnir_core::QueryId, f64)]| times.iter().map(|&(id, _)| id).collect();
    let (timing_ids, full_ids): (Vec<_>, Vec<_>) = (ids(per_query_ns), ids(&full.per_query_ns));
    prop_assert_eq!(timing_ids, full_ids);
    prop_assert_eq!(memory, &full.memory);
    prop_assert_eq!(tree, &full.tree);
    prop_assert_eq!(traffic, &full.traffic);
    prop_assert_eq!(ndp_elem_ops, &full.ndp_elem_ops);
    prop_assert_eq!(core_elem_ops, &full.core_elem_ops);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fafnir_timing_only_lookup_is_lookup_without_outputs(
        batch in batch_strategy(),
        batch_capacity in prop_oneof![Just(4usize), Just(32)],
    ) {
        let source = StripedSource::new(memory(MemoryModelKind::Fast).topology, 8);
        for model in MODELS {
            for ranks_per_leaf in [1, 2, 4] {
                for op in OPERATORS {
                    let config = FafnirConfig {
                        op,
                        ranks_per_leaf,
                        vector_dim: 8,
                        batch_capacity,
                        ..FafnirConfig::paper_default()
                    };
                    let engine = FafnirEngine::new(config, memory(model)).expect("valid config");
                    let full = engine.lookup(&batch, &source).expect("lookup");
                    let timing = LookupService::lookup_timing(&engine, &batch, &source)
                        .expect("timing-only lookup");
                    check_timing_only(&timing, &full)?;
                }
            }
        }
    }

    #[test]
    fn cluster_timing_only_lookup_is_lookup_without_outputs(batch in batch_strategy()) {
        let source = StripedSource::new(memory(MemoryModelKind::Fast).topology, 8);
        for model in MODELS {
            for op in OPERATORS {
                let config = FafnirConfig { op, vector_dim: 8, ..FafnirConfig::paper_default() };
                let build = || {
                    let plan = ShardPlan::new(8, ShardStrategy::RowRange { universe: UNIVERSE });
                    ClusterEngine::new(config, memory(model), plan, RouterPolicy::RoundRobin)
                        .expect("valid config")
                };
                let (full_cluster, timing_cluster) = (build(), build());
                let full = full_cluster.lookup(&batch, &source).expect("cluster lookup");
                let timing =
                    timing_cluster.lookup_timing(&batch, &source).expect("timing-only lookup");
                check_timing_only(&timing, &full)?;
                prop_assert_eq!(timing_cluster.stats(), full_cluster.stats());
            }
        }
    }
}
