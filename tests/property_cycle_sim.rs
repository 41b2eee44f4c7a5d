//! Cross-validation of the two tree timing models: for arbitrary batches,
//! the cycle-stepped simulator (finite FIFOs, backpressure) must complete
//! exactly the event model's queries with the same root headers, never
//! stall at Table I sizing, and stay within a bounded factor on completion
//! time.

use proptest::prelude::*;

use fafnir_core::cycle_sim::CycleTree;
use fafnir_core::inject::{build_rank_inputs, GatheredVector};
use fafnir_core::{
    Batch, FafnirConfig, IndexSet, Item, PeTiming, QueryId, RankInputs, ReductionTree, VectorIndex,
};

fn batch_strategy() -> impl Strategy<Value = Batch> {
    proptest::collection::vec(proptest::collection::vec(0u32..48, 1..8), 1..10).prop_map(|sets| {
        sets.into_iter()
            .map(|s| IndexSet::from_iter_dedup(s.into_iter().map(VectorIndex)))
            .collect()
    })
}

/// The completed queries among root items, with the indices each one
/// reduced, sorted by query.
fn completed(items: &[Item]) -> Vec<(QueryId, IndexSet)> {
    let mut done: Vec<(QueryId, IndexSet)> = items
        .iter()
        .flat_map(|item| {
            item.header
                .queries
                .iter()
                .filter(|p| p.is_complete())
                .map(|p| (p.query, item.header.indices.clone()))
        })
        .collect();
    done.sort_by_key(|(query, _)| *query);
    done
}

fn inputs_for(batch: &Batch, ranks: usize) -> RankInputs {
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % ranks,
            value: vec![index.value() as f32; 4].into(),
            ready_ns: 40.0 + 3.0 * f64::from(index.value()),
        })
        .collect();
    build_rank_inputs(batch, &gathered, ranks, 2, &PeTiming::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cycle_and_event_models_agree_functionally(batch in batch_strategy()) {
        let config = FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() };
        let tree = ReductionTree::new(config, 8).unwrap();
        let event = tree.run(inputs_for(&batch, 8));
        // Table I sizing: capacity = batch capacity (32 here ≥ any window).
        let cycle = CycleTree::new(&tree, 32)
            .expect("non-zero capacity")
            .run(inputs_for(&batch, 8))
            .expect("Table I sizing never deadlocks");
        prop_assert_eq!(cycle.stall_cycles, 0);

        // Same PE logic: the same queries complete, on the same headers.
        let event_done = completed(&event.outputs);
        prop_assert_eq!(event_done.len(), batch.len());
        prop_assert_eq!(event_done, completed(&cycle.outputs));

        // Timing models agree within a bounded factor.
        if event.stats.completion_ns > 0.0 && cycle.completion_ns > 0.0 {
            let ratio = cycle.completion_ns / event.stats.completion_ns;
            prop_assert!((0.3..4.0).contains(&ratio), "completion ratio {}", ratio);
        }
    }

    #[test]
    fn occupancy_stays_within_table1_bound(batch in batch_strategy()) {
        let config = FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() };
        let tree = ReductionTree::new(config, 8).unwrap();
        let cycle =
            CycleTree::new(&tree, 32).expect("non-zero capacity").run(inputs_for(&batch, 8)).unwrap();
        // A PE's two FIFOs never hold more than the batch plus its shared
        // items (the Table I argument, observed dynamically).
        let bound = batch.len() + batch.unique_indices().len();
        prop_assert!(
            cycle.max_occupancy <= bound,
            "{} > {bound}",
            cycle.max_occupancy
        );
    }
}
