//! Construction of the leaf-PE input streams from a preprocessed batch.
//!
//! The tree's PEs only ever reduce items arriving on *opposite* inputs, so
//! the dataflow invariant is: **at every PE, each query owns at most one
//! item per input side**. For indices of one query that happen to live on
//! the same leaf input (co-resident operands), the reduction cannot happen
//! across PE inputs; it happens *serially as the rank streams the values
//! out* — the leaf PE folds them one by one, paying one reduce latency per
//! extra operand. This module performs that grouping and produces, for
//! every rank, the item list entering the tree:
//!
//! * one **shared item** per unique index, carrying entries for all queries
//!   whose only local operand it is (this is the cache-free reuse mechanism
//!   of Sec. IV-C), and
//! * one **pre-reduced item** per (query, leaf-input) group of two or more
//!   co-resident operands.

use crate::batch::Batch;
use crate::index::VectorIndex;
use crate::item::{index_hash, Arena, Entry, Node, RankInputs};
use crate::pipeline::ReadCompletion;
use crate::reduce::ReduceOperator;
use crate::timing::PeTiming;

/// What the timing models read of one gathered read: its index, the rank
/// whose port received it, and when its data arrived. The injector and the
/// walk in [`crate::fastpath`] take any such read, so a timing-only reduce
/// runs on the gather stage's [`ReadCompletion`]s and never fetches a value.
pub trait GatheredRead {
    /// The index the read served.
    fn index(&self) -> VectorIndex;
    /// Global rank that received the data.
    fn rank(&self) -> usize;
    /// Nanosecond timestamp of the read's completion.
    fn ready_ns(&self) -> f64;
}

/// A gathered read with its value.
#[derive(Debug, Clone, PartialEq)]
pub struct GatheredVector {
    /// The vector's index.
    pub index: VectorIndex,
    /// Global rank the vector was read from.
    pub rank: usize,
    /// The vector's value, shared with the embedding source's store (read
    /// by the walk in [`crate::fastpath`] when it computes outputs; the
    /// tree models ignore it).
    pub value: std::sync::Arc<[f32]>,
    /// Nanosecond timestamp of the read's completion.
    pub ready_ns: f64,
}

impl GatheredRead for GatheredVector {
    fn index(&self) -> VectorIndex {
        self.index
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn ready_ns(&self) -> f64 {
        self.ready_ns
    }
}

impl GatheredRead for ReadCompletion {
    fn index(&self) -> VectorIndex {
        self.index
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn ready_ns(&self) -> f64 {
        self.ready_ns
    }
}

/// Builds the per-rank leaf input lists for `tree_ranks` ranks.
///
/// `ranks_per_leaf` must match the tree the items will be fed into: it
/// determines which ranks share a leaf-PE input side and therefore which
/// co-resident operands must pre-reduce serially. Items carry headers and
/// ready times only, in the tree's compact form (see [`crate::item`]), so
/// the reads need no values. Each rank lists its pre-reduced items first
/// (by query, then side), then its shared items by ascending index, each
/// with its queries in batch order.
///
/// # Panics
///
/// Panics if any gathered read that a query references names a rank
/// `≥ tree_ranks`.
#[must_use]
pub fn build_rank_inputs<R: GatheredRead>(
    batch: &Batch,
    gathered: &[R],
    tree_ranks: usize,
    ranks_per_leaf: usize,
    timing: &PeTiming,
) -> RankInputs {
    let span = (ranks_per_leaf / 2).max(1);
    let mut arena = Arena::new(batch.max_query_len());
    for query in batch.queries() {
        arena.push_query(query.id, query.indices.as_slice());
    }
    // Gathered vectors by index; the first occurrence wins, matching a
    // front-to-back scan of `gathered`.
    let mut by_index: Vec<(VectorIndex, usize)> =
        gathered.iter().enumerate().map(|(position, g)| (g.index(), position)).collect();
    by_index.sort_unstable();
    by_index.dedup_by_key(|&mut (index, _)| index);
    let lookup = |index: VectorIndex| -> Option<&R> {
        let found = by_index.binary_search_by_key(&index, |&(index, _)| index).ok();
        found.map(|at| &gathered[by_index[at].1])
    };

    // Every (index, query slot, bit) reference, numbered query by query:
    // reference `offsets[slot] + bit`.
    let mut references: Vec<(VectorIndex, u32, usize)> =
        Vec::with_capacity(batch.total_references());
    let mut offsets = Vec::with_capacity(batch.len());
    for (slot, query) in batch.queries().iter().enumerate() {
        offsets.push(references.len());
        references.extend(query.indices.iter().enumerate().map(|(bit, i)| (i, slot as u32, bit)));
    }

    // Pre-reduced items: a query's operands on one leaf-input side (side id
    // = rank / span), two or more of them, fold serially into one item. The
    // references they cover leave the shared items.
    let mut inputs: Vec<Vec<Node>> = vec![Vec::new(); tree_ranks];
    let mut covered = vec![false; references.len()];
    let mut operands: Vec<(usize, usize, &R)> = Vec::new();
    for (slot, query) in batch.queries().iter().enumerate() {
        operands.clear();
        for (bit, index) in query.indices.iter().enumerate() {
            if let Some(vector) = lookup(index) {
                assert!(vector.rank() < tree_ranks, "rank {} out of range", vector.rank());
                operands.push((vector.rank() / span, bit, vector));
            }
        }
        operands.sort_unstable_by_key(|&(side, bit, _)| (side, bit));
        for group in operands.chunk_by(|x, y| x.0 == y.0).filter(|group| group.len() >= 2) {
            let mask = arena.new_mask();
            let mut fingerprint = 0u64;
            for &(_, bit, vector) in group {
                arena.set_bit(mask, bit);
                covered[offsets[slot] + bit] = true;
                fingerprint = fingerprint.wrapping_add(index_hash(vector.index()));
            }
            // Serial streaming reduction: each extra operand costs one
            // reduce-path traversal after both operands are available.
            let ready = group[1..].iter().fold(group[0].2.ready_ns(), |ready, &(_, _, vector)| {
                ready.max(vector.ready_ns()) + timing.reduce_latency_ns()
            });
            let entry = Entry { slot: slot as u32, mask };
            let node = arena.push_node(ready, fingerprint, group.len(), [entry]);
            inputs[group[0].2.rank()].push(node);
        }
    }

    // Shared items: one per unique index, with entries for the queries not
    // covered by a pre-reduced group (Fig. 6b's leaf headers).
    references.sort_unstable();
    let mut entries: Vec<Entry> = Vec::new();
    for uses in references.chunk_by(|x, y| x.0 == y.0) {
        let index = uses[0].0;
        let Some(vector) = lookup(index) else { continue };
        entries.clear();
        for &(_, slot, bit) in uses {
            if !covered[offsets[slot as usize] + bit] {
                let mask = arena.new_mask();
                arena.set_bit(mask, bit);
                entries.push(Entry { slot, mask });
            }
        }
        if !entries.is_empty() {
            let node = arena.push_node(vector.ready_ns(), index_hash(index), 1, entries.drain(..));
            inputs[vector.rank()].push(node);
        }
    }
    RankInputs { arena, ranks: inputs }
}

/// [`build_rank_inputs`] with an operator argument it ignores: items carry
/// no values, so the operator has nothing to do here. The benchmark's
/// ledger replay is its only caller.
#[must_use]
pub fn build_rank_inputs_with(
    batch: &Batch,
    gathered: &[GatheredVector],
    tree_ranks: usize,
    ranks_per_leaf: usize,
    _operator: &dyn ReduceOperator,
    timing: &PeTiming,
) -> RankInputs {
    build_rank_inputs(batch, gathered, tree_ranks, ranks_per_leaf, timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexSet, QueryId};
    use crate::indexset;
    use crate::item::Item;
    use proptest::prelude::*;

    fn gather(indices: &[u32], ranks: usize) -> Vec<GatheredVector> {
        indices
            .iter()
            .map(|&i| GatheredVector {
                index: VectorIndex(i),
                rank: i as usize % ranks,
                value: vec![i as f32; 4].into(),
                ready_ns: 10.0 * f64::from(i),
            })
            .collect()
    }

    /// The injector's items per rank, as headers.
    fn items(
        batch: &Batch,
        gathered: &[GatheredVector],
        ranks: usize,
        ranks_per_leaf: usize,
    ) -> Vec<Vec<Item>> {
        build_rank_inputs(batch, gathered, ranks, ranks_per_leaf, &PeTiming::default()).to_items()
    }

    /// The paper's Fig. 6 batch: queries a, b, c, d over eight tables.
    fn fig6_batch() -> Batch {
        Batch::from_index_sets([
            indexset![11, 44, 32, 83, 77], // a
            indexset![50, 83, 94],         // b
            indexset![11, 50, 44, 94, 26], // c (per Fig. 6b header text)
            indexset![4, 15, 77],          // d
        ])
    }

    #[test]
    fn leaf_header_of_index_11_matches_fig6b() {
        // Every index on its own rank: no operands are co-resident, so each
        // index is one shared item (Fig. 6b's leaf headers).
        let batch = fig6_batch();
        let indices: Vec<u32> = batch.unique_indices().iter().map(VectorIndex::value).collect();
        let gathered: Vec<GatheredVector> = indices
            .iter()
            .enumerate()
            .map(|(rank, &i)| GatheredVector { rank, ..gather(&[i], 1)[0].clone() })
            .collect();
        let inputs = items(&batch, &gathered, 16, 2);
        let item = inputs.iter().flatten().find(|item| item.header.indices == indexset![11]);
        let header = &item.expect("index 11 present").header;
        // Index 11 appears in queries a (id 0) and c (id 2); remaining sets
        // exclude 11 itself (Fig. 6b).
        assert_eq!(header.queries.len(), 2);
        assert_eq!(header.queries[0].query, QueryId(0));
        assert_eq!(header.queries[0].remaining, indexset![44, 32, 83, 77]);
        assert_eq!(header.queries[1].query, QueryId(2));
        assert_eq!(header.queries[1].remaining, indexset![50, 44, 94, 26]);
    }

    #[test]
    fn disjoint_ranks_produce_one_shared_item_per_index() {
        let batch = Batch::from_index_sets([indexset![0, 1], indexset![1, 2]]);
        let inputs = items(&batch, &gather(&[0, 1, 2], 8), 8, 2);
        let total: usize = inputs.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        // Index 1 carries both query entries.
        let shared = &inputs[1][0];
        assert_eq!(shared.header.queries.len(), 2);
    }

    #[test]
    fn co_resident_operands_pre_reduce_serially() {
        // Query {0, 8} on 8 ranks: both on rank 0 → one pre-reduced item.
        let batch = Batch::from_index_sets([indexset![0, 8]]);
        let timing = PeTiming::default();
        let inputs = items(&batch, &gather(&[0, 8], 8), 8, 2);
        assert_eq!(inputs[0].len(), 1);
        let item = &inputs[0][0];
        assert_eq!(item.header.indices, indexset![0, 8]);
        assert!(item.header.queries[0].is_complete());
        // Serial fold: available only after the later read plus one reduce.
        assert!((item.ready_ns - (80.0 + timing.reduce_latency_ns())).abs() < 1e-9);
    }

    #[test]
    fn shared_and_pre_reduced_items_coexist_for_one_index() {
        // Query a = {0, 8} (co-resident on rank 0); query b = {0, 1}.
        // Index 0 feeds a pre-reduced item for a and a shared item for b.
        let batch = Batch::from_index_sets([indexset![0, 8], indexset![0, 1]]);
        let inputs = items(&batch, &gather(&[0, 1, 8], 8), 8, 2);
        assert_eq!(inputs[0].len(), 2);
        let pre = inputs[0].iter().find(|i| i.header.indices.len() == 2).unwrap();
        let shared = inputs[0].iter().find(|i| i.header.indices.len() == 1).unwrap();
        assert_eq!(pre.header.queries[0].query, QueryId(0));
        assert_eq!(shared.header.queries[0].query, QueryId(1));
    }

    #[test]
    fn sides_of_wide_leaves_group_across_ranks() {
        // With 1PE:4R, ranks 0 and 1 share input side A: a query with one
        // operand on each must pre-reduce.
        let batch = Batch::from_index_sets([indexset![0, 1]]);
        let inputs = items(&batch, &gather(&[0, 1], 8), 8, 4);
        let items: Vec<&Item> = inputs.iter().flatten().collect();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].header.indices, indexset![0, 1]);
    }

    #[test]
    fn missing_gathered_vectors_are_skipped() {
        let batch = Batch::from_index_sets([indexset![0, 5]]);
        // Index 5 is never gathered.
        let inputs = items(&batch, &gather(&[0], 8), 8, 2);
        let total: usize = inputs.iter().map(Vec::len).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn every_query_has_at_most_one_item_per_side() {
        // Adversarial batch with heavy co-location on 4 ranks.
        let sets: Vec<_> = (0..12u32).map(|i| indexset![i, i + 4, i + 8, (i * 7) % 16]).collect();
        let batch = Batch::from_index_sets(sets);
        let all: Vec<u32> = batch.unique_indices().iter().map(|v| v.value()).collect();
        for (rank, items) in items(&batch, &gather(&all, 4), 4, 2).iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for item in items {
                for pending in &item.header.queries {
                    assert!(
                        seen.insert(pending.query),
                        "rank {rank} has two items for {}",
                        pending.query
                    );
                }
            }
        }
    }

    #[test]
    fn long_queries_span_several_mask_words() {
        // A 130-index query needs three 64-bit mask words; its two halves
        // sit on different leaf sides and meet at the root.
        let batch = Batch::from_index_sets([IndexSet::from_iter_dedup((0..130).map(VectorIndex))]);
        let all: Vec<u32> = (0..130).collect();
        let inputs = items(&batch, &gather(&all, 4), 4, 2);
        let reduced: Vec<IndexSet> =
            inputs.iter().flatten().map(|item| item.header.indices.clone()).collect();
        assert_eq!(reduced.len(), 4);
        assert_eq!(reduced.iter().map(IndexSet::len).sum::<usize>(), 130);
    }

    proptest! {
        #[test]
        fn every_reference_is_covered_exactly_once(
            sets in proptest::collection::vec(
                proptest::collection::vec(0u32..24, 1..6), 1..8),
            ranks_per_leaf in prop_oneof![Just(1usize), Just(2), Just(4)],
        ) {
            let batch: Batch = sets
                .iter()
                .map(|s| IndexSet::from_iter_dedup(s.iter().copied().map(VectorIndex)))
                .collect();
            let all: Vec<u32> = batch.unique_indices().iter().map(|v| v.value()).collect();
            let inputs = items(&batch, &gather(&all, 8), 8, ranks_per_leaf);
            // Each (query, index) reference lies in exactly one item's
            // reduced set among the items carrying an entry for the query:
            // one shared entry or one pre-reduced group. Every entry's
            // reduced and remaining indices partition its query.
            for query in batch.queries() {
                let entries: Vec<(&Item, &crate::item::PendingQuery)> = inputs
                    .iter()
                    .flatten()
                    .flat_map(|item| {
                        item.header.queries.iter().filter(|p| p.query == query.id).map(move |p| (item, p))
                    })
                    .collect();
                for index in query.indices.iter() {
                    let holders =
                        entries.iter().filter(|(item, _)| item.header.indices.contains(index)).count();
                    prop_assert_eq!(holders, 1, "{} in {}", index, query.id);
                }
                for (item, pending) in &entries {
                    prop_assert!(pending.remaining.is_disjoint_from(&item.header.indices));
                    prop_assert_eq!(&item.header.indices.union(&pending.remaining), &query.indices);
                }
            }
        }
    }
}
