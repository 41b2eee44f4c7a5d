//! Host-side batch preprocessing: unique-index extraction.
//!
//! FAFNIR's redundancy elimination (Sec. IV-C) happens *before* memory is
//! touched: the host rearranges a batch of queries into a set of unique
//! indices and reads each unique index once; the injector
//! ([`crate::inject`]) attaches to each read a header listing every query
//! that needs it. The tree then reuses the value as many times as required
//! — no caches.

use crate::index::{IndexSet, QueryId, VectorIndex};

/// One embedding-lookup query: a set of indices to gather and reduce.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Batch-local identifier.
    pub id: QueryId,
    /// Indices whose vectors are reduced into this query's output.
    pub indices: IndexSet,
}

impl Query {
    /// A query over the given indices.
    #[must_use]
    pub fn new(id: QueryId, indices: IndexSet) -> Self {
        Self { id, indices }
    }
}

/// A batch of queries processed concurrently by the tree.
///
/// # Examples
///
/// The paper's Fig. 1 batch: two queries sharing vector 5, so only six of
/// the seven references reach DRAM.
///
/// ```
/// use fafnir_core::{indexset, Batch};
///
/// let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
/// assert_eq!(batch.total_references(), 7);
/// assert_eq!(batch.unique_indices().len(), 6);
/// assert!(batch.access_savings() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Batch {
    queries: Vec<Query>,
}

impl Batch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a batch from index sets, assigning sequential query ids.
    #[must_use]
    pub fn from_index_sets<I: IntoIterator<Item = IndexSet>>(sets: I) -> Self {
        let queries = sets
            .into_iter()
            .enumerate()
            .map(|(pos, indices)| Query::new(QueryId(pos as u32), indices))
            .collect();
        Self { queries }
    }

    /// Adds a query, assigning the next id. Returns the assigned id.
    pub fn push(&mut self, indices: IndexSet) -> QueryId {
        let id = QueryId(self.queries.len() as u32);
        self.queries.push(Query::new(id, indices));
        id
    }

    /// The queries in id order.
    #[must_use]
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries (the batch size *n*).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the batch holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Largest query size *q* in the batch.
    #[must_use]
    pub fn max_query_len(&self) -> usize {
        self.queries.iter().map(|query| query.indices.len()).max().unwrap_or(0)
    }

    /// Total index references, counting repeats (`Σ |query|`).
    #[must_use]
    pub fn total_references(&self) -> usize {
        self.queries.iter().map(|query| query.indices.len()).sum()
    }

    /// All distinct indices referenced by the batch.
    #[must_use]
    pub fn unique_indices(&self) -> IndexSet {
        IndexSet::from_iter_dedup(self.queries.iter().flat_map(|query| query.indices.iter()))
    }

    /// Fraction of references that are unique (Fig. 3's metric). 1.0 for an
    /// empty batch.
    #[must_use]
    pub fn unique_fraction(&self) -> f64 {
        let total = self.total_references();
        if total == 0 {
            1.0
        } else {
            self.unique_indices().len() as f64 / total as f64
        }
    }

    /// Memory accesses saved by reading unique indices once (Fig. 15's
    /// metric): `1 − unique/total`.
    #[must_use]
    pub fn access_savings(&self) -> f64 {
        1.0 - self.unique_fraction()
    }

    /// Splits the batch into hardware-sized sub-batches of at most
    /// `capacity` queries each, preserving query ids (Sec. IV-B: "larger
    /// batch sizes defined by software are served as several small batches
    /// at hardware").
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn split(&self, capacity: usize) -> Vec<Batch> {
        assert!(capacity > 0, "batch capacity must be non-zero");
        self.queries.chunks(capacity).map(|chunk| Batch { queries: chunk.to_vec() }).collect()
    }

    /// Host-side arrangement (Sec. IV-B: "the application software at host
    /// arranges the queries"): partitions the batch into hardware batches of
    /// at most `capacity` queries, greedily grouping queries that share
    /// indices so each hardware batch deduplicates as much as possible.
    ///
    /// Compared with [`Batch::split`]'s order-preserving chunking, sharing
    /// stays within hardware batches instead of being cut at chunk
    /// boundaries. Query ids are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn split_for_sharing(&self, capacity: usize) -> Vec<Batch> {
        assert!(capacity > 0, "batch capacity must be non-zero");
        let mut remaining: Vec<&Query> = self.queries.iter().collect();
        let mut groups: Vec<Batch> = Vec::new();
        while !remaining.is_empty() {
            // Seed each group with the longest remaining query.
            let seed_position = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, query)| query.indices.len())
                .map(|(position, _)| position)
                .expect("non-empty");
            let seed = remaining.swap_remove(seed_position);
            let mut group = vec![seed.clone()];
            let mut pool = seed.indices.clone();
            while group.len() < capacity && !remaining.is_empty() {
                // Pick the query sharing the most indices with the pool.
                let (best_position, best_shared) = remaining
                    .iter()
                    .enumerate()
                    .map(|(position, query)| {
                        let shared = query.indices.iter().filter(|&i| pool.contains(i)).count();
                        (position, shared)
                    })
                    .max_by_key(|&(_, shared)| shared)
                    .expect("non-empty");
                let _ = best_shared;
                let picked = remaining.swap_remove(best_position);
                pool = pool.union(&picked.indices);
                group.push(picked.clone());
            }
            groups.push(Batch { queries: group });
        }
        groups
    }

    /// Reference (software) reduction used to validate engine outputs:
    /// every index is fetched through `fetch`, lifted with its index,
    /// folded in query order and finalized. A query without indices has no
    /// output.
    #[must_use]
    pub fn reference_outputs_with<F>(
        &self,
        operator: &dyn crate::reduce::ReduceOperator,
        mut fetch: F,
    ) -> Vec<(QueryId, Option<Vec<f32>>)>
    where
        F: FnMut(VectorIndex) -> Vec<f32>,
    {
        self.queries
            .iter()
            .map(|query| {
                let mut acc: Option<Vec<f32>> = None;
                for index in query.indices.iter() {
                    let lifted = operator.lift(index, &fetch(index));
                    match &mut acc {
                        None => acc = Some(lifted),
                        Some(acc) => operator.combine_into(acc, &lifted),
                    }
                }
                (query.id, acc.map(|acc| operator.finalize(&acc)))
            })
            .collect()
    }
}

impl FromIterator<IndexSet> for Batch {
    fn from_iter<I: IntoIterator<Item = IndexSet>>(iter: I) -> Self {
        Self::from_index_sets(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexset;
    use proptest::prelude::*;

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
    fn unique_extraction_reduces_accesses() {
        let batch = fig6_batch();
        assert_eq!(batch.len(), 4);
        assert!(batch.unique_indices().len() < batch.total_references());
        assert!(batch.access_savings() > 0.0);
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut batch = Batch::new();
        assert!(batch.is_empty());
        let first = batch.push(indexset![1]);
        let second = batch.push(indexset![2, 3]);
        assert_eq!(first, QueryId(0));
        assert_eq!(second, QueryId(1));
        assert_eq!(batch.max_query_len(), 2);
    }

    #[test]
    fn split_preserves_ids_and_sizes() {
        let batch = fig6_batch();
        let parts = batch.split(3);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[1].len(), 1);
        assert_eq!(parts[1].queries()[0].id, QueryId(3));
    }

    #[test]
    fn split_for_sharing_groups_sharers_together() {
        // Queries 0/2/4 share {1,2}; queries 1/3/5 share {10,11}. Naive
        // chunking at capacity 3 mixes the families; sharing-aware
        // partitioning separates them.
        let batch = Batch::from_index_sets([
            indexset![1, 2, 3],
            indexset![10, 11, 12],
            indexset![1, 2, 4],
            indexset![10, 11, 13],
            indexset![1, 2, 5],
            indexset![10, 11, 14],
        ]);
        let naive: usize = batch.split(3).iter().map(|b| b.unique_indices().len()).sum();
        let arranged: usize =
            batch.split_for_sharing(3).iter().map(|b| b.unique_indices().len()).sum();
        assert!(arranged < naive, "arranged {arranged} vs naive {naive}");
        // All queries preserved exactly once.
        let mut ids: Vec<u32> = batch
            .split_for_sharing(3)
            .iter()
            .flat_map(|b| b.queries().iter().map(|q| q.id.0))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn split_for_sharing_respects_capacity() {
        let batch = Batch::from_index_sets((0..10u32).map(|i| indexset![i, i + 1]));
        for group in batch.split_for_sharing(4) {
            assert!(group.len() <= 4 && !group.is_empty());
        }
    }

    #[test]
    fn reference_outputs_reduce_per_query() {
        let batch = Batch::from_index_sets([indexset![1, 2], indexset![2]]);
        let outputs = batch.reference_outputs_with(&crate::reduce::SumOperator, |index| {
            vec![index.value() as f32; 2]
        });
        assert_eq!(outputs[0].1, Some(vec![3.0, 3.0]));
        assert_eq!(outputs[1].1, Some(vec![2.0, 2.0]));
    }

    #[test]
    fn empty_batch_edge_cases() {
        let batch = Batch::new();
        assert_eq!(batch.unique_fraction(), 1.0);
        assert_eq!(batch.access_savings(), 0.0);
        assert_eq!(batch.max_query_len(), 0);
    }

    proptest! {
        #[test]
        fn unique_fraction_bounds(
            sets in proptest::collection::vec(
                proptest::collection::vec(0u32..32, 1..8), 1..16)
        ) {
            let batch: Batch = sets
                .iter()
                .map(|s| IndexSet::from_iter_dedup(s.iter().copied().map(crate::index::VectorIndex)))
                .collect();
            let fraction = batch.unique_fraction();
            prop_assert!(fraction > 0.0 && fraction <= 1.0);
        }
    }
}
