//! The reduction tree's analytic walk: every query's time, and its value
//! when asked for.
//!
//! The PE chooses reduce or forward from the header alone (Sec. IV-B),
//! so the values never steer routing or timing. One walk over a
//! query's occupied sides therefore prices the query from its reads'
//! indices, ranks and ready times, and carries the values as an optional
//! payload: [`fast_reduce`] folds each query's gathered vectors in the
//! tree's combine order and finalizes them, and the timing-only walk
//! behind [`crate::GatherEngine::lookup_timing`] on fast memory fetches
//! and folds no value at all (on cycle memory the tree times the queries,
//! so a timing-only lookup runs no walk). The tree models ([`crate::tree::ReductionTree`],
//! [`crate::cycle_sim::CycleTree`]) carry headers and ready times only. The
//! walk reproduces the tree's combine order exactly because of three
//! structural facts:
//!
//! 1. **One item per query per side.** The injector pre-reduces co-resident
//!    operands, so each query enters the tree with at most one item per
//!    *side* (a side is the group of ranks feeding one leaf-PE input; see
//!    [`crate::inject`]). From there, reductions happen exactly at the
//!    lowest common ancestors: wherever both subtrees hold an item for the
//!    query, the A-side item absorbs the B-side item
//!    (`acc = a; combine_into(acc, b)`).
//! 2. **Sorted index sets.** [`crate::index::IndexSet`] iterates in sorted
//!    order, so two items carrying the same indices set always hold
//!    bit-identical accumulators — which is why the merge unit can serve one
//!    value to every query in a group without changing any query's bit
//!    pattern, and why this per-query walk agrees with it.
//! 3. **Power-of-two leaves.** [`crate::tree::ReductionTree`] enforces a
//!    power-of-two leaf count, so the occupied nodes of one level pair up
//!    by parent (`position / 2`) into the next, the lower one on input A.
//!
//! The walk applies the same per-stage latencies as the tree (reduce or
//! forward plus merge per PE, link transfer per level above the leaves)
//! but skips two cross-query couplings: output-port serialization and the
//! merge unit's ready-time max over duplicate outputs. Both only ever
//! *delay* items, so the walk's per-query times lower-bound the tree's (a
//! property test checks it); the engine uses them under the fast memory
//! model, and the calibration harness records the residual divergence.
//! Op counters (`reduces`, `forwards`, `merges`) are kept exact per
//! firing, but `compares`, raw/merged output counts and buffer occupancy
//! are not modeled (they read as zero).

use crate::batch::Batch;
use crate::index::QueryId;
use crate::inject::{GatheredRead, GatheredVector};
use crate::reduce::ReduceOperator;
use crate::tree::{ReductionTree, TreeStats};

/// Result of one walk: every query's output, plus the analytic timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FastRun {
    /// Finalized per-query outputs, sorted by query id; empty for a
    /// timing-only walk.
    pub outputs: Vec<(QueryId, Vec<f32>)>,
    /// Per-query root-output times (before the root → host link), sorted by
    /// query id.
    pub completion_ns: Vec<(QueryId, f64)>,
    /// Tree statistics (see the module docs for which counters are modeled).
    pub stats: TreeStats,
}

/// Whether the walk matches the tree's combine order for this leaf shape:
/// every leaf-PE input must carry at most one injector side, which holds
/// for `ranks_per_leaf == 1` and every even value. That covers every
/// validated configuration, since [`crate::FafnirConfig::validate`] accepts
/// only powers of two.
#[must_use]
pub fn supports_shape(ranks_per_leaf: usize) -> bool {
    ranks_per_leaf == 1 || ranks_per_leaf.is_multiple_of(2)
}

/// What rides the walk besides each item's ready time: nothing for the
/// timing-only walk (`()`), each item's accumulator for [`Values`].
trait Payload<R> {
    /// One item's payload.
    type Acc;
    /// The payload a read starts.
    fn lift(&self, read: &R) -> Self::Acc;
    /// `acc` absorbs `other`: a co-resident operand's pre-reduce, or a
    /// PE's A input absorbing its B input.
    fn absorb(&self, acc: &mut Self::Acc, other: &Self::Acc);
    /// A query's output from its root payload, if the payload has one.
    fn finish(&self, acc: Self::Acc) -> Option<Vec<f32>>;
}

impl<R> Payload<R> for () {
    type Acc = ();

    fn lift(&self, _: &R) {}

    fn absorb(&self, (): &mut (), (): &()) {}

    fn finish(&self, (): ()) -> Option<Vec<f32>> {
        None
    }
}

/// The operator's accumulators: every gathered value is lifted into one.
struct Values<'o>(&'o dyn ReduceOperator);

impl Payload<GatheredVector> for Values<'_> {
    type Acc = Vec<f32>;

    fn lift(&self, read: &GatheredVector) -> Vec<f32> {
        self.0.lift(read.index, &read.value)
    }

    fn absorb(&self, acc: &mut Vec<f32>, other: &Vec<f32>) {
        self.0.combine_into(acc, other);
    }

    fn finish(&self, acc: Vec<f32>) -> Option<Vec<f32>> {
        Some(self.0.finalize(&acc))
    }
}

/// Walks one hardware batch with its values: every query's finalized
/// output, and its analytic completion time.
///
/// `gathered` holds one entry per planned DRAM read with memory completion
/// times, exactly as handed to [`crate::inject::build_rank_inputs`] for the
/// tree models. Queries referencing an index with no gathered vector are
/// dropped and counted in [`TreeStats::incomplete_outputs`], mirroring the
/// tree's behaviour for missing leaf inputs.
#[must_use]
pub fn fast_reduce(
    batch: &Batch,
    gathered: &[GatheredVector],
    tree: &ReductionTree,
    operator: &dyn ReduceOperator,
) -> FastRun {
    walk(batch, gathered, tree, &Values(operator))
}

/// Walks one hardware batch for its timing alone: [`fast_reduce`]'s
/// completion times and statistics from the reads' indices, ranks and
/// ready times, with `outputs` empty.
pub(crate) fn fast_timing<R: GatheredRead>(
    batch: &Batch,
    reads: &[R],
    tree: &ReductionTree,
) -> FastRun {
    walk(batch, reads, tree, &())
}

/// The walk. Each query's operands land on their sides in sorted index
/// order; co-resident ones pre-reduce serially, one reduce latency per
/// extra operand (the injector's recipe). Then the occupied nodes climb the
/// tree a level at a time: above the leaves each crosses a link, and two
/// nodes with one parent reduce (A absorbs B) while a lone one forwards.
fn walk<R: GatheredRead, P: Payload<R>>(
    batch: &Batch,
    reads: &[R],
    tree: &ReductionTree,
    payload: &P,
) -> FastRun {
    let config = tree.config();
    let span = (config.ranks_per_leaf / 2).max(1);
    let sides_per_leaf = if config.ranks_per_leaf >= 2 { 2 } else { 1 };
    let timing = &config.pe_timing;
    let reduce_ns = timing.reduce_latency_ns();
    let forward_ns = timing.forward_latency_ns();
    let merge_ns = timing.merge_cycles as f64 * timing.cycle_ns();
    let link_ns = config.link_transfer_ns();

    // First-occurrence-wins over duplicate gathered indices, as in the
    // injector: the stable sort keeps earlier duplicates first, dedup keeps
    // them. A sorted slice beats a hash map here — lookups are the hottest
    // operation in the walk and the batch is built once.
    let mut by_index: Vec<&R> = reads.iter().collect();
    by_index.sort_by_key(|read| read.index());
    by_index.dedup_by_key(|read| read.index());

    let mut stats =
        TreeStats { levels: tree.levels(), pes: tree.pe_count(), ..TreeStats::default() };
    let mut outputs: Vec<(QueryId, Vec<f32>)> = Vec::new();
    let mut completion_ns: Vec<(QueryId, f64)> = Vec::with_capacity(batch.len());
    // A query's occupied (position, ready time, payload) nodes at the
    // current level, sorted by position, and the level above.
    let mut nodes: Vec<(usize, f64, P::Acc)> = Vec::new();
    let mut above: Vec<(usize, f64, P::Acc)> = Vec::new();

    'queries: for query in batch.queries() {
        nodes.clear();
        for index in query.indices.iter() {
            let Ok(found) = by_index.binary_search_by_key(&index, |read| read.index()) else {
                // The tree would emit a root item with an incomplete pending
                // entry; the query yields no output either way.
                stats.incomplete_outputs += 1;
                continue 'queries;
            };
            let read = by_index[found];
            nodes.push((read.rank() / span, read.ready_ns(), payload.lift(read)));
        }
        // The stable sort keeps each side's operands in index order.
        nodes.sort_by_key(|&(side, _, _)| side);
        let mut operands = nodes.drain(..).peekable();
        while let Some((side, mut ready, mut acc)) = operands.next() {
            while let Some((_, other_ready, other)) = operands.next_if(|next| next.0 == side) {
                payload.absorb(&mut acc, &other);
                ready = ready.max(other_ready) + reduce_ns;
            }
            above.push((side, ready, acc));
        }
        drop(operands);
        std::mem::swap(&mut nodes, &mut above);

        for level in 0..stats.levels {
            // Leaf PEs take their sides directly; every level above takes
            // its children over a link.
            let fan_in = if level == 0 { sides_per_leaf } else { 2 };
            if level > 0 {
                nodes.iter_mut().for_each(|node| node.1 += link_ns);
            }
            let mut children = nodes.drain(..).peekable();
            while let Some((position, ready, mut acc)) = children.next() {
                let parent = position / fan_in;
                let fired = match children.next_if(|next| next.0 / fan_in == parent) {
                    Some((_, b_ready, b)) => {
                        payload.absorb(&mut acc, &b);
                        // Both compare directions fire the reduce in the
                        // real PE; the merge unit folds them into one output.
                        stats.ops.reduces += 2;
                        stats.ops.merges += 1;
                        ready.max(b_ready) + reduce_ns + merge_ns
                    }
                    None => {
                        stats.ops.forwards += 1;
                        ready + forward_ns + merge_ns
                    }
                };
                above.push((parent, fired, acc));
            }
            drop(children);
            std::mem::swap(&mut nodes, &mut above);
        }

        // The root holds the query's one item; an empty query has none.
        if let Some((_, ready, acc)) = nodes.pop() {
            if let Some(output) = payload.finish(acc) {
                outputs.push((query.id, output));
            }
            stats.completion_ns = stats.completion_ns.max(ready);
            completion_ns.push((query.id, ready));
        }
    }

    outputs.sort_by_key(|&(query, _)| query);
    completion_ns.sort_by_key(|&(query, _)| query);
    FastRun { outputs, completion_ns, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FafnirConfig;
    use crate::index::{IndexSet, VectorIndex};
    use crate::indexset;
    use crate::inject::build_rank_inputs;
    use crate::reduce::ReduceOp;
    use crate::timing::PeTiming;
    use proptest::prelude::*;

    /// Synthetic gather: index `i` lives on rank `i % ranks`, value
    /// `[f(i); dim]`, staggered memory completion times.
    fn gather(batch: &Batch, ranks: usize, dim: usize) -> Vec<GatheredVector> {
        batch
            .unique_indices()
            .iter()
            .map(|index| GatheredVector {
                index,
                rank: index.value() as usize % ranks,
                value: (0..dim).map(|d| (index.value() * 7 + d as u32) as f32 * 0.37).collect(),
                ready_ns: f64::from(index.value() % 13) * 11.0,
            })
            .collect()
    }

    fn tree(op: ReduceOp, ranks: usize, ranks_per_leaf: usize) -> ReductionTree {
        let config =
            FafnirConfig { op, ranks_per_leaf, vector_dim: 8, ..FafnirConfig::paper_default() };
        ReductionTree::new(config, ranks).unwrap()
    }

    /// The walk must answer exactly the queries the event-timed tree
    /// completes from the same gathered reads, and its per-query times must
    /// never exceed the tree's (it skips only delays). The timing-only walk
    /// must time every query as the walk with values does. Output bits are
    /// pinned in `tests/output_bits.rs`.
    fn bounds_the_tree(
        batch: &Batch,
        gathered: &[GatheredVector],
        tree: &ReductionTree,
        operator: &dyn ReduceOperator,
    ) -> Result<(), TestCaseError> {
        let config = tree.config();
        let ranks = tree.leaf_count() * config.ranks_per_leaf;
        let inputs =
            build_rank_inputs(batch, gathered, ranks, config.ranks_per_leaf, &config.pe_timing);
        let run = tree.run(inputs);
        let fast = fast_reduce(batch, gathered, tree, operator);
        let timing = fast_timing(batch, gathered, tree);
        prop_assert_eq!(&timing.completion_ns, &fast.completion_ns);
        prop_assert_eq!(&timing.stats, &fast.stats);
        prop_assert!(timing.outputs.is_empty());

        let answered: Vec<QueryId> = fast.outputs.iter().map(|&(query, _)| query).collect();
        let timed: Vec<QueryId> = fast.completion_ns.iter().map(|&(query, _)| query).collect();
        let tree_times = run.query_completion_ns();
        let completed: Vec<QueryId> = tree_times.iter().map(|&(query, _)| query).collect();
        prop_assert_eq!(&answered, &timed);
        prop_assert_eq!(&timed, &completed, "the walk and the tree completed different sets");
        for (&(query, fast_ns), &(_, tree_ns)) in fast.completion_ns.iter().zip(&tree_times) {
            prop_assert!(
                fast_ns <= tree_ns + 1e-6,
                "query {query}: walk {fast_ns} > tree {tree_ns}"
            );
            prop_assert!(fast_ns > 0.0);
        }
        prop_assert_eq!(fast.stats.incomplete_outputs, 0);
        prop_assert_eq!(fast.stats.levels, run.stats.levels);
        prop_assert_eq!(fast.stats.pes, run.stats.pes);
        Ok(())
    }

    fn check_against_tree(batch: &Batch, op: ReduceOp, ranks: usize, ranks_per_leaf: usize) {
        let tree = tree(op, ranks, ranks_per_leaf);
        bounds_the_tree(batch, &gather(batch, ranks, 8), &tree, &*op.operator())
            .unwrap_or_else(|error| panic!("{op}: {}", error.0));
    }

    fn sharing_batch() -> Batch {
        Batch::from_index_sets([
            indexset![11, 44, 32, 83, 77],
            indexset![50, 83, 94],
            indexset![11, 50, 44, 94, 26],
            indexset![4, 15, 77],
            indexset![5],
            indexset![0, 31, 5],
        ])
    }

    #[test]
    fn bounds_the_tree_for_every_operator() {
        let batch = sharing_batch();
        for op in [
            ReduceOp::Sum,
            ReduceOp::Mean,
            ReduceOp::Max,
            ReduceOp::Min,
            ReduceOp::ArgMax,
            ReduceOp::TopK { k: 2 },
        ] {
            check_against_tree(&batch, op, 32, 2);
        }
    }

    #[test]
    fn bounds_the_tree_for_one_rank_per_leaf() {
        check_against_tree(&sharing_batch(), ReduceOp::Sum, 8, 1);
    }

    #[test]
    fn bounds_the_tree_for_four_ranks_per_leaf() {
        check_against_tree(&sharing_batch(), ReduceOp::Mean, 16, 4);
    }

    #[test]
    fn bounds_the_tree_under_heavy_sharing() {
        // Many queries hammering the same hot indices: exercises the merge
        // unit's ready-time max on the tree side.
        let sets: Vec<_> = (0..16u32).map(|i| indexset![i % 8, (i + 3) % 8, 16 + i % 4]).collect();
        check_against_tree(&Batch::from_index_sets(sets), ReduceOp::Sum, 8, 2);
    }

    proptest! {
        /// The bound on random batches: every index of a 48-row universe
        /// sits on a random rank with a random ready time, and the walk and
        /// the tree take the same gathered reads.
        #[test]
        fn bounds_the_tree_on_random_batches(
            sets in proptest::collection::vec(proptest::collection::vec(0u32..48, 1..9), 1..14),
            placement in proptest::collection::vec((0usize..16, 0u32..600), 48),
            ranks in prop_oneof![Just(8usize), Just(16)],
            ranks_per_leaf in prop_oneof![Just(1usize), Just(2), Just(4)],
        ) {
            let batch: Batch = sets
                .iter()
                .map(|set| IndexSet::from_iter_dedup(set.iter().copied().map(VectorIndex)))
                .collect();
            let gathered: Vec<GatheredVector> = batch
                .unique_indices()
                .iter()
                .map(|index| {
                    let (rank, ready) = placement[index.value() as usize];
                    GatheredVector {
                        index,
                        rank: rank % ranks,
                        value: vec![index.value() as f32; 8].into(),
                        ready_ns: f64::from(ready) * 1.5,
                    }
                })
                .collect();
            let tree = tree(ReduceOp::Sum, ranks, ranks_per_leaf);
            bounds_the_tree(&batch, &gathered, &tree, &*ReduceOp::Sum.operator())?;
        }
    }

    #[test]
    fn every_validated_leaf_shape_is_supported() {
        assert!(!supports_shape(3));
        assert!(!supports_shape(5));
        for ranks_per_leaf in 1..=64 {
            let config = FafnirConfig { ranks_per_leaf, ..FafnirConfig::paper_default() };
            if config.validate().is_ok() {
                assert!(supports_shape(ranks_per_leaf), "1PE:{ranks_per_leaf}R");
            }
        }
    }

    #[test]
    fn missing_vector_counts_the_query_incomplete() {
        let batch = Batch::from_index_sets([indexset![0, 100], indexset![1]]);
        let tree = tree(ReduceOp::Sum, 8, 2);
        let operator = ReduceOp::Sum.operator();
        // Gather only indices 0 and 1: index 100 never arrives.
        let gathered: Vec<GatheredVector> = [0u32, 1]
            .iter()
            .map(|&i| GatheredVector {
                index: VectorIndex(i),
                rank: i as usize,
                value: vec![f32::from(u8::try_from(i).unwrap()); 8].into(),
                ready_ns: 0.0,
            })
            .collect();
        let fast = fast_reduce(&batch, &gathered, &tree, &*operator);
        assert_eq!(fast.stats.incomplete_outputs, 1);
        assert_eq!(fast.outputs.len(), 1);
        assert_eq!(fast.outputs[0].0, QueryId(1));
    }

    #[test]
    fn single_operand_query_pays_one_forward_per_level() {
        // One operand on rank 0 of a 4-rank, 2-per-leaf system: the item
        // forwards through the leaf and the root (2 levels), crossing one
        // link.
        let batch = Batch::from_index_sets([indexset![0]]);
        let tree = tree(ReduceOp::Sum, 4, 2);
        let operator = ReduceOp::Sum.operator();
        let gathered = vec![GatheredVector {
            index: VectorIndex(0),
            rank: 0,
            value: vec![1.0; 8].into(),
            ready_ns: 100.0,
        }];
        let fast = fast_reduce(&batch, &gathered, &tree, &*operator);
        let timing = PeTiming::default();
        let config = tree.config();
        let merge = timing.merge_cycles as f64 * timing.cycle_ns();
        let expected =
            100.0 + 2.0 * (timing.forward_latency_ns() + merge) + config.link_transfer_ns();
        assert!(
            (fast.completion_ns[0].1 - expected).abs() < 1e-9,
            "{} vs {expected}",
            fast.completion_ns[0].1
        );
        assert_eq!(fast.stats.ops.forwards, 2);
        assert_eq!(fast.stats.ops.reduces, 0);
    }
}
