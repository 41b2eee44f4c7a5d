//! The reduction's values: one per-query fold computes every output.
//!
//! The PE chooses reduce or forward from the header alone, so the values
//! never steer routing or timing. This module is therefore the only code
//! that combines values: [`fast_reduce`] folds each query's gathered
//! vectors in the tree's combine order and finalizes them, for every
//! memory model. The tree models ([`crate::tree::ReductionTree`],
//! [`crate::cycle_sim::CycleTree`]) carry headers and ready times only. The
//! fold reproduces the tree's combine order exactly because of three
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
//!    pattern, and why this per-query fold agrees with it.
//! 3. **Power-of-two leaves.** [`crate::tree::ReductionTree`] enforces a
//!    power-of-two leaf count, so pairing children level by level is the
//!    same as recursively halving the side range.
//!
//! The fold also prices each query's completion analytically; the engine
//! uses that timing under the fast memory model. It applies the same
//! per-stage latencies as the tree (reduce/forward + merge per PE, link
//! transfer per level) but skips two cross-query couplings: output-port serialization and the merge unit's
//! ready-time max over duplicate outputs. Both only ever *delay* items, so
//! the fast estimate lower-bounds the tree's per-query times; the
//! calibration harness records the residual divergence. Op counters
//! (`reduces`, `forwards`, `merges`) are kept exact per combine, but
//! `compares`, raw/merged output counts and buffer occupancy are not
//! modeled (they read as zero).

use crate::batch::Batch;
use crate::index::QueryId;
use crate::inject::GatheredVector;
use crate::pe::PeOpCounts;
use crate::reduce::ReduceOperator;
use crate::tree::{ReductionTree, TreeStats};

/// Result of one fold: every query's output, plus the analytic timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FastRun {
    /// Finalized per-query outputs, sorted by query id.
    pub outputs: Vec<(QueryId, Vec<f32>)>,
    /// Per-query root-output times (before the root → host link), sorted by
    /// query id.
    pub completion_ns: Vec<(QueryId, f64)>,
    /// Tree statistics (see the module docs for which counters are modeled).
    pub stats: TreeStats,
}

/// Whether the fold matches the tree's combine order for this leaf shape:
/// every leaf-PE input must carry at most one injector side, which holds
/// for `ranks_per_leaf == 1` and every even value. That covers every
/// validated configuration, since [`crate::FafnirConfig::validate`] accepts
/// only powers of two.
#[must_use]
pub fn supports_shape(ranks_per_leaf: usize) -> bool {
    ranks_per_leaf == 1 || ranks_per_leaf.is_multiple_of(2)
}

/// Per-stage latencies of the modeled tree, precomputed once per run.
struct StageCosts {
    reduce_ns: f64,
    forward_ns: f64,
    merge_ns: f64,
    link_ns: f64,
}

/// A query's in-flight accumulator on one side.
///
/// For operators whose lift is the identity
/// ([`ReduceOperator::lift_is_identity`]) a fresh slot borrows the gathered
/// value instead of cloning it: `combine_into` and `finalize` only read
/// their right-hand side, so a borrow is bit-equivalent to the lifted copy
/// and an owned accumulator is materialized only when one is actually
/// mutated — roughly halving allocations on sum/max/min workloads.
enum Acc<'a> {
    Borrowed(&'a [f32]),
    Owned(Vec<f32>),
}

impl<'a> Acc<'a> {
    fn as_slice(&self) -> &[f32] {
        match self {
            Acc::Borrowed(slice) => slice,
            Acc::Owned(vec) => vec,
        }
    }

    fn into_owned(self) -> Vec<f32> {
        match self {
            Acc::Borrowed(slice) => slice.to_vec(),
            Acc::Owned(vec) => vec,
        }
    }

    fn to_mut(&mut self) -> &mut Vec<f32> {
        if let Acc::Borrowed(slice) = self {
            *self = Acc::Owned(slice.to_vec());
        }
        match self {
            Acc::Owned(vec) => vec,
            Acc::Borrowed(_) => unreachable!("just promoted"),
        }
    }
}

/// The accumulator in flight on one side, with its ready time.
type Slot<'a> = Option<(Acc<'a>, f64)>;

/// Folds one hardware batch: every query's finalized output, and its
/// analytic completion time.
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
    let config = tree.config();
    let span = (config.ranks_per_leaf / 2).max(1);
    let sides_per_leaf = if config.ranks_per_leaf >= 2 { 2 } else { 1 };
    let total_sides = tree.leaf_count() * sides_per_leaf;
    let timing = &config.pe_timing;
    let costs = StageCosts {
        reduce_ns: timing.reduce_latency_ns(),
        forward_ns: timing.forward_latency_ns(),
        merge_ns: timing.merge_cycles as f64 * timing.cycle_ns(),
        link_ns: config.link_transfer_ns(),
    };

    // First-occurrence-wins over duplicate gathered indices, as in the
    // injector: the stable sort keeps earlier duplicates first, dedup keeps
    // them. A sorted slice beats a hash map here — lookups are the hottest
    // operation in the fold and the batch is built once.
    let mut by_index: Vec<&GatheredVector> = gathered.iter().collect();
    by_index.sort_by_key(|vector| vector.index);
    by_index.dedup_by_key(|vector| vector.index);
    let lift_is_identity = operator.lift_is_identity();

    let mut stats =
        TreeStats { levels: tree.levels(), pes: tree.pe_count(), ..TreeStats::default() };
    let mut outputs: Vec<(QueryId, Vec<f32>)> = Vec::with_capacity(batch.len());
    let mut completion_ns: Vec<(QueryId, f64)> = Vec::with_capacity(batch.len());
    let mut slots: Vec<Slot<'_>> = (0..total_sides).map(|_| None).collect();
    let mut touched: Vec<usize> = Vec::new();

    for query in batch.queries() {
        // Build the per-side accumulators: operands land in sorted index
        // order (IndexSet iteration), co-resident ones pre-reduced serially
        // with one reduce latency per extra operand — the injector's exact
        // value and timing recipe.
        touched.clear();
        let mut missing = false;
        for index in query.indices.iter() {
            let Ok(found) = by_index.binary_search_by_key(&index, |vector| vector.index) else {
                missing = true;
                continue;
            };
            let vector = by_index[found];
            let side = vector.rank / span;
            match &mut slots[side] {
                empty @ None => {
                    let acc = if lift_is_identity {
                        Acc::Borrowed(&vector.value)
                    } else {
                        Acc::Owned(operator.lift(index, &vector.value))
                    };
                    *empty = Some((acc, vector.ready_ns));
                    touched.push(side);
                }
                Some((acc, ready)) => {
                    let acc = acc.to_mut();
                    if lift_is_identity {
                        operator.combine_into(acc, &vector.value);
                    } else {
                        operator.combine_into(acc, &operator.lift(index, &vector.value));
                    }
                    *ready = ready.max(vector.ready_ns) + costs.reduce_ns;
                }
            }
        }
        if missing {
            // The tree would emit a root item with an incomplete pending
            // entry; the query yields no output either way.
            stats.incomplete_outputs += 1;
            for &side in &touched {
                slots[side] = None;
            }
            continue;
        }
        let (lo, hi) = match (touched.iter().min(), touched.iter().max()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => continue, // empty query: nothing to reduce
        };
        let folded = fold(
            &mut slots,
            0,
            total_sides,
            (lo, hi),
            sides_per_leaf,
            operator,
            &costs,
            &mut stats.ops,
        );
        if let Some((value, ready)) = folded {
            outputs.push((query.id, operator.finalize(value.as_slice())));
            stats.completion_ns = stats.completion_ns.max(ready);
            completion_ns.push((query.id, ready));
        }
    }

    outputs.sort_by_key(|&(query, _)| query);
    completion_ns.sort_by_key(|&(query, _)| query);
    FastRun { outputs, completion_ns, stats }
}

/// Folds the side range `[lo, hi)` exactly as the subtree covering it
/// would: leaves combine their (at most two) sides, internal nodes combine
/// the recursively folded halves after a link transfer. `occupied` bounds
/// the sides actually holding an item, pruning empty subtrees.
#[allow(clippy::too_many_arguments)]
fn fold<'a>(
    slots: &mut [Slot<'a>],
    lo: usize,
    hi: usize,
    occupied: (usize, usize),
    sides_per_leaf: usize,
    operator: &dyn ReduceOperator,
    costs: &StageCosts,
    ops: &mut PeOpCounts,
) -> Option<(Acc<'a>, f64)> {
    if occupied.1 < lo || occupied.0 >= hi {
        return None;
    }
    if hi - lo <= sides_per_leaf {
        // Leaf PE: its sides feed the two inputs directly (no link).
        let a = slots[lo].take();
        let b = if sides_per_leaf == 2 { slots[lo + 1].take() } else { None };
        return fire(a, b, operator, costs, ops);
    }
    let mid = lo + (hi - lo) / 2;
    let a = fold(slots, lo, mid, occupied, sides_per_leaf, operator, costs, ops)
        .map(|(value, ready)| (value, ready + costs.link_ns));
    let b = fold(slots, mid, hi, occupied, sides_per_leaf, operator, costs, ops)
        .map(|(value, ready)| (value, ready + costs.link_ns));
    fire(a, b, operator, costs, ops)
}

/// One PE firing for a single query: reduce when both inputs hold an item
/// (A absorbs B, as the merge unit's surviving raw output does), forward
/// when only one does.
fn fire<'a>(
    a: Slot<'a>,
    b: Slot<'a>,
    operator: &dyn ReduceOperator,
    costs: &StageCosts,
    ops: &mut PeOpCounts,
) -> Option<(Acc<'a>, f64)> {
    match (a, b) {
        (Some((a_acc, a_ready)), Some((b_acc, b_ready))) => {
            let mut acc = a_acc.into_owned();
            operator.combine_into(&mut acc, b_acc.as_slice());
            // Both compare directions fire the reduce in the real PE; the
            // merge unit folds them into one output.
            ops.reduces += 2;
            ops.merges += 1;
            Some((Acc::Owned(acc), a_ready.max(b_ready) + costs.reduce_ns + costs.merge_ns))
        }
        (Some((value, ready)), None) | (None, Some((value, ready))) => {
            ops.forwards += 1;
            Some((value, ready + costs.forward_ns + costs.merge_ns))
        }
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FafnirConfig;
    use crate::index::VectorIndex;
    use crate::indexset;
    use crate::inject::build_rank_inputs;
    use crate::reduce::ReduceOp;
    use crate::timing::PeTiming;

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

    /// The fold must answer exactly the queries the event-timed tree
    /// completes, and its per-query times must never exceed the tree's (it
    /// skips only delays). Output bits are pinned in `tests/output_bits.rs`.
    fn check_against_tree(batch: &Batch, op: ReduceOp, ranks: usize, ranks_per_leaf: usize) {
        let tree = tree(op, ranks, ranks_per_leaf);
        let gathered = gather(batch, ranks, 8);
        let inputs =
            build_rank_inputs(batch, &gathered, ranks, ranks_per_leaf, &PeTiming::default());
        let run = tree.run(inputs);
        let fast = fast_reduce(batch, &gathered, &tree, &*op.operator());

        let tree_times = run.query_completion_ns();
        assert_eq!(fast.completion_ns.len(), tree_times.len(), "{op} completion count");
        for ((&(qa, fast_ns), &(qb, tree_ns)), (qo, _)) in
            fast.completion_ns.iter().zip(&tree_times).zip(&fast.outputs)
        {
            assert_eq!(qa, qb);
            assert_eq!(qa, *qo);
            assert!(fast_ns <= tree_ns + 1e-6, "{op} query {qa}: fast {fast_ns} > tree {tree_ns}");
            assert!(fast_ns > 0.0);
        }
        assert_eq!(fast.stats.incomplete_outputs, 0);
        assert_eq!(fast.stats.levels, run.stats.levels);
        assert_eq!(fast.stats.pes, run.stats.pes);
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
