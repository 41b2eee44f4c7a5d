//! The overall reduction tree: topology and dataflow simulation.
//!
//! The tree's leaves are the ranks of the memory system and its nodes are
//! PEs (Fig. 2d / Fig. 4a of the paper). Items enter at the leaf PEs as DRAM
//! reads complete and climb level by level; every query's reduction finishes
//! somewhere inside the tree — at a leaf when its vectors are neighbours, at
//! the root when they are remotest. The simulation is event-timed: each item
//! carries a `ready_ns` timestamp, PEs add compare/reduce/forward/merge
//! latencies, output ports serialize their items, and links add transfer
//! time.
//!
//! The tree is a timing model: its items carry headers and ready times, no
//! values. The outputs themselves come from the per-query fold in
//! [`crate::fastpath`].

use crate::config::FafnirConfig;
use crate::error::FafnirError;
use crate::index::QueryId;
use crate::item::{Arena, Item, Node, RankInputs};
use crate::pe::{PeOpCounts, PeScratch, ProcessingElement};

/// Aggregated statistics of one tree traversal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TreeStats {
    /// Summed PE operation counters.
    pub ops: PeOpCounts,
    /// Tree levels (leaf PEs are level 0).
    pub levels: usize,
    /// Total PEs that fired.
    pub pes: usize,
    /// Timestamp of the last root output in nanoseconds.
    pub completion_ns: f64,
    /// Largest input-side occupancy over all PEs (buffer sizing, Table I).
    pub max_buffer_items: u64,
    /// Root outputs whose pending entries were not all complete (indicates
    /// indices missing from the leaf inputs).
    pub incomplete_outputs: usize,
}

/// Result of running a batch through the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRun {
    /// Items emitted by the root PE (headers and ready times).
    pub outputs: Vec<Item>,
    /// Aggregated statistics.
    pub stats: TreeStats,
}

impl TreeRun {
    /// Per-query completion time: the `ready_ns` of the root item answering
    /// each query.
    #[must_use]
    pub fn query_completion_ns(&self) -> Vec<(QueryId, f64)> {
        let mut times: Vec<(QueryId, f64)> = Vec::new();
        for item in &self.outputs {
            for pending in &item.header.queries {
                if pending.is_complete() {
                    times.push((pending.query, item.ready_ns));
                }
            }
        }
        times.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        times.dedup_by_key(|(query, _)| *query);
        times
    }
}

/// The FAFNIR reduction tree over a memory system's ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionTree {
    config: FafnirConfig,
    leaf_count: usize,
}

impl ReductionTree {
    /// Builds a tree for a system with `ranks` ranks.
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidConfig`] if the configuration is
    /// invalid, `ranks` is not divisible by `ranks_per_leaf`, or the leaf
    /// count is not a power of two.
    pub fn new(config: FafnirConfig, ranks: usize) -> Result<Self, FafnirError> {
        config.validate()?;
        if ranks == 0 || !ranks.is_multiple_of(config.ranks_per_leaf) {
            return Err(FafnirError::InvalidConfig(format!(
                "ranks ({ranks}) must be a positive multiple of ranks_per_leaf ({})",
                config.ranks_per_leaf
            )));
        }
        let leaf_count = ranks / config.ranks_per_leaf;
        if !leaf_count.is_power_of_two() {
            return Err(FafnirError::InvalidConfig(format!(
                "leaf count ({leaf_count}) must be a power of two"
            )));
        }
        Ok(Self { config, leaf_count })
    }

    /// The configuration this tree was built with.
    #[must_use]
    pub fn config(&self) -> &FafnirConfig {
        &self.config
    }

    /// Leaf-PE count.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Total PEs (`2 × leaves − 1`).
    #[must_use]
    pub fn pe_count(&self) -> usize {
        2 * self.leaf_count - 1
    }

    /// Tree levels including the leaf level.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.leaf_count.trailing_zeros() as usize + 1
    }

    /// Runs one hardware batch through the tree.
    ///
    /// `rank_inputs` holds, for every global rank `r` (in this tree's rank
    /// ordering), the items gathered from it, ready at their memory
    /// completion times.
    ///
    /// # Panics
    ///
    /// Panics unless `rank_inputs` holds `leaf_count × ranks_per_leaf` rank
    /// lists.
    #[must_use]
    pub fn run(&self, rank_inputs: RankInputs) -> TreeRun {
        self.run_inner(rank_inputs, None)
    }

    /// [`ReductionTree::run`] with an operator argument it ignores: the tree
    /// times headers, whatever the operator. The benchmark's ledger replay
    /// is its only caller.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ReductionTree::run`].
    #[must_use]
    pub fn run_with(
        &self,
        _operator: &dyn crate::reduce::ReduceOperator,
        rank_inputs: RankInputs,
    ) -> TreeRun {
        self.run(rank_inputs)
    }

    /// Like [`ReductionTree::run`], but also records a per-PE firing trace
    /// (see [`crate::exec_trace`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ReductionTree::run`].
    #[must_use]
    pub fn run_traced(
        &self,
        rank_inputs: RankInputs,
    ) -> (TreeRun, crate::exec_trace::ExecutionTrace) {
        let mut trace = crate::exec_trace::ExecutionTrace::new();
        let run = self.run_inner(rank_inputs, Some(&mut trace));
        (run, trace)
    }

    fn run_inner(
        &self,
        rank_inputs: RankInputs,
        mut trace: Option<&mut crate::exec_trace::ExecutionTrace>,
    ) -> TreeRun {
        let RankInputs { mut arena, ranks } = rank_inputs;
        assert_eq!(
            ranks.len(),
            self.leaf_count * self.config.ranks_per_leaf,
            "one input list per rank required"
        );
        let pe = ProcessingElement { timing: self.config.pe_timing };
        let mut scratch = PeScratch::new(arena.query_count());
        let mut stats = TreeStats { levels: self.levels(), ..TreeStats::default() };

        // Leaf level: each PE joins the streams of its ranks, split into the
        // two PE inputs. Levels are consumed by value — items move up the
        // tree, they are never copied.
        let half = self.config.ranks_per_leaf.div_ceil(2);
        let mut level: Vec<Vec<Node>> = Vec::with_capacity(self.leaf_count);
        let mut ranks_iter = ranks.into_iter();
        for index in 0..self.leaf_count {
            let a: Vec<Node> = ranks_iter.by_ref().take(half).flatten().collect();
            let b: Vec<Node> =
                ranks_iter.by_ref().take(self.config.ranks_per_leaf - half).flatten().collect();
            level.push(self.fire_pe(
                &pe,
                &mut arena,
                &mut scratch,
                &a,
                &b,
                &mut stats,
                0,
                index,
                trace.as_deref_mut(),
            ));
        }

        // Internal levels: pair up child outputs.
        let mut depth = 1;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / 2);
            let mut children = level.into_iter();
            let mut index = 0;
            while let Some(first) = children.next() {
                let a = self.after_link(first);
                let b = self.after_link(children.next().unwrap_or_default());
                next.push(self.fire_pe(
                    &pe,
                    &mut arena,
                    &mut scratch,
                    &a,
                    &b,
                    &mut stats,
                    depth,
                    index,
                    trace.as_deref_mut(),
                ));
                index += 1;
            }
            level = next;
            depth += 1;
        }

        let outputs = level.pop().unwrap_or_default();
        stats.completion_ns = outputs.iter().map(|node| node.ready_ns).fold(0.0, f64::max);
        stats.incomplete_outputs = outputs
            .iter()
            .filter(|node| arena.entries(node).iter().any(|&entry| !arena.is_complete(entry)))
            .count();
        TreeRun { outputs: outputs.iter().map(|node| arena.item(node)).collect(), stats }
    }

    /// Fires one PE and applies output-port serialization.
    #[allow(clippy::too_many_arguments)]
    fn fire_pe(
        &self,
        pe: &ProcessingElement,
        arena: &mut Arena,
        scratch: &mut PeScratch,
        a: &[Node],
        b: &[Node],
        stats: &mut TreeStats,
        level: usize,
        index: usize,
        trace: Option<&mut crate::exec_trace::ExecutionTrace>,
    ) -> Vec<Node> {
        let first_input_ns =
            a.iter().chain(b).map(|node| node.ready_ns).fold(f64::INFINITY, f64::min);
        let (inputs_a, inputs_b) = (a.len(), b.len());
        let (mut out, counts) = pe.fire(arena, scratch, a, b);
        stats.ops.merge(&counts);
        stats.pes += 1;
        stats.max_buffer_items = stats.max_buffer_items.max(counts.max_input_items);
        // Output port: one item per initiation interval.
        out.sort_by(|x, y| x.ready_ns.total_cmp(&y.ready_ns));
        let interval =
            self.config.pe_timing.output_interval_cycles as f64 * self.config.pe_timing.cycle_ns();
        for pos in 1..out.len() {
            let earliest = out[pos - 1].ready_ns + interval;
            if out[pos].ready_ns < earliest {
                out[pos].ready_ns = earliest;
            }
        }
        if let Some(trace) = trace {
            trace.record(crate::exec_trace::PeFiring {
                level,
                index,
                inputs_a,
                inputs_b,
                outputs: out.len(),
                first_input_ns: if first_input_ns.is_finite() { first_input_ns } else { 0.0 },
                last_output_ns: out.iter().map(|node| node.ready_ns).fold(0.0, f64::max),
                ops: counts,
            });
        }
        out
    }

    /// Adds the link-transfer latency for items moving to a parent PE.
    fn after_link(&self, mut items: Vec<Node>) -> Vec<Node> {
        let transfer = self.config.link_transfer_ns();
        for item in &mut items {
            item.ready_ns += transfer;
        }
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::index::VectorIndex;
    use crate::indexset;
    use crate::item::{Header, PendingQuery};

    /// Distributes a batch's leaf items over `ranks` ranks by `index mod
    /// ranks`, honouring the per-side invariant via the injector.
    fn rank_inputs_ratio(batch: &Batch, ranks: usize, ranks_per_leaf: usize) -> RankInputs {
        let gathered: Vec<crate::inject::GatheredVector> = batch
            .unique_indices()
            .iter()
            .map(|index| crate::inject::GatheredVector {
                index,
                rank: index.value() as usize % ranks,
                value: vec![index.value() as f32; 4].into(),
                ready_ns: 0.0,
            })
            .collect();
        crate::inject::build_rank_inputs(
            batch,
            &gathered,
            ranks,
            ranks_per_leaf,
            &crate::timing::PeTiming::default(),
        )
    }

    fn rank_inputs(batch: &Batch, ranks: usize) -> RankInputs {
        rank_inputs_ratio(batch, ranks, 2)
    }

    fn tree(ranks: usize) -> ReductionTree {
        ReductionTree::new(FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() }, ranks)
            .unwrap()
    }

    /// Every query leaves the root complete, on an item whose `indices`
    /// field names exactly the query's index set.
    fn check_every_query_completes(run: &TreeRun, batch: &Batch) {
        assert_eq!(run.stats.incomplete_outputs, 0);
        assert_eq!(run.query_completion_ns().len(), batch.len());
        for query in batch.queries() {
            let root = run
                .outputs
                .iter()
                .find(|item| item.header.queries.iter().any(|p| p.query == query.id))
                .unwrap_or_else(|| panic!("query {} missing at the root", query.id));
            assert!(root.header.pending_for(query.id).unwrap().is_complete());
            assert_eq!(root.header.indices, query.indices, "query {}", query.id);
        }
    }

    fn check_completes(batch: &Batch, ranks: usize) {
        check_every_query_completes(&tree(ranks).run(rank_inputs(batch, ranks)), batch);
    }

    #[test]
    fn fig6_batch_completes_on_8_ranks() {
        let batch = Batch::from_index_sets([
            indexset![11, 44, 32, 83, 77],
            indexset![50, 83, 94],
            indexset![11, 50, 44, 94, 26],
            indexset![4, 15, 77],
        ]);
        check_completes(&batch, 8);
    }

    #[test]
    fn single_query_spanning_remotest_ranks_completes_at_root() {
        // Indices 0 and 31 sit on ranks 0 and 31: reduction can only happen
        // at the root (the paper's worst case).
        let batch = Batch::from_index_sets([indexset![0, 31]]);
        check_completes(&batch, 32);
    }

    #[test]
    fn neighbour_indices_reduce_at_the_leaf() {
        // Indices 0 and 1 share a leaf PE (1PE:2R): one reduce, no forwards
        // needed above the leaf level.
        let batch = Batch::from_index_sets([indexset![0, 1]]);
        let run = tree(32).run(rank_inputs(&batch, 32));
        // Both compare directions fire the reduce; the merge unit folds them
        // into one output (hardware-faithful counting).
        assert_eq!(run.stats.ops.reduces, 2);
        assert_eq!(run.stats.ops.merges, 1);
        check_every_query_completes(&run, &batch);
    }

    #[test]
    fn tree_shape_matches_config() {
        let tree = tree(32);
        assert_eq!(tree.leaf_count(), 16);
        assert_eq!(tree.pe_count(), 31);
        assert_eq!(tree.levels(), 5);
    }

    #[test]
    fn invalid_rank_counts_are_rejected() {
        let config = FafnirConfig::paper_default();
        assert!(ReductionTree::new(config, 0).is_err());
        assert!(ReductionTree::new(config, 3).is_err());
        assert!(ReductionTree::new(config, 12).is_err()); // 6 leaves: not 2^k
        assert!(ReductionTree::new(config, 32).is_ok());
    }

    #[test]
    fn missing_index_yields_incomplete_output() {
        // Query {0, 100} references index 100 but only index 0 is provided.
        let tree = tree(4);
        let mut inputs = vec![Vec::new(); 4];
        let pending = vec![PendingQuery::new(QueryId(0), indexset![100])];
        inputs[0].push(Item::new(Header::leaf(VectorIndex(0), pending)));
        let run = tree.run(RankInputs::from_items(inputs).unwrap());
        assert_eq!(run.stats.incomplete_outputs, 1);
        assert!(run.query_completion_ns().is_empty());
    }

    #[test]
    fn shared_index_served_to_both_queries() {
        // Both queries need index 5 (the paper's v5 example, Fig. 1/2).
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        check_completes(&batch, 8);
    }

    #[test]
    fn completion_time_grows_with_tree_depth() {
        let batch = Batch::from_index_sets([indexset![0, 1]]);
        // Same batch, deeper tree (more ranks): completion no earlier.
        let shallow = tree(4).run(rank_inputs(&batch, 4));
        let deep = tree(32).run(rank_inputs(&batch, 32));
        assert!(deep.stats.completion_ns >= shallow.stats.completion_ns);
    }

    #[test]
    fn one_pe_to_one_rank_ratio_works() {
        let config =
            FafnirConfig { ranks_per_leaf: 1, vector_dim: 4, ..FafnirConfig::paper_default() };
        let tree = ReductionTree::new(config, 8).unwrap();
        assert_eq!(tree.pe_count(), 15);
        let batch = Batch::from_index_sets([indexset![0, 1, 6, 7]]);
        check_every_query_completes(&tree.run(rank_inputs_ratio(&batch, 8, 1)), &batch);
    }

    #[test]
    fn one_pe_to_four_ranks_ratio_works() {
        let config =
            FafnirConfig { ranks_per_leaf: 4, vector_dim: 4, ..FafnirConfig::paper_default() };
        let tree = ReductionTree::new(config, 16).unwrap();
        assert_eq!(tree.pe_count(), 7);
        let batch = Batch::from_index_sets([indexset![0, 5, 10, 15]]);
        check_every_query_completes(&tree.run(rank_inputs_ratio(&batch, 16, 4)), &batch);
    }

    #[test]
    fn buffer_occupancy_respects_batch_bound() {
        // Sixteen queries sharing hot indices: no PE buffer may exceed the
        // query count (Table I invariant).
        let sets: Vec<_> = (0..16u32).map(|i| indexset![i % 8, (i + 3) % 8, 16 + i % 4]).collect();
        let batch = Batch::from_index_sets(sets);
        let run = tree(8).run(rank_inputs(&batch, 8));
        assert!(
            run.stats.max_buffer_items <= 16 + batch.unique_indices().len() as u64,
            "buffer occupancy {} out of range",
            run.stats.max_buffer_items
        );
        check_every_query_completes(&run, &batch);
    }
}
