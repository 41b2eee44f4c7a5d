//! Per-PE execution traces of a tree run, with a waterfall renderer.
//!
//! [`crate::ReductionTree::run_traced`] records one [`PeFiring`] per PE —
//! which items it saw, what it produced, and when — so a run can be
//! inspected PE by PE: where reductions happened (leaf vs root, the paper's
//! central routing argument), where time went, and how occupancy compares
//! to the Table I buffer bounds.

use crate::pe::PeOpCounts;

/// One PE's activity during a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeFiring {
    /// Tree level (0 = leaves).
    pub level: usize,
    /// PE index within the level.
    pub index: usize,
    /// Items on input A.
    pub inputs_a: usize,
    /// Items on input B.
    pub inputs_b: usize,
    /// Items emitted after merging.
    pub outputs: usize,
    /// Timestamp of the earliest input item (ns).
    pub first_input_ns: f64,
    /// Timestamp of the last emitted item (ns).
    pub last_output_ns: f64,
    /// Operation counters of this firing.
    pub ops: PeOpCounts,
}

impl PeFiring {
    /// Wall-clock span of this PE's activity.
    #[must_use]
    pub fn span_ns(&self) -> f64 {
        (self.last_output_ns - self.first_input_ns).max(0.0)
    }

    /// True when the PE had work on both inputs.
    #[must_use]
    pub fn had_both_inputs(&self) -> bool {
        self.inputs_a > 0 && self.inputs_b > 0
    }
}

/// The complete firing record of one tree traversal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionTrace {
    firings: Vec<PeFiring>,
}

impl ExecutionTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one firing (called by the tree).
    pub fn record(&mut self, firing: PeFiring) {
        self.firings.push(firing);
    }

    /// All firings, leaves first.
    #[must_use]
    pub fn firings(&self) -> &[PeFiring] {
        &self.firings
    }

    /// The firing that performed the most reductions, if any reduced.
    #[must_use]
    pub fn busiest_pe(&self) -> Option<&PeFiring> {
        self.firings.iter().filter(|f| f.ops.reduces > 0).max_by_key(|f| f.ops.reduces)
    }

    /// Per-level roll-up: `(level, reduces, forwards, outputs)`.
    #[must_use]
    pub fn level_summary(&self) -> Vec<(usize, u64, u64, usize)> {
        let levels = self.firings.iter().map(|f| f.level).max().map_or(0, |l| l + 1);
        let mut summary = vec![(0usize, 0u64, 0u64, 0usize); levels];
        for (level, row) in summary.iter_mut().enumerate() {
            row.0 = level;
        }
        for firing in &self.firings {
            let row = &mut summary[firing.level];
            row.1 += firing.ops.reduces;
            row.2 += firing.ops.forwards;
            row.3 += firing.outputs;
        }
        summary
    }

    /// Renders an ASCII waterfall: one bar per PE showing its active span
    /// on a shared time axis of `width` characters.
    #[must_use]
    pub fn render_waterfall(&self, width: usize) -> String {
        let width = width.max(10);
        let end = self.firings.iter().map(|f| f.last_output_ns).fold(0.0f64, f64::max).max(1e-9);
        let mut out = format!("time axis: 0 .. {end:.0} ns ({width} cols)\n");
        for firing in &self.firings {
            let start_col = ((firing.first_input_ns / end) * width as f64) as usize;
            let end_col = (((firing.last_output_ns / end) * width as f64) as usize)
                .clamp(start_col + 1, width);
            let mut bar = String::with_capacity(width);
            for col in 0..width {
                bar.push(if (start_col..end_col).contains(&col) { '#' } else { '.' });
            }
            out.push_str(&format!(
                "L{} PE{:<3} |{bar}| in {:>2}+{:<2} out {:<2} r{} f{}\n",
                firing.level,
                firing.index,
                firing.inputs_a,
                firing.inputs_b,
                firing.outputs,
                firing.ops.reduces,
                firing.ops.forwards,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::config::FafnirConfig;

    use crate::indexset;
    use crate::inject::{build_rank_inputs, GatheredVector};
    use crate::timing::PeTiming;
    use crate::tree::ReductionTree;

    fn traced_run(batch: &Batch, ranks: usize) -> (crate::tree::TreeRun, ExecutionTrace) {
        let config = FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() };
        let tree = ReductionTree::new(config, ranks).unwrap();
        let gathered: Vec<GatheredVector> = batch
            .unique_indices()
            .iter()
            .map(|index| GatheredVector {
                index,
                rank: index.value() as usize % ranks,
                value: vec![index.value() as f32; 4].into(),
                ready_ns: f64::from(index.value()),
            })
            .collect();
        let inputs = build_rank_inputs(batch, &gathered, ranks, 2, &PeTiming::default());
        tree.run_traced(inputs)
    }

    #[test]
    fn trace_covers_every_pe() {
        let batch = Batch::from_index_sets([indexset![0, 1, 5, 6], indexset![2, 3, 5]]);
        let (run, trace) = traced_run(&batch, 8);
        assert_eq!(trace.firings().len(), 7, "4 leaves + 2 + 1 root");
        assert_eq!(run.stats.pes, 7);
        // Leaf firings come first, root last.
        assert_eq!(trace.firings()[0].level, 0);
        assert_eq!(trace.firings().last().unwrap().level, 2);
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let batch = Batch::from_index_sets([indexset![0, 3, 9], indexset![1, 9]]);
        let config = FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() };
        let tree = ReductionTree::new(config, 8).unwrap();
        let gathered: Vec<GatheredVector> = batch
            .unique_indices()
            .iter()
            .map(|index| GatheredVector {
                index,
                rank: index.value() as usize % 8,
                value: vec![1.0; 4].into(),
                ready_ns: 0.0,
            })
            .collect();
        let inputs = build_rank_inputs(&batch, &gathered, 8, 2, &PeTiming::default());
        let plain = tree.run(inputs.clone());
        let (traced, _) = tree.run_traced(inputs);
        assert_eq!(plain, traced);
    }

    #[test]
    fn remotest_reduction_lands_at_the_root() {
        // Indices 0 and 7 live on ranks 0 and 7: the reduce must fire in the
        // root PE (the paper's worst-case routing).
        let batch = Batch::from_index_sets([indexset![0, 7]]);
        let (_, trace) = traced_run(&batch, 8);
        let busiest = trace.busiest_pe().expect("a reduce happened");
        assert_eq!(busiest.level, 2, "root level for 4 leaves");
        let summary = trace.level_summary();
        assert_eq!(summary[0].1, 0, "no reduces at the leaves");
        assert!(summary[2].1 > 0, "reduces at the root");
    }

    #[test]
    fn neighbour_reduction_lands_at_a_leaf() {
        let batch = Batch::from_index_sets([indexset![0, 1]]);
        let (_, trace) = traced_run(&batch, 8);
        let busiest = trace.busiest_pe().expect("a reduce happened");
        assert_eq!(busiest.level, 0);
        assert!(busiest.had_both_inputs());
    }

    #[test]
    fn waterfall_renders_one_bar_per_pe() {
        let batch = Batch::from_index_sets([indexset![0, 1, 2, 3]]);
        let (_, trace) = traced_run(&batch, 8);
        let rendered = trace.render_waterfall(40);
        assert_eq!(rendered.lines().count(), 1 + trace.firings().len());
        assert!(rendered.contains("L0 PE0"));
        assert!(rendered.contains('#'));
    }

    #[test]
    fn spans_are_nonnegative_and_ordered_by_level() {
        let batch = Batch::from_index_sets([indexset![0, 1, 5, 6], indexset![2, 7]]);
        let (_, trace) = traced_run(&batch, 8);
        for firing in trace.firings() {
            assert!(firing.span_ns() >= 0.0);
        }
        // The root finishes no earlier than any leaf.
        let root_end = trace.firings().last().unwrap().last_output_ns;
        for firing in trace.firings() {
            if firing.outputs > 0 {
                assert!(root_end >= firing.first_input_ns);
            }
        }
    }
}
