//! Anatomy of a tree traversal: trace every PE firing for one batch and
//! show *where* the reductions happen — the paper's core routing argument
//! (neighbour operands reduce at a leaf, remote operands climb to the
//! root) made visible.
//!
//! ```sh
//! cargo run --example tree_anatomy
//! ```

use fafnir_core::fastpath::fast_reduce;
use fafnir_core::inject::{build_rank_inputs, GatheredVector};
use fafnir_core::{Batch, FafnirConfig, IndexSet, PeTiming, ReduceOp, ReductionTree, VectorIndex};

fn main() -> Result<(), fafnir_core::FafnirError> {
    let ranks = 8;
    let config = FafnirConfig { vector_dim: 8, ..FafnirConfig::paper_default() };
    let tree = ReductionTree::new(config, ranks)?;
    println!(
        "tree over {ranks} ranks: {} leaf PEs, {} PEs, {} levels\n",
        tree.leaf_count(),
        tree.pe_count(),
        tree.levels()
    );

    // Three queries with deliberately different routing:
    //   q0 = {0, 1}   — neighbours: reduces at leaf PE 0
    //   q1 = {0, 7}   — remotest:   reduces only at the root
    //   q2 = {2, 3, 5} — mixed:     leaf reduce + internal reduce
    let batch = Batch::from_index_sets([
        IndexSet::from_iter_dedup([0, 1].map(VectorIndex)),
        IndexSet::from_iter_dedup([0, 7].map(VectorIndex)),
        IndexSet::from_iter_dedup([2, 3, 5].map(VectorIndex)),
    ]);

    // Vectors arrive from rank (index mod 8) with staggered DRAM timings.
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % ranks,
            value: vec![f32::from(index.value() as u16); 8].into(),
            ready_ns: 60.0 + 10.0 * f64::from(index.value()),
        })
        .collect();
    let inputs = build_rank_inputs(&batch, &gathered, ranks, 2, &PeTiming::default());

    // The tree times headers; the fold computes the values.
    let (run, trace) = tree.run_traced(inputs);
    let fold = fast_reduce(&batch, &gathered, &tree, &*ReduceOp::Sum.operator());

    println!("{}", trace.render_waterfall(56));

    println!("per-level roll-up:");
    println!("{:>6} {:>8} {:>9} {:>8}", "level", "reduces", "forwards", "outputs");
    for (level, reduces, forwards, outputs) in trace.level_summary() {
        println!("{level:>6} {reduces:>8} {forwards:>9} {outputs:>8}");
    }

    if let Some(busiest) = trace.busiest_pe() {
        println!(
            "\nbusiest PE: level {} index {} ({} reduces, span {:.0} ns)",
            busiest.level,
            busiest.index,
            busiest.ops.reduces,
            busiest.span_ns()
        );
    }

    println!("\nquery outputs (first element):");
    for (query, value) in &fold.outputs {
        println!("  {query} -> {:.1}", value[0]);
    }
    println!(
        "\ncompletion: {:.0} ns, {} incomplete",
        run.stats.completion_ns, run.stats.incomplete_outputs
    );
    Ok(())
}
