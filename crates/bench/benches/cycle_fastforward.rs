//! Event-driven fast-forwarding vs unit stepping — wall clock and parity.
//!
//! Both hot loops keep a unit-stepped reference engine
//! ([`MemorySystem::run_until_idle_stepped`], [`CycleTree::run_stepped`])
//! next to the event-driven production path. On idle-heavy workloads —
//! sparse arrivals separated by long quiet stretches, exactly the shape
//! embedding-gather traffic has between batches — the stepped engines walk
//! every dead cycle while the fast engines jump between events. This bench
//! measures that gap on both sides, proves the runs are cycle-exact before
//! trusting the numbers, and records the result in
//! `BENCH_cycle_fastforward.json`.
//!
//! Regression guard: if an existing `BENCH_cycle_fastforward.json` shows a
//! materially better speedup, this bench refuses to overwrite it unless
//! `--force` is passed (`just bench-fastforward --force`).

use std::time::Instant;

use criterion::black_box;
use fafnir_bench::{banner, print_table, record, times};
use fafnir_core::cycle_sim::CycleTree;
use fafnir_core::inject::{build_rank_inputs, GatheredVector};
use fafnir_core::{Batch, FafnirConfig, IndexSet, PeTiming, ReductionTree, VectorIndex};
use fafnir_mem::{MemoryConfig, MemorySystem, Request};

const MEM_READS: u64 = 64;
const MEM_SPREAD_CYCLES: u64 = 2_000_000;
const TREE_SPREAD_NS: f64 = 20_000.0;
const SAMPLES: u32 = 5;
const REGRESSION_TOLERANCE: f64 = 0.9;

fn measure<F: FnMut()>(mut body: F) -> f64 {
    body(); // warm-up
    let start = Instant::now();
    for _ in 0..SAMPLES {
        body();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(SAMPLES)
}

/// An idle-heavy read trace: reads sprinkled over a long window so almost
/// every cycle is dead time (plus periodic refreshes).
fn submit_sparse_reads(mem: &mut MemorySystem, config: &MemoryConfig) {
    let capacity = config.topology.capacity_bytes();
    let gap = MEM_SPREAD_CYCLES / MEM_READS;
    for i in 0..MEM_READS {
        let addr = (i * 64 * 1024 + i * 64) % (capacity - 4096);
        mem.submit(Request::read(addr, 64).at(i * gap));
    }
}

/// Runs the memory trace on one engine, returning (logs, stats, final
/// cycle) for the parity check.
fn drive_memory(
    config: &MemoryConfig,
    stepped: bool,
) -> (Vec<fafnir_mem::CommandLog>, fafnir_mem::MemoryStats, u64) {
    let mut mem = MemorySystem::new(*config);
    mem.enable_command_logs();
    submit_sparse_reads(&mut mem, config);
    let done = if stepped { mem.run_until_idle_stepped() } else { mem.run_until_idle() };
    (mem.take_command_logs(), mem.stats(), done)
}

/// An idle-heavy tree batch: leaf items whose memory-completion times are
/// spread far apart, so the simulated clock spans millions of mostly-empty
/// cycles.
fn tree_inputs(batch: &Batch, ranks: usize) -> Vec<Vec<fafnir_core::Item>> {
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % ranks,
            value: vec![index.value() as f32; 4].into(),
            ready_ns: TREE_SPREAD_NS * f64::from(index.value()),
        })
        .collect();
    build_rank_inputs(batch, &gathered, ranks, 2, &PeTiming::default())
}

fn main() {
    banner(
        "Event-driven fast-forward — wall clock vs unit stepping",
        "next-event jumps make idle-heavy simulations cheap without changing a single cycle",
    );

    // Memory side: parity first, then wall clock.
    let mut config = MemoryConfig::ddr4_2400_4ch();
    config.refresh = true;
    let (logs_fast, stats_fast, final_fast) = drive_memory(&config, false);
    let (logs_step, stats_step, final_step) = drive_memory(&config, true);
    assert_eq!(logs_fast, logs_step, "command logs diverge");
    assert_eq!(stats_fast, stats_step, "stats diverge");
    assert_eq!(final_fast, final_step, "final cycle diverges");

    let mem_stepped_ns = measure(|| {
        let mut mem = MemorySystem::new(config);
        submit_sparse_reads(&mut mem, &config);
        black_box(mem.run_until_idle_stepped());
    });
    let mem_fast_ns = measure(|| {
        let mut mem = MemorySystem::new(config);
        submit_sparse_reads(&mut mem, &config);
        black_box(mem.run_until_idle());
    });
    let mut mem = MemorySystem::new(config);
    submit_sparse_reads(&mut mem, &config);
    mem.run_until_idle();
    let skipped = mem.skipped_cycles();
    let mem_speedup = mem_stepped_ns / mem_fast_ns;

    // Tree side: same sequence.
    let sets: Vec<IndexSet> = (0..24u32)
        .map(|i| {
            IndexSet::from_iter_dedup(
                [i % 48, (i * 7 + 3) % 48, (i * 13 + 1) % 48].map(VectorIndex),
            )
        })
        .collect();
    let batch = Batch::from_index_sets(sets);
    let fafnir = FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() };
    let tree = ReductionTree::new(fafnir, 8).expect("tree");
    let sim = CycleTree::new(&tree, 32).expect("non-zero capacity");
    let fast = sim.run(tree_inputs(&batch, 8)).expect("fast run");
    let stepped = sim.run_stepped(tree_inputs(&batch, 8)).expect("stepped run");
    assert_eq!(fast, stepped, "cycle_sim engines diverge");
    let tree_cycles = fast.completion_cycle;

    let tree_stepped_ns = measure(|| {
        black_box(sim.run_stepped(tree_inputs(&batch, 8)).expect("stepped run"));
    });
    let tree_fast_ns = measure(|| {
        black_box(sim.run(tree_inputs(&batch, 8)).expect("fast run"));
    });
    let tree_speedup = tree_stepped_ns / tree_fast_ns;

    print_table(
        &["engine", "stepped", "event-driven", "speedup"],
        &[
            vec![
                format!("memsim ({MEM_READS} reads / {MEM_SPREAD_CYCLES} cycles)"),
                format!("{:.2} ms", mem_stepped_ns / 1e6),
                format!("{:.2} ms", mem_fast_ns / 1e6),
                times(mem_speedup),
            ],
            vec![
                format!("cycle_sim ({tree_cycles} cycles)"),
                format!("{:.2} ms", tree_stepped_ns / 1e6),
                format!("{:.2} ms", tree_fast_ns / 1e6),
                times(tree_speedup),
            ],
        ],
    );
    println!(
        "\nparity: command logs, stats and completions identical; \
         {skipped} of {final_fast} memory cycles skipped"
    );

    let json = format!(
        "{{\n  \"bench\": \"cycle_fastforward\",\n  \
         \"parity\": \"command logs, stats, completions and final cycles identical between \
         stepped and event-driven engines (see tests/property_fastforward.rs)\",\n  \
         \"samples\": {SAMPLES},\n  \
         \"mem_reads\": {MEM_READS},\n  \"mem_spread_cycles\": {MEM_SPREAD_CYCLES},\n  \
         \"mem_final_cycle\": {final_fast},\n  \"mem_skipped_cycles\": {skipped},\n  \
         \"mem_stepped_wall_ns\": {mem_stepped_ns:.0},\n  \
         \"mem_fast_wall_ns\": {mem_fast_ns:.0},\n  \"mem_speedup\": {mem_speedup:.2},\n  \
         \"tree_completion_cycles\": {tree_cycles},\n  \
         \"tree_stepped_wall_ns\": {tree_stepped_ns:.0},\n  \
         \"tree_fast_wall_ns\": {tree_fast_ns:.0},\n  \"tree_speedup\": {tree_speedup:.2}\n}}\n"
    );
    record(
        "cycle_fastforward",
        &json,
        &[("mem_speedup", mem_speedup), ("tree_speedup", tree_speedup)],
        REGRESSION_TOLERANCE,
    );
}
