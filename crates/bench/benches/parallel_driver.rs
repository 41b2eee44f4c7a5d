//! Sequential vs parallel multi-batch execution.
//!
//! Compares the trait-level sequential [`GatherEngine::lookup_stream`]
//! (every hardware batch's reads share ONE memory system and one FR-FCFS
//! queue) against independent [`GatherEngine::lookup_timing`]s fanned out
//! over worker threads by [`map_ordered`]. Both sides ask for timing alone,
//! so neither fetches or folds a value. Each software batch here is one
//! hardware batch, so each lookup runs one plan on its own private memory
//! system. Two effects may stack:
//!
//! * splitting the stream into per-plan memory systems keeps each
//!   scheduler queue shallow, and
//! * with multiple host cores the per-plan simulations overlap.
//!
//! On one worker the first is within the host's noise: over three runs on a
//! 2-core x86-64 host the one-thread lookups read 0.99x, 1.42x and 1.00x
//! the shared stream's fastest sample, and 1.02x once both sides asked for
//! timing alone.
//!
//! `just bench parallel_driver` writes the results to
//! `BENCH_parallel_driver.json` at the repo root; the per-thread-count
//! ratio is `speedup_private_lookups_vs_shared_stream`, private-memory
//! lookups over the one shared-queue stream, not a thread-scaling figure.
//! Each path's `wall_ns` is the fastest of its timed samples, not their
//! mean: a slow stretch of a shared host only ever adds time, so one stall
//! can carry a mean of ten. The paths are timed round-robin, one sample
//! each per round, so a stall lands on whichever path is running instead
//! of on one path's whole pass; the recorded
//! `BENCH_parallel_driver.json` was measured that way.

use std::time::Instant;

use criterion::black_box;
use fafnir_bench::{
    banner, paper_memory, paper_traffic, print_table, record, times, Layout, Object,
};
use fafnir_core::pipeline::map_ordered;
use fafnir_core::{Batch, FafnirEngine, GatherEngine, LookupResult, StripedSource};

const SOFTWARE_BATCHES: usize = 8;
const QUERIES_PER_BATCH: usize = 32; // = paper batch capacity -> 8 hardware batches
const SAMPLES: u32 = 10;
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Each path's fastest of `SAMPLES` timed runs, in ns, after two warm-ups
/// each. Every round times each path once, in order.
fn measure(paths: &mut [Box<dyn FnMut() + '_>]) -> Vec<f64> {
    for path in paths.iter_mut() {
        for _ in 0..2 {
            path(); // warm-up
        }
    }
    let mut fastest = vec![f64::INFINITY; paths.len()];
    for _ in 0..SAMPLES {
        for (path, best) in paths.iter_mut().zip(&mut fastest) {
            let start = Instant::now();
            path();
            *best = best.min(start.elapsed().as_secs_f64() * 1e9);
        }
    }
    fastest
}

/// Every batch's standalone timing-only lookup on up to `threads` workers,
/// in submission order.
fn lookups(
    engine: &FafnirEngine,
    batches: &[Batch],
    source: &StripedSource,
    threads: usize,
) -> Vec<LookupResult> {
    map_ordered(batches.iter().collect(), threads, |batch| engine.lookup_timing(batch, source))
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("lookup")
}

fn main() {
    banner(
        "Parallel multi-batch lookups — host-side wall clock",
        "independent hardware batches on private memory systems vs one shared queue",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let engine = FafnirEngine::paper_default(mem).expect("engine");
    let mut generator = paper_traffic(2121);
    let batches: Vec<Batch> =
        (0..SOFTWARE_BATCHES).map(|_| generator.batch(QUERIES_PER_BATCH)).collect();
    let hardware_batches: usize =
        batches.iter().map(|batch| batch.len().div_ceil(engine.config().batch_capacity)).sum();

    // Honest parallelism reporting: thread counts above the host's core
    // count cannot speed anything up — measuring them would just report
    // scheduler noise as "scaling". Measure only what the host can run.
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let threads_measured: Vec<usize> =
        THREAD_LADDER.iter().copied().filter(|&threads| threads <= host_cores.max(1)).collect();
    let threads_skipped: Vec<usize> =
        THREAD_LADDER.iter().copied().filter(|&threads| threads > host_cores.max(1)).collect();

    let (engine, batches, source) = (&engine, &batches, &source);
    let mut paths: Vec<Box<dyn FnMut()>> = vec![Box::new(|| {
        black_box(engine.lookup_stream(batches, source).expect("sequential stream"));
    })];
    for &threads in &threads_measured {
        paths.push(Box::new(move || {
            black_box(lookups(engine, batches, source, threads));
        }));
    }
    let fastest = measure(&mut paths);
    let (sequential_ns, driver_ns) = (fastest[0], &fastest[1..]);

    // Sanity: the results are thread-count-invariant (the full check lives
    // in tests/determinism.rs). Oversubscribed counts are still checked for
    // determinism — just not timed.
    let reference = lookups(engine, batches, source, 1);
    for threads in THREAD_LADDER {
        let results = lookups(engine, batches, source, threads);
        assert_eq!(results, reference, "{threads} threads nondeterministic");
    }

    let mut rows = vec![vec![
        "sequential lookup_stream".to_string(),
        format!("{:.2} ms", sequential_ns / 1e6),
        times(1.0),
    ]];
    for (threads, ns) in threads_measured.iter().zip(driver_ns) {
        rows.push(vec![
            format!("parallel lookups ({threads} threads)"),
            format!("{:.2} ms", ns / 1e6),
            times(sequential_ns / ns),
        ]);
    }
    print_table(&["path", "wall clock / stream", "speedup"], &rows);
    println!(
        "\n{SOFTWARE_BATCHES} software batches x {QUERIES_PER_BATCH} queries \
         = {hardware_batches} hardware batches; fastest of {SAMPLES} round-robin samples each"
    );
    if !threads_skipped.is_empty() {
        println!(
            "host has {host_cores} core(s): thread counts {threads_skipped:?} not timed \
             (oversubscribed, determinism still checked)"
        );
    }

    let driver = threads_measured.iter().zip(driver_ns).map(|(&threads, &ns)| {
        Object::new(Layout::OneLine).field("threads", threads).num("wall_ns", ns, 0).num(
            "speedup_private_lookups_vs_shared_stream",
            sequential_ns / ns,
            3,
        )
    });
    let fields = Object::new(Layout::Pretty)
        .field("software_batches", SOFTWARE_BATCHES)
        .field("queries_per_batch", QUERIES_PER_BATCH)
        .field("hardware_batches", hardware_batches)
        .field("samples", SAMPLES)
        .str(
            "caveat",
            "thread counts above host_cores are not timed: an oversubscribed pool measures \
             scheduler noise, not scaling",
        )
        .list("threads_skipped_oversubscribed", &threads_skipped)
        .num("sequential_lookup_stream_wall_ns", sequential_ns, 0)
        .rows("parallel_driver", driver);
    record("parallel_driver", &[], 1.0, fields);
}
