//! Sequential vs parallel multi-batch execution.
//!
//! Compares the trait-level sequential [`GatherEngine::lookup_stream`]
//! (every hardware batch's reads share ONE memory system and one FR-FCFS
//! queue) against independent [`GatherEngine::lookup`]s fanned out over
//! worker threads by [`map_ordered`]. Each software batch here is one
//! hardware batch, so each lookup runs one plan on its own private memory
//! system. Two effects stack:
//!
//! * splitting the stream into per-plan memory systems keeps the scheduler
//!   queue shallow, so even one worker beats the shared-queue path, and
//! * with multiple host cores the per-plan simulations overlap.
//!
//! Results are written to `BENCH_parallel_driver.json` at the repo root.

use std::time::Instant;

use criterion::black_box;
use fafnir_bench::{banner, paper_memory, paper_traffic, print_table, record, times};
use fafnir_core::pipeline::map_ordered;
use fafnir_core::{Batch, FafnirEngine, GatherEngine, LookupResult, StripedSource};

const SOFTWARE_BATCHES: usize = 8;
const QUERIES_PER_BATCH: usize = 32; // = paper batch capacity -> 8 hardware batches
const SAMPLES: u32 = 10;
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

fn measure<F: FnMut()>(mut body: F) -> f64 {
    for _ in 0..2 {
        body(); // warm-up
    }
    let start = Instant::now();
    for _ in 0..SAMPLES {
        body();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(SAMPLES)
}

/// Every batch's standalone lookup on up to `threads` workers, in
/// submission order.
fn lookups(
    engine: &FafnirEngine,
    batches: &[Batch],
    source: &StripedSource,
    threads: usize,
) -> Vec<LookupResult> {
    map_ordered(batches.iter().collect(), threads, |batch| engine.lookup(batch, source))
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

    let sequential_ns = measure(|| {
        black_box(engine.lookup_stream(&batches, &source).expect("sequential stream"));
    });

    let mut driver_ns = Vec::new();
    for &threads in &threads_measured {
        driver_ns.push(measure(|| {
            black_box(lookups(&engine, &batches, &source, threads));
        }));
    }

    // Sanity: the results are thread-count-invariant (the full check lives
    // in tests/determinism.rs). Oversubscribed counts are still checked for
    // determinism — just not timed.
    let reference = lookups(&engine, &batches, &source, 1);
    for threads in THREAD_LADDER {
        let results = lookups(&engine, &batches, &source, threads);
        assert_eq!(results, reference, "{threads} threads nondeterministic");
    }

    let mut rows = vec![vec![
        "sequential lookup_stream".to_string(),
        format!("{:.2} ms", sequential_ns / 1e6),
        times(1.0),
    ]];
    for (threads, ns) in threads_measured.iter().zip(&driver_ns) {
        rows.push(vec![
            format!("parallel lookups ({threads} threads)"),
            format!("{:.2} ms", ns / 1e6),
            times(sequential_ns / ns),
        ]);
    }
    print_table(&["path", "wall clock / stream", "speedup"], &rows);
    println!(
        "\n{SOFTWARE_BATCHES} software batches x {QUERIES_PER_BATCH} queries \
         = {hardware_batches} hardware batches; {SAMPLES} samples each"
    );
    if !threads_skipped.is_empty() {
        println!(
            "host has {host_cores} core(s): thread counts {threads_skipped:?} not timed \
             (oversubscribed, determinism still checked)"
        );
    }

    let driver_json: Vec<String> = threads_measured
        .iter()
        .zip(&driver_ns)
        .map(|(threads, ns)| {
            format!(
                "    {{\"threads\": {threads}, \"wall_ns\": {ns:.0}, \
                 \"speedup_vs_sequential\": {:.3}}}",
                sequential_ns / ns
            )
        })
        .collect();
    let skipped_json: Vec<String> =
        threads_skipped.iter().map(std::string::ToString::to_string).collect();
    let json = format!(
        "{{\n  \"bench\": \"parallel_driver\",\n  \"software_batches\": {SOFTWARE_BATCHES},\n  \
         \"queries_per_batch\": {QUERIES_PER_BATCH},\n  \
         \"hardware_batches\": {hardware_batches},\n  \"samples\": {SAMPLES},\n  \
         \"host_cores\": {host_cores},\n  \
         \"caveat\": \"thread counts above host_cores are not timed: an oversubscribed \
         pool measures scheduler noise, not scaling\",\n  \
         \"threads_skipped_oversubscribed\": [{}],\n  \
         \"sequential_lookup_stream_wall_ns\": {sequential_ns:.0},\n  \
         \"parallel_driver\": [\n{}\n  ]\n}}\n",
        skipped_json.join(", "),
        driver_json.join(",\n")
    );
    record("parallel_driver", &json, &[], 1.0);
}
