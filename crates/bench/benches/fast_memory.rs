//! Fast-functional memory mode — simulator throughput and fidelity.
//!
//! The serving bench scenario (three deadline windows × 512 Zipf-1.15
//! queries at 2 M qps offered) runs here twice: once under the
//! cycle-accurate memory system and once under the fast-functional model
//! (`--memory-model fast`), measuring the simulator's own wall-clock rate
//! in each mode as min-of-N in one process. Functional outputs are
//! byte-identical across modes by construction (pinned by the core and
//! serving test suites); what this bench records is the throughput win and
//! the timing divergence of the smoke calibration matrix, gated against
//! the recorded tolerance envelope ([`fafnir_serve::ToleranceEnvelope`]).
//!
//! Regression guard: if an existing `BENCH_fast_memory.json` shows
//! materially better throughput in either mode, this bench refuses to
//! overwrite it unless `--force` is passed
//! (`just bench fast_memory --force`). The speedup of fast over cycle mode
//! is recorded but not guarded: a faster cycle mode lowers it without any
//! regression.

use std::time::Instant;

use fafnir_bench::{banner, paper_memory, paper_traffic, print_table, record, Layout, Object};
use fafnir_core::{FafnirEngine, StripedSource};
use fafnir_mem::MemoryModelKind;
use fafnir_serve::{
    calibrate, simulate, BatchPolicy, CalibrationMatrix, ServeConfig, ToleranceEnvelope,
};
use fafnir_workloads::arrival::ArrivalProcess;

const RATE_QPS: f64 = 2e6;
const QUERIES: usize = 512;
const WINDOWS_NS: [f64; 3] = [1_000.0, 4_000.0, 16_000.0];
const REGRESSION_TOLERANCE: f64 = 0.8;
/// The cycle-mode rate recorded by the serving bench when this mode
/// shipped; the tentpole target is ≥10× this in fast mode.
const BASELINE_QPS: f64 = 16_231.0;

/// One full serving-bench pass (all three windows); returns the wall time.
fn run_pass(engine: &FafnirEngine, source: &StripedSource) -> f64 {
    let start = Instant::now();
    for window in WINDOWS_NS {
        let config = ServeConfig {
            arrivals: ArrivalProcess::Poisson { rate_qps: RATE_QPS },
            policy: BatchPolicy::Deadline { max_wait_ns: window, max_batch: 32 },
            queries: QUERIES,
            ..ServeConfig::default()
        };
        let mut traffic = paper_traffic(7);
        let outcome = simulate(engine, source, &mut traffic, &config).expect("serving run");
        std::hint::black_box(outcome);
    }
    start.elapsed().as_secs_f64()
}

/// Simulated queries per wall-clock second, min-of-`passes`.
fn measure(engine: &FafnirEngine, source: &StripedSource, passes: usize) -> f64 {
    let best = (0..passes).map(|_| run_pass(engine, source)).fold(f64::INFINITY, f64::min);
    (QUERIES * WINDOWS_NS.len()) as f64 / best
}

fn main() {
    banner(
        "Fast-functional memory — simulator throughput vs fidelity",
        "analytic batch pricing + the fast fold trade timing detail for ~10x wall-clock",
    );

    let mem = paper_memory();
    let mut fast_mem = mem;
    fast_mem.model = MemoryModelKind::Fast;
    let cycle_engine = FafnirEngine::paper_default(mem).expect("paper defaults");
    let fast_engine = FafnirEngine::paper_default(fast_mem).expect("paper defaults");
    let source = StripedSource::new(mem.topology, 128);

    // Warm-up pass per engine (touches the heap), then min-of-N measured
    // passes.
    run_pass(&cycle_engine, &source);
    run_pass(&fast_engine, &source);
    let cycle_qps = measure(&cycle_engine, &source, 3);
    let fast_qps = measure(&fast_engine, &source, 7);
    let speedup = fast_qps / cycle_qps;
    let speedup_vs_baseline = fast_qps / BASELINE_QPS;

    print_table(
        &["mode", "sim queries/s", "vs cycle", "vs recorded 16,231"],
        &[
            vec![
                "cycle".into(),
                format!("{cycle_qps:.0}"),
                "1.00x".into(),
                format!("{:.2}x", cycle_qps / BASELINE_QPS),
            ],
            vec![
                "fast".into(),
                format!("{fast_qps:.0}"),
                format!("{speedup:.2}x"),
                format!("{speedup_vs_baseline:.2}x"),
            ],
        ],
    );

    // Fidelity: the smoke calibration matrix must sit inside the recorded
    // envelope (the standard matrix is `cargo run -p fafnir-serve
    // --example calibrate`).
    let report = calibrate(&CalibrationMatrix::smoke()).expect("calibration runs");
    let worst = report.worst_per_metric();
    println!("\n{}", report.render_table());
    let recorded = ToleranceEnvelope::recorded();
    if let Err(violations) = report.check(&recorded) {
        eprintln!("fast model drifted out of the recorded envelope:");
        for violation in &violations {
            eprintln!("  {violation}");
        }
        std::process::exit(1);
    }
    println!(
        "fast mode: {fast_qps:.0} queries/s ({speedup:.1}x over cycle, \
         {speedup_vs_baseline:.1}x over the recorded baseline), divergence within envelope"
    );

    let divergence = worst
        .iter()
        .fold(Object::new(Layout::OneLine), |row, &(name, value)| row.num(name, value, 6));
    let envelope = Object::new(Layout::OneLine)
        .num("p50", recorded.p50, 2)
        .num("p95", recorded.p95, 2)
        .num("p99", recorded.p99, 2)
        .num("dram_reads", recorded.dram_reads, 2)
        .num("goodput", recorded.goodput, 2);
    let scenario = format!(
        "serving bench: Zipf-1.15 over 2000 indices, 16 per query, {RATE_QPS:.0} qps offered, \
         deadline windows [1000, 4000, 16000] ns, max_batch 32"
    );
    let fields = Object::new(Layout::Pretty)
        .str("scenario", &scenario)
        .field("queries_per_window", QUERIES)
        .num("cycle_sim_queries_per_sec", cycle_qps, 0)
        .num("fast_sim_queries_per_sec", fast_qps, 0)
        .num("speedup_vs_cycle", speedup, 3)
        .num("recorded_baseline_qps", BASELINE_QPS, 0)
        .num("speedup_vs_recorded_baseline", speedup_vs_baseline, 3)
        .field("calibration_worst_relative_divergence", divergence)
        .field("envelope", envelope);
    record(
        "fast_memory",
        &["fast_sim_queries_per_sec", "cycle_sim_queries_per_sec"],
        REGRESSION_TOLERANCE,
        fields,
    );
}
