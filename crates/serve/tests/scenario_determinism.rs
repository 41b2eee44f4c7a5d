//! Property tests for a sweep of serving runs over worker threads: for any
//! thread count, traffic seed, and fault plan, mapping the runs through
//! [`map_ordered`] (each a [`simulate_resilient`] call on its own traffic
//! generator, reported by [`ServeReport::new`]) must render report JSON
//! byte-identical to the one-thread run. This is the path the CLI's
//! `--sweep-windows` takes on every available core, and the contract that
//! lets it do so without changing a single number.

use std::sync::OnceLock;

use fafnir_core::pipeline::map_ordered;
use fafnir_core::{FafnirEngine, StripedSource};
use fafnir_mem::MemoryConfig;
use fafnir_serve::{simulate_resilient, BatchPolicy, ResilienceConfig, ServeConfig, ServeReport};
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::faults::FaultPlan;
use fafnir_workloads::query::{BatchGenerator, Popularity};
use proptest::prelude::*;

fn engine() -> &'static FafnirEngine {
    static ENGINE: OnceLock<FafnirEngine> = OnceLock::new();
    ENGINE
        .get_or_init(|| FafnirEngine::paper_default(MemoryConfig::ddr4_2400_4ch()).expect("engine"))
}

fn source() -> &'static StripedSource {
    static SOURCE: OnceLock<StripedSource> = OnceLock::new();
    SOURCE.get_or_init(|| StripedSource::new(MemoryConfig::ddr4_2400_4ch().topology, 128))
}

fn traffic(seed: u64) -> BatchGenerator {
    BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, seed)
}

/// The sampled fault layer: fault-free, a straggler replica with hedging,
/// or seeded crash/restart churn with retries.
fn resilience(kind: usize, workers: usize, seed: u64) -> ResilienceConfig {
    match kind {
        0 => ResilienceConfig::none(workers),
        1 => ResilienceConfig {
            faults: FaultPlan::slow_workers(workers, 1, 4.0),
            hedge_ns: Some(3_000.0),
            ..ResilienceConfig::none(workers)
        },
        _ => ResilienceConfig {
            faults: FaultPlan::crash_restart(workers, 40_000.0, 10_000.0, 400_000.0, seed),
            timeout_ns: Some(50_000.0),
            retries: 2,
            ..ResilienceConfig::none(workers)
        },
    }
}

/// One run per batching window, all sharing the sampled fault layer, on up
/// to `threads` workers; each report is rendered exactly as the CLI would.
fn rendered_reports(seed: u64, workers: usize, fault_kind: usize, threads: usize) -> Vec<String> {
    let resilience = resilience(fault_kind, workers, seed);
    map_ordered(vec![2_000.0, 8_000.0], threads, |max_wait_ns: f64| {
        let config = ServeConfig {
            arrivals: ArrivalProcess::Poisson { rate_qps: 2e6 },
            policy: BatchPolicy::Deadline { max_wait_ns, max_batch: 16 },
            workers,
            queries: 48,
            seed,
            ..ServeConfig::default()
        };
        let outcome =
            simulate_resilient(engine(), source(), &mut traffic(seed), &config, &resilience)
                .expect("simulation runs");
        format!("window {max_wait_ns} ns\n{}", ServeReport::new(&config, &outcome).to_json())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole contract: parallel execution is invisible in the output.
    #[test]
    fn parallel_reports_are_byte_identical_to_sequential(
        seed in 0u64..1_000,
        workers in 2usize..4,
        fault_kind in 0usize..3,
        threads in 2usize..5,
    ) {
        let sequential = rendered_reports(seed, workers, fault_kind, 1);
        let parallel = rendered_reports(seed, workers, fault_kind, threads);
        prop_assert_eq!(sequential, parallel);
    }
}

/// Oversubscription (more threads than runs) must clamp, not skew.
#[test]
fn more_threads_than_scenarios_is_byte_identical() {
    let sequential = rendered_reports(7, 2, 0, 1);
    let oversubscribed = rendered_reports(7, 2, 0, 16);
    assert_eq!(sequential, oversubscribed);
}
