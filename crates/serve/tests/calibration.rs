//! Serving-level validation of the fast-functional memory model.
//!
//! The unit tests in `fafnir-core` pin fast-vs-cycle byte-identity for
//! hand-built batches; these tests pin it for the batches a *serving
//! simulation actually executes* — shaped by arrival timing, batching
//! policy, retries, and hedges under fault plans — by wrapping both
//! engines in a [`DualModelEngine`] that runs every dispatched batch
//! through both models and asserts bitwise-equal payloads before
//! returning. A property test sweeps operators (including top-k), seeds,
//! and fault plans; a scenario test adds multi-threaded execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use fafnir_core::pipeline::map_ordered;
use fafnir_core::{
    Batch, EmbeddingSource, FafnirConfig, FafnirEngine, FafnirError, GatherEngine, GatherOutcome,
    LookupResult, MemoryPlan, ReduceOp, StripedSource,
};
use fafnir_mem::{MemoryConfig, MemoryModelKind};
use fafnir_serve::{
    calibrate, simulate_resilient, BatchPolicy, CalibrationMatrix, ResilienceConfig, ServeConfig,
    ServeReport, ToleranceEnvelope,
};
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::faults::FaultPlan;
use fafnir_workloads::query::{BatchGenerator, Popularity};
use proptest::prelude::*;

/// Runs every lookup through both memory models and asserts the payloads
/// match bit for bit; serves the fast result, so the simulation's timing
/// is the fast model's.
struct DualModelEngine {
    fast: FafnirEngine,
    cycle: FafnirEngine,
    checked: AtomicUsize,
}

impl DualModelEngine {
    fn new(op: ReduceOp) -> Self {
        let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
        let mut fast_mem = MemoryConfig::ddr4_2400_4ch();
        fast_mem.model = MemoryModelKind::Fast;
        Self {
            fast: FafnirEngine::new(config, fast_mem).expect("fast engine"),
            cycle: FafnirEngine::new(config, MemoryConfig::ddr4_2400_4ch()).expect("cycle engine"),
            checked: AtomicUsize::new(0),
        }
    }
}

impl GatherEngine for DualModelEngine {
    type Plan = MemoryPlan;

    fn name(&self) -> &'static str {
        "dual-model"
    }

    fn preprocess<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<Vec<Self::Plan>, FafnirError> {
        self.fast.preprocess(batch, source)
    }

    fn gather(&self, plan: &Self::Plan) -> GatherOutcome {
        self.fast.gather(plan)
    }

    fn reduce<S: EmbeddingSource>(
        &self,
        plan: &Self::Plan,
        gathered: GatherOutcome,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        self.fast.reduce(plan, gathered, source)
    }

    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        let fast = self.fast.lookup(batch, source)?;
        let cycle = self.cycle.lookup(batch, source)?;
        assert_eq!(fast.outputs.len(), cycle.outputs.len(), "output count diverged");
        for ((fast_id, fast_value), (cycle_id, cycle_value)) in
            fast.outputs.iter().zip(&cycle.outputs)
        {
            assert_eq!(fast_id, cycle_id, "query order diverged");
            assert_eq!(
                fast_value.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                cycle_value.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "query {fast_id} payload diverged"
            );
        }
        assert_eq!(fast.traffic, cycle.traffic, "data movement diverged");
        self.checked.fetch_add(1, Ordering::Relaxed);
        Ok(fast)
    }
}

fn source() -> &'static StripedSource {
    static SOURCE: OnceLock<StripedSource> = OnceLock::new();
    SOURCE.get_or_init(|| StripedSource::new(MemoryConfig::ddr4_2400_4ch().topology, 128))
}

fn operator(kind: usize) -> ReduceOp {
    [
        ReduceOp::Sum,
        ReduceOp::Mean,
        ReduceOp::Max,
        ReduceOp::Min,
        ReduceOp::ArgMax,
        ReduceOp::TopK { k: 3 },
    ][kind]
}

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

fn serve_config(seed: u64, workers: usize) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { rate_qps: 2e6 },
        policy: BatchPolicy::Deadline { max_wait_ns: 4_000.0, max_batch: 16 },
        workers,
        queries: 48,
        seed,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every batch a faulted serving run dispatches — whatever its
    /// composition after retries and hedges — reduces to bitwise-identical
    /// payloads under both memory models, for every operator.
    #[test]
    fn served_payloads_are_byte_identical_across_memory_models(
        seed in 0u64..1_000,
        op_kind in 0usize..6,
        fault_kind in 0usize..3,
        workers in 2usize..4,
    ) {
        let engine = DualModelEngine::new(operator(op_kind));
        let config = serve_config(seed, workers);
        let mut traffic = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, seed);
        simulate_resilient(
            &engine,
            source(),
            &mut traffic,
            &config,
            &resilience(fault_kind, workers, seed),
        )
        .expect("simulation runs");
        prop_assert!(engine.checked.load(Ordering::Relaxed) > 0, "no batch was cross-checked");
    }
}

/// The cross-model check also holds when runs fan out across worker
/// threads, as a CLI sweep's do (the parity assertions run on every
/// thread).
#[test]
fn threaded_scenarios_cross_check_every_batch() {
    let engine = DualModelEngine::new(ReduceOp::TopK { k: 3 });
    let runs = vec![(11u64, 1usize), (12, 2), (13, 0)];
    let reports = map_ordered(runs, 3, |(seed, fault_kind)| {
        let config = serve_config(seed, 3);
        let mut traffic = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, seed);
        let resilience = resilience(fault_kind, 3, seed);
        simulate_resilient(&engine, source(), &mut traffic, &config, &resilience)
            .map(|outcome| (seed, ServeReport::new(&config, &outcome)))
    });
    assert_eq!(reports.len(), 3);
    for report in &reports {
        let (seed, report) = report.as_ref().expect("simulation runs");
        assert_eq!(report.served + report.shed + report.failed, report.offered, "seed {seed}");
    }
    assert!(engine.checked.load(Ordering::Relaxed) >= 3);
}

/// CI gate: the smoke calibration matrix must stay inside the recorded
/// tolerance envelope (the full matrix is `examples/calibrate.rs`).
#[test]
fn calibration_smoke_matrix_is_within_the_recorded_envelope() {
    let report = calibrate(&CalibrationMatrix::smoke()).expect("calibration runs");
    if let Err(violations) = report.check(&ToleranceEnvelope::recorded()) {
        panic!("fast model drifted out of envelope:\n{}", violations.join("\n"));
    }
}
