//! Deterministic parallel execution of independent serving scenarios.
//!
//! A parameter sweep — batching windows, arrival rates, fault plans — is a
//! set of *self-contained* simulations: each scenario owns its traffic
//! generator and configuration, and the engine's lookup path is a pure
//! function of the batch. So [`run_scenarios`] fans them out through
//! [`fafnir_core::pipeline::map_ordered`], the pool that also runs the
//! partitioned SpMV's row bands, and its thread-count contract reaches down
//! to the rendered [`crate::ServeReport`] JSON bytes (pinned by
//! `tests/scenario_determinism.rs`).

use fafnir_core::pipeline::{map_ordered, LookupService};
use fafnir_core::EmbeddingSource;
use fafnir_workloads::query::BatchGenerator;

use crate::sim::{simulate_resilient, ResilienceConfig, ServeConfig, ServeOutcome};
use crate::ServeError;

/// One self-contained serving simulation: its own configuration, fault
/// layer and traffic generator.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label, carried through to the result row.
    pub label: String,
    /// The serving configuration to run.
    pub config: ServeConfig,
    /// Fault/resilience layer; `None` runs fault-free
    /// ([`ResilienceConfig::none`] for `config.workers`).
    pub resilience: Option<ResilienceConfig>,
    /// The query-shape generator. Owned per scenario: generator state is
    /// the one mutable input of a run, so sharing one across scenarios
    /// would make results depend on execution order.
    pub traffic: BatchGenerator,
}

impl Scenario {
    /// A fault-free scenario.
    #[must_use]
    pub fn new(label: impl Into<String>, config: ServeConfig, traffic: BatchGenerator) -> Self {
        Self { label: label.into(), config, resilience: None, traffic }
    }

    /// The same scenario under a fault plan.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }
}

/// One finished scenario: the label it was submitted under and its outcome.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario's label.
    pub label: String,
    /// The simulation outcome (or the first error it hit).
    pub outcome: Result<ServeOutcome, ServeError>,
}

/// Runs every scenario on up to `threads` pool workers, the calling thread
/// among them, and returns the results in submission order.
///
/// Each scenario is simulated exactly as a standalone
/// [`crate::simulate_resilient`] call would, so the results meet
/// [`map_ordered`]'s thread-count contract.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn run_scenarios<E, S>(
    engine: &E,
    source: &S,
    scenarios: Vec<Scenario>,
    threads: usize,
) -> Vec<ScenarioResult>
where
    E: LookupService + Sync,
    S: EmbeddingSource + Sync,
{
    assert!(threads >= 1, "scenario runner needs at least one thread");
    let run_one = |scenario: Scenario| {
        let Scenario { label, config, resilience, mut traffic } = scenario;
        let resilience = resilience.unwrap_or_else(|| ResilienceConfig::none(config.workers));
        let outcome = simulate_resilient(engine, source, &mut traffic, &config, &resilience);
        ScenarioResult { label, outcome }
    };
    map_ordered(scenarios, threads, run_one)
}
