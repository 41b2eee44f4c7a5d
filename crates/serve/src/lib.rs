//! # fafnir-serve — deterministic serving simulation for FAFNIR
//!
//! The paper's headline mechanism — batch-level unique-index extraction
//! (Fig. 3, Sec. IV-B) — only pays off when queries are *batched*, but an
//! online recommendation service receives an open-loop query stream, not
//! batches (RecNMP, ISCA 2020). This crate turns the [`fafnir_core`]
//! engines into a load-driven system simulated in **virtual time**:
//!
//! * [`fafnir_workloads::arrival`] supplies seeded Poisson / bursty on-off
//!   arrival schedules (open-loop load generation);
//! * a dynamic batcher ([`BatchPolicy`]) forms hardware batches from the
//!   arrival queue — the knob that trades DRAM dedup savings against queue
//!   wait;
//! * admission control ([`ShedPolicy`], bounded queues) converts overload
//!   into a measured shed rate instead of unbounded latency;
//! * a worker pool dispatches formed batches onto replicated engine
//!   instances, each with a private memory system;
//! * a fault-injection and resilience layer
//!   ([`fafnir_workloads::faults::FaultPlan`] + [`ResilienceConfig`])
//!   crashes, restarts and slows workers on a seeded schedule while the
//!   dispatcher fights back with per-batch timeouts, bounded
//!   retry-with-backoff, hedged dispatch, and shed escalation under a
//!   permanent total outage ([`sim::simulate_resilient`]);
//! * [`ServeReport`] aggregates throughput vs goodput, window-normalized
//!   utilization, shed rate, retry/timeout/hedge counters, per-worker
//!   availability and busy fractions, nearest-rank latency percentiles
//!   (p50/p95/p99/p99.9) and DRAM reads per query, rendered as a table or
//!   byte-stable JSON.
//!
//! Everything is deterministic: the same configuration and seeds produce a
//! byte-identical report on any host, a zero-fault plan reproduces the
//! fault-free run byte for byte, and every report-level metric is
//! invariant under worker renumbering.
//!
//! ```
//! use fafnir_core::{FafnirEngine, StripedSource};
//! use fafnir_mem::MemoryConfig;
//! use fafnir_serve::{simulate, BatchPolicy, ServeConfig, ServeReport};
//! use fafnir_workloads::arrival::ArrivalProcess;
//! use fafnir_workloads::query::{BatchGenerator, Popularity};
//!
//! # fn main() -> Result<(), fafnir_serve::ServeError> {
//! let mem = MemoryConfig::ddr4_2400_4ch();
//! let engine = FafnirEngine::paper_default(mem).expect("paper defaults are valid");
//! let source = StripedSource::new(mem.topology, 128);
//! let mut traffic = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 7);
//!
//! let config = ServeConfig {
//!     arrivals: ArrivalProcess::Poisson { rate_qps: 2e6 },
//!     policy: BatchPolicy::Deadline { max_wait_ns: 500_000.0, max_batch: 32 },
//!     queries: 64,
//!     ..ServeConfig::default()
//! };
//! let outcome = simulate(&engine, &source, &mut traffic, &config)?;
//! let report = ServeReport::new(&config, &outcome);
//! assert_eq!(report.served + report.shed, 64);
//! assert!(report.latency.p99_ns >= report.latency.p50_ns);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod policy;
pub mod queue;
pub mod record;
pub mod report;
pub mod scenarios;
pub mod setup;
pub mod sim;

pub use calibrate::{
    calibrate, CalibrationMatrix, CalibrationReport, FaultSpec, MetricDelta, ScenarioDivergence,
    ToleranceEnvelope,
};
pub use policy::BatchPolicy;
pub use queue::ShedPolicy;
pub use record::{AttemptRecord, AttemptResult, BatchRecord, QueryOutcome, QueryRecord};
pub use report::{LatencyStats, ServeReport};
pub use scenarios::{run_scenarios, Scenario, ScenarioResult};
pub use setup::{paper_setup, worker_setup};
pub use sim::{simulate, simulate_resilient, ResilienceConfig, ServeConfig, ServeOutcome};

/// Errors a serving simulation can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The serving configuration is inconsistent (zero workers, degenerate
    /// policy parameters, a batch that can never form, …).
    InvalidConfig(String),
    /// The underlying gather engine rejected a formed batch.
    Engine(fafnir_core::FafnirError),
    /// A finished run broke its conservation law: a query was neither
    /// served, shed nor failed, or a batch was left in the dispatcher. This
    /// is a simulator bug, never a property of the configuration.
    Unaccounted {
        /// Submission id of the first unaccounted query (for a stranded
        /// batch, its first member).
        query: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(message) => write!(f, "invalid serving configuration: {message}"),
            Self::Engine(error) => write!(f, "engine error: {error}"),
            Self::Unaccounted { query } => {
                write!(f, "serving run left query {query} neither served, shed nor failed")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidConfig(_) | Self::Unaccounted { .. } => None,
            Self::Engine(error) => Some(error),
        }
    }
}

impl From<fafnir_core::FafnirError> for ServeError {
    fn from(error: fafnir_core::FafnirError) -> Self {
        Self::Engine(error)
    }
}
