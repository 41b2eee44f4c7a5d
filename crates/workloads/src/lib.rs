//! # fafnir-workloads — embedding workloads for the FAFNIR reproduction
//!
//! The paper evaluates FAFNIR on embedding lookup driven by
//! recommendation-system traffic. This crate provides the workload side:
//!
//! * [`arrival`] — open-loop Poisson and on/off (MMPP-style) arrival
//!   processes, the load side of the `fafnir-serve` serving simulation;
//! * [`faults`] — seeded per-worker crash/restart and slowdown schedules,
//!   the failure side of the same simulation;
//! * [`embedding`] — embedding-table sets mapped to DRAM per Fig. 4b,
//!   implementing [`fafnir_core::EmbeddingSource`];
//! * [`zipf`] — a Zipf sampler (production embedding traffic is highly
//!   skewed, which is where batch dedup gets its wins);
//! * [`query`] — query/batch generators over uniform, Zipf and hot/cold
//!   popularity models;
//! * [`stats`] — unique-index statistics over sampled batches (Figs. 3
//!   and 15);
//! * [`recsys`] — the end-to-end inference model (embedding + fixed-latency
//!   FC layers + other, Fig. 12);
//! * [`trace`] — record/replay query traces so production traffic can be
//!   plugged in;
//! * [`similarity`] — query-vs-table scored lookup: two-stage candidate
//!   shortlisting, exact top-k ground truth, and recall@k for the Top-K
//!   near-memory re-ranking scenario;
//! * [`tablewise`] — DLRM-style one-row-per-table query generation;
//! * [`dlrm`] — a parametric DLRM cost model deriving the paper's fixed FC
//!   latency from MLP shapes.
//!
//! ```
//! use fafnir_workloads::query::{BatchGenerator, Popularity};
//!
//! let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.05 }, 100_000, 16, 7);
//! let batch = generator.batch(32);
//! assert_eq!(batch.len(), 32);
//! assert!(batch.unique_fraction() <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod dlrm;
pub mod embedding;
pub mod faults;
pub mod query;
pub mod recsys;
pub mod similarity;
pub mod stats;
pub mod tablewise;
pub mod trace;
pub mod zipf;

pub use arrival::ArrivalProcess;
pub use dlrm::{DlrmBreakdown, DlrmModel, MlpSpec};
pub use embedding::{EmbeddingTableSet, TablePlacement};
pub use faults::{FaultPlan, WorkerFaults};
pub use query::{BatchGenerator, Popularity};
pub use recsys::{InferenceBreakdown, RecSysModel};
pub use similarity::{recall_at_k, SimilarityWorkload};
pub use tablewise::TablewiseGenerator;
pub use trace::{QueryTrace, ReuseDistances, TraceReuse};
pub use zipf::Zipf;
