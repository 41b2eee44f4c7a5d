//! # fafnir-core — the FAFNIR near-memory intelligent reduction tree
//!
//! A from-scratch Rust reproduction of **FAFNIR** (HPCA 2021): a
//! near-data-processing accelerator for *sparse gathering* — embedding
//! lookup in recommendation systems and, via vectorization, SpMV. FAFNIR
//! attaches a reduction tree to the ranks of a DDR4 memory system and
//! *processes data while gathering it*: reductions happen at tree nodes
//! wherever the operands meet (a leaf for neighbours, the root for the
//! remotest pair), so
//!
//! * **all** reduction work happens at NDP regardless of data placement,
//! * only `n × v` output bytes ever cross to the host,
//! * batches are deduplicated at the host, so each unique index is read
//!   from DRAM exactly once — no caches, and
//! * the tree needs `(2m − 2) + c` links instead of all-to-all `c × m`.
//!
//! ## Quick example
//!
//! ```
//! use fafnir_core::{Batch, FafnirConfig, FafnirEngine, StripedSource};
//! use fafnir_core::indexset;
//! use fafnir_mem::MemoryConfig;
//!
//! # fn main() -> Result<(), fafnir_core::FafnirError> {
//! let mem = MemoryConfig::ddr4_2400_4ch();             // 32 ranks
//! let engine = FafnirEngine::new(FafnirConfig::paper_default(), mem)?;
//! let source = StripedSource::new(mem.topology, 128);  // 512 B vectors
//!
//! let batch = Batch::from_index_sets([
//!     indexset![1, 2, 5, 6],   // query 1 (Fig. 1 of the paper)
//!     indexset![3, 4, 5],      // query 2
//! ]);
//! use fafnir_core::GatherEngine; // preprocess → gather → reduce stages
//! let result = engine.lookup(&batch, &source)?;
//! assert_eq!(result.outputs.len(), 2);
//! println!("lookup took {:.1} ns", result.latency.total_ns);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! * [`index`], [`item`] — indices, index sets and the headers items carry.
//! * [`batch`] — queries, batches, unique-index extraction (Sec. IV-C).
//! * [`reduce`] — reduction operators: the [`ReduceOperator`] trait with
//!   per-query accumulator state (Sum/Mean/Max/Min/ArgMax/TopK) and the
//!   [`ReduceOp`] specification that configs and reports name.
//! * [`fastpath`] — the per-query fold that computes every output, with
//!   analytic timing used under the `Fast` memory model.
//! * [`pe`], [`timing`] — the PE microarchitecture and Table IV latencies.
//! * [`tree`], [`inject`] — the event-timed reduction tree and leaf-input
//!   construction; items carry headers and ready times, no values.
//! * [`exec_trace`] — per-PE firing traces with a waterfall renderer.
//! * [`cycle_sim`] — cycle-stepped timing with finite FIFOs and
//!   backpressure, validating Table I's sizing dynamically.
//! * [`pipeline`] — the staged [`GatherEngine`] trait (preprocess → gather
//!   → reduce), the `lookup`/`lookup_stream` drivers, and the ordered
//!   worker pool [`pipeline::map_ordered`].
//! * [`placement`], [`engine`] — vector placement and the end-to-end engine.
//! * [`model`] — buffer sizing, connections, ASIC/FPGA area & power models.
//! * [`verify`] — one-call differential self-verification for configuration
//!   changes.
//! * [`json`] — the ordered JSON writer every report and bench record uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod cycle_sim;
pub mod engine;
pub mod error;
pub mod exec_trace;
pub mod fastpath;
pub mod index;
pub mod inject;
pub mod item;
pub mod json;
pub mod model;
pub mod pe;
pub mod pipeline;
pub mod placement;
pub mod reduce;
pub mod timing;
pub mod tree;
pub mod verify;

pub use batch::{Batch, Query};
pub use config::FafnirConfig;
pub use engine::{
    nearest_rank_percentile_ns, reference_lookup, reference_lookup_with, FafnirEngine,
    LatencyBreakdown, LookupResult, StreamResult, TrafficStats, TreeBackend,
    HOST_LINK_BYTES_PER_NS,
};
pub use error::FafnirError;
pub use index::{IndexSet, QueryId, VectorIndex};
pub use item::{Header, Item, PendingQuery, RankInputs};
pub use pe::{PeOpCounts, ProcessingElement};
pub use pipeline::{
    GatherEngine, GatherOutcome, LookupService, MemoryPlan, PlannedRead, ReadCompletion,
};
pub use placement::{EmbeddingSource, ShardPlan, ShardStrategy, StripedSource};
pub use reduce::{
    ArgMaxOperator, MaxOperator, MeanOperator, MinOperator, ReduceOp, ReduceOperator, SumOperator,
    TopKOperator,
};
pub use timing::PeTiming;
pub use tree::{ReductionTree, TreeRun, TreeStats};
pub use verify::{verify_engine, VerificationReport};
