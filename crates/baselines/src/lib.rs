//! # fafnir-baselines — the NDP baselines FAFNIR is compared against
//!
//! The paper evaluates FAFNIR against three embedding-lookup organizations:
//!
//! * [`no_ndp`] — the processor-centric baseline (Fig. 2a): everything is
//!   gathered to the cores and reduced in software.
//! * [`tensordimm`] — TensorDIMM (Fig. 2b): vectors split column-major over
//!   all ranks, full NDP reduction, but row-buffer locality destroyed.
//! * [`recnmp`] — RecNMP (Fig. 2c): rank-parallel whole-vector reads, NDP
//!   reduction *only* for operands co-located in one DIMM, 128 KB rank
//!   caches ([`cache`]) instead of batch dedup.
//!
//! Every engine — these three and `fafnir_core::FafnirEngine` — answers
//! through the staged `fafnir_core::GatherEngine` pipeline (preprocess →
//! gather → reduce) with one `fafnir_core::LookupResult`: functionally
//! verified outputs plus the latency/traffic/op breakdowns the paper's
//! figures are built from. The baselines price their reduce stage with an
//! analytic model over the simulated memory phase; [`model::CoreModel`]
//! holds the host-side costs. The SpMV baseline (the Two-Step algorithm)
//! lives in `fafnir-sparse`, next to the formats it consumes.
//!
//! ```
//! use fafnir_baselines::RecNmpEngine;
//! use fafnir_core::{Batch, GatherEngine, StripedSource};
//! use fafnir_core::indexset;
//! use fafnir_mem::MemoryConfig;
//!
//! # fn main() -> Result<(), fafnir_core::FafnirError> {
//! let mem = MemoryConfig::ddr4_2400_4ch();
//! let engine = RecNmpEngine::paper_default(mem);
//! let source = StripedSource::new(mem.topology, 128);
//! let batch = Batch::from_index_sets([indexset![1, 2, 5, 6]]);
//! let result = engine.lookup(&batch, &source)?;
//! println!("{}: {:.0} ns", engine.name(), result.latency.total_ns);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod model;
pub mod no_ndp;
pub mod recnmp;
pub mod tensordimm;

pub use cache::VectorCache;
pub use model::CoreModel;
pub use no_ndp::NoNdpEngine;
pub use recnmp::RecNmpEngine;
pub use tensordimm::TensorDimmEngine;
