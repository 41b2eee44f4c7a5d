//! # fafnir-mem — a cycle-level DDR4 memory-system simulator
//!
//! This crate is the memory substrate of the FAFNIR reproduction. FAFNIR
//! (HPCA 2021) is a near-data-processing accelerator whose performance story
//! rests on three DRAM-level effects:
//!
//! 1. **Row-buffer locality** — reading a whole 512 B embedding vector from
//!    one rank streams eight bursts out of a single open row, whereas
//!    splitting the vector across ranks (TensorDIMM-style, column-major)
//!    forces a fresh row activation per small read.
//! 2. **Rank-level parallelism** — distinct vectors living on distinct ranks
//!    can be gathered concurrently, limited only by the shared channel data
//!    bus.
//! 3. **Access counts** — FAFNIR's batch dedup removes whole DRAM reads; the
//!    simulator counts activations, reads and energy so those savings are
//!    measurable.
//!
//! The simulator models a DDR4 system as `channels × DIMMs × ranks ×
//! bank groups × banks`, with a per-channel FR-FCFS controller, an
//! open-or-closed page policy, command-level timing (tRCD/tRP/tCL/tCCD/tRRD/
//! tFAW/…) and a shared data bus per channel. It is event-accurate at command
//! granularity: every ACT/PRE/RD/WR is issued on a specific memory-clock
//! cycle and all JEDEC-style constraints between commands are enforced.
//!
//! ## Quick example
//!
//! ```
//! use fafnir_mem::{MemoryConfig, MemorySystem, Request, AccessKind};
//!
//! let config = MemoryConfig::ddr4_2400_4ch();
//! let mut mem = MemorySystem::new(config);
//! // Read one 512-byte embedding vector at address 0x4000.
//! let id = mem.submit(Request::read(0x4000, 512));
//! let done = mem.run_until_idle();
//! let completion = mem.completion(id).expect("request completed");
//! assert!(completion.finish_cycle <= done);
//! assert_eq!(mem.stats().reads, 8); // 512 B = 8 × 64 B bursts
//! # let _ = AccessKind::Read;
//! ```
//!
//! ## Modules
//!
//! * [`config`] — topology and timing parameters with DDR4 presets.
//! * [`address`] — physical-address ↔ device-location mapping schemes.
//! * [`request`] — read/write requests and completions.
//! * [`bank`], [`rank`], [`channel`] — the device state machines.
//! * [`controller`] — the per-channel FR-FCFS scheduler.
//! * [`system`] — the user-facing [`MemorySystem`].
//! * [`model`] — the fast-functional analytic model
//!   ([`FastFunctionalMemory`]) and [`AnyMemory`], which holds either model.
//! * [`stats`], [`energy`] — counters and the DRAM energy model.
//! * [`verify`] — independent JEDEC timing verification of command logs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod bank;
pub mod channel;
pub mod config;
pub mod controller;
pub mod energy;
pub mod model;
pub mod rank;
pub mod request;
pub mod stats;
pub mod system;
pub mod verify;

pub use address::{AddressMapping, Location, PhysAddr};
pub use config::{MemoryConfig, PagePolicy, SchedulerPolicy, Timing, Topology};
pub use energy::EnergyModel;
pub use model::{AnyMemory, FastFunctionalMemory, MemoryModelKind};
pub use request::{AccessKind, Completion, Request, RequestId};
pub use stats::MemoryStats;
pub use system::MemorySystem;
pub use verify::{verify_log, CommandKind, CommandLog, CommandRecord, TimingViolation};

/// A memory-clock cycle count.
///
/// All latencies and timestamps in this crate are expressed in cycles of the
/// DRAM command clock (e.g. 1200 MHz for DDR4-2400).
pub type Cycle = u64;
