//! # fafnir-ledger — the FAFNIR reproduction's performance benchmark
//!
//! One binary, `ledger`, measures five workloads end to end and layer by
//! layer. End-to-end metrics cover both kinds of speed the reproduction
//! has: the simulator's own cost (simulated work per host second, set-up
//! time, peak memory) and the modeled accelerator (latency percentiles,
//! memory reads per item, capacity under a p99 limit), all from untraced
//! runs. A traced run splits host time over the crates' layers by timing
//! calls into their public functions from outside ([`trace`]), and adds
//! each layer's modeled counters. Every run checks its outputs ([`verify`]).
//! See `README.md` for the metric table and how to compare two commits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workload;
