//! Differential self-verification of an engine configuration.
//!
//! Downstream users changing hardware parameters (leaf ratios, timings,
//! buffer sizes, memory standards) need a one-call check that the machine
//! still computes embedding lookups exactly and still honours the paper's
//! structural guarantees. [`verify_engine`] runs a set of batches through
//! the engine, compares every output against the software reference, and
//! checks the invariants; the CLI exposes it as `fafnir selftest`.

use crate::batch::Batch;
use crate::engine::{reference_lookup, FafnirEngine};
use crate::pipeline::GatherEngine;
use crate::placement::EmbeddingSource;

/// One discrepancy found during verification.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrepancy {
    /// Index of the offending batch in the input list.
    pub batch_index: usize,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch {}: {}", self.batch_index, self.detail)
    }
}

/// Outcome of a verification run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerificationReport {
    /// Batches checked.
    pub batches: usize,
    /// Queries whose outputs matched the reference.
    pub queries_verified: usize,
    /// Everything that did not hold.
    pub discrepancies: Vec<Discrepancy>,
}

impl VerificationReport {
    /// True when every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// Human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.passed() {
            format!(
                "PASS: {} batches, {} query outputs verified against the software reference",
                self.batches, self.queries_verified
            )
        } else {
            let mut out = format!(
                "FAIL: {} discrepancies over {} batches\n",
                self.discrepancies.len(),
                self.batches
            );
            for discrepancy in &self.discrepancies {
                out.push_str(&format!("  {discrepancy}\n"));
            }
            out
        }
    }
}

/// Verifies `engine` against the software reference on the given batches.
///
/// Checks, per batch: output equality (within float tolerance), dedup read
/// counts, `n × v` host traffic, completed tree outputs, and latency
/// ordering (`total ≥ memory`, percentiles ≤ total).
#[must_use]
pub fn verify_engine<S: EmbeddingSource>(
    engine: &FafnirEngine,
    source: &S,
    batches: &[Batch],
) -> VerificationReport {
    let mut report = VerificationReport { batches: batches.len(), ..Default::default() };
    let mut fail = |index: usize, detail: String| {
        report.discrepancies.push(Discrepancy { batch_index: index, detail });
    };
    for (index, batch) in batches.iter().enumerate() {
        let result = match engine.lookup(batch, source) {
            Ok(result) => result,
            Err(error) => {
                fail(index, format!("lookup failed: {error}"));
                continue;
            }
        };
        let reference = reference_lookup(batch, source, engine.config().op);
        if result.outputs.len() != reference.len() {
            fail(
                index,
                format!("{} outputs, reference has {}", result.outputs.len(), reference.len()),
            );
            continue;
        }
        let mut batch_ok = true;
        for ((qa, got), (qb, want)) in result.outputs.iter().zip(&reference) {
            if qa != qb {
                fail(index, format!("query order mismatch: {qa} vs {qb}"));
                batch_ok = false;
                break;
            }
            for (position, (x, y)) in got.iter().zip(want).enumerate() {
                let tolerance = 1e-3_f32.max(y.abs() * 1e-4);
                if (x - y).abs() > tolerance {
                    fail(index, format!("{qa} element {position}: {x} vs {y}"));
                    batch_ok = false;
                    break;
                }
            }
            if !batch_ok {
                break;
            }
        }
        if engine.config().dedup
            && result.traffic.vectors_read
                > batch
                    .split(engine.config().batch_capacity)
                    .iter()
                    .map(|b| b.unique_indices().len() as u64)
                    .sum::<u64>()
        {
            fail(index, "dedup read more than the per-hardware-batch unique counts".into());
        }
        if result.traffic.bytes_to_host != (batch.len() * engine.config().vector_bytes()) as u64 {
            fail(index, format!("host traffic {} != n x v", result.traffic.bytes_to_host));
        }
        if result.tree.incomplete_outputs != 0 {
            fail(index, format!("{} incomplete tree outputs", result.tree.incomplete_outputs));
        }
        if result.latency.total_ns + 1e-9 < result.latency.memory_ns {
            fail(index, "total latency below the memory phase".into());
        }
        if batch_ok {
            report.queries_verified += batch.len();
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FafnirConfig;
    use crate::index::{IndexSet, VectorIndex};
    use crate::placement::StripedSource;
    use fafnir_mem::MemoryConfig;

    fn batches(seed: u32) -> Vec<Batch> {
        (0..4u32)
            .map(|k| {
                Batch::from_index_sets((0..6u32).map(|q| {
                    IndexSet::from_iter_dedup(
                        (0..8u32).map(move |j| VectorIndex((seed + k * 53 + q * 7 + j) % 300)),
                    )
                }))
            })
            .collect()
    }

    #[test]
    fn default_configuration_passes() {
        let mem = MemoryConfig::ddr4_2400_4ch();
        let engine = FafnirEngine::new(FafnirConfig::paper_default(), mem).unwrap();
        let source = StripedSource::new(mem.topology, 128);
        let report = verify_engine(&engine, &source, &batches(11));
        assert!(report.passed(), "{}", report.summary());
        assert_eq!(report.batches, 4);
        assert_eq!(report.queries_verified, 24);
        assert!(report.summary().starts_with("PASS"));
    }

    #[test]
    fn exotic_configurations_pass_too() {
        for (ranks, ratio) in [(8usize, 1usize), (16, 4), (32, 2)] {
            let mem = MemoryConfig::with_total_ranks(ranks);
            let config = FafnirConfig {
                ranks_per_leaf: ratio,
                vector_dim: 16,
                ..FafnirConfig::paper_default()
            };
            let engine = FafnirEngine::new(config, mem).unwrap();
            let source = StripedSource::new(mem.topology, 16);
            let report = verify_engine(&engine, &source, &batches(23));
            assert!(report.passed(), "ranks {ranks} ratio {ratio}: {}", report.summary());
        }
    }

    #[test]
    fn oversized_queries_are_reported_not_panicked() {
        let mem = MemoryConfig::ddr4_2400_4ch();
        let engine = FafnirEngine::new(FafnirConfig::paper_default(), mem).unwrap();
        let source = StripedSource::new(mem.topology, 128);
        let long = Batch::from_index_sets([IndexSet::from_iter_dedup((0..20).map(VectorIndex))]);
        let report = verify_engine(&engine, &source, &[long]);
        assert!(!report.passed());
        assert!(report.summary().contains("lookup failed"));
        assert!(report.discrepancies[0].to_string().contains("batch 0"));
    }
}
