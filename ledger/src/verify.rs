//! Correctness checks. They run outside the timed region; every violation
//! counts as a failed operation, and a run with any exits non-zero.

use fafnir_cluster::route;
use fafnir_core::{
    reference_lookup_with, Batch, FafnirConfig, IndexSet, QueryId, ReduceOperator, StripedSource,
};
use fafnir_serve::ServeOutcome;

use crate::workload::System;

/// Tolerance of an engine output element against the software reference,
/// relative to the reference value (absolute below magnitude 1).
pub const REL_TOL: f32 = 1e-5;

/// Violations found so far, with the first few described.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Violations {
    /// Number of violations.
    pub count: u64,
    /// Descriptions of the first [`Violations::KEPT`] violations.
    pub first: Vec<String>,
}

impl Violations {
    /// Descriptions kept for the report.
    pub const KEPT: usize = 8;

    /// Records `count` violations described by `what` (no-op for 0).
    pub fn add(&mut self, count: u64, what: impl FnOnce() -> String) {
        if count == 0 {
            return;
        }
        self.count += count;
        if self.first.len() < Self::KEPT {
            self.first.push(what());
        }
    }

    /// Records one violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.add(u64::from(!ok), what);
    }
}

/// Queries whose output is missing, extra, or differs from the reference by
/// more than [`REL_TOL`] in any element.
#[must_use]
pub fn output_mismatches(got: &[(QueryId, Vec<f32>)], want: &[(QueryId, Vec<f32>)]) -> u64 {
    let matches = |(qa, a): &(QueryId, Vec<f32>), (qb, b): &(QueryId, Vec<f32>)| {
        qa == qb
            && a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= REL_TOL * y.abs().max(1.0))
    };
    let compared = got.len().min(want.len());
    let wrong = got.iter().zip(want).filter(|(g, w)| !matches(g, w)).count();
    (wrong + got.len().max(want.len()) - compared) as u64
}

/// Unique indices per hardware batch, summed: the DRAM reads a
/// deduplicating tree must issue for `batch`.
fn unique_per_hardware_batch(config: &FafnirConfig, batch: &Batch) -> u64 {
    let hardware = if config.arrange_batches {
        batch.split_for_sharing(config.batch_capacity)
    } else {
        batch.split(config.batch_capacity)
    };
    hardware.iter().map(|b| b.unique_indices().len() as u64).sum()
}

/// Checks one serving rep: every arrival served exactly once, every formed
/// batch's outputs against the software reference, DRAM reads against the
/// unique indices per hardware batch, host bytes against `n × v × 4`, and —
/// for a cluster — the routed sub-queries against the routed touches.
pub fn serve_rep(
    system: &System,
    source: &StripedSource,
    shapes: &[IndexSet],
    outcome: &ServeOutcome,
    violations: &mut Violations,
) {
    let offered = outcome.records.len();
    let (served, shed, failed) = (outcome.served(), outcome.shed(), outcome.failed());
    violations.check(served + shed + failed == offered, || {
        format!("served {served} + shed {shed} + failed {failed} != offered {offered}")
    });
    violations.add((shed + failed) as u64, || format!("{shed} queries shed, {failed} failed"));

    let config = system.config();
    let operator: std::sync::Arc<dyn ReduceOperator> = config.op.operator();
    let vector_bytes = (config.vector_dim * std::mem::size_of::<f32>()) as u64;
    for (number, record) in outcome.batches.iter().enumerate() {
        let batch = Batch::from_index_sets(record.queries.iter().map(|&id| shapes[id].clone()));
        let result = match system.lookup(&batch, source) {
            Ok(result) => result,
            Err(error) => {
                violations.add(1, || format!("batch {number}: replay failed: {error}"));
                continue;
            }
        };
        let reference = reference_lookup_with(&batch, source, &*operator);
        violations.add(output_mismatches(&result.outputs, &reference), || {
            format!("batch {number}: outputs differ from the software reference")
        });
        let expected_reads = match system {
            System::Tree(_) => unique_per_hardware_batch(config, &batch),
            System::Cluster(cluster, _) => {
                let routed = route(&batch, cluster.plan(), cluster.policy());
                let sub_queries: usize = routed.per_shard.iter().map(Vec::len).sum();
                let touches: usize = routed.touched.iter().map(Vec::len).sum();
                violations.check(sub_queries == touches, || {
                    format!("batch {number}: {sub_queries} shard sub-queries for {touches} touches")
                });
                routed
                    .per_shard
                    .iter()
                    .filter(|subs| !subs.is_empty())
                    .map(|subs| {
                        let sub = Batch::from_index_sets(subs.iter().map(|s| s.indices.clone()));
                        unique_per_hardware_batch(config, &sub)
                    })
                    .sum()
            }
        };
        violations.check(result.traffic.vectors_read == expected_reads, || {
            format!(
                "batch {number}: {} DRAM reads, {expected_reads} unique indices per hardware batch",
                result.traffic.vectors_read
            )
        });
        violations.check(result.traffic.bytes_to_host == batch.len() as u64 * vector_bytes, || {
            format!("batch {number}: {} bytes to host", result.traffic.bytes_to_host)
        });
        violations.check(
            record.references == result.traffic.total_references
                && record.vectors_read == result.traffic.vectors_read * u64::from(record.attempts),
            || format!("batch {number}: serving record disagrees with its replay"),
        );
    }
}
