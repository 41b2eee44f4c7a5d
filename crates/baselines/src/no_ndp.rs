//! The no-NDP baseline (paper Fig. 2a): gather everything to the cores.
//!
//! Every referenced vector — repeats included — is read from DRAM and
//! transferred to the cores, which perform all `n × (q−1) × v` reduction
//! operations in software. This is the `c × m` all-to-all organization the
//! paper starts from.

use fafnir_core::batch::Batch;
use fafnir_core::pipeline::{
    analytic_result, GatherEngine, GatherOutcome, MemoryPlan, PlannedRead,
};
use fafnir_core::placement::EmbeddingSource;
use fafnir_core::{FafnirError, LatencyBreakdown, LookupResult, ReduceOp, TrafficStats};
use fafnir_mem::MemoryConfig;

use crate::model::CoreModel;

/// Processor-centric baseline: no near-data processing at all.
#[derive(Debug, Clone, Copy)]
pub struct NoNdpEngine {
    mem_config: MemoryConfig,
    core: CoreModel,
    op: ReduceOp,
}

impl NoNdpEngine {
    /// Builds the baseline over the given memory system and core model.
    #[must_use]
    pub fn new(mem_config: MemoryConfig, core: CoreModel, op: ReduceOp) -> Self {
        Self { mem_config, core, op }
    }

    /// The paper's configuration with default core model and sum reduction.
    #[must_use]
    pub fn paper_default(mem_config: MemoryConfig) -> Self {
        Self::new(mem_config, CoreModel::server_cpu(), ReduceOp::Sum)
    }
}

impl GatherEngine for NoNdpEngine {
    type Plan = MemoryPlan;

    fn name(&self) -> &'static str {
        "no-ndp"
    }

    /// One read per reference; repeats are separate reads (no dedup, no
    /// cache). The whole software batch is one plan — the cores have no
    /// hardware batch capacity.
    fn preprocess<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<Vec<MemoryPlan>, FafnirError> {
        if batch.is_empty() {
            return Err(FafnirError::InvalidBatch("batch has no queries".into()));
        }
        let vector_bytes = source.vector_dim() * 4;
        let topology = self.mem_config.topology;
        let mut reads = Vec::new();
        for query in batch.queries() {
            for index in query.indices.iter() {
                let location = source.location_of(index);
                reads.push(PlannedRead {
                    index,
                    location,
                    rank: location.global_rank(&topology),
                    bytes: vector_bytes,
                });
            }
        }
        let mut plan = MemoryPlan::new(batch.clone(), self.mem_config);
        plan.reads = reads;
        Ok(vec![plan])
    }

    /// Core-side reduction after the memory phase drains.
    fn reduce<S: EmbeddingSource>(
        &self,
        plan: &MemoryPlan,
        gathered: GatherOutcome,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        let batch = &plan.batch;
        let vector_bytes = source.vector_dim() * 4;
        let read_count = plan.reads.len() as u64;
        let memory_ns = gathered.idle_ns;

        // The cores run the operator's accumulator, so software combines
        // cost `acc_dim` lanes per fold (== `dim` for the element-wise ops,
        // `dim + 1` for Mean's carried count, `2k` for TopK heaps).
        let operator = self.op.operator();
        let acc_dim = operator.acc_dim(source.vector_dim());

        // Core-side reduction: every query folds q accumulators into one.
        let partials: u64 = batch.total_references() as u64;
        let outputs = batch.len() as u64;
        let compute_ns = self.core.reduce_ns(partials, outputs, acc_dim);

        // Functional outputs via the software reference (that is literally
        // what this baseline does): lift → combine → finalize per query.
        let outputs_vec =
            fafnir_core::engine::reference_lookup_with(batch, source, operator.as_ref());

        let latency = LatencyBreakdown {
            total_ns: memory_ns + compute_ns,
            memory_ns,
            compute_tail_ns: compute_ns,
            compute_busy_ns: compute_ns,
            // The reads themselves deliver the data to the cores.
            host_link_ns: 0.0,
        };
        let traffic = TrafficStats {
            total_references: partials,
            vectors_read: read_count,
            bytes_from_dram: gathered.memory.bytes_transferred,
            bytes_to_host: read_count * vector_bytes as u64,
        };
        let core_elem_ops = (partials - outputs) * acc_dim as u64;
        Ok(analytic_result(outputs_vec, latency, gathered.memory, traffic, 0, core_elem_ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::assert_outputs_match;
    use fafnir_core::indexset;
    use fafnir_core::StripedSource;

    fn setup() -> (NoNdpEngine, StripedSource) {
        let mem = MemoryConfig::ddr4_2400_4ch();
        (NoNdpEngine::paper_default(mem), StripedSource::new(mem.topology, 128))
    }

    #[test]
    fn outputs_match_reference() {
        let (engine, source) = setup();
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_outputs_match(&result, &batch, &source, ReduceOp::Sum);
    }

    #[test]
    fn reads_every_reference_and_moves_everything() {
        let (engine, source) = setup();
        let batch = Batch::from_index_sets([indexset![1, 2, 5], indexset![3, 4, 5]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.traffic.vectors_read, 6); // v5 read twice
        assert_eq!(result.traffic.bytes_to_host, 6 * 512);
        assert_eq!(result.ndp_elem_ops, 0);
        assert_eq!(result.core_elem_ops, 4 * 128); // (6 − 2) combines × 128
    }

    #[test]
    fn empty_batch_is_rejected() {
        let (engine, source) = setup();
        assert!(engine.lookup(&Batch::new(), &source).is_err());
    }

    #[test]
    fn compute_follows_memory() {
        let (engine, source) = setup();
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6]]);
        let latency = engine.lookup(&batch, &source).unwrap().latency;
        assert!(latency.total_ns > latency.memory_ns);
        assert!(latency.compute_tail_ns > 0.0);
    }
}
