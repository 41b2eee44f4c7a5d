//! TensorDIMM baseline (paper Fig. 2b, Sec. III-A/B).
//!
//! TensorDIMM splits every embedding vector *column-major* across all ranks:
//! each rank stores `v/m` elements of every vector and reduces its slice of
//! a query locally, so the cores only concatenate partial outputs. Data
//! movement is the optimal `n × v`, but
//!
//! * reading a vector means every rank reads a tiny chunk (< one burst) from
//!   a *different row* per vector — the row buffer is mostly wasted and
//!   tFAW/tRC-bound activations dominate (the paper's "lack of row-buffer
//!   locality", ≈4.45× RecNMP's memory latency for one query), and
//! * each rank's reduction is a serial pipeline over the q chunks, not a
//!   parallel tree (≈2.5× FAFNIR's computation latency).
//!
//! Because every rank executes the *same* command stream by symmetry (and
//! each rank's NDP consumes its chunks over the rank's own port), the memory
//! phase is simulated on a single representative rank; the plan's
//! `stats_scale` projects the counters back to all ranks.

use fafnir_core::batch::Batch;
use fafnir_core::pipeline::{
    analytic_result, GatherEngine, GatherOutcome, MemoryPlan, PlannedRead,
};
use fafnir_core::placement::EmbeddingSource;
use fafnir_core::timing::PeTiming;
use fafnir_core::{
    FafnirError, LatencyBreakdown, LookupResult, ReduceOp, TrafficStats, HOST_LINK_BYTES_PER_NS,
};
use fafnir_mem::{Location, MemoryConfig, Topology};

/// The TensorDIMM engine.
#[derive(Debug, Clone, Copy)]
pub struct TensorDimmEngine {
    mem_config: MemoryConfig,
    pe_timing: PeTiming,
    op: ReduceOp,
}

impl TensorDimmEngine {
    /// Builds TensorDIMM over the given memory system.
    #[must_use]
    pub fn new(mem_config: MemoryConfig, pe_timing: PeTiming, op: ReduceOp) -> Self {
        // TensorDIMM's reduction units sit in the DIMMs: chunk reads stay on
        // each rank's own port and only partial outputs cross the channel.
        let mut mem_config = mem_config;
        mem_config.ndp_data_path = true;
        Self { mem_config, pe_timing, op }
    }

    /// Paper-default configuration.
    #[must_use]
    pub fn paper_default(mem_config: MemoryConfig) -> Self {
        Self::new(mem_config, PeTiming::fpga_200mhz(), ReduceOp::Sum)
    }

    /// Where vector `index`'s chunk lives inside any rank: every rank holds
    /// the chunk at the same local coordinates (column-major split). The
    /// chunk array is a linear structure consumed *in order* by the DIMM's
    /// pipelined adder, so chunks live in one bank region and random indices
    /// hit random rows of it — each tiny read pays a full row cycle, the
    /// row-buffer loss of Sec. III-B.
    fn chunk_location(topology: &Topology, index: u32) -> Location {
        // Production tables span millions of rows, so two random indices of
        // a query virtually never share a row. Spread the (test-scale) index
        // space the same way with a Fibonacci hash.
        let slot = (index as usize).wrapping_mul(0x9E37_79B1) & 0x7FFF_FFFF;
        Location {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: (slot / topology.columns) % topology.rows,
            column: slot % topology.columns,
        }
    }
}

impl GatherEngine for TensorDimmEngine {
    type Plan = MemoryPlan;

    fn name(&self) -> &'static str {
        "tensordimm"
    }

    /// One chunk read per reference against a single representative rank
    /// (by symmetry every rank issues the identical stream); counters are
    /// projected back to all ranks via `stats_scale`.
    fn preprocess<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<Vec<MemoryPlan>, FafnirError> {
        if batch.is_empty() {
            return Err(FafnirError::InvalidBatch("batch has no queries".into()));
        }
        let topology = self.mem_config.topology;
        let ranks = topology.total_ranks();
        let vector_bytes = source.vector_dim() * 4;
        // Chunk per rank, padded to the 64 B burst minimum (this padding is
        // exactly the bandwidth waste the paper calls out).
        let chunk_bytes = vector_bytes.div_ceil(ranks).max(topology.burst_bytes);

        let mut one_rank = self.mem_config;
        one_rank.topology.channels = 1;
        one_rank.topology.dimms_per_channel = 1;
        one_rank.topology.ranks_per_dimm = 1;

        let mut reads = Vec::new();
        for query in batch.queries() {
            for index in query.indices.iter() {
                reads.push(PlannedRead {
                    index,
                    location: Self::chunk_location(&topology, index.value()),
                    rank: 0,
                    bytes: chunk_bytes,
                });
            }
        }
        let mut plan = MemoryPlan::new(batch.clone(), one_rank);
        plan.reads = reads;
        plan.stats_scale = ranks as u64;
        Ok(vec![plan])
    }

    /// Serial DIMM adder chains after the (representative-rank) memory
    /// phase, then the `n × v` output transfer.
    fn reduce<S: EmbeddingSource>(
        &self,
        plan: &MemoryPlan,
        gathered: GatherOutcome,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        let batch = &plan.batch;
        let vector_bytes = source.vector_dim() * 4;
        // Every rank runs the identical chunk-read stream on its own NDP
        // port, so the representative rank's time is the memory phase.
        let memory_ns = gathered.idle_ns;

        // Serial pipelined reduction at each DIMM: (q−1) chain stages for
        // the first query, then one stage per further query (II = 1 stage).
        let stage_ns = self.pe_timing.reduce_latency_ns();
        let q = batch.max_query_len() as f64;
        let n = batch.len() as f64;
        let compute_ns = ((q - 1.0).max(0.0) + (n - 1.0).max(0.0)) * stage_ns;

        // Functional outputs go through the operator trait (lift → combine →
        // finalize), so the DIMM adders model any accumulator the tree can.
        let operator = self.op.operator();
        let outputs = fafnir_core::engine::reference_lookup_with(batch, source, operator.as_ref());
        let dim = operator.acc_dim(source.vector_dim()) as u64;
        let partials = batch.total_references() as u64;

        let bytes_to_host = batch.len() as u64 * vector_bytes as u64;
        let host_link_ns = bytes_to_host as f64 / HOST_LINK_BYTES_PER_NS;
        let latency = LatencyBreakdown {
            total_ns: memory_ns + compute_ns + host_link_ns,
            memory_ns,
            compute_tail_ns: compute_ns,
            // The DIMM adder chain initiates one query per stage, so the
            // compute stage is busy ~n stages per batch.
            compute_busy_ns: batch.len() as f64 * stage_ns,
            host_link_ns,
        };
        let traffic = TrafficStats {
            total_references: partials,
            vectors_read: plan.reads.len() as u64,
            bytes_from_dram: gathered.memory.bytes_transferred,
            bytes_to_host,
        };
        let ndp_elem_ops = (partials - batch.len() as u64) * dim;
        Ok(analytic_result(outputs, latency, gathered.memory, traffic, ndp_elem_ops, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::assert_outputs_match;
    use crate::no_ndp::NoNdpEngine;
    use fafnir_core::indexset;
    use fafnir_core::{IndexSet, StripedSource, VectorIndex};

    fn setup() -> (TensorDimmEngine, StripedSource) {
        let mem = MemoryConfig::ddr4_2400_4ch();
        (TensorDimmEngine::paper_default(mem), StripedSource::new(mem.topology, 128))
    }

    fn single_query_16() -> Batch {
        Batch::from_index_sets([IndexSet::from_iter_dedup(
            (0..16).map(|i| VectorIndex(i * 37 + 5)),
        )])
    }

    #[test]
    fn outputs_match_reference() {
        let (engine, source) = setup();
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_outputs_match(&result, &batch, &source, ReduceOp::Sum);
    }

    #[test]
    fn all_reductions_happen_at_ndp() {
        let (engine, source) = setup();
        let result = engine.lookup(&single_query_16(), &source).unwrap();
        assert_eq!(result.core_elem_ops, 0);
        assert_eq!(result.ndp_elem_ops, 15 * 128);
        assert_eq!(result.ndp_fraction(), 1.0);
    }

    #[test]
    fn data_to_host_is_n_times_v() {
        let (engine, source) = setup();
        let batch = Batch::from_index_sets([indexset![1, 2], indexset![3, 4]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.traffic.bytes_to_host, 2 * 512);
    }

    #[test]
    fn memory_latency_is_activation_bound() {
        // 16 chunk reads hit 16 different rows: essentially no row hits.
        let (engine, source) = setup();
        let result = engine.lookup(&single_query_16(), &source).unwrap();
        assert_eq!(result.memory.row_hits, 0, "column-major split kills locality");
        assert!(result.memory.activations >= 16 * 32);
    }

    #[test]
    fn slower_than_no_ndp_memory_for_single_query() {
        // The paper's Fig. 11: TensorDIMM's memory phase is several times
        // slower than a rank-parallel whole-vector gather.
        let (engine, source) = setup();
        let mem = MemoryConfig::ddr4_2400_4ch();
        let rank_parallel = NoNdpEngine::paper_default(mem);
        let batch = single_query_16();
        let tensordimm = engine.lookup(&batch, &source).unwrap().latency.memory_ns;
        let parallel = rank_parallel.lookup(&batch, &source).unwrap().latency.memory_ns;
        assert!(
            tensordimm > 2.0 * parallel,
            "tensordimm {tensordimm:.0} ns vs rank-parallel {parallel:.0} ns"
        );
    }

    #[test]
    fn compute_pipeline_scales_with_batch() {
        let (engine, source) = setup();
        let one = engine.lookup(&single_query_16(), &source).unwrap();
        let mut sets = Vec::new();
        for b in 0..8u32 {
            sets.push(IndexSet::from_iter_dedup((0..16).map(|i| VectorIndex(b * 100 + i))));
        }
        let eight = engine.lookup(&Batch::from_index_sets(sets), &source).unwrap();
        assert!(eight.latency.compute_tail_ns > one.latency.compute_tail_ns);
    }
}
