//! RecNMP baseline (paper Fig. 2c, Sec. III-C/E).
//!
//! RecNMP reads whole vectors rank-parallel (good row-buffer behaviour,
//! like FAFNIR) and reduces at the DIMM NDPs — but *only* operands that
//! happen to live in the same DIMM. Everything else is forwarded raw to the
//! cores, so in the absence of spatial locality most reduction work and
//! data movement falls back on the host. Repeated indices are filtered by a
//! 128 KB per-rank LRU cache instead of batch dedup.

use fafnir_core::batch::Batch;
use fafnir_core::pipeline::{
    analytic_result, GatherEngine, GatherOutcome, MemoryPlan, PlannedRead,
};
use fafnir_core::placement::EmbeddingSource;
use fafnir_core::timing::PeTiming;
use fafnir_core::{FafnirError, LatencyBreakdown, LookupResult, ReduceOp, TrafficStats};
use fafnir_mem::MemoryConfig;

use crate::cache::VectorCache;
use crate::model::CoreModel;

/// The RecNMP engine.
#[derive(Debug, Clone)]
pub struct RecNmpEngine {
    mem_config: MemoryConfig,
    core: CoreModel,
    pe_timing: PeTiming,
    op: ReduceOp,
    cache_enabled: bool,
}

/// RecNMP's per-batch plan: the cache-filtered reads plus the DIMM
/// co-location analytics the reduce stage prices.
#[derive(Debug, Clone, PartialEq)]
pub struct RecNmpPlan {
    mem: MemoryPlan,
    /// Partial vectors forwarded to the cores (one per referenced DIMM
    /// group per query).
    total_partials: u64,
    /// Element operations performed by the DIMM NDPs (co-located operands).
    ndp_elem_ops: u64,
    /// Longest serial NDP combine chain in any DIMM group.
    max_group_chain: u64,
    /// References absorbed by the rank caches (no DRAM read).
    cache_hits: u64,
}

impl AsRef<MemoryPlan> for RecNmpPlan {
    fn as_ref(&self) -> &MemoryPlan {
        &self.mem
    }
}

impl RecNmpEngine {
    /// Builds RecNMP over the given memory system.
    #[must_use]
    pub fn new(
        mem_config: MemoryConfig,
        core: CoreModel,
        pe_timing: PeTiming,
        op: ReduceOp,
    ) -> Self {
        // RecNMP's rank PUs read over each rank's own port; only partials
        // cross the channel to the cores.
        let mut mem_config = mem_config;
        mem_config.ndp_data_path = true;
        Self { mem_config, core, pe_timing, op, cache_enabled: true }
    }

    /// Paper-default configuration (128 KB rank caches enabled).
    #[must_use]
    pub fn paper_default(mem_config: MemoryConfig) -> Self {
        Self::new(mem_config, CoreModel::server_cpu(), PeTiming::fpga_200mhz(), ReduceOp::Sum)
    }

    /// Disables the rank caches (for the Fig. 13 no-dedup comparison).
    #[must_use]
    pub fn without_cache(mut self) -> Self {
        self.cache_enabled = false;
        self
    }

    /// Runs `batches` one after another with *persistent* rank caches:
    /// batch k+1 hits on vectors batch k loaded. This is the cross-batch
    /// reuse FAFNIR's per-batch dedup cannot capture (and the caches'
    /// justification in the RecNMP design); each result comes with its
    /// batch's cache hit rate.
    ///
    /// [`GatherEngine::lookup`] runs a batch on cold caches, and
    /// [`GatherEngine::lookup_stream`] overlaps batches on one shared memory
    /// system, cold caches per batch.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as
    /// [`GatherEngine::lookup`] for any batch.
    pub fn lookup_warm_stream<S: EmbeddingSource>(
        &self,
        batches: &[Batch],
        source: &S,
    ) -> Result<Vec<(LookupResult, f64)>, FafnirError> {
        let mut caches = self.cold_caches();
        let mut results = Vec::with_capacity(batches.len());
        for batch in batches {
            let before_hits: u64 = caches.iter().map(VectorCache::hits).sum();
            let before_accesses: u64 = caches.iter().map(VectorCache::accesses).sum();
            let plan = self.plan_with_caches(batch, source, &mut caches)?;
            let result = self.reduce(&plan, self.gather(&plan), source)?;
            let hits: u64 = caches.iter().map(VectorCache::hits).sum::<u64>() - before_hits;
            let accesses: u64 =
                caches.iter().map(VectorCache::accesses).sum::<u64>() - before_accesses;
            let hit_rate = if accesses == 0 { 0.0 } else { hits as f64 / accesses as f64 };
            results.push((result, hit_rate));
        }
        Ok(results)
    }

    /// Compiles one batch against caller-owned caches (cold caches = the
    /// plain [`GatherEngine::lookup`] behaviour), precomputing the DIMM
    /// co-location analytics.
    fn plan_with_caches<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
        caches: &mut [VectorCache],
    ) -> Result<RecNmpPlan, FafnirError> {
        if batch.is_empty() {
            return Err(FafnirError::InvalidBatch("batch has no queries".into()));
        }
        let topology = self.mem_config.topology;
        let vector_bytes = source.vector_dim() * 4;
        // NDP combines fold operator accumulators, priced at `acc_dim` lanes.
        let dim = self.op.operator().acc_dim(source.vector_dim()) as u64;

        let mut reads = Vec::new();
        let mut cache_hits: u64 = 0;
        let mut ndp_elem_ops: u64 = 0;
        let mut total_partials: u64 = 0;
        let mut max_group_chain: u64 = 0;
        for query in batch.queries() {
            let mut dimm_counts: std::collections::BTreeMap<(usize, usize), u64> =
                std::collections::BTreeMap::new();
            for index in query.indices.iter() {
                let location = source.location_of(index);
                let rank = location.global_rank(&topology);
                let hit = self.cache_enabled && caches[rank].access(index.value());
                if hit {
                    cache_hits += 1;
                } else {
                    reads.push(PlannedRead { index, location, rank, bytes: vector_bytes });
                }
                *dimm_counts.entry((location.channel, location.dimm(&topology))).or_insert(0) += 1;
            }
            for &count in dimm_counts.values() {
                ndp_elem_ops += (count - 1) * dim;
                max_group_chain = max_group_chain.max(count - 1);
            }
            total_partials += dimm_counts.len() as u64;
        }

        let mut mem = MemoryPlan::new(batch.clone(), self.mem_config);
        mem.reads = reads;
        Ok(RecNmpPlan { mem, total_partials, ndp_elem_ops, max_group_chain, cache_hits })
    }

    /// Fresh cold caches, one per rank.
    fn cold_caches(&self) -> Vec<VectorCache> {
        (0..self.mem_config.topology.total_ranks())
            .map(|_| VectorCache::recnmp_rank_cache())
            .collect()
    }
}

impl GatherEngine for RecNmpEngine {
    type Plan = RecNmpPlan;

    fn name(&self) -> &'static str {
        "recnmp"
    }

    /// Cache-filtered read planning with cold per-batch caches; the warm
    /// cross-batch variant is [`RecNmpEngine::lookup_warm_stream`].
    fn preprocess<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<Vec<RecNmpPlan>, FafnirError> {
        let mut caches = self.cold_caches();
        Ok(vec![self.plan_with_caches(batch, source, &mut caches)?])
    }

    /// NDP combine chains, the host-side partial reduction, and the
    /// partials' link transfer.
    fn reduce<S: EmbeddingSource>(
        &self,
        plan: &RecNmpPlan,
        gathered: GatherOutcome,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        let batch = &plan.mem.batch;
        let vector_bytes = source.vector_dim() * 4;
        let operator = self.op.operator();
        let acc_dim = operator.acc_dim(source.vector_dim());
        let dim = acc_dim as u64;
        let reads = plan.mem.reads.len() as u64;

        let memory_ns = gathered.idle_ns;
        let ndp_tail_ns = plan.max_group_chain as f64 * self.pe_timing.reduce_latency_ns();
        let core_ns = self.core.reduce_ns(plan.total_partials, batch.len() as u64, acc_dim);
        let compute_ns = ndp_tail_ns + core_ns;
        // The host-side merge folds the same accumulators the DIMM NDPs
        // produce, so outputs come from the operator trait path.
        let outputs = fafnir_core::engine::reference_lookup_with(batch, source, operator.as_ref());
        let core_elem_ops = plan.total_partials.saturating_sub(batch.len() as u64) * dim;
        let bytes_to_host = plan.total_partials * vector_bytes as u64;
        let host_link_ns = self.core.transfer_ns(bytes_to_host);

        let latency = LatencyBreakdown {
            total_ns: memory_ns + host_link_ns + compute_ns,
            memory_ns,
            compute_tail_ns: compute_ns,
            compute_busy_ns: compute_ns,
            host_link_ns,
        };
        let traffic = TrafficStats {
            total_references: batch.total_references() as u64,
            vectors_read: reads + plan.cache_hits,
            bytes_from_dram: gathered.memory.bytes_transferred,
            bytes_to_host,
        };
        Ok(analytic_result(
            outputs,
            latency,
            gathered.memory,
            traffic,
            plan.ndp_elem_ops,
            core_elem_ops,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::assert_outputs_match;
    use fafnir_core::indexset;
    use fafnir_core::{IndexSet, StripedSource, VectorIndex};

    fn setup() -> (RecNmpEngine, StripedSource) {
        let mem = MemoryConfig::ddr4_2400_4ch();
        (RecNmpEngine::paper_default(mem), StripedSource::new(mem.topology, 128))
    }

    #[test]
    fn outputs_match_reference() {
        let (engine, source) = setup();
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_outputs_match(&result, &batch, &source, ReduceOp::Sum);
    }

    #[test]
    fn scattered_query_forwards_most_work_to_cores() {
        // 16 vectors on 16 distinct DIMMs: no NDP reduction possible.
        let (engine, source) = setup();
        let batch = Batch::from_index_sets([IndexSet::from_iter_dedup(
            (0..16).map(|i| VectorIndex(i * 2)), // even indices: distinct DIMMs
        )]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.ndp_elem_ops, 0, "no co-located operands");
        assert_eq!(result.core_elem_ops, 15 * 128);
        assert_eq!(result.traffic.bytes_to_host, 16 * 512);
    }

    #[test]
    fn co_located_query_reduces_at_ndp() {
        // Indices 0, 32, 64, 96 all live on rank 0 → one DIMM: full NDP
        // reduction, one partial to the host.
        let (engine, source) = setup();
        let batch = Batch::from_index_sets([indexset![0, 32, 64, 96]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.ndp_elem_ops, 3 * 128);
        assert_eq!(result.core_elem_ops, 0);
        assert_eq!(result.traffic.bytes_to_host, 512);
    }

    #[test]
    fn cache_absorbs_repeated_indices() {
        let (engine, source) = setup();
        // Same index in many queries: reads stay at the unique count + cold
        // misses.
        let sets: Vec<IndexSet> = (0..8).map(|_| indexset![7, 9]).collect();
        let batch = Batch::from_index_sets(sets);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.memory.requests_completed, 2, "only cold misses reach DRAM");
        assert_eq!(result.traffic.vectors_read, 16, "all references counted");
    }

    #[test]
    fn without_cache_reads_every_reference() {
        let mem = MemoryConfig::ddr4_2400_4ch();
        let engine = RecNmpEngine::paper_default(mem).without_cache();
        let source = StripedSource::new(mem.topology, 128);
        let sets: Vec<IndexSet> = (0..4).map(|_| indexset![7, 9]).collect();
        let result = engine.lookup(&Batch::from_index_sets(sets), &source).unwrap();
        assert_eq!(result.memory.requests_completed, 8);
    }

    #[test]
    fn warm_cache_stream_improves_hit_rate_over_batches() {
        let (engine, source) = setup();
        // Batches drawing from a small hot set: the second batch should hit
        // on what the first loaded.
        let sets: Vec<IndexSet> = (0..4).map(|k| indexset![k, k + 1, k + 2, 40, 41]).collect();
        let batch = Batch::from_index_sets(sets);
        let stream = engine.lookup_warm_stream(&[batch.clone(), batch.clone()], &source).unwrap();
        assert_eq!(stream.len(), 2);
        let (first, first_hits) = &stream[0];
        let (second, second_hits) = &stream[1];
        assert!(second_hits > first_hits, "{second_hits} vs {first_hits}");
        assert!(second.memory.requests_completed < first.memory.requests_completed);
        // Cold single lookup equals the first stream element's reads.
        let cold = engine.lookup(&batch, &source).unwrap();
        assert_eq!(cold.memory.requests_completed, first.memory.requests_completed);
    }

    #[test]
    fn memory_phase_beats_tensordimm() {
        // Fig. 11: RecNMP's rank-parallel whole-vector reads are much faster
        // than TensorDIMM's per-rank row-hopping.
        let (engine, source) = setup();
        let mem = MemoryConfig::ddr4_2400_4ch();
        let tensordimm = crate::tensordimm::TensorDimmEngine::paper_default(mem);
        let batch = Batch::from_index_sets([IndexSet::from_iter_dedup(
            (0..16).map(|i| VectorIndex(i * 37 + 5)),
        )]);
        let recnmp = engine.lookup(&batch, &source).unwrap().latency.memory_ns;
        let tensordimm = tensordimm.lookup(&batch, &source).unwrap().latency.memory_ns;
        assert!(tensordimm > 2.0 * recnmp, "tensordimm {tensordimm:.0} vs recnmp {recnmp:.0}");
    }
}
