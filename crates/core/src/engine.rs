//! The end-to-end FAFNIR engine: host preprocessing → DRAM gather →
//! reduction tree → host.
//!
//! [`FafnirEngine`] implements the staged [`GatherEngine`] pipeline; its
//! [`GatherEngine::lookup`] driver runs one software batch of
//! embedding-lookup queries through the full pipeline:
//!
//! 1. `preprocess`: the host extracts unique indices and builds leaf
//!    headers (Sec. IV-C), compiling one [`MemoryPlan`] per hardware batch;
//! 2. `gather`: every unique index becomes one DRAM read simulated by
//!    [`fafnir_mem::MemorySystem`] (rank-parallel, row-buffer aware);
//! 3. `reduce`: the walk in [`crate::fastpath`] times every query under
//!    the fast memory model; under the cycle model, read completions inject
//!    headers into the reduction tree, which times all reductions at NDP
//!    while gathering. The root forwards exactly one vector per query to
//!    the host. The values ride the walk only when outputs are asked for:
//!    [`GatherEngine::lookup_timing`] returns the same result without them
//!    and never fetches or folds a value.
//!
//! Software batches larger than the hardware capacity are served as several
//! hardware batches back to back (Sec. IV-B); their latencies accumulate.

use fafnir_mem::MemoryConfig;

use crate::batch::Batch;
use crate::config::FafnirConfig;
use crate::error::FafnirError;
use crate::fastpath::{fast_reduce, fast_timing, FastRun};
use crate::index::{IndexSet, QueryId, VectorIndex};
use crate::inject::{build_rank_inputs, GatheredVector};
use crate::pipeline::{
    drive, GatherEngine, GatherOutcome, MemoryPlan, PlannedRead, SequentialMerge,
};
use crate::placement::EmbeddingSource;
use crate::reduce::{ReduceOp, ReduceOperator};
use crate::tree::{ReductionTree, TreeStats};

/// Aggregate bandwidth of the memory-to-host link, in bytes per nanosecond
/// (≈ GB/s): half of four DDR4-2400 channels' 76.8 GB/s, since results
/// forwarded to the host contend with the ongoing gather traffic at the
/// host memory interface.
pub const HOST_LINK_BYTES_PER_NS: f64 = 38.4;

/// Latency decomposition of a lookup, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// End-to-end latency: last query output delivered to the host.
    pub total_ns: f64,
    /// Memory phase: last DRAM read completed.
    pub memory_ns: f64,
    /// Exposed (non-overlapped) computation latency. FAFNIR's tree works
    /// while reads stream in, so its tail is `total − memory`; the
    /// baselines' analytic models price it directly.
    pub compute_tail_ns: f64,
    /// How long the compute stage is busy per batch when batches run back
    /// to back (throughput view). For a serial pipeline or a core-side
    /// combine it equals `compute_tail_ns`; for FAFNIR's fully pipelined
    /// tree it is the root's output serialization, far below its latency.
    pub compute_busy_ns: f64,
    /// Time the batch's results (outputs or partials) occupy the
    /// memory-to-host link. Zero when the reads themselves deliver the data
    /// to the cores (no-NDP baseline).
    pub host_link_ns: f64,
}

impl LatencyBreakdown {
    /// Overlays the times of a result that ran concurrently with this one
    /// (another cluster shard): every stage takes the slower of the two,
    /// and the exposed compute tail is what remains after the memory phase.
    pub fn overlay(&mut self, other: &LatencyBreakdown) {
        self.total_ns = self.total_ns.max(other.total_ns);
        self.memory_ns = self.memory_ns.max(other.memory_ns);
        self.compute_tail_ns = (self.total_ns - self.memory_ns).max(0.0);
        self.compute_busy_ns = self.compute_busy_ns.max(other.compute_busy_ns);
        self.host_link_ns = self.host_link_ns.max(other.host_link_ns);
    }
}

/// Data-movement accounting of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Index references in the batch (`Σ |query|`).
    pub total_references: u64,
    /// DRAM vector reads actually issued (= unique indices with dedup).
    pub vectors_read: u64,
    /// Bytes read from DRAM.
    pub bytes_from_dram: u64,
    /// Bytes forwarded from the root to the host (`n × v` — the paper's
    /// guaranteed data movement).
    pub bytes_to_host: u64,
}

/// Result of one embedding-lookup batch.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupResult {
    /// Finished per-query output vectors, sorted by query id.
    pub outputs: Vec<(QueryId, Vec<f32>)>,
    /// Per-query completion times (delivery at the host), sorted by query
    /// id — the distribution behind serving-tail SLAs.
    pub per_query_ns: Vec<(QueryId, f64)>,
    /// Latency decomposition.
    pub latency: LatencyBreakdown,
    /// DRAM counters (activations, hits, energy inputs).
    pub memory: fafnir_mem::MemoryStats,
    /// Tree counters (reduces, forwards, buffer occupancy).
    pub tree: TreeStats,
    /// Data-movement accounting.
    pub traffic: TrafficStats,
    /// Element-wise reduction operations executed at NDP.
    pub ndp_elem_ops: u64,
    /// Element-wise reduction operations executed at the cores.
    pub core_elem_ops: u64,
}

impl LookupResult {
    /// Lookup throughput in queries per second, latency-based (one batch at
    /// a time). Counts the timed queries, so a timing-only result (no
    /// outputs) reads the same rate.
    #[must_use]
    pub fn queries_per_second(&self) -> f64 {
        if self.latency.total_ns <= 0.0 {
            0.0
        } else {
            self.per_query_ns.len() as f64 / (self.latency.total_ns * 1e-9)
        }
    }

    /// Sustained time per batch when batches run back to back: the gather,
    /// host-link and compute stages pipeline across batches, so the
    /// slowest stage sets the rate.
    #[must_use]
    pub fn sustained_ns(&self) -> f64 {
        let latency = &self.latency;
        latency.memory_ns.max(latency.compute_busy_ns).max(latency.host_link_ns)
    }

    /// Sustained throughput in queries per second (pipelined batches).
    #[must_use]
    pub fn sustained_queries_per_second(&self) -> f64 {
        let sustained = self.sustained_ns();
        if sustained <= 0.0 {
            0.0
        } else {
            self.per_query_ns.len() as f64 / (sustained * 1e-9)
        }
    }

    /// Fraction of reduction work done at NDP (1.0 for FAFNIR/TensorDIMM,
    /// and for a result without reduction work).
    #[must_use]
    pub fn ndp_fraction(&self) -> f64 {
        let total = self.ndp_elem_ops + self.core_elem_ops;
        if total == 0 {
            1.0
        } else {
            self.ndp_elem_ops as f64 / total as f64
        }
    }

    /// Adds `other`'s counters into this result: DRAM, tree, traffic and
    /// op counters sum, the buffer peak and tree depth take the maximum.
    /// Every merge of partial results — serial hardware batches, cluster
    /// shards — calls this and applies its own rule to the times and
    /// outputs.
    pub fn add_counters(&mut self, other: &LookupResult) {
        self.memory.merge(&other.memory);
        let tree = &mut self.tree;
        tree.ops.merge(&other.tree.ops);
        tree.levels = tree.levels.max(other.tree.levels);
        tree.pes += other.tree.pes;
        tree.max_buffer_items = tree.max_buffer_items.max(other.tree.max_buffer_items);
        tree.incomplete_outputs += other.tree.incomplete_outputs;
        let traffic = &mut self.traffic;
        traffic.total_references += other.traffic.total_references;
        traffic.vectors_read += other.traffic.vectors_read;
        traffic.bytes_from_dram += other.traffic.bytes_from_dram;
        traffic.bytes_to_host += other.traffic.bytes_to_host;
        self.ndp_elem_ops += other.ndp_elem_ops;
        self.core_elem_ops += other.core_elem_ops;
    }

    /// The `p`-th percentile of per-query completion times (nearest-rank),
    /// e.g. `0.5` for the median, `0.99` for the serving tail. Returns 0.0
    /// for an empty result.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    #[must_use]
    pub fn completion_percentile_ns(&self, p: f64) -> f64 {
        let times: Vec<f64> = self.per_query_ns.iter().map(|&(_, t)| t).collect();
        nearest_rank_percentile_ns(&times, p)
    }
}

/// The `p`-th nearest-rank percentile of a latency sample in nanoseconds.
///
/// The sample need not be sorted; `p = 1.0` is the maximum, `p = 0.5` the
/// median. Returns 0.0 for an empty sample. This is the percentile
/// definition shared by [`LookupResult::completion_percentile_ns`] and the
/// `fafnir-serve` tail-latency reports, so per-batch and per-service
/// numbers are directly comparable.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1]`.
#[must_use]
pub fn nearest_rank_percentile_ns(samples: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "percentile must be in (0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut times = samples.to_vec();
    times.sort_by(f64::total_cmp);
    let rank = ((p * times.len() as f64).ceil() as usize).clamp(1, times.len());
    times[rank - 1]
}

/// Result of a pipelined multi-batch stream (see
/// [`GatherEngine::lookup_stream`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// Hardware batches executed.
    pub batches: usize,
    /// Total queries answered.
    pub queries: usize,
    /// Delivery time of the last output, in nanoseconds.
    pub total_ns: f64,
    /// Completion time of each batch's last output, in submission order.
    pub per_batch_completion_ns: Vec<f64>,
    /// DRAM counters over the whole stream.
    pub memory: fafnir_mem::MemoryStats,
    /// Vector reads issued over the whole stream.
    pub vectors_read: u64,
}

impl StreamResult {
    /// Measured sustained time per batch: `total / batches`.
    #[must_use]
    pub fn sustained_ns_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.total_ns / self.batches as f64
        }
    }

    /// Measured sustained throughput in queries per second.
    #[must_use]
    pub fn queries_per_second(&self) -> f64 {
        if self.total_ns <= 0.0 {
            0.0
        } else {
            self.queries as f64 / (self.total_ns * 1e-9)
        }
    }
}

/// How the reduce stage times the reduction tree. There is one backend: the
/// event-timed header tree, whose place the fold's analytic times take
/// under the fast memory model. The type and [`FafnirEngine::backend`] stay
/// because the frozen `ledger/` benchmark reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeBackend {
    /// Event-driven tree model: per-item ready times, per-PE op counters,
    /// unbounded buffers.
    EventTimed,
}

/// The FAFNIR accelerator: a reduction tree over a DDR4 memory system.
#[derive(Debug, Clone)]
pub struct FafnirEngine {
    mem_config: MemoryConfig,
    /// The tree, which also holds the engine's [`FafnirConfig`].
    tree: ReductionTree,
    /// Operator override; `None` instantiates from `config.op`. Lives here
    /// (not in [`FafnirConfig`], which stays a plain `Copy` value) so stateful
    /// operators like a similarity-search [`crate::reduce::TopKOperator`]
    /// with a per-lookup scoring vector can be injected.
    operator: Option<std::sync::Arc<dyn ReduceOperator>>,
}

impl FafnirEngine {
    /// Builds an engine; the tree spans all ranks of `mem_config`.
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidConfig`] for inconsistent
    /// configurations (see [`ReductionTree::new`]).
    // Inlined so the caller builds the 400-byte engine in place: as an
    // out-of-line call it is assembled on the stack and copied into the
    // result, which costs about 15 % of a serving worker's set-up.
    #[inline]
    pub fn new(config: FafnirConfig, mem_config: MemoryConfig) -> Result<Self, FafnirError> {
        // FAFNIR's leaf PEs are rank-attached: gathered vectors reach them
        // over each rank's own port, not the shared channel bus.
        let mut mem_config = mem_config;
        mem_config.ndp_data_path = true;
        mem_config.validate().map_err(FafnirError::InvalidConfig)?;
        let tree = ReductionTree::new(config, mem_config.topology.total_ranks())?;
        Ok(Self { mem_config, tree, operator: None })
    }

    /// Paper-default FAFNIR over the given memory system.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from [`FafnirEngine::new`].
    pub fn paper_default(mem_config: MemoryConfig) -> Result<Self, FafnirError> {
        Self::new(FafnirConfig::paper_default(), mem_config)
    }

    /// The tree timing backend: always [`TreeBackend::EventTimed`].
    #[must_use]
    pub fn backend(&self) -> TreeBackend {
        TreeBackend::EventTimed
    }

    /// Overrides the reduction operator for this engine instance.
    ///
    /// By default the engine instantiates the operator named by
    /// `config.op`. This hook injects a *stateful* operator instead — e.g.
    /// [`crate::reduce::TopKOperator::with_scoring`] carrying a
    /// similarity-search query vector. The configured `op` keeps naming the
    /// operator in configs and reports; only the reduce stage's arithmetic is
    /// overridden. Timing is unchanged either way (link and PE latencies
    /// derive from `vector_dim`, not the accumulator width).
    #[must_use]
    pub fn with_operator(mut self, operator: std::sync::Arc<dyn ReduceOperator>) -> Self {
        self.operator = Some(operator);
        self
    }

    /// The operator the reduce stage will apply: the override if one was
    /// injected, else the one named by `config.op`.
    #[must_use]
    pub fn active_operator(&self) -> std::sync::Arc<dyn ReduceOperator> {
        self.operator.clone().unwrap_or_else(|| self.config().op.operator())
    }

    /// The accelerator configuration.
    #[must_use]
    pub fn config(&self) -> &FafnirConfig {
        self.tree.config()
    }

    /// The memory configuration.
    #[must_use]
    pub fn memory_config(&self) -> &MemoryConfig {
        &self.mem_config
    }

    /// The reduction tree.
    #[must_use]
    pub fn tree(&self) -> &ReductionTree {
        &self.tree
    }

    /// Interactive (non-batch) lookup: queries are served one at a time,
    /// each as its own hardware batch, merged on one serial timeline the
    /// way [`GatherEngine::lookup`] merges hardware batches, so
    /// `per_query_ns` holds every query's completion under its own id.
    ///
    /// Sec. IV-C: "the same mechanism can also be used for interactive
    /// processing, in which all nodes would either forward or reduce without
    /// performing any comparisons" — with a single in-flight query every
    /// header holds one entry, so the compute units' compare loops are
    /// trivial. Batch mode amortizes gather parallelism and shares unique
    /// indices; this method quantifies what that is worth.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GatherEngine::lookup`].
    pub fn lookup_interactive<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        let mut merge = SequentialMerge::default();
        for query in batch.queries() {
            let mut single = Batch::new();
            single.push(query.indices.clone());
            let mut result = self.lookup(&single, source)?;
            // Restore the caller's query id.
            result.outputs.iter_mut().for_each(|(id, _)| *id = query.id);
            result.per_query_ns.iter_mut().for_each(|(id, _)| *id = query.id);
            merge.push(result);
        }
        merge.finish().ok_or_else(|| FafnirError::InvalidBatch("batch has no queries".into()))
    }

    /// The reduce stage: a timing part, with the values as its optional
    /// part. The walk ([`crate::fastpath`]) answers every query and times it
    /// under the fast memory model; under the cycle model the injector and
    /// the event-timed header tree time it, fed from the reads without
    /// values. With `values`, each read's value is fetched from that source
    /// and rides the walk, which then also folds and finalizes every
    /// output; without, `outputs` is empty and every other field is the
    /// same. Accounts the root → host link transfer per output.
    fn reduce_stage<S: EmbeddingSource>(
        &self,
        plan: &MemoryPlan,
        gathered: GatherOutcome,
        values: Option<&S>,
    ) -> Result<LookupResult, FafnirError> {
        let config = self.config();
        let batch = &plan.batch;
        let reads = &gathered.completions;
        let FastRun { outputs, completion_ns: answered, stats } = match values {
            Some(source) => {
                let vectors: Vec<GatheredVector> = reads
                    .iter()
                    .map(|read| GatheredVector {
                        index: read.index,
                        rank: read.rank,
                        value: source.shared_value_of(plan.resolve(read.index)),
                        ready_ns: read.ready_ns,
                    })
                    .collect();
                fast_reduce(batch, &vectors, &self.tree, &*self.active_operator())
            }
            None => fast_timing(batch, reads, &self.tree),
        };
        if answered.len() != batch.len() {
            return Err(FafnirError::InvalidBatch(format!(
                "{} of {} queries did not complete in the tree",
                batch.len() - answered.len(),
                batch.len()
            )));
        }
        let memory_ns = gathered.last_ready_ns();
        let fast_memory = self.mem_config.model == fafnir_mem::MemoryModelKind::Fast;
        let (completions, tree_stats) = if fast_memory {
            (answered, stats)
        } else {
            let inputs = build_rank_inputs(
                batch,
                reads,
                self.mem_config.topology.total_ranks(),
                config.ranks_per_leaf,
                &config.pe_timing,
            );
            let run = self.tree.run(inputs);
            let completions = run.query_completion_ns();
            if !answered
                .iter()
                .map(|(query, _)| query)
                .eq(completions.iter().map(|(query, _)| query))
            {
                return Err(FafnirError::InvalidBatch(format!(
                    "the walk answered {} queries but the timing model completed a different set of {}",
                    answered.len(),
                    completions.len()
                )));
            }
            (completions, run.stats)
        };
        // Root → host link transfer per output.
        let per_query_ns: Vec<(QueryId, f64)> =
            completions.iter().map(|&(query, t)| (query, t + config.link_transfer_ns())).collect();
        let total_ns = per_query_ns.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        // The tree is fully pipelined: per batch it is busy only for the
        // root's output serialization (one output per initiation interval
        // per query), not the tree's depth.
        let timing = &config.pe_timing;
        let compute_busy_ns =
            completions.len() as f64 * timing.output_interval_cycles as f64 * timing.cycle_ns();
        let bytes_to_host = (batch.len() * config.vector_bytes()) as u64;
        // Every reduce the tree performed happened at NDP; count merged
        // (deduplicated) reduces as element ops.
        let reduces = tree_stats.ops.reduces;
        let ndp_elem_ops = (reduces / 2).max(reduces.min(1)) * config.vector_dim as u64;

        Ok(LookupResult {
            outputs,
            per_query_ns,
            latency: LatencyBreakdown {
                total_ns,
                memory_ns,
                compute_tail_ns: (total_ns - memory_ns).max(0.0),
                compute_busy_ns,
                host_link_ns: bytes_to_host as f64 / HOST_LINK_BYTES_PER_NS,
            },
            memory: gathered.memory,
            traffic: TrafficStats {
                total_references: batch.total_references() as u64,
                vectors_read: plan.reads.len() as u64,
                bytes_from_dram: gathered.memory.bytes_transferred,
                bytes_to_host,
            },
            tree: tree_stats,
            ndp_elem_ops,
            core_elem_ops: 0,
        })
    }
}

impl GatherEngine for FafnirEngine {
    type Plan = MemoryPlan;

    fn name(&self) -> &'static str {
        "fafnir"
    }

    /// Host preprocessing (Sec. IV-C): validates the batch, splits it into
    /// hardware batches, applies deduplication (or rewrites the batch over
    /// per-occurrence virtual indices when dedup is disabled), and resolves
    /// every unique index to its DRAM location.
    fn preprocess<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<Vec<MemoryPlan>, FafnirError> {
        if batch.is_empty() {
            return Err(FafnirError::InvalidBatch("batch has no queries".into()));
        }
        let config = self.config();
        if source.vector_dim() != config.vector_dim {
            return Err(FafnirError::InvalidBatch(format!(
                "source vector_dim {} != configured {}",
                source.vector_dim(),
                config.vector_dim
            )));
        }
        if batch.max_query_len() > config.max_query_len {
            return Err(FafnirError::InvalidBatch(format!(
                "query of {} indices exceeds the hardware header limit q = {}",
                batch.max_query_len(),
                config.max_query_len
            )));
        }
        let hardware_batches = if config.arrange_batches {
            batch.split_for_sharing(config.batch_capacity)
        } else {
            batch.split(config.batch_capacity)
        };
        let vector_bytes = config.vector_bytes();
        let topology = self.mem_config.topology;
        Ok(hardware_batches
            .into_iter()
            .map(|hardware_batch| {
                // Without dedup every reference is its own read; model that
                // by rewriting the batch over per-occurrence virtual
                // indices.
                let (plan_batch, origin): (Batch, Option<Vec<VectorIndex>>) = if config.dedup {
                    (hardware_batch, None)
                } else {
                    let mut originals = Vec::new();
                    let rewritten = hardware_batch
                        .queries()
                        .iter()
                        .map(|query| {
                            IndexSet::from_iter_dedup(query.indices.iter().map(|index| {
                                let virtual_id = VectorIndex(originals.len() as u32);
                                originals.push(index);
                                virtual_id
                            }))
                        })
                        .collect::<Batch>();
                    (rewritten, Some(originals))
                };
                let resolve = |index: VectorIndex| -> VectorIndex {
                    match &origin {
                        Some(map) => map[index.value() as usize],
                        None => index,
                    }
                };
                // One DRAM read per (unique) index.
                let reads: Vec<PlannedRead> = plan_batch
                    .unique_indices()
                    .iter()
                    .map(|index| {
                        let location = source.location_of(resolve(index));
                        PlannedRead {
                            index,
                            location,
                            rank: location.global_rank(&topology),
                            bytes: vector_bytes,
                        }
                    })
                    .collect();
                MemoryPlan {
                    batch: plan_batch,
                    origin,
                    sim_config: self.mem_config,
                    reads,
                    stats_scale: 1,
                }
            })
            .collect())
    }

    /// Tree phase: the walk folds every output, and the walk (fast memory)
    /// or the event-timed header tree (cycle memory) times every query.
    fn reduce<S: EmbeddingSource>(
        &self,
        plan: &MemoryPlan,
        gathered: GatherOutcome,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        self.reduce_stage(plan, gathered, Some(source))
    }

    /// Tree phase for timing alone: no value is fetched or folded.
    fn reduce_timing<S: EmbeddingSource>(
        &self,
        plan: &MemoryPlan,
        gathered: GatherOutcome,
        _source: &S,
    ) -> Result<LookupResult, FafnirError> {
        self.reduce_stage::<S>(plan, gathered, None)
    }

    /// [`GatherEngine::lookup`]'s driver over the timing-only reduce.
    fn lookup_timing<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        drive(self, batch, source, Self::reduce_timing)
    }
}

/// Reference software lookup used to validate engine outputs in tests and
/// benchmarks: gathers and reduces on the "CPU".
#[must_use]
pub fn reference_lookup<S: EmbeddingSource>(
    batch: &Batch,
    source: &S,
    op: ReduceOp,
) -> Vec<(QueryId, Vec<f32>)> {
    reference_lookup_with(batch, source, &*op.operator())
}

/// Operator-generic variant of [`reference_lookup`]: lifts, folds and
/// finalizes with `operator`, so index-aware operators (`ArgMax`, `TopK`)
/// validate too.
#[must_use]
pub fn reference_lookup_with<S: EmbeddingSource>(
    batch: &Batch,
    source: &S,
    operator: &dyn ReduceOperator,
) -> Vec<(QueryId, Vec<f32>)> {
    batch
        .reference_outputs_with(operator, |index| source.value_of(index))
        .into_iter()
        .filter_map(|(query, value)| value.map(|v| (query, v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexset;
    use crate::placement::StripedSource;

    fn engine() -> FafnirEngine {
        FafnirEngine::new(FafnirConfig::paper_default(), MemoryConfig::ddr4_2400_4ch()).unwrap()
    }

    fn source() -> StripedSource {
        StripedSource::new(MemoryConfig::ddr4_2400_4ch().topology, 128)
    }

    fn assert_outputs_match_reference(
        batch: &Batch,
        result: &LookupResult,
        source: &StripedSource,
    ) {
        let reference = reference_lookup(batch, source, ReduceOp::Sum);
        assert_eq!(result.outputs.len(), reference.len());
        for ((qa, got), (qb, expected)) in result.outputs.iter().zip(&reference) {
            assert_eq!(qa, qb);
            for (x, y) in got.iter().zip(expected) {
                assert!((x - y).abs() < 1e-3, "{qa}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn lookup_matches_software_reference() {
        let engine = engine();
        let source = source();
        let batch = Batch::from_index_sets([
            indexset![1, 2, 5, 6],
            indexset![3, 4, 5],
            indexset![7, 40, 100, 260],
        ]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_outputs_match_reference(&batch, &result, &source);
        assert!(result.latency.total_ns > 0.0);
        assert!(result.latency.memory_ns > 0.0);
        assert!(result.queries_per_second() > 0.0);
    }

    #[test]
    fn dedup_reads_only_unique_indices() {
        let engine = engine();
        let source = source();
        // Index 5 shared by both queries: 6 references, 5 unique.
        let batch = Batch::from_index_sets([indexset![1, 2, 5], indexset![3, 4, 5]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.traffic.total_references, 6);
        assert_eq!(result.traffic.vectors_read, 5);
        // 5 × 512 B at 64 B bursts = 40 reads.
        assert_eq!(result.memory.reads, 40);
    }

    #[test]
    fn no_dedup_reads_every_reference() {
        let mut config = FafnirConfig::paper_default();
        config.dedup = false;
        let engine = FafnirEngine::new(config, MemoryConfig::ddr4_2400_4ch()).unwrap();
        let source = source();
        let batch = Batch::from_index_sets([indexset![1, 2, 5], indexset![3, 4, 5]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.traffic.vectors_read, 6);
        assert_outputs_match_reference(&batch, &result, &source);
    }

    #[test]
    fn per_query_latencies_and_percentiles_are_consistent() {
        let engine = engine();
        let source = source();
        let sets: Vec<IndexSet> = (0..8u32)
            .map(|i| IndexSet::from_iter_dedup((0..8).map(|j| VectorIndex(i * 8 + j))))
            .collect();
        let batch = Batch::from_index_sets(sets);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.per_query_ns.len(), 8);
        let p50 = result.completion_percentile_ns(0.5);
        let p99 = result.completion_percentile_ns(0.99);
        assert!(p50 > 0.0 && p50 <= p99);
        assert!((p99 - result.latency.total_ns).abs() < 1e-6, "p99 of 8 = max");
        // Every per-query time is below the batch total.
        for &(_, t) in &result.per_query_ns {
            assert!(t <= result.latency.total_ns + 1e-9);
        }
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let engine = engine();
        let source = source();
        let batch = Batch::from_index_sets([indexset![1, 2, 3]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.per_query_ns.len(), 1);
        let only = result.per_query_ns[0].1;
        for p in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(result.completion_percentile_ns(p), only, "p = {p}");
        }
    }

    #[test]
    fn percentile_one_equals_maximum_and_handles_unsorted_samples() {
        // Unsorted, duplicated sample: nearest-rank must sort internally.
        let samples = [400.0, 100.0, 300.0, 100.0, 200.0];
        assert_eq!(nearest_rank_percentile_ns(&samples, 1.0), 400.0);
        assert_eq!(nearest_rank_percentile_ns(&samples, 0.2), 100.0);
        assert_eq!(nearest_rank_percentile_ns(&samples, 0.5), 200.0);
        assert_eq!(nearest_rank_percentile_ns(&samples, 0.99), 400.0);
        assert_eq!(nearest_rank_percentile_ns(&[], 0.5), 0.0);
        // A result whose per_query_ns was shuffled still reports p=1.0 as
        // the maximum.
        let engine = engine();
        let source = source();
        let batch = Batch::from_index_sets([indexset![1, 2], indexset![3, 4], indexset![60, 61]]);
        let mut result = engine.lookup(&batch, &source).unwrap();
        result.per_query_ns.reverse();
        let max = result.per_query_ns.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        assert_eq!(result.completion_percentile_ns(1.0), max);
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0, 1]")]
    fn percentile_zero_is_rejected() {
        let _ = nearest_rank_percentile_ns(&[1.0], 0.0);
    }

    #[test]
    fn every_reduce_op_matches_its_reference_end_to_end() {
        let source = source();
        let batch = Batch::from_index_sets([
            indexset![1, 2, 5, 6],
            indexset![3, 4, 5],
            indexset![7, 40, 100, 260],
        ]);
        for op in [
            ReduceOp::Sum,
            ReduceOp::Mean,
            ReduceOp::Max,
            ReduceOp::Min,
            ReduceOp::ArgMax,
            ReduceOp::TopK { k: 2 },
        ] {
            let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
            let engine = FafnirEngine::new(config, MemoryConfig::ddr4_2400_4ch()).unwrap();
            let result = engine.lookup(&batch, &source).unwrap();
            let reference = reference_lookup_with(&batch, &source, &*op.operator());
            assert_eq!(result.outputs.len(), reference.len(), "{op}");
            for ((qa, got), (qb, expected)) in result.outputs.iter().zip(&reference) {
                assert_eq!(qa, qb);
                assert_eq!(got.len(), expected.len(), "{op} output width");
                for (x, y) in got.iter().zip(expected) {
                    assert!((x - y).abs() < 1e-3, "{op} {qa}: {x} vs {y}");
                }
            }
        }
    }

    /// Clones a memory config with the fast model selected.
    fn fast_mem(mut config: MemoryConfig) -> MemoryConfig {
        config.model = fafnir_mem::MemoryModelKind::Fast;
        config
    }

    #[test]
    fn fast_memory_model_outputs_are_byte_identical_for_every_operator() {
        let source = source();
        let batch = Batch::from_index_sets([
            indexset![1, 2, 5, 6],
            indexset![3, 4, 5],
            indexset![7, 40, 100, 260],
            indexset![5],
        ]);
        for op in [
            ReduceOp::Sum,
            ReduceOp::Mean,
            ReduceOp::Max,
            ReduceOp::Min,
            ReduceOp::ArgMax,
            ReduceOp::TopK { k: 2 },
        ] {
            let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
            let cycle = FafnirEngine::new(config, MemoryConfig::ddr4_2400_4ch()).unwrap();
            let fast = FafnirEngine::new(config, fast_mem(MemoryConfig::ddr4_2400_4ch())).unwrap();
            let cycle_result = cycle.lookup(&batch, &source).unwrap();
            let fast_result = fast.lookup(&batch, &source).unwrap();
            assert_eq!(cycle_result.outputs.len(), fast_result.outputs.len(), "{op}");
            for ((qa, a), (qb, b)) in cycle_result.outputs.iter().zip(&fast_result.outputs) {
                assert_eq!(qa, qb, "{op}");
                assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{op} query {qa}"
                );
            }
            // Data movement is identical — only timing fidelity changed.
            assert_eq!(cycle_result.traffic, fast_result.traffic, "{op}");
            assert_eq!(cycle_result.memory.reads, fast_result.memory.reads, "{op}");
            assert!(fast_result.latency.total_ns > 0.0, "{op}");
        }
    }

    #[test]
    fn fast_memory_model_matches_cycle_outputs_without_dedup() {
        let source = source();
        let mut config = FafnirConfig::paper_default();
        config.dedup = false;
        let batch = Batch::from_index_sets([indexset![1, 2, 5], indexset![3, 4, 5]]);
        let cycle = FafnirEngine::new(config, MemoryConfig::ddr4_2400_4ch()).unwrap();
        let fast = FafnirEngine::new(config, fast_mem(MemoryConfig::ddr4_2400_4ch())).unwrap();
        let cycle_result = cycle.lookup(&batch, &source).unwrap();
        let fast_result = fast.lookup(&batch, &source).unwrap();
        assert_eq!(cycle_result.outputs, fast_result.outputs);
        assert_eq!(fast_result.traffic.vectors_read, 6);
    }

    #[test]
    fn operator_override_scores_against_an_injected_query_vector() {
        use crate::reduce::TopKOperator;
        let source = source();
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6]]);
        // A scoring vector aligned with index 5's value: dot(v, v) maximal
        // among unit-similar candidates is just "most similar to v5".
        let scoring = source.value_of(VectorIndex(5));
        let operator = std::sync::Arc::new(TopKOperator::with_scoring(1, scoring.clone()));
        let config = FafnirConfig { op: ReduceOp::TopK { k: 1 }, ..FafnirConfig::paper_default() };
        let engine = FafnirEngine::new(config, MemoryConfig::ddr4_2400_4ch())
            .unwrap()
            .with_operator(operator.clone());
        let result = engine.lookup(&batch, &source).unwrap();
        let decoded = TopKOperator::decode(&result.outputs[0].1);
        // Matches the software reference with the same operator…
        let reference = reference_lookup_with(&batch, &source, &*operator);
        assert_eq!(result.outputs[0].1, reference[0].1);
        // …and the winner is the argmax of the dot-product over candidates.
        let best = [1u32, 2, 5, 6]
            .into_iter()
            .max_by(|&a, &b| {
                let score = |i: u32| -> f32 {
                    scoring.iter().zip(source.value_of(VectorIndex(i))).map(|(w, x)| w * x).sum()
                };
                score(a).total_cmp(&score(b))
            })
            .unwrap();
        assert_eq!(decoded[0].0, VectorIndex(best));
    }

    #[test]
    fn arranged_batches_read_less_and_still_match() {
        let mem = MemoryConfig::ddr4_2400_4ch();
        let source = source();
        // Two sharing families interleaved; capacity 2 per hardware batch.
        let batch = Batch::from_index_sets([
            indexset![1, 2, 3],
            indexset![10, 11, 12],
            indexset![1, 2, 4],
            indexset![10, 11, 13],
        ]);
        let base_config = FafnirConfig { batch_capacity: 2, ..FafnirConfig::paper_default() };
        let naive = FafnirEngine::new(base_config, mem).unwrap();
        let arranged =
            FafnirEngine::new(FafnirConfig { arrange_batches: true, ..base_config }, mem).unwrap();
        let naive_result = naive.lookup(&batch, &source).unwrap();
        let arranged_result = arranged.lookup(&batch, &source).unwrap();
        assert!(
            arranged_result.traffic.vectors_read < naive_result.traffic.vectors_read,
            "{} vs {}",
            arranged_result.traffic.vectors_read,
            naive_result.traffic.vectors_read
        );
        assert_outputs_match_reference(&batch, &arranged_result, &source);
    }

    #[test]
    fn oversized_batches_split_into_hardware_batches() {
        let mut config = FafnirConfig::paper_default();
        config.batch_capacity = 2;
        let engine = FafnirEngine::new(config, MemoryConfig::ddr4_2400_4ch()).unwrap();
        let source = source();
        let batch = Batch::from_index_sets([indexset![1, 2], indexset![3, 4], indexset![5, 6]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert_eq!(result.outputs.len(), 3);
        assert_outputs_match_reference(&batch, &result, &source);
    }

    #[test]
    fn empty_batch_is_rejected() {
        let engine = engine();
        let source = source();
        assert!(matches!(engine.lookup(&Batch::new(), &source), Err(FafnirError::InvalidBatch(_))));
    }

    #[test]
    fn oversized_queries_are_rejected() {
        let engine = engine();
        let source = source();
        let long = IndexSet::from_iter_dedup((0..17).map(VectorIndex));
        let batch = Batch::from_index_sets([long]);
        let error = engine.lookup(&batch, &source).unwrap_err();
        assert!(error.to_string().contains("header limit"), "{error}");
    }

    #[test]
    fn mismatched_vector_dim_is_rejected() {
        let engine = engine();
        let source = StripedSource::new(MemoryConfig::ddr4_2400_4ch().topology, 64);
        let batch = Batch::from_index_sets([indexset![1]]);
        assert!(engine.lookup(&batch, &source).is_err());
    }

    #[test]
    fn data_movement_to_host_is_n_times_v() {
        let engine = engine();
        let source = source();
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        let result = engine.lookup(&batch, &source).unwrap();
        // The paper's guarantee: only n output vectors cross to the host.
        assert_eq!(result.traffic.bytes_to_host, 2 * 512);
        assert!(result.traffic.bytes_from_dram >= result.traffic.bytes_to_host);
    }

    #[test]
    fn every_reduction_happens_at_ndp() {
        let engine = engine();
        let source = source();
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        let result = engine.lookup(&batch, &source).unwrap();
        assert!(result.ndp_elem_ops > 0);
        assert_eq!(result.core_elem_ops, 0);
        assert_eq!(result.ndp_fraction(), 1.0);
        // Two outputs leave the pipelined root, one cycle apart.
        assert_eq!(result.latency.compute_busy_ns, 2.0 * engine.config().pe_timing.cycle_ns());
        assert_eq!(result.latency.host_link_ns, 2.0 * 512.0 / HOST_LINK_BYTES_PER_NS);
    }

    /// A result with no outputs and the given times.
    fn timed(latency: LatencyBreakdown) -> LookupResult {
        let traffic = TrafficStats::default();
        crate::pipeline::analytic_result(Vec::new(), latency, Default::default(), traffic, 0, 0)
    }

    #[test]
    fn ndp_fraction_and_rates_handle_an_empty_result() {
        let result = timed(LatencyBreakdown::default());
        assert_eq!(result.ndp_fraction(), 1.0);
        assert_eq!(result.queries_per_second(), 0.0);
        assert_eq!(result.sustained_queries_per_second(), 0.0);
    }

    #[test]
    fn sustained_is_the_slowest_stage() {
        let result = timed(LatencyBreakdown {
            total_ns: 10.0,
            memory_ns: 4.0,
            compute_tail_ns: 7.0,
            compute_busy_ns: 7.0,
            host_link_ns: 9.0,
        });
        assert_eq!(result.sustained_ns(), 9.0);
    }

    #[test]
    fn interactive_mode_matches_reference_but_costs_more() {
        let engine = engine();
        let source = source();
        // Shared index 5: batch mode reads it once, interactive twice.
        let batch = Batch::from_index_sets([indexset![1, 2, 5], indexset![3, 4, 5]]);
        let interactive = engine.lookup_interactive(&batch, &source).unwrap();
        let batched = engine.lookup(&batch, &source).unwrap();
        assert_eq!(interactive.outputs.len(), 2);
        for ((qa, a), (qb, b)) in interactive.outputs.iter().zip(&batched.outputs) {
            assert_eq!(qa, qb);
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-3);
            }
        }
        assert!(interactive.latency.total_ns > batched.latency.total_ns);
        assert_eq!(interactive.traffic.vectors_read, 6);
        assert_eq!(batched.traffic.vectors_read, 5);
    }

    #[test]
    fn interactive_mode_times_each_query_in_sequence() {
        let mut batch = Batch::new();
        for indices in [indexset![7, 1, 9], indexset![2, 3], indexset![4, 8, 6, 5]] {
            batch.push(indices);
        }
        let result = engine().lookup_interactive(&batch, &source()).unwrap();
        let ids: Vec<QueryId> = result.per_query_ns.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, batch.queries().iter().map(|query| query.id).collect::<Vec<_>>());
        let times: Vec<f64> = result.per_query_ns.iter().map(|&(_, ns)| ns).collect();
        assert!(times.windows(2).all(|pair| pair[0] <= pair[1]), "{times:?}");
        assert_eq!(times.last().copied(), Some(result.latency.total_ns));
        assert_eq!(result.tree.completion_ns, result.latency.total_ns);
    }

    #[test]
    fn stream_mode_overlaps_batches() {
        let engine = engine();
        let source = source();
        let batches: Vec<Batch> = (0..4u32)
            .map(|k| {
                Batch::from_index_sets([
                    IndexSet::from_iter_dedup((0..8).map(|j| VectorIndex(k * 64 + j))),
                    IndexSet::from_iter_dedup((8..16).map(|j| VectorIndex(k * 64 + j))),
                ])
            })
            .collect();
        let stream = engine.lookup_stream(&batches, &source).unwrap();
        assert_eq!(stream.batches, 4);
        assert_eq!(stream.queries, 8);
        // Pipelining: the stream finishes well before 4 sequential batches.
        let single = engine.lookup(&batches[0], &source).unwrap();
        assert!(
            stream.total_ns < 3.0 * single.latency.total_ns,
            "stream {:.0} ns vs 4 x {:.0} ns sequential",
            stream.total_ns,
            single.latency.total_ns
        );
        assert!(stream.queries_per_second() > single.queries_per_second());
        // Completions are ordered (later batches finish no earlier than the
        // first) and memory stats cover all reads.
        assert!(stream.per_batch_completion_ns[3] >= stream.per_batch_completion_ns[0]);
        assert_eq!(stream.vectors_read, 4 * 16);
    }

    #[test]
    fn stream_mode_rejects_empty_input() {
        let engine = engine();
        let source = source();
        assert!(engine.lookup_stream(&[], &source).is_err());
        assert!(engine.lookup_stream(&[Batch::new()], &source).is_err());
    }

    #[test]
    fn wider_memory_reduces_lookup_latency() {
        let source_32 = source();
        let config = FafnirConfig::paper_default();
        let big = FafnirEngine::new(config, MemoryConfig::ddr4_2400_4ch()).unwrap();
        let small_mem = MemoryConfig::with_total_ranks(2);
        let small = FafnirEngine::new(config, small_mem).unwrap();
        let source_2 = StripedSource::new(small_mem.topology, 128);
        let sets: Vec<IndexSet> = (0..8u32)
            .map(|i| IndexSet::from_iter_dedup((0..16).map(|j| VectorIndex(i * 16 + j))))
            .collect();
        let batch = Batch::from_index_sets(sets);
        let wide = big.lookup(&batch, &source_32).unwrap();
        let narrow = small.lookup(&batch, &source_2).unwrap();
        assert!(
            wide.latency.total_ns < narrow.latency.total_ns,
            "32 ranks ({:.0} ns) should beat 2 ranks ({:.0} ns)",
            wide.latency.total_ns,
            narrow.latency.total_ns
        );
    }
}
