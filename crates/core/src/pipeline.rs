//! The staged gather pipeline shared by FAFNIR and the baselines.
//!
//! [`GatherEngine`] decomposes an embedding lookup into the three stages
//! every engine in the paper shares (Sec. II):
//!
//! 1. **preprocess** — host-side batch preparation: validation, splitting a
//!    software batch into hardware-sized batches, deduplication (or its
//!    absence), and address resolution. Produces one [`MemoryPlan`] per
//!    hardware batch; nothing has touched DRAM yet.
//! 2. **gather** — execute a plan's DRAM reads on a memory model (the
//!    cycle-accurate [`fafnir_mem::MemorySystem`] or the fast-functional
//!    model, per [`fafnir_mem::MemoryConfig::model`]) and report per-read
//!    completion times ([`GatherOutcome`]).
//! 3. **reduce** — engine-specific reduction of the gathered vectors (the
//!    FAFNIR tree, a DIMM adder chain, or host cores) into a
//!    [`LookupResult`].
//!
//! The trait provides `lookup` (stages chained per hardware batch, results
//! merged in submission order — serial accelerator occupancy) and
//! `lookup_stream` (all plans' reads share one memory system so inter-batch
//! contention is *measured*, Sec. IV-A) on top of those stages, plus
//! [`ParallelBatchDriver`] which executes independent hardware batches on
//! worker threads — each with its own memory system and reduction state —
//! and merges deterministically in submission order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fafnir_mem::{AnyMemory, Location, MemoryConfig, MemoryModel, MemoryStats, RequestId};

use crate::batch::Batch;
use crate::engine::{LatencyBreakdown, LookupResult, StreamResult, TrafficStats};
use crate::error::FafnirError;
use crate::index::VectorIndex;
use crate::placement::EmbeddingSource;
use crate::tree::TreeStats;

/// One DRAM read a plan will issue, in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedRead {
    /// The (possibly virtual, see [`MemoryPlan::origin`]) index the read
    /// serves. Baselines that read per reference repeat indices here.
    pub index: VectorIndex,
    /// Physical location of the data.
    pub location: Location,
    /// Global rank whose NDP port receives the data.
    pub rank: usize,
    /// Read size in bytes (a whole vector, or a per-rank chunk).
    pub bytes: usize,
}

/// Everything the gather stage needs for one hardware batch: the prepared
/// batch, the memory system to simulate, and the reads to issue.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// The hardware batch (possibly rewritten over virtual indices).
    pub batch: Batch,
    /// When preprocessing rewrote the batch (dedup disabled), maps each
    /// virtual index back to the original table index.
    pub origin: Option<Vec<VectorIndex>>,
    /// Configuration of the memory system the reads run against. May differ
    /// from the engine's full configuration (e.g. TensorDIMM simulates one
    /// representative rank by symmetry).
    pub sim_config: MemoryConfig,
    /// The reads, in submission order.
    pub reads: Vec<PlannedRead>,
    /// Multiplier applied to the simulated [`MemoryStats`] counters when the
    /// simulated system is a symmetric slice of the real one (1 = identity).
    pub stats_scale: u64,
}

impl MemoryPlan {
    /// A plan over `batch` with no index rewriting and identity stats.
    #[must_use]
    pub fn new(batch: Batch, sim_config: MemoryConfig) -> Self {
        Self { batch, origin: None, sim_config, reads: Vec::new(), stats_scale: 1 }
    }

    /// Maps a plan index back to the original table index.
    #[must_use]
    pub fn resolve(&self, index: VectorIndex) -> VectorIndex {
        match &self.origin {
            Some(map) => map[index.value() as usize],
            None => index,
        }
    }
}

impl AsRef<MemoryPlan> for MemoryPlan {
    fn as_ref(&self) -> &MemoryPlan {
        self
    }
}

/// Completion record for one [`PlannedRead`] (same position in the vector).
#[derive(Debug, Clone, PartialEq)]
pub struct ReadCompletion {
    /// The plan index the read served.
    pub index: VectorIndex,
    /// Global rank that received the data.
    pub rank: usize,
    /// Absolute time the data was available at the rank's port.
    pub ready_ns: f64,
}

/// What the gather stage hands to the reduce stage.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherOutcome {
    /// One completion per planned read, in plan order.
    pub completions: Vec<ReadCompletion>,
    /// DRAM counters, scaled by [`MemoryPlan::stats_scale`]. Zeroed when the
    /// plan ran on a memory system shared with other plans (stream mode);
    /// the shared counters are then reported once on the stream result.
    pub memory: MemoryStats,
    /// Time for the memory system to drain completely (`run_until_idle`),
    /// which can trail the last read's data beat (bus turnaround, refresh).
    pub idle_ns: f64,
}

impl GatherOutcome {
    /// Completion time of the last read (0 when the plan had no reads,
    /// e.g. a fully cache-absorbed batch).
    #[must_use]
    pub fn last_ready_ns(&self) -> f64 {
        self.completions.iter().map(|c| c.ready_ns).fold(0.0, f64::max)
    }
}

/// Submits every read of `plan` to `memory`, returning the request ids in
/// plan order.
fn submit_plan(memory: &mut impl MemoryModel, plan: &MemoryPlan) -> Vec<RequestId> {
    plan.reads.iter().map(|read| memory.submit_read_at(read.location, read.bytes, 0)).collect()
}

/// Reads back the completion times for `ids` (plan order) from `memory`.
fn collect_completions(
    memory: &impl MemoryModel,
    plan: &MemoryPlan,
    ids: &[RequestId],
    config: &MemoryConfig,
) -> Vec<ReadCompletion> {
    plan.reads
        .iter()
        .zip(ids)
        .map(|(read, id)| ReadCompletion {
            index: read.index,
            rank: read.rank,
            ready_ns: config
                .timing
                .cycles_to_ns(memory.completion(*id).expect("read completed").finish_cycle),
        })
        .collect()
}

/// Applies a plan's symmetric-slice scaling to simulated counters.
fn scaled_stats(mut stats: MemoryStats, scale: u64) -> MemoryStats {
    if scale > 1 {
        stats.reads *= scale;
        stats.writes *= scale;
        stats.activations *= scale;
        stats.precharges *= scale;
        stats.row_hits *= scale;
        stats.row_misses *= scale;
        stats.row_conflicts *= scale;
        stats.bytes_transferred *= scale;
    }
    stats
}

/// Runs one plan's reads on a dedicated memory system, built from the
/// model named by `plan.sim_config.model` (cycle-accurate or
/// fast-functional).
#[must_use]
pub fn gather_plan(plan: &MemoryPlan) -> GatherOutcome {
    let mut memory = AnyMemory::new(plan.sim_config);
    let ids = submit_plan(&mut memory, plan);
    let idle_cycle = memory.run_until_idle();
    GatherOutcome {
        completions: collect_completions(&memory, plan, &ids, &plan.sim_config),
        memory: scaled_stats(memory.stats(), plan.stats_scale),
        idle_ns: plan.sim_config.timing.cycles_to_ns(idle_cycle),
    }
}

/// Merges hardware-batch results in submission order under serial
/// accelerator occupancy: batch k+1 starts when batch k finishes, so
/// per-query completions shift by the running offset and totals add.
#[derive(Debug, Default)]
pub(crate) struct SequentialMerge {
    result: Option<LookupResult>,
    offset_ns: f64,
}

impl SequentialMerge {
    pub(crate) fn push(&mut self, sub: LookupResult) {
        let offset = self.offset_ns;
        self.offset_ns += sub.latency.total_ns;
        let Some(result) = &mut self.result else {
            self.result = Some(sub);
            return;
        };
        result.outputs.extend(sub.outputs);
        result.per_query_ns.extend(sub.per_query_ns.iter().map(|&(q, t)| (q, offset + t)));
        result.latency.total_ns += sub.latency.total_ns;
        result.latency.memory_ns += sub.latency.memory_ns;
        result.latency.compute_tail_ns += sub.latency.compute_tail_ns;
        result.memory.merge(&sub.memory);
        result.tree.ops.merge(&sub.tree.ops);
        result.tree.levels = sub.tree.levels;
        result.tree.pes += sub.tree.pes;
        result.tree.completion_ns = result.latency.total_ns;
        result.tree.max_buffer_items = result.tree.max_buffer_items.max(sub.tree.max_buffer_items);
        result.tree.incomplete_outputs += sub.tree.incomplete_outputs;
        result.traffic.total_references += sub.traffic.total_references;
        result.traffic.vectors_read += sub.traffic.vectors_read;
        result.traffic.bytes_from_dram += sub.traffic.bytes_from_dram;
        result.traffic.bytes_to_host += sub.traffic.bytes_to_host;
    }

    pub(crate) fn finish(self) -> Option<LookupResult> {
        self.result.map(|mut result| {
            result.tree.completion_ns = result.latency.total_ns;
            result.outputs.sort_by_key(|(query, _)| *query);
            result.per_query_ns.sort_by_key(|(query, _)| *query);
            result
        })
    }
}

/// Merges hardware-batch results that ran *concurrently* on independent
/// accelerator instances: completions overlay (max), counters add.
fn merge_concurrent(into: &mut Option<LookupResult>, sub: LookupResult) {
    let Some(result) = into else {
        *into = Some(sub);
        return;
    };
    result.outputs.extend(sub.outputs);
    result.per_query_ns.extend(sub.per_query_ns);
    result.latency.total_ns = result.latency.total_ns.max(sub.latency.total_ns);
    result.latency.memory_ns = result.latency.memory_ns.max(sub.latency.memory_ns);
    result.latency.compute_tail_ns = (result.latency.total_ns - result.latency.memory_ns).max(0.0);
    result.memory.merge(&sub.memory);
    result.tree.ops.merge(&sub.tree.ops);
    result.tree.levels = sub.tree.levels;
    result.tree.pes += sub.tree.pes;
    result.tree.completion_ns = result.latency.total_ns;
    result.tree.max_buffer_items = result.tree.max_buffer_items.max(sub.tree.max_buffer_items);
    result.tree.incomplete_outputs += sub.tree.incomplete_outputs;
    result.traffic.total_references += sub.traffic.total_references;
    result.traffic.vectors_read += sub.traffic.vectors_read;
    result.traffic.bytes_from_dram += sub.traffic.bytes_from_dram;
    result.traffic.bytes_to_host += sub.traffic.bytes_to_host;
}

/// The narrow interface serving layers need from an engine: a name and a
/// whole-batch lookup.
///
/// [`GatherEngine`] exposes the full staged pipeline (preprocess → gather →
/// reduce), which only makes sense for a single accelerator instance.
/// Composite engines — e.g. a sharded cluster that fans a batch out to
/// several trees and merges partial accumulators — have no single staged
/// decomposition, but still answer batches. Serving simulators bound on
/// `LookupService` accept both: every `GatherEngine` gets this trait via a
/// blanket impl.
pub trait LookupService {
    /// The engine's display name.
    fn name(&self) -> &'static str;

    /// Answers a software batch end to end.
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidBatch`] for empty batches, vector
    /// dimension mismatches, or oversized queries, and
    /// [`FafnirError::InvalidConfig`] for backend configuration failures.
    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError>;
}

impl<E: GatherEngine> LookupService for E {
    fn name(&self) -> &'static str {
        GatherEngine::name(self)
    }

    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        GatherEngine::lookup(self, batch, source)
    }
}

/// An engine decomposed into the three pipeline stages.
///
/// Implementors provide `preprocess` and `reduce`; `gather` defaults to a
/// dedicated per-plan memory system ([`gather_plan`]). `lookup` and
/// `lookup_stream` drive the stages end to end.
pub trait GatherEngine {
    /// Per-hardware-batch plan. Engines attach analytic precomputations by
    /// wrapping [`MemoryPlan`]; the pipeline only needs the `AsRef` view.
    type Plan: AsRef<MemoryPlan> + Send + Sync;

    /// The engine's display name.
    fn name(&self) -> &'static str;

    /// Stage 1: validates `batch` and compiles it into per-hardware-batch
    /// memory plans (splitting, deduplication, address resolution).
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidBatch`] for empty batches, vector
    /// dimension mismatches, or oversized queries.
    fn preprocess<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<Vec<Self::Plan>, FafnirError>;

    /// Stage 2: executes a plan's reads on a dedicated memory system.
    fn gather(&self, plan: &Self::Plan) -> GatherOutcome {
        gather_plan(plan.as_ref())
    }

    /// Stage 3: reduces the gathered vectors into the batch's outputs with
    /// the engine's timing model.
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidBatch`] if reduction cannot complete
    /// (e.g. queries stuck in the tree) and [`FafnirError::InvalidConfig`]
    /// for backend configuration failures (e.g. a cycle-level deadlock from
    /// undersized FIFOs).
    fn reduce<S: EmbeddingSource>(
        &self,
        plan: &Self::Plan,
        gathered: GatherOutcome,
        source: &S,
    ) -> Result<LookupResult, FafnirError>;

    /// Runs a software batch through all three stages, merging hardware
    /// batches in submission order (serial accelerator occupancy).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`GatherEngine::preprocess`] and
    /// [`GatherEngine::reduce`].
    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        let plans = self.preprocess(batch, source)?;
        let mut merge = SequentialMerge::default();
        for plan in &plans {
            let gathered = self.gather(plan);
            merge.push(self.reduce(plan, gathered, source)?);
        }
        merge.finish().ok_or_else(|| FafnirError::InvalidBatch("batch has no queries".into()))
    }

    /// Pipelined execution of a stream of batches: all plans' DRAM reads
    /// share one memory system (and its FR-FCFS queue), so inter-batch
    /// memory contention is *measured* rather than modelled, while each
    /// plan's reduce stage proceeds as its reads complete (Sec. IV-A,
    /// "parallelizing memory accesses & computations").
    ///
    /// # Errors
    ///
    /// Propagates errors from [`GatherEngine::preprocess`] and
    /// [`GatherEngine::reduce`] for any batch in the stream.
    fn lookup_stream<S: EmbeddingSource>(
        &self,
        batches: &[Batch],
        source: &S,
    ) -> Result<StreamResult, FafnirError> {
        if batches.is_empty() {
            return Err(FafnirError::InvalidBatch("stream has no batches".into()));
        }
        let mut plans = Vec::new();
        for batch in batches {
            plans.extend(self.preprocess(batch, source)?);
        }
        let first = plans.first().expect("preprocess yields at least one plan").as_ref();
        let shared_config = first.sim_config;
        let stats_scale = first.stats_scale;

        // Gather phase: plan k's reads enqueue before plan k+1's, so the
        // scheduler overlaps them within its window.
        let mut memory = AnyMemory::new(shared_config);
        let ids: Vec<Vec<RequestId>> =
            plans.iter().map(|plan| submit_plan(&mut memory, plan.as_ref())).collect();
        let idle_cycle = memory.run_until_idle();
        let idle_ns = shared_config.timing.cycles_to_ns(idle_cycle);
        let shared_stats = scaled_stats(memory.stats(), stats_scale);

        // Reduce phase per plan, fed by the measured (absolute) completion
        // times.
        let mut per_batch_completion_ns = Vec::with_capacity(plans.len());
        let mut total_ns = 0.0f64;
        let mut queries = 0usize;
        let mut vectors_read = 0u64;
        for (plan, ids) in plans.iter().zip(&ids) {
            let gathered = GatherOutcome {
                completions: collect_completions(&memory, plan.as_ref(), ids, &shared_config),
                memory: MemoryStats::default(),
                idle_ns,
            };
            let sub = self.reduce(plan, gathered, source)?;
            queries += sub.outputs.len();
            vectors_read += sub.traffic.vectors_read;
            total_ns = total_ns.max(sub.latency.total_ns);
            per_batch_completion_ns.push(sub.latency.total_ns);
        }
        Ok(StreamResult {
            batches: plans.len(),
            queries,
            total_ns,
            per_batch_completion_ns,
            memory: shared_stats,
            vectors_read,
        })
    }
}

/// Result of [`ParallelBatchDriver::lookup_stream`]: per-software-batch
/// results plus the merged stream summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelStreamResult {
    /// One merged result per submitted software batch, in submission order.
    pub per_batch: Vec<LookupResult>,
    /// Stream summary: `batches` counts *hardware* batches (plans),
    /// `per_batch_completion_ns` is per plan in submission order, and
    /// `total_ns` is the makespan across the concurrent instances.
    pub stream: StreamResult,
}

/// Executes independent hardware batches concurrently, each on its own
/// memory system and reduction state, merging results deterministically
/// in submission order.
///
/// This models a *replicated* deployment — `threads` independent
/// accelerator instances with private memory channels — and doubles as a
/// host-side simulation speedup: because every plan is self-contained, the
/// result is byte-identical for any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelBatchDriver {
    threads: usize,
}

impl ParallelBatchDriver {
    /// A driver with `threads` worker threads (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "driver needs at least one thread");
        Self { threads }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every software batch's plans concurrently and merges the
    /// results in submission order.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`GatherEngine::preprocess`] and
    /// [`GatherEngine::reduce`] for any batch in the stream.
    pub fn lookup_stream<E, S>(
        &self,
        engine: &E,
        batches: &[Batch],
        source: &S,
    ) -> Result<ParallelStreamResult, FafnirError>
    where
        E: GatherEngine + Sync,
        S: EmbeddingSource + Sync,
    {
        if batches.is_empty() {
            return Err(FafnirError::InvalidBatch("stream has no batches".into()));
        }
        // Preprocess serially: cheap, and keeps plan order = submission
        // order regardless of scheduling.
        let mut plans: Vec<(usize, E::Plan)> = Vec::new();
        for (slot, batch) in batches.iter().enumerate() {
            for plan in engine.preprocess(batch, source)? {
                plans.push((slot, plan));
            }
        }
        let results = run_plans(engine, source, &plans, self.threads);
        merge_stream(batches.len(), &plans, results)
    }
}

/// Gathers + reduces every plan, fanning out over up to `threads` workers.
/// Results land in per-plan slots, so the output order is the plan order no
/// matter how the scheduler interleaves workers.
fn run_plans<E, S>(
    engine: &E,
    source: &S,
    plans: &[(usize, E::Plan)],
    threads: usize,
) -> Vec<Result<LookupResult, FafnirError>>
where
    E: GatherEngine + Sync,
    S: EmbeddingSource + Sync,
{
    let run_one = |plan: &E::Plan| {
        let gathered = engine.gather(plan);
        engine.reduce(plan, gathered, source)
    };
    let workers = threads.min(plans.len()).max(1);
    if workers == 1 {
        return plans.iter().map(|(_, plan)| run_one(plan)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<LookupResult, FafnirError>>>> =
        plans.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= plans.len() {
                    break;
                }
                let result = run_one(&plans[i].1);
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot").expect("every plan executed"))
        .collect()
}

/// Folds per-plan results into per-software-batch results (concurrent
/// merge) and the stream summary, all in submission order.
fn merge_stream<P>(
    batch_count: usize,
    plans: &[(usize, P)],
    results: Vec<Result<LookupResult, FafnirError>>,
) -> Result<ParallelStreamResult, FafnirError> {
    let mut per_batch: Vec<Option<LookupResult>> = (0..batch_count).map(|_| None).collect();
    let mut stream_memory = MemoryStats::default();
    let mut per_batch_completion_ns = Vec::with_capacity(results.len());
    let mut total_ns = 0.0f64;
    let mut queries = 0usize;
    let mut vectors_read = 0u64;
    for ((slot, _), result) in plans.iter().zip(results) {
        let sub = result?;
        queries += sub.outputs.len();
        vectors_read += sub.traffic.vectors_read;
        stream_memory.merge(&sub.memory);
        total_ns = total_ns.max(sub.latency.total_ns);
        per_batch_completion_ns.push(sub.latency.total_ns);
        merge_concurrent(&mut per_batch[*slot], sub);
    }
    let per_batch = per_batch
        .into_iter()
        .map(|merged| {
            let mut result = merged.expect("every software batch produced a plan");
            result.tree.completion_ns = result.latency.total_ns;
            result.outputs.sort_by_key(|(query, _)| *query);
            result.per_query_ns.sort_by_key(|(query, _)| *query);
            result
        })
        .collect();
    Ok(ParallelStreamResult {
        per_batch,
        stream: StreamResult {
            batches: plans.len(),
            queries,
            total_ns,
            per_batch_completion_ns,
            memory: stream_memory,
            vectors_read,
        },
    })
}

/// Shared reduce-stage helper for engines whose reduction is modelled
/// analytically (the baselines): every query completes when the whole batch
/// does, and no tree statistics exist.
#[must_use]
pub fn analytic_result(
    outputs: Vec<(crate::index::QueryId, Vec<f32>)>,
    total_ns: f64,
    memory_ns: f64,
    memory: MemoryStats,
    traffic: TrafficStats,
) -> LookupResult {
    let per_query_ns = outputs.iter().map(|&(query, _)| (query, total_ns)).collect();
    LookupResult {
        outputs,
        per_query_ns,
        latency: LatencyBreakdown {
            total_ns,
            memory_ns,
            compute_tail_ns: (total_ns - memory_ns).max(0.0),
        },
        memory,
        tree: TreeStats::default(),
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::config::FafnirConfig;
    use crate::engine::FafnirEngine;
    use crate::index::{IndexSet, VectorIndex};
    use crate::placement::StripedSource;
    use crate::reduce::ReduceOp;
    use fafnir_mem::MemoryConfig;

    #[test]
    fn parallel_driver_is_thread_count_invariant_for_every_operator() {
        // The accumulator merge must commute with the submission-order
        // merge: plans never share queries, so `merge_concurrent` only
        // overlays latencies and extends outputs, and the result is
        // byte-identical for any worker count — including for operators
        // whose accumulators carry state (Mean counts, TopK heaps).
        let mem = MemoryConfig::ddr4_2400_4ch();
        let source = StripedSource::new(mem.topology, 128);
        let batches: Vec<Batch> = (0..4u32)
            .map(|k| {
                Batch::from_index_sets([
                    IndexSet::from_iter_dedup((0..6).map(|j| VectorIndex(k * 32 + j))),
                    IndexSet::from_iter_dedup((4..10).map(|j| VectorIndex(k * 32 + j))),
                ])
            })
            .collect();
        for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::ArgMax, ReduceOp::TopK { k: 2 }] {
            let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
            let engine = FafnirEngine::new(config, mem).unwrap();
            let serial = ParallelBatchDriver::new(1).lookup_stream(&engine, &batches, &source);
            let serial = serial.unwrap();
            for threads in [2, 4] {
                let parallel = ParallelBatchDriver::new(threads)
                    .lookup_stream(&engine, &batches, &source)
                    .unwrap();
                assert_eq!(serial, parallel, "{op} diverged at {threads} threads");
            }
            // And the driver agrees with the plain sequential stream driver
            // on functional outputs.
            let stream_outputs: Vec<_> =
                serial.per_batch.iter().flat_map(|r| r.outputs.clone()).collect();
            for (batch, result) in batches.iter().zip(&serial.per_batch) {
                assert_eq!(result.outputs.len(), batch.len(), "{op}");
            }
            assert_eq!(stream_outputs.len(), 8, "{op}");
        }
    }
}
