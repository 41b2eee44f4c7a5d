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
//! merged in submission order — serial accelerator occupancy), its
//! timing-only twin `lookup_timing` (the same result without outputs) and
//! `lookup_stream` (all plans' reads share one memory system so inter-batch
//! contention is *measured*, Sec. IV-A) on top of those stages.
//! [`map_ordered`] runs independent jobs — whole lookups, serving
//! scenarios, SpMV row bands — on worker threads and returns their results
//! in submission order.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fafnir_mem::{
    AnyMemory, Location, MemoryConfig, MemoryModelKind, MemoryStats, MemorySystem, RequestId,
};

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
fn submit_plan(memory: &mut AnyMemory, plan: &MemoryPlan) -> Vec<RequestId> {
    plan.reads.iter().map(|read| memory.submit_read_at(read.location, read.bytes, 0)).collect()
}

/// Reads back the completion times for `ids` (plan order) from `memory`.
fn collect_completions(
    memory: &AnyMemory,
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

thread_local! {
    /// This thread's spare cycle-model system, kept between plans so that
    /// a plan on the same configuration resets it instead of building one.
    static SPARE_SYSTEM: Cell<Option<MemorySystem>> = const { Cell::new(None) };
}

/// Runs one plan's reads on a dedicated memory system of the model named
/// by `plan.sim_config.model` (cycle-accurate or fast-functional). A
/// cycle-model plan runs on this thread's spare system, reset to its
/// freshly built state ([`MemorySystem::reset`]) when its configuration
/// equals the plan's and rebuilt otherwise, so the outcome is the one a
/// new system gives.
#[must_use]
pub fn gather_plan(plan: &MemoryPlan) -> GatherOutcome {
    let config = plan.sim_config;
    if config.model != MemoryModelKind::Cycle {
        return gather_on(&mut AnyMemory::new(config), plan);
    }
    let system = match SPARE_SYSTEM.take() {
        Some(mut spare) if *spare.config() == config => {
            spare.reset();
            spare
        }
        _ => MemorySystem::new(config),
    };
    let mut memory = AnyMemory::Cycle(system);
    let outcome = gather_on(&mut memory, plan);
    if let AnyMemory::Cycle(system) = memory {
        SPARE_SYSTEM.set(Some(system));
    }
    outcome
}

/// Runs `plan`'s reads on `memory`, a freshly built or reset system of
/// the plan's configuration.
fn gather_on(memory: &mut AnyMemory, plan: &MemoryPlan) -> GatherOutcome {
    let ids = submit_plan(memory, plan);
    let idle_cycle = memory.run_until_idle();
    GatherOutcome {
        completions: collect_completions(memory, plan, &ids, &plan.sim_config),
        memory: scaled_stats(memory.stats(), plan.stats_scale),
        idle_ns: plan.sim_config.timing.cycles_to_ns(idle_cycle),
    }
}

/// Checks the gather stage's conservation law on `plan`: the outcome holds
/// one completion per planned read, index for index in plan order, and the
/// memory system completed exactly the plan's reads. A memory system that
/// carried another plan's requests or counters breaks the second half.
/// The error names the law.
fn check_gather(plan: &MemoryPlan, gathered: &GatherOutcome) -> Result<(), FafnirError> {
    let one_each = plan.reads.len() == gathered.completions.len()
        && plan
            .reads
            .iter()
            .zip(&gathered.completions)
            .all(|(read, done)| read.index == done.index && read.rank == done.rank);
    if one_each && gathered.memory.requests_completed == plan.reads.len() as u64 {
        return Ok(());
    }
    Err(FafnirError::InvalidBatch(
        "gather broke a conservation law: every planned read completes exactly once".into(),
    ))
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
        result.add_counters(&sub);
        let latency = &mut result.latency;
        latency.total_ns += sub.latency.total_ns;
        latency.memory_ns += sub.latency.memory_ns;
        latency.compute_tail_ns += sub.latency.compute_tail_ns;
        latency.compute_busy_ns += sub.latency.compute_busy_ns;
        latency.host_link_ns += sub.latency.host_link_ns;
        result.outputs.extend(sub.outputs);
        result.per_query_ns.extend(sub.per_query_ns.iter().map(|&(q, t)| (q, offset + t)));
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

/// The driver behind [`GatherEngine::lookup`] and FAFNIR's
/// [`GatherEngine::lookup_timing`]: preprocess `batch`, then gather and
/// `reduce` every hardware batch in submission order, merged under serial
/// accelerator occupancy ([`SequentialMerge`]). Each gather must complete
/// every planned read exactly once (`check_gather`).
pub(crate) fn drive<E, S, R>(
    engine: &E,
    batch: &Batch,
    source: &S,
    reduce: R,
) -> Result<LookupResult, FafnirError>
where
    E: GatherEngine + ?Sized,
    S: EmbeddingSource,
    R: Fn(&E, &E::Plan, GatherOutcome, &S) -> Result<LookupResult, FafnirError>,
{
    let plans = engine.preprocess(batch, source)?;
    let mut merge = SequentialMerge::default();
    for plan in &plans {
        let gathered = engine.gather(plan);
        check_gather(plan.as_ref(), &gathered)?;
        merge.push(reduce(engine, plan, gathered, source)?);
    }
    merge.finish().ok_or_else(|| FafnirError::InvalidBatch("batch has no queries".into()))
}

/// `result` with its outputs dropped: what a timing-only lookup returns.
fn without_outputs(mut result: LookupResult) -> LookupResult {
    result.outputs = Vec::new();
    result
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
    /// dimension mismatches, or oversized queries.
    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError>;

    /// Answers a software batch for its timing alone: the same
    /// [`LookupResult`] as [`LookupService::lookup`], field for field,
    /// except that `outputs` is empty. Serving reads only a batch's times
    /// and traffic. The default runs `lookup` and drops the outputs; an
    /// engine whose times do not depend on its values skips fetching and
    /// folding them.
    ///
    /// # Errors
    ///
    /// Exactly those of [`LookupService::lookup`].
    fn lookup_timing<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        self.lookup(batch, source).map(without_outputs)
    }
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

    fn lookup_timing<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        GatherEngine::lookup_timing(self, batch, source)
    }
}

/// An engine decomposed into the three pipeline stages.
///
/// Implementors provide `preprocess` and `reduce`; `gather` defaults to a
/// dedicated per-plan memory system ([`gather_plan`]), and `reduce_timing`
/// to `reduce` without its outputs. `lookup`, `lookup_timing` and
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
    /// Returns [`FafnirError::InvalidBatch`] if reduction cannot complete:
    /// a query without an output, or a timing model that completed a
    /// different set of queries than the outputs answer.
    fn reduce<S: EmbeddingSource>(
        &self,
        plan: &Self::Plan,
        gathered: GatherOutcome,
        source: &S,
    ) -> Result<LookupResult, FafnirError>;

    /// Stage 3 for timing alone: [`GatherEngine::reduce`]'s result with
    /// `outputs` empty. The default runs `reduce` and drops the outputs;
    /// FAFNIR overrides it to skip the values.
    ///
    /// # Errors
    ///
    /// Exactly those of [`GatherEngine::reduce`].
    fn reduce_timing<S: EmbeddingSource>(
        &self,
        plan: &Self::Plan,
        gathered: GatherOutcome,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        self.reduce(plan, gathered, source).map(without_outputs)
    }

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
        drive(self, batch, source, Self::reduce)
    }

    /// [`GatherEngine::lookup`] for timing alone, the method behind
    /// [`LookupService::lookup_timing`]: the same result with `outputs`
    /// empty. The default runs `lookup` and drops the outputs, so an engine
    /// that overrides `lookup` keeps its behaviour; FAFNIR overrides this
    /// with `lookup`'s driver over [`GatherEngine::reduce_timing`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`GatherEngine::lookup`].
    fn lookup_timing<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        GatherEngine::lookup(self, batch, source).map(without_outputs)
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
        // times. The stream reads only times and counts, so it asks for
        // timing alone.
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
            let sub = self.reduce_timing(plan, gathered, source)?;
            queries += sub.per_query_ns.len();
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

/// Maps every job through `run` on up to `threads` workers and returns the
/// results in submission order.
///
/// The calling thread is one of the workers: `n` workers (never more than
/// there are jobs) are the caller plus `n - 1` scoped threads, so one
/// worker runs the jobs in order on the calling thread and spawns nothing.
/// An atomic work index hands each job to exactly one worker and each
/// result lands in its job's slot, so the output order is the submission
/// order however the workers interleave. When `run` depends on nothing but
/// its job, the output is byte-identical for any thread count.
pub fn map_ordered<J, R, F>(jobs: Vec<J>, threads: usize, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let workers = threads.min(jobs.len()).max(1);
    if workers == 1 {
        return jobs.into_iter().map(run).collect();
    }
    // `next` publishes no data: jobs and results pass through their
    // mutexes, and the scope joins every worker before the slots are read.
    let next = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= jobs.len() {
            break;
        }
        let job = jobs[i].lock().expect("job slot").take().expect("claimed exactly once");
        let result = run(job);
        *slots[i].lock().expect("result slot") = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot").expect("every job ran"))
        .collect()
}

/// Shared reduce-stage constructor for engines whose reduction is modelled
/// analytically (the baselines): every query completes when the whole batch
/// does, and no tree statistics exist.
#[must_use]
pub fn analytic_result(
    outputs: Vec<(crate::index::QueryId, Vec<f32>)>,
    latency: LatencyBreakdown,
    memory: MemoryStats,
    traffic: TrafficStats,
    ndp_elem_ops: u64,
    core_elem_ops: u64,
) -> LookupResult {
    let per_query_ns = outputs.iter().map(|&(query, _)| (query, latency.total_ns)).collect();
    LookupResult {
        outputs,
        per_query_ns,
        latency,
        memory,
        tree: TreeStats::default(),
        traffic,
        ndp_elem_ops,
        core_elem_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FafnirConfig;
    use crate::engine::FafnirEngine;
    use crate::indexset;
    use crate::placement::StripedSource;

    /// A plan of `reads` whole-vector reads on `config`, spread from `salt`
    /// over channels, ranks, banks and four rows, so its system sees row
    /// hits, conflicts and idle banks.
    fn plan(config: MemoryConfig, salt: usize, reads: usize) -> MemoryPlan {
        let topology = config.topology;
        let mut plan = MemoryPlan::new(Batch::new(), config);
        plan.reads = (0..reads)
            .map(|i| {
                let k = salt * 7_919 + i * 104_729;
                let location = Location {
                    channel: k % topology.channels,
                    rank: k / 3 % topology.ranks_per_channel(),
                    bank_group: k / 5 % topology.bank_groups,
                    bank: k / 7 % topology.banks_per_group,
                    row: k / 11 % 4,
                    column: k / 13 % (topology.columns / 8) * 8,
                };
                PlannedRead {
                    index: VectorIndex(i as u32),
                    location,
                    rank: location.global_rank(&topology),
                    bytes: 512,
                }
            })
            .collect();
        plan
    }

    #[test]
    fn a_reused_system_gathers_what_a_fresh_one_does() {
        // One thread, changing configurations: the spare is reset between
        // equal ones, rebuilt for another preset or refresh, and left alone
        // by a fast-model plan.
        let paper = MemoryConfig::ddr4_2400_4ch();
        let fast = MemoryConfig { model: MemoryModelKind::Fast, ..paper };
        let refresh = MemoryConfig { refresh: true, ..paper };
        let plans = [
            plan(paper, 1, 60),
            plan(paper, 2, 25),
            plan(fast, 3, 40),
            plan(paper, 4, 40),
            plan(MemoryConfig::ddr5_4800_4ch(), 5, 50),
            plan(refresh, 6, 40),
            plan(refresh, 7, 20),
            plan(paper, 8, 33),
        ];
        for (i, plan) in plans.iter().enumerate() {
            let fresh = gather_on(&mut AnyMemory::new(plan.sim_config), plan);
            assert_eq!(gather_plan(plan), fresh, "plan {i}");
        }
    }

    /// FAFNIR behind a gather that breaks the gather law one way: it
    /// reports one request more than it ran (counters a reused system
    /// carried over), or loses a completion.
    struct Tampered {
        inner: FafnirEngine,
        stale_counters: bool,
    }

    impl GatherEngine for Tampered {
        type Plan = MemoryPlan;

        fn name(&self) -> &'static str {
            "tampered"
        }

        fn preprocess<S: EmbeddingSource>(
            &self,
            batch: &Batch,
            source: &S,
        ) -> Result<Vec<MemoryPlan>, FafnirError> {
            self.inner.preprocess(batch, source)
        }

        fn gather(&self, plan: &MemoryPlan) -> GatherOutcome {
            let mut gathered = self.inner.gather(plan);
            if self.stale_counters {
                gathered.memory.requests_completed += 1;
            } else {
                gathered.completions.pop();
            }
            gathered
        }

        fn reduce<S: EmbeddingSource>(
            &self,
            plan: &MemoryPlan,
            gathered: GatherOutcome,
            source: &S,
        ) -> Result<LookupResult, FafnirError> {
            self.inner.reduce(plan, gathered, source)
        }
    }

    #[test]
    fn a_gather_that_misses_a_read_breaks_a_named_law() {
        let config = MemoryConfig::ddr4_2400_4ch();
        let source = StripedSource::new(config.topology, 128);
        let batch = Batch::from_index_sets([indexset![1, 2, 5], indexset![3, 4, 5]]);
        let engine = || FafnirEngine::new(FafnirConfig::paper_default(), config).unwrap();
        assert!(GatherEngine::lookup(&engine(), &batch, &source).is_ok());
        for stale_counters in [true, false] {
            let tampered = Tampered { inner: engine(), stale_counters };
            for result in [
                GatherEngine::lookup(&tampered, &batch, &source),
                GatherEngine::lookup_timing(&tampered, &batch, &source),
            ] {
                let error = result.expect_err("the gather law breaks").to_string();
                assert!(
                    error.contains(
                        "gather broke a conservation law: every planned read completes exactly once"
                    ),
                    "stale counters {stale_counters}: {error}"
                );
            }
        }
    }

    #[test]
    fn map_ordered_counts_the_caller_as_a_worker() {
        // Both jobs must wait at the barrier together, so two workers run
        // them at once; with the caller working, only one thread is spawned.
        let barrier = std::sync::Barrier::new(2);
        let ids = map_ordered(vec![(); 2], 2, |()| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1], "the barrier needs two workers");
        assert!(ids.contains(&std::thread::current().id()), "the caller ran no job: {ids:?}");
    }

    #[test]
    fn map_ordered_keeps_submission_order_at_any_thread_count() {
        let expected: Vec<u64> = (0..7u64).map(|job| job * job + 1).collect();
        for threads in [1, 2, 3, 16] {
            let results = map_ordered((0..7u64).collect(), threads, |job| job * job + 1);
            assert_eq!(results, expected, "{threads} threads");
            let empty = map_ordered(Vec::<u64>::new(), threads, |job| job);
            assert!(empty.is_empty(), "{threads} threads");
        }
    }
}
