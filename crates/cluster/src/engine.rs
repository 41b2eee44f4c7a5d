//! The sharded multi-tree engine.
//!
//! [`ClusterEngine`] owns one independent FAFNIR tree per shard and answers
//! whole batches through [`LookupService`], so the virtual-time serving
//! simulation (faults, retries, hedging) drives a cluster exactly like a
//! single engine. A lookup proceeds in three stages:
//!
//! 1. **route** — [`crate::router::route`] splits every query into
//!    per-shard sub-queries over owned indices;
//! 2. **shard lookups** — each touched shard runs its sub-batch on its own
//!    tree (timing, DRAM counters, traffic all measured per shard; shards
//!    operate concurrently, so batch latency is the slowest shard);
//! 3. **merge** — queries split across shards combine their per-shard
//!    partial accumulators through the [`ReduceOperator`]
//!    (`combine_into`), finalized once.
//!
//! ## Merge semantics
//!
//! A query resolved by a single shard takes that shard's tree output
//! verbatim — the tree's per-query fold depends only on the query's own
//! indices and the placement, so the bits equal a one-tree run of the same
//! query (pinned by the parity property test). A *split* query instead
//! folds each shard's owned indices in ascending index order into an
//! unfinalized partial (`lift` + `combine_into` — per-shard finalization
//! would double-apply e.g. the Mean division), combines partials in
//! ascending shard order, and finalizes once. For exactly associative
//! operators (max/min/argmax/top-k) this is bit-identical to the one-tree
//! result; for float sum/mean the grouping changes rounding, so split
//! queries are `ReduceOperator`-merged rather than bit-equal — the
//! documented cluster contract.

use std::sync::{Arc, Mutex};

use fafnir_core::{
    combine_partials, Batch, EmbeddingSource, FafnirConfig, FafnirEngine, FafnirError,
    GatherEngine, LookupResult, LookupService, QueryId, ReduceOperator, ShardPlan,
};
use fafnir_mem::{MemoryConfig, MemoryModelKind};
use fafnir_serve::{worker_setup, ServeError};

use crate::report::ClusterStats;
use crate::router::{route, RouterPolicy};

/// A cluster of independent FAFNIR trees behind a placement-aware router.
#[derive(Debug)]
pub struct ClusterEngine {
    engines: Vec<FafnirEngine>,
    config: FafnirConfig,
    operator: Arc<dyn ReduceOperator>,
    plan: ShardPlan,
    policy: RouterPolicy,
    stats: Mutex<ClusterStats>,
}

impl ClusterEngine {
    /// Builds one engine per shard of `plan`, each with a private memory
    /// system configured by `mem`.
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidConfig`] when the per-shard engine
    /// rejects the configuration.
    pub fn new(
        config: FafnirConfig,
        mem: MemoryConfig,
        plan: ShardPlan,
        policy: RouterPolicy,
    ) -> Result<Self, FafnirError> {
        let engines = (0..plan.shards())
            .map(|_| FafnirEngine::new(config, mem))
            .collect::<Result<Vec<_>, _>>()?;
        let stats = Mutex::new(ClusterStats::new(plan.shards()));
        Ok(Self { engines, config, operator: config.op.operator(), plan, policy, stats })
    }

    /// The shard plan.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The replicated-row tie-break policy.
    #[must_use]
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// The per-shard engine configuration.
    #[must_use]
    pub fn config(&self) -> &FafnirConfig {
        &self.config
    }

    /// A snapshot of the accumulated cluster statistics.
    ///
    /// Merge-latency samples are returned sorted: every counter in the
    /// snapshot is then invariant under the order concurrent scenario
    /// threads interleaved their batches, keeping cluster reports
    /// byte-stable.
    ///
    /// # Panics
    ///
    /// Panics if a previous lookup panicked while holding the stats lock.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        let mut snapshot = self.stats.lock().expect("stats lock poisoned").clone();
        snapshot.merge_ns.sort_by(f64::total_cmp);
        snapshot
    }

    /// Clears the accumulated statistics (e.g. between bench scenarios).
    ///
    /// # Panics
    ///
    /// Panics if a previous lookup panicked while holding the stats lock.
    pub fn reset_stats(&self) {
        *self.stats.lock().expect("stats lock poisoned") = ClusterStats::new(self.shards());
    }

    /// Nanoseconds to move one partial accumulator between shards and
    /// combine it at the merge point: one link transfer of the accumulator
    /// plus one PE-grade reduce.
    fn merge_step_ns(&self, acc_dim: usize) -> f64 {
        let acc_bytes = acc_dim * std::mem::size_of::<f32>();
        let transfer_cycles = acc_bytes.div_ceil(self.config.link_bytes_per_cycle) as f64;
        transfer_cycles * self.config.pe_timing.cycle_ns()
            + self.config.pe_timing.reduce_latency_ns()
    }
}

/// [`ClusterEngine`] plus its matching [`fafnir_core::StripedSource`],
/// built through the shared serving worker constructor
/// ([`fafnir_serve::worker_setup`]) once per shard — the cluster path
/// reuses the exact setup the single-engine serving paths use.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] when the engine rejects the
/// configuration.
pub fn cluster_setup(
    config: FafnirConfig,
    model: MemoryModelKind,
    plan: ShardPlan,
    policy: RouterPolicy,
) -> Result<(ClusterEngine, fafnir_core::StripedSource), ServeError> {
    let mut engines = Vec::with_capacity(plan.shards());
    let mut source = None;
    for _ in 0..plan.shards() {
        let (engine, shard_source) = worker_setup(config, model)?;
        engines.push(engine);
        source = Some(shard_source);
    }
    let source = source.expect("plans have at least one shard");
    let stats = Mutex::new(ClusterStats::new(plan.shards()));
    let cluster =
        ClusterEngine { engines, config, operator: config.op.operator(), plan, policy, stats };
    Ok((cluster, source))
}

impl LookupService for ClusterEngine {
    fn name(&self) -> &'static str {
        "fafnir-cluster"
    }

    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        if batch.is_empty() {
            return Err(FafnirError::InvalidBatch("batch has no queries".into()));
        }
        let routed = route(batch, &self.plan, self.policy);
        let dim = source.vector_dim();
        let acc_dim = self.operator.acc_dim(dim);
        let merge_step_ns = self.merge_step_ns(acc_dim);
        let acc_bytes = (acc_dim * std::mem::size_of::<f32>()) as u64;

        // Stage 2: every touched shard runs its sub-batch on its own tree.
        // `shard_outputs[p]`/`shard_times[p]` collect, per global query
        // position, the (shard, value/time) pairs in ascending shard order.
        let mut shard_outputs: Vec<Vec<(usize, Vec<f32>)>> = vec![Vec::new(); batch.len()];
        let mut shard_times: Vec<f64> = vec![0.0; batch.len()];
        let mut merged: Option<LookupResult> = None;
        let mut per_shard_vectors = vec![0u64; self.shards()];
        for (shard, sub_queries) in routed.per_shard.iter().enumerate() {
            if sub_queries.is_empty() {
                continue;
            }
            let sub_batch = Batch::from_index_sets(sub_queries.iter().map(|sq| sq.indices.clone()));
            let result = GatherEngine::lookup(&self.engines[shard], &sub_batch, source)?;
            per_shard_vectors[shard] = result.traffic.vectors_read;
            for &(QueryId(local), ref value) in &result.outputs {
                let position = sub_queries[local as usize].position;
                // Split queries recompute from partials; only single-shard
                // queries consume the tree output, so skip the other clones.
                if routed.touched[position].len() == 1 {
                    shard_outputs[position].push((shard, value.clone()));
                }
            }
            for &(QueryId(local), completion) in &result.per_query_ns {
                let position = sub_queries[local as usize].position;
                shard_times[position] = shard_times[position].max(completion);
            }
            merge_shard(&mut merged, result);
        }
        let mut aggregate = merged
            .ok_or_else(|| FafnirError::InvalidBatch("batch references no indices".into()))?;

        // Stage 3: assemble outputs. Single-shard queries take the tree
        // output verbatim; split queries fold their own partials (see the
        // module docs for why the shard output cannot be reused there).
        let mut outputs = Vec::with_capacity(batch.len());
        let mut per_query_ns = Vec::with_capacity(batch.len());
        let mut batch_merge_ns = 0.0f64;
        let mut split_queries = 0u64;
        let mut cross_shard_bytes = 0u64;
        for (position, query) in batch.queries().iter().enumerate() {
            let touched = &routed.touched[position];
            let value = match touched.len() {
                0 => continue,
                1 => {
                    let mut collected = std::mem::take(&mut shard_outputs[position]);
                    match collected.pop() {
                        Some((_, value)) => value,
                        None => continue, // incomplete on its shard
                    }
                }
                _ => {
                    split_queries += 1;
                    cross_shard_bytes += (touched.len() as u64 - 1) * acc_bytes;
                    let partials = touched.iter().map(|&shard| {
                        partial_fold(
                            self.operator.as_ref(),
                            routed.per_shard[shard]
                                .iter()
                                .find(|sq| sq.position == position)
                                .expect("touched shards hold a sub-query"),
                            source,
                        )
                    });
                    match combine_partials(self.operator.as_ref(), partials) {
                        Some(value) => value,
                        None => continue,
                    }
                }
            };
            let merge_ns = merge_step_ns * touched.len().saturating_sub(1) as f64;
            batch_merge_ns = batch_merge_ns.max(merge_ns);
            let completion = shard_times[position] + merge_ns;
            let id = query.id;
            outputs.push((id, value));
            per_query_ns.push((id, completion));
        }
        outputs.sort_by_key(|&(id, _)| id);
        per_query_ns.sort_by_key(|&(id, _)| id);

        // Cluster-level latency: shards run concurrently, so the batch ends
        // at the slowest shard plus any merge tail it feeds.
        let shard_total = aggregate.latency.total_ns;
        let query_tail = per_query_ns.iter().map(|&(_, t)| t).fold(0.0f64, f64::max);
        aggregate.latency.total_ns = shard_total.max(query_tail);
        aggregate.latency.compute_tail_ns =
            (aggregate.latency.total_ns - aggregate.latency.memory_ns).max(0.0);
        aggregate.tree.completion_ns = aggregate.latency.total_ns;
        aggregate.traffic.total_references = batch.total_references() as u64;
        aggregate.traffic.bytes_to_host = outputs
            .iter()
            .map(|(_, value)| (value.len() * std::mem::size_of::<f32>()) as u64)
            .sum();
        aggregate.outputs = outputs;
        aggregate.per_query_ns = per_query_ns;

        let mut stats = self.stats.lock().expect("stats lock poisoned");
        stats.batches += 1;
        stats.queries += batch.len() as u64;
        stats.split_queries += split_queries;
        stats.replicated_routes += routed.replicated_routes;
        stats.cross_shard_bytes += cross_shard_bytes;
        for (shard, sub_queries) in routed.per_shard.iter().enumerate() {
            stats.per_shard_queries[shard] += sub_queries.len() as u64;
            stats.per_shard_vectors_read[shard] += per_shard_vectors[shard];
        }
        stats.merge_ns.push(batch_merge_ns);
        drop(stats);

        Ok(aggregate)
    }
}

/// One shard's unfinalized partial: `lift` the first owned vector, then
/// `combine_into` the rest in ascending index order (the order
/// [`fafnir_core::IndexSet`] iterates).
fn partial_fold<S: EmbeddingSource>(
    operator: &dyn ReduceOperator,
    sub_query: &crate::router::SubQuery,
    source: &S,
) -> Vec<f32> {
    let mut indices = sub_query.indices.iter();
    let first = indices.next().expect("sub-queries are non-empty");
    let mut acc = operator.lift(first, &source.shared_value_of(first));
    for index in indices {
        operator.combine_into(&mut acc, &operator.lift(index, &source.shared_value_of(index)));
    }
    acc
}

/// Overlays a concurrent shard result onto the batch aggregate: latencies
/// max (shards run in parallel), counters add. Outputs and per-query times
/// are assembled separately, so only the scalar fields matter here.
fn merge_shard(into: &mut Option<LookupResult>, sub: LookupResult) {
    let Some(aggregate) = into else {
        *into = Some(sub);
        return;
    };
    aggregate.latency.overlay(&sub.latency);
    aggregate.add_counters(&sub);
}
