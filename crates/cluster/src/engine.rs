//! The sharded multi-tree engine.
//!
//! [`ClusterEngine`] puts one FAFNIR tree per shard behind a router and
//! answers whole batches through [`LookupService`], so the virtual-time
//! serving simulation (faults, retries, hedging) drives a cluster exactly
//! like a single engine. A lookup proceeds in three stages:
//!
//! 1. **route** — [`crate::router::route`] splits every query into
//!    per-shard sub-queries over owned indices;
//! 2. **shard lookups** — each touched shard runs its sub-batch on its own
//!    tree (timing, DRAM counters, traffic all measured per shard; shards
//!    operate concurrently, so batch latency is the slowest shard);
//! 3. **merge** — every query combines its shards' root accumulators
//!    through the [`ReduceOperator`] (`combine_into`) and is finalized once.
//!
//! ## Merge semantics
//!
//! One [`FafnirEngine`] runs every shard's sub-batch (the trees share a
//! configuration, and an engine builds private memory systems per lookup)
//! with the cluster's operator minus its finalize step, so each sub-query
//! yields its tree's root accumulator: what the modeled hardware sends to
//! the merge point. Partials combine in ascending shard order and finalize
//! once (finalizing per shard would double-apply e.g. the Mean division).
//! A single-shard query therefore finalizes the same accumulator as a
//! one-tree run, bit for bit. A *split* query groups each shard's operands
//! in that shard's tree order: bit-identical to one tree for the exactly
//! associative max/min/argmax/top-k, `ReduceOperator`-merged (rounding
//! differs) for float sum/mean — the documented cluster contract. Before
//! it returns, a lookup checks the routing and reference conservation
//! laws and names a broken one in a [`FafnirError::InvalidBatch`].

use std::sync::{Arc, Mutex};

use fafnir_core::{
    Batch, EmbeddingSource, FafnirConfig, FafnirEngine, FafnirError, GatherEngine, LookupResult,
    LookupService, QueryId, ReduceOperator, ShardPlan, VectorIndex,
};
use fafnir_mem::{MemoryConfig, MemoryModelKind};
use fafnir_serve::{worker_setup, ServeError};

use crate::report::ClusterStats;
use crate::router::{route, RouterPolicy};

/// A cluster of FAFNIR trees behind a placement-aware router.
#[derive(Debug)]
pub struct ClusterEngine {
    /// The engine every shard runs: the cluster's operator without its
    /// finalize step ([`Unfinalized`]).
    engine: FafnirEngine,
    operator: Arc<dyn ReduceOperator>,
    plan: ShardPlan,
    policy: RouterPolicy,
    stats: Mutex<ClusterStats>,
}

/// The cluster's operator without its finalize step: a shard's tree then
/// outputs its root accumulator, which the cluster combines with the other
/// shards' partials and finalizes once.
#[derive(Debug)]
struct Unfinalized(Arc<dyn ReduceOperator>);

impl ReduceOperator for Unfinalized {
    fn name(&self) -> String {
        self.0.name()
    }

    fn acc_dim(&self, dim: usize) -> usize {
        self.0.acc_dim(dim)
    }

    fn lift(&self, index: VectorIndex, value: &[f32]) -> Vec<f32> {
        self.0.lift(index, value)
    }

    fn combine_into(&self, acc: &mut [f32], other: &[f32]) {
        self.0.combine_into(acc, other);
    }
}

impl ClusterEngine {
    /// Builds the engine every shard of `plan` runs; each shard lookup
    /// builds a private memory system configured by `mem`.
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidConfig`] when the shard engine rejects
    /// the configuration.
    pub fn new(
        config: FafnirConfig,
        mem: MemoryConfig,
        plan: ShardPlan,
        policy: RouterPolicy,
    ) -> Result<Self, FafnirError> {
        Ok(Self::assemble(FafnirEngine::new(config, mem)?, plan, policy))
    }

    /// Puts `engine` behind the router: its operator becomes the cluster's
    /// merge operator, and the engine keeps it without the finalize step.
    fn assemble(engine: FafnirEngine, plan: ShardPlan, policy: RouterPolicy) -> Self {
        let operator = engine.active_operator();
        let engine = engine.with_operator(Arc::new(Unfinalized(Arc::clone(&operator))));
        let stats = Mutex::new(ClusterStats::new(plan.shards()));
        Self { engine, operator, plan, policy, stats }
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
        self.plan.shards()
    }

    /// The per-shard engine configuration.
    #[must_use]
    pub fn config(&self) -> &FafnirConfig {
        self.engine.config()
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
        let config = self.config();
        let acc_bytes = acc_dim * std::mem::size_of::<f32>();
        let transfer_cycles = acc_bytes.div_ceil(config.link_bytes_per_cycle) as f64;
        transfer_cycles * config.pe_timing.cycle_ns() + config.pe_timing.reduce_latency_ns()
    }
}

/// [`ClusterEngine`] plus its matching [`fafnir_core::StripedSource`],
/// built through the shared serving worker constructor
/// ([`fafnir_serve::worker_setup`]) — the cluster's shard engine is built
/// exactly as the single-engine serving paths build theirs.
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
    let (engine, source) = worker_setup(config, model)?;
    Ok((ClusterEngine::assemble(engine, plan, policy), source))
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
        self.answer(batch, source, true)
    }

    /// Runs every shard's sub-batch for its timing alone and skips the
    /// partial combine and the finalize: the result of
    /// [`LookupService::lookup`] with `outputs` empty.
    fn lookup_timing<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        self.answer(batch, source, false)
    }
}

impl ClusterEngine {
    /// One cluster lookup. With `values`, every query's shard partials
    /// combine and finalize into its output; without, the shards run
    /// timing-only and `outputs` stays empty. Routing, the conservation
    /// laws, times, counters and statistics are the same either way.
    fn answer<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
        values: bool,
    ) -> Result<LookupResult, FafnirError> {
        if batch.is_empty() {
            return Err(FafnirError::InvalidBatch("batch has no queries".into()));
        }
        let routed = route(batch, &self.plan, self.policy);
        let acc_dim = self.operator.acc_dim(source.vector_dim());
        let merge_step_ns = self.merge_step_ns(acc_dim);
        let acc_bytes = (acc_dim * std::mem::size_of::<f32>()) as u64;

        // Stage 2: every touched shard runs its sub-batch, in ascending
        // shard order. Each sub-query's root accumulator moves into its
        // query's slot, or combines into the partial already there.
        let mut partials: Vec<Option<Vec<f32>>> = vec![None; batch.len()];
        let mut shard_times: Vec<f64> = vec![0.0; batch.len()];
        let mut merged: Option<LookupResult> = None;
        let mut per_shard_vectors = vec![0u64; self.shards()];
        for (shard, sub_queries) in routed.per_shard.iter().enumerate() {
            if sub_queries.is_empty() {
                continue;
            }
            let sub_batch = Batch::from_index_sets(sub_queries.iter().map(|sq| sq.indices.clone()));
            let mut result = if values {
                GatherEngine::lookup(&self.engine, &sub_batch, source)?
            } else {
                GatherEngine::lookup_timing(&self.engine, &sub_batch, source)?
            };
            per_shard_vectors[shard] = result.traffic.vectors_read;
            for (QueryId(local), acc) in std::mem::take(&mut result.outputs) {
                match &mut partials[sub_queries[local as usize].position] {
                    Some(partial) => self.operator.combine_into(partial, &acc),
                    empty @ None => *empty = Some(acc),
                }
            }
            for &(QueryId(local), completion) in &result.per_query_ns {
                let position = sub_queries[local as usize].position;
                shard_times[position] = shard_times[position].max(completion);
            }
            // Shards run concurrently: latencies overlay, counters add.
            match &mut merged {
                Some(aggregate) => {
                    aggregate.latency.overlay(&result.latency);
                    aggregate.add_counters(&result);
                }
                None => merged = Some(result),
            }
        }
        let mut aggregate = merged
            .ok_or_else(|| FafnirError::InvalidBatch("batch references no indices".into()))?;

        let sub_queries = routed.per_shard.iter().map(Vec::len).sum();
        let touches = routed.touched.iter().map(Vec::len).sum();
        let references = batch.total_references() as u64;
        check_laws(sub_queries, touches, aggregate.traffic.total_references, references)?;

        // Stage 3: finalize every query once; a split query pays one merge
        // step per partial beyond the first.
        let mut outputs = Vec::with_capacity(batch.len());
        let mut per_query_ns = Vec::with_capacity(batch.len());
        let mut batch_merge_ns = 0.0f64;
        let mut split_queries = 0u64;
        let mut cross_shard_bytes = 0u64;
        for (position, (query, partial)) in batch.queries().iter().zip(partials).enumerate() {
            let Some(hops) = routed.touched[position].len().checked_sub(1) else {
                continue; // the query touched no shard
            };
            split_queries += u64::from(hops > 0);
            cross_shard_bytes += hops as u64 * acc_bytes;
            let merge_ns = merge_step_ns * hops as f64;
            batch_merge_ns = batch_merge_ns.max(merge_ns);
            if let Some(acc) = partial {
                outputs.push((query.id, self.operator.finalize(&acc)));
            }
            per_query_ns.push((query.id, shard_times[position] + merge_ns));
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
        // One n × v × 4 output per answered query, as on one tree.
        aggregate.traffic.bytes_to_host =
            (per_query_ns.len() * self.config().vector_bytes()) as u64;
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

/// Checks a cluster lookup's conservation laws: every routed sub-query is
/// one (query, shard) touch, and every reference of the batch reaches
/// exactly one shard. The error names the first law broken.
fn check_laws(
    sub_queries: usize,
    touches: usize,
    shard_references: u64,
    batch_references: u64,
) -> Result<(), FafnirError> {
    let law = if sub_queries != touches {
        "routed sub-queries must equal the routed touches"
    } else if shard_references != batch_references {
        "the shards' references must sum to the batch's references"
    } else {
        return Ok(());
    };
    Err(FafnirError::InvalidBatch(format!("cluster broke a conservation law: {law}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tampered_counts_break_a_named_law() {
        assert_eq!(check_laws(5, 5, 12, 12), Ok(()));
        let broken = |law: Result<(), FafnirError>| law.expect_err("a law breaks").to_string();
        let routing = broken(check_laws(5, 6, 12, 12));
        assert!(routing.contains("routed sub-queries must equal"), "{routing}");
        let references = broken(check_laws(5, 5, 11, 12));
        assert!(references.contains("references must sum"), "{references}");
    }
}
