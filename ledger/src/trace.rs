//! Outside-in tracing: spans recorded around calls into each crate's public
//! functions, kept in memory, reduced to per-layer self times, and written
//! as Chrome trace events when the run ends.
//!
//! Nothing here instruments the simulator itself. [`Timed`] wraps a
//! [`GatherEngine`] and times its three stages, so `fafnir_serve::simulate`
//! drives it through the blanket [`LookupService`] exactly as it drives the
//! bare engine; [`TimedCluster`] does the same for a whole cluster lookup.
//! Work that happens inside a call the benchmark cannot split (query
//! generation inside `simulate`, the tree inside `reduce`, routing inside a
//! cluster lookup) is *replayed* afterwards through the same public
//! functions; a replay span names the layer it was measured inside, and its
//! time moves out of that layer's self time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use fafnir_cluster::ClusterEngine;
use fafnir_core::{
    Batch, EmbeddingSource, FafnirError, GatherEngine, GatherOutcome, LookupResult, LookupService,
};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, `<crate>.<stage>` (see [`crate::workload::LAYERS`]).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Formed-batch number within the rep, if the span served one.
    pub batch: Option<usize>,
    /// For a replay: the layer whose real run contained this work.
    pub inside: Option<&'static str>,
}

impl Span {
    fn duration_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// Modeled counters the [`Timed`] wrapper reads off the stage results it
/// passes through.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatherCounters {
    /// Index references in the planned hardware batches.
    pub references: u64,
    /// DRAM vector reads planned.
    pub reads: u64,
    /// Bursts that hit an open row.
    pub row_hits: u64,
    /// Bursts completed (hits, misses and conflicts).
    pub bursts: u64,
    /// Per hardware batch: time of its last DRAM read, ns.
    pub memory_ns: Vec<f64>,
    /// Deepest controller queue seen, bursts.
    pub max_queue_depth: u64,
    /// Per hardware batch: exposed tree tail after the last read, ns.
    pub tail_ns: Vec<f64>,
    /// Queries reduced.
    pub queries: u64,
}

/// Host time per layer over one rep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepLayers {
    /// Wall time of the rep's real work: its top-level, non-replay spans.
    pub wall_ns: f64,
    /// Self time per layer: span time minus child spans minus the replays
    /// measured inside it.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Inclusive span time per layer.
    pub total_ns: BTreeMap<&'static str, f64>,
    /// Spans per layer.
    pub calls: BTreeMap<&'static str, u64>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: Option<usize>,
    next_batch: usize,
    /// Modeled counters of the current rep.
    pub counters: GatherCounters,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: None,
            next_batch: 0,
            counters: GatherCounters::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    fn push(&mut self, name: &'static str, inside: Option<&'static str>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            batch: self.batch,
            inside,
        });
        self.open.push(id);
        id
    }

    /// Opens a span for a real call; returns its id for [`Tracer::exit`].
    fn enter(&mut self, name: &'static str) -> usize {
        self.push(name, None)
    }

    /// Opens a replay span: work that ran inside layer `inside` during the
    /// real run, measured again on its own.
    fn enter_replay(&mut self, name: &'static str, inside: &'static str) -> usize {
        self.push(name, Some(inside))
    }

    /// Closes span `id`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Starts a rep: batch numbering restarts and the counters clear.
    /// Returns the index of the rep's first span.
    pub fn start_rep(&mut self) -> usize {
        self.next_batch = 0;
        self.batch = None;
        self.counters = GatherCounters::default();
        self.spans.len()
    }

    /// Tags the following spans with the next formed-batch number.
    pub fn next_batch(&mut self) {
        self.batch = Some(self.next_batch);
        self.next_batch += 1;
    }

    /// Tags the following spans with `batch` (replays of a known batch).
    pub fn set_batch(&mut self, batch: Option<usize>) {
        self.batch = batch;
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drops the spans from `first` on (their layer times already taken),
    /// bounding memory on long traced passes.
    pub fn truncate(&mut self, first: usize) {
        assert!(self.open.is_empty(), "truncate with spans still open");
        self.spans.truncate(first);
    }

    /// Per-layer host time of the spans from `first` on.
    #[must_use]
    pub fn layers_since(&self, first: usize) -> RepLayers {
        let mut rep = RepLayers::default();
        for span in &self.spans[first..] {
            let duration = span.duration_ns();
            *rep.self_ns.entry(span.name).or_default() += duration;
            *rep.total_ns.entry(span.name).or_default() += duration;
            *rep.calls.entry(span.name).or_default() += 1;
            if let Some(parent) = span.parent {
                *rep.self_ns.entry(self.spans[parent].name).or_default() -= duration;
            }
            if let Some(inside) = span.inside {
                *rep.self_ns.entry(inside).or_default() -= duration;
            }
            if span.parent.is_none() && span.inside.is_none() {
                rep.wall_ns += duration;
            }
        }
        rep
    }

    /// The recorded spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, µs timestamps.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let tid = if span.inside.is_some() { 2 } else { 1 };
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {}, \
                 \"batch\": {}, \"inside\": {}}}}}",
                if id == 0 { "" } else { ",\n" },
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() / 1e3,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.batch.map_or("null".to_string(), |b| b.to_string()),
                span.inside.map_or("null".to_string(), |l| format!("\"{l}\"")),
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
        out
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = tracer.borrow_mut().enter(name);
    let value = f();
    tracer.borrow_mut().exit(id);
    value
}

/// Runs `f` inside a replay span of work that ran inside layer `inside`.
pub fn replay<T>(
    tracer: &RefCell<Tracer>,
    name: &'static str,
    inside: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let id = tracer.borrow_mut().enter_replay(name, inside);
    let value = f();
    tracer.borrow_mut().exit(id);
    value
}

/// A [`GatherEngine`] that times each stage of the engine it wraps and
/// reads the modeled counters off the stage results. Outputs and timing
/// are the wrapped engine's, untouched.
#[derive(Debug)]
pub struct Timed<'a, E> {
    inner: &'a E,
    tracer: &'a RefCell<Tracer>,
    starts_batches: bool,
}

impl<'a, E> Timed<'a, E> {
    /// Wraps an engine the serving simulation drives: each `preprocess`
    /// call starts the next formed batch.
    pub fn new(inner: &'a E, tracer: &'a RefCell<Tracer>) -> Self {
        Self { inner, tracer, starts_batches: true }
    }

    /// Wraps an engine replaying parts of a batch the caller has tagged.
    pub fn nested(inner: &'a E, tracer: &'a RefCell<Tracer>) -> Self {
        Self { inner, tracer, starts_batches: false }
    }
}

impl<E: GatherEngine> GatherEngine for Timed<'_, E> {
    type Plan = E::Plan;

    fn name(&self) -> &'static str {
        GatherEngine::name(self.inner)
    }

    fn preprocess<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<Vec<Self::Plan>, FafnirError> {
        if self.starts_batches {
            self.tracer.borrow_mut().next_batch();
        }
        let plans = span(self.tracer, "core.preprocess", || self.inner.preprocess(batch, source))?;
        let mut tracer = self.tracer.borrow_mut();
        let counters = &mut tracer.counters;
        for plan in &plans {
            let plan = plan.as_ref();
            counters.references += plan.batch.total_references() as u64;
            counters.reads += plan.reads.len() as u64;
        }
        Ok(plans)
    }

    fn gather(&self, plan: &Self::Plan) -> GatherOutcome {
        let gathered = span(self.tracer, "mem.gather", || self.inner.gather(plan));
        let mut tracer = self.tracer.borrow_mut();
        let counters = &mut tracer.counters;
        let memory = gathered.memory;
        counters.row_hits += memory.row_hits;
        counters.bursts += memory.row_hits + memory.row_misses + memory.row_conflicts;
        counters.max_queue_depth = counters.max_queue_depth.max(memory.max_queue_depth);
        counters.memory_ns.push(gathered.last_ready_ns());
        gathered
    }

    fn reduce<S: EmbeddingSource>(
        &self,
        plan: &Self::Plan,
        gathered: GatherOutcome,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        let result =
            span(self.tracer, "core.reduce", || self.inner.reduce(plan, gathered, source))?;
        let mut tracer = self.tracer.borrow_mut();
        let counters = &mut tracer.counters;
        counters.tail_ns.push(result.latency.compute_tail_ns);
        counters.queries += result.outputs.len() as u64;
        Ok(result)
    }
}

/// A cluster whose whole lookups are timed as one span. The span is named
/// `cluster.merge` because the route and shard replays are subtracted from
/// it, leaving the merge stage as its self time.
#[derive(Debug)]
pub struct TimedCluster<'a> {
    inner: &'a ClusterEngine,
    tracer: &'a RefCell<Tracer>,
}

impl<'a> TimedCluster<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a ClusterEngine, tracer: &'a RefCell<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl LookupService for TimedCluster<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn lookup<S: EmbeddingSource>(
        &self,
        batch: &Batch,
        source: &S,
    ) -> Result<LookupResult, FafnirError> {
        self.tracer.borrow_mut().next_batch();
        span(self.tracer, "cluster.merge", || self.inner.lookup(batch, source))
    }
}
