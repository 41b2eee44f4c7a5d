//! The benchmark's workloads and the passes that measure them.
//!
//! Every workload runs single-threaded: set-up, one untimed warm-up rep that
//! also feeds the correctness checks, repeated timed set-ups, then timed
//! reps for the run's `seconds`. Rep `i` uses seed `seed + i mod K`, where
//! `K` is the workload's modeled-rep count: the modeled (virtual-time)
//! metrics come from those first `K` reps, so they depend on the seed
//! alone, while later reps repeat the same inputs and must reproduce
//! the same reports byte for byte. A traced run replaces the timed reps by
//! pairs of one untraced and one traced rep of the same seed; the layer
//! metrics come from the traced reps and the pairs give the overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fafnir_cluster::{cluster_setup, route, ClusterEngine, ClusterReport, RouterPolicy};
use fafnir_core::inject::{build_rank_inputs_with, GatheredVector};
use fafnir_core::{
    fastpath, Batch, EmbeddingSource, FafnirConfig, FafnirEngine, GatherEngine, IndexSet,
    LookupResult, LookupService, ShardPlan, ShardStrategy, StripedSource, TreeBackend,
};
use fafnir_mem::MemoryModelKind;
use fafnir_serve::{paper_setup, simulate, BatchPolicy, ServeConfig, ServeOutcome, ServeReport};
use fafnir_sparse::{
    execute_partitioned, fafnir_spmv, gen, CooMatrix, LilMatrix, PartitionReport,
    PartitionStrategy, PartitionedRun, SpmvPartition, SpmvRun, SpmvTiming,
};
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::query::{BatchGenerator, Popularity};

use crate::stats::{mean, median, Summary};
use crate::trace::{replay, span, GatherCounters, RepLayers, Timed, TimedCluster, Tracer};
use crate::verify::{self, Violations};

/// Offered load of every serving workload, queries per second.
pub const RATE_QPS: f64 = 2e6;
/// Deadline-batching window, ns.
pub const DEADLINE_NS: f64 = 4_000.0;
/// Largest formed batch (one hardware batch of the paper tree).
pub const MAX_BATCH: usize = 32;
/// Worker replicas of the serving simulation (virtual, not host threads).
pub const WORKERS: usize = 4;
/// Indices per query.
pub const QUERY_LEN: usize = 16;
/// Latency limit behind `capacity_per_s`: p99 at or under it, nothing shed.
pub const P99_LIMIT_NS: f64 = 10_000.0;
/// Capacity search range, queries per second: about a third to three
/// times the capacities the workloads reach. A result at either end means
/// the range needs moving.
pub const CAPACITY_RANGE_QPS: (f64, f64) = (8e6, 256e6);
/// Log-space bisection steps of the capacity search: a factor of 32 in
/// nine halvings of its logarithm leaves one step of 0.68 %.
pub const CAPACITY_STEPS: usize = 9;
/// Seeds (the first modeled ones) searched for capacity; the metric is
/// their median, since one seed's p99 moves the threshold by a few steps.
pub const CAPACITY_SEEDS: usize = 3;
/// Partition ranks of the SpMV workload.
pub const SPMV_RANKS: usize = 16;
/// Tree vector size of the SpMV workload.
pub const SPMV_VECTOR_SIZE: usize = 256;
/// Largest SpMV error tolerated against the dense reference.
pub const SPMV_MAX_ERROR: f64 = 1e-6;
/// Host seconds below which set-up keeps repeating (see `setup_seconds`).
pub const SETUP_SECONDS: f64 = 0.2;
/// Shortest group of set-ups timed as one sample.
pub const SETUP_GROUP_SECONDS: f64 = 50e-6;
/// Most set-up samples in one run.
pub const SETUP_MAX_SAMPLES: usize = 10_000;
/// Traced reps below which a traced run does not stop.
pub const TRACE_MIN_REPS: usize = 4;
/// Traced reps whose spans are written to the Chrome trace.
pub const TRACE_KEPT_REPS: usize = 2;

/// Every layer the trace attributes host time to, in pipeline order.
pub const LAYERS: [&str; 14] = [
    "workloads",
    "serve",
    "report",
    "core.preprocess",
    "mem.gather",
    "core.reduce",
    "core.inject",
    "core.tree",
    "core.fold",
    "cluster.route",
    "cluster.shards",
    "cluster.merge",
    "sparse.partition",
    "sparse.execute",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Higher => "higher",
            Self::Lower => "lower",
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("sim_items_per_s", "1/s", Better::Higher, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.10),
    ("p50_latency_ns", "ns", Better::Lower, 0.05),
    ("p99_latency_ns", "ns", Better::Lower, 0.05),
    ("mem_reads_per_item", "count", Better::Lower, 0.05),
    ("capacity_per_s", "1/s", Better::Higher, 0.15),
];

/// Modeled and derived layer metrics, beside the per-layer host times.
pub const LAYER_METRICS: [(&str, &str, Better); 21] = [
    ("mem.gather.host_ns_per_read", "ns", Better::Lower),
    ("core.reduce.host_ns_per_query", "ns", Better::Lower),
    ("sparse.execute.host_ns_per_nnz", "ns", Better::Lower),
    ("trace.overhead_frac", "frac", Better::Lower),
    ("mem.gather.row_hit_rate", "frac", Better::Higher),
    ("mem.gather.modeled_ns_p50", "ns", Better::Lower),
    ("mem.gather.max_queue_depth", "count", Better::Lower),
    ("core.preprocess.unique_frac", "frac", Better::Lower),
    ("core.reduce.tail_ns_p50", "ns", Better::Lower),
    ("serve.mean_batch_size", "count", Better::Higher),
    ("serve.queue_wait_p99_ns", "ns", Better::Lower),
    ("serve.service_p99_ns", "ns", Better::Lower),
    ("serve.utilization", "frac", Better::Lower),
    ("cluster.imbalance", "ratio", Better::Lower),
    ("cluster.split_frac", "frac", Better::Lower),
    ("cluster.xfer_bytes_per_query", "B", Better::Lower),
    ("cluster.merge_p99_ns", "ns", Better::Lower),
    ("sparse.nnz_imbalance", "ratio", Better::Lower),
    ("sparse.time_imbalance", "ratio", Better::Lower),
    ("sparse.speedup", "ratio", Better::Higher),
    ("sparse.critical_path_ns", "ns", Better::Lower),
];

/// Every per-layer metric: host share, self ns per call and calls for each
/// of [`LAYERS`], then [`LAYER_METRICS`].
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut metrics = Vec::new();
    for layer in LAYERS {
        metrics.push((format!("{layer}.share"), "frac", Better::Lower));
        metrics.push((format!("{layer}.ns_per_call"), "ns", Better::Lower));
        metrics.push((format!("{layer}.calls"), "count", Better::Lower));
    }
    metrics
        .extend(LAYER_METRICS.iter().map(|&(name, unit, better)| (name.to_string(), unit, better)));
    metrics
}

/// Index popularity and universe of a serving workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traffic {
    /// Popularity model.
    pub popularity: Popularity,
    /// Rows the indices are drawn from.
    pub universe: u64,
}

impl Traffic {
    /// The paper's production-like skew.
    pub const ZIPF: Self =
        Self { popularity: Popularity::Zipf { exponent: 1.15 }, universe: 2_000 };
    /// No reuse: a universe far larger than any run touches.
    pub const UNIFORM: Self = Self { popularity: Popularity::Uniform, universe: 10_000_000 };

    /// The query generator of one rep.
    #[must_use]
    pub fn generator(&self, seed: u64) -> BatchGenerator {
        BatchGenerator::new(self.popularity, self.universe, QUERY_LEN, seed)
    }
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One tree behind the serving simulation.
    Tree {
        /// Memory timing model.
        model: MemoryModelKind,
        /// Query traffic.
        traffic: Traffic,
    },
    /// Row-range shards behind the cluster router.
    Cluster {
        /// Shards (one tree each).
        shards: usize,
        /// Memory timing model of every shard.
        model: MemoryModelKind,
        /// Query traffic.
        traffic: Traffic,
    },
    /// Partitioned SpMV over an R-MAT graph.
    Spmv,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark has it.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Reps, and so seeds, the modeled metrics come from.
    pub modeled_reps: usize,
}

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve_cycle",
        why: "canonical scenario: Zipf-1.15 at 2 M q/s on one tree with cycle memory; gather and reduce dominate host time",
        kind: Kind::Tree { model: MemoryModelKind::Cycle, traffic: Traffic::ZIPF },
        modeled_reps: 4,
    },
    Workload {
        name: "serve_fast",
        why: "same traffic on the fast memory model and fold: bypasses memsim and the tree, so generation and the serve loop dominate",
        kind: Kind::Tree { model: MemoryModelKind::Fast, traffic: Traffic::ZIPF },
        modeled_reps: 16,
    },
    Workload {
        name: "serve_uniform",
        why: "uniform traffic over 10 M rows: no row is shared, so dedup and the value cache do nothing; a reuse-only gain shows no change",
        kind: Kind::Tree { model: MemoryModelKind::Cycle, traffic: Traffic::UNIFORM },
        modeled_reps: 4,
    },
    Workload {
        name: "cluster8",
        why: "8 row-range shards with fast memory: the only workload through cluster routing, shard fan-out and the cross-shard merge",
        kind: Kind::Cluster { shards: 8, model: MemoryModelKind::Fast, traffic: Traffic::ZIPF },
        modeled_reps: 16,
    },
    Workload {
        name: "spmv_rmat",
        why: "the paper's second application: R-MAT SpMV, nnz-balanced over 16 ranks; the only workload on fafnir-sparse",
        kind: Kind::Spmv,
        modeled_reps: 8,
    },
];

/// The workload named `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input sizes. The benchmark runs [`Scale::FULL`]; tests run
/// [`Scale::SMOKE`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Queries offered per serving rep.
    pub queries: usize,
    /// Queries per capacity probe.
    pub capacity_queries: usize,
    /// Replaces every workload's modeled-rep count when set.
    pub modeled_reps: Option<usize>,
    /// R-MAT scale (log2 of the dimension) and edge count.
    pub rmat: (u32, usize),
    /// Set-ups timed per run.
    pub setups: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Self = Self {
        queries: 8_192,
        capacity_queries: 4_096,
        modeled_reps: None,
        rmat: (14, 500_000),
        setups: 5,
    };
    /// Small sizes that still run every code path.
    pub const SMOKE: Self = Self {
        queries: 256,
        capacity_queries: 256,
        modeled_reps: Some(2),
        rmat: (10, 8_000),
        setups: 2,
    };
}

/// How one run is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Base seed of the inputs.
    pub seed: u64,
    /// Seconds of timed reps (the modeled reps always complete).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// For a host timing: the per-rep (or per-set-up) sample behind it.
    pub sample: Option<Summary>,
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Work items offered in measured reps: queries, or SpMV runs.
    pub attempted: u64,
    /// Shed or failed queries, failed checks, and irreproducible reports.
    pub violations: Violations,
    /// Untimed warm-up reps.
    pub warmup_reps: usize,
    /// Measured reps (timed, or traced and their untraced twins).
    pub reps: usize,
    /// Reps the modeled metrics come from.
    pub modeled_reps: usize,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Report JSON of each modeled rep, in rep order.
    pub reports: Vec<String>,
    /// Chrome trace events of the first traced reps.
    pub trace_json: Option<String>,
}

impl Measured {
    fn new(modeled_reps: usize, violations: Violations) -> Self {
        Self {
            attempted: 0,
            violations,
            warmup_reps: 1,
            reps: 0,
            modeled_reps,
            metrics: Vec::new(),
            reports: Vec::new(),
            trace_json: None,
        }
    }

    /// Counts rep `rep`'s items, keeps its report if it is a modeled rep,
    /// and otherwise checks that it reproduced the modeled rep of its seed.
    fn note(&mut self, rep: usize, items: u64, report: String) {
        self.attempted += items;
        let first = rep % self.modeled_reps;
        if rep < self.modeled_reps {
            self.reports.push(report);
        } else {
            let same = self.reports[first] == report;
            self.violations.check(same, || format!("rep {rep} did not reproduce rep {first}"));
        }
    }

    /// Failed operations over attempted ones.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        self.violations.count as f64 / self.attempted.max(1) as f64
    }

    /// The value of metric `name`.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Runs `workload` under `settings`.
#[must_use]
pub fn run(workload: &Workload, settings: &Settings) -> Measured {
    match workload.kind {
        Kind::Spmv => run_spmv(workload, settings),
        Kind::Tree { traffic, .. } | Kind::Cluster { traffic, .. } => {
            run_serving(workload, traffic, settings)
        }
    }
}

/// The system a serving workload runs.
#[derive(Debug)]
pub enum System {
    /// One FAFNIR tree.
    Tree(FafnirEngine),
    /// A cluster, and a standalone engine configured like each of its
    /// shards, which the trace replays shard sub-batches on.
    Cluster(Box<ClusterEngine>, FafnirEngine),
}

impl System {
    fn build(kind: Kind) -> (Self, StripedSource) {
        match kind {
            Kind::Tree { model, .. } => {
                let (engine, source) = paper_setup(model).expect("paper defaults are valid");
                (Self::Tree(engine), source)
            }
            Kind::Cluster { shards, model, traffic } => {
                let universe =
                    u32::try_from(traffic.universe).expect("row-range universe fits u32");
                let plan = ShardPlan::new(shards, ShardStrategy::RowRange { universe });
                let (cluster, source) = cluster_setup(
                    FafnirConfig::paper_default(),
                    model,
                    plan,
                    RouterPolicy::RoundRobin,
                )
                .expect("paper defaults are valid");
                let (shard, _) = paper_setup(model).expect("paper defaults are valid");
                (Self::Cluster(Box::new(cluster), shard), source)
            }
            Kind::Spmv => unreachable!("SpMV runs no serving system"),
        }
    }

    /// The per-tree engine configuration.
    #[must_use]
    pub fn config(&self) -> &FafnirConfig {
        match self {
            Self::Tree(engine) | Self::Cluster(_, engine) => engine.config(),
        }
    }

    /// Answers one batch, untraced.
    ///
    /// # Errors
    ///
    /// Propagates the engine's error for a batch it rejects.
    pub fn lookup(
        &self,
        batch: &Batch,
        source: &StripedSource,
    ) -> Result<LookupResult, fafnir_core::FafnirError> {
        match self {
            Self::Tree(engine) => LookupService::lookup(engine, batch, source),
            Self::Cluster(cluster, _) => cluster.lookup(batch, source),
        }
    }
}

/// The serving configuration of one rep.
#[must_use]
pub fn serve_config(queries: usize, rate_qps: f64, seed: u64) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson { rate_qps },
        policy: BatchPolicy::Deadline { max_wait_ns: DEADLINE_NS, max_batch: MAX_BATCH },
        workers: WORKERS,
        queries,
        // One seed drives both generators; drawn from the same stream, the
        // arrival gaps would correlate with the popularity ranks.
        seed: seed ^ 0x9E37_79B9_7F4A_7C15,
        ..ServeConfig::default()
    }
}

/// A serving rep's outputs.
#[derive(Debug)]
struct ServeRep {
    outcome: ServeOutcome,
    report: ServeReport,
    cluster: Option<ClusterReport>,
}

impl ServeRep {
    fn json(&self) -> String {
        let mut json = self.report.to_json();
        if let Some(cluster) = &self.cluster {
            json.push_str(&cluster.to_json());
        }
        json
    }
}

/// One untraced serving rep.
fn serve_once(
    system: &System,
    source: &StripedSource,
    traffic: Traffic,
    config: &ServeConfig,
    seed: u64,
) -> ServeRep {
    let simulated = match system {
        System::Tree(engine) => simulate(engine, source, &mut traffic.generator(seed), config),
        System::Cluster(cluster, _) => {
            cluster.reset_stats();
            simulate(&**cluster, source, &mut traffic.generator(seed), config)
        }
    };
    let outcome = simulated.expect("the workload's serving configuration is valid");
    let report = ServeReport::new(config, &outcome);
    let cluster = match system {
        System::Tree(_) => None,
        System::Cluster(cluster, _) => Some(ClusterReport::new(cluster, &report)),
    };
    ServeRep { outcome, report, cluster }
}

/// The query shapes a rep's generator yields, in submission order.
fn shapes(traffic: Traffic, seed: u64, queries: usize) -> Vec<IndexSet> {
    let mut generator = traffic.generator(seed);
    (0..queries).map(|_| generator.query()).collect()
}

/// The highest Poisson rate whose run keeps p99 latency within
/// [`P99_LIMIT_NS`] with nothing shed or failed.
fn capacity(
    system: &System,
    source: &StripedSource,
    traffic: Traffic,
    queries: usize,
    seed: u64,
) -> f64 {
    let (mut low, mut high) = CAPACITY_RANGE_QPS;
    for _ in 0..CAPACITY_STEPS {
        let rate = (low * high).sqrt();
        let rep = serve_once(system, source, traffic, &serve_config(queries, rate, seed), seed);
        let report = &rep.report;
        if report.shed == 0 && report.failed == 0 && report.latency.p99_ns <= P99_LIMIT_NS {
            low = rate;
        } else {
            high = rate;
        }
    }
    low
}

fn modeled_reps(workload: &Workload, settings: &Settings) -> usize {
    settings.scale.modeled_reps.unwrap_or(workload.modeled_reps)
}

/// Seconds per set-up over repeated set-ups.
///
/// Runs after the warm-up rep, so the host has left whatever state process
/// start-up put it in. A set-up of a few hundred ns is shorter than the
/// clock's own overhead, so set-ups are timed in groups of
/// [`SETUP_GROUP_SECONDS`] or more (the group size doubles until one is that
/// long) and each sample is its group's time per set-up. Sampling repeats
/// at least `settings.scale.setups` times and, while that takes under
/// [`SETUP_SECONDS`], up to [`SETUP_MAX_SAMPLES`] times.
fn setup_seconds<T>(settings: &Settings, mut build: impl FnMut() -> T) -> Summary {
    let mut seconds = Vec::new();
    let mut group = 1u32;
    let start = Instant::now();
    while seconds.len() < settings.scale.setups.max(1)
        || (start.elapsed().as_secs_f64() < SETUP_SECONDS && seconds.len() < SETUP_MAX_SAMPLES)
    {
        let group_start = Instant::now();
        for _ in 0..group {
            black_box(build());
        }
        let elapsed = group_start.elapsed().as_secs_f64();
        if elapsed < SETUP_GROUP_SECONDS && seconds.is_empty() {
            group *= 2;
        } else {
            seconds.push(elapsed / f64::from(group));
        }
    }
    Summary::of(&seconds)
}

/// Reads the process's peak resident set, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit, sample: None }
}

fn setup_metric(sample: Summary) -> Metric {
    Metric { name: "setup_s".into(), value: sample.median, unit: "s", sample: Some(sample) }
}

/// Host time of the timed reps of one run.
struct RepTimes {
    items: f64,
    fastest: Vec<f64>,
    rates: Vec<f64>,
}

impl RepTimes {
    fn new(modeled_reps: usize, items_per_rep: f64) -> Self {
        Self { items: items_per_rep, fastest: vec![f64::INFINITY; modeled_reps], rates: Vec::new() }
    }

    fn push(&mut self, rep: usize, seconds: f64) {
        let slot = rep % self.fastest.len();
        self.fastest[slot] = self.fastest[slot].min(seconds);
        self.rates.push(self.items / seconds);
    }

    /// `sim_items_per_s`: items per host second over the fastest rep of
    /// each input seed. Interference from other work on the host only ever
    /// slows a rep, so the fastest of a seed's repeats is the steadiest
    /// reading of its cost; the per-rep rates stay in the record.
    fn metric(&self) -> Metric {
        Metric {
            name: "sim_items_per_s".into(),
            value: self.items * self.fastest.len() as f64 / self.fastest.iter().sum::<f64>(),
            unit: "1/s",
            sample: Some(Summary::of(&self.rates)),
        }
    }
}

/// Runs the untraced and the traced rep of pair `i`, alternating which
/// goes first so neither side always runs on a cache the other warmed.
fn paired<A, B>(i: usize, untraced: impl FnOnce() -> A, traced: impl FnOnce() -> B) -> (A, B) {
    if i.is_multiple_of(2) {
        let plain = untraced();
        (plain, traced())
    } else {
        let traced = traced();
        (untraced(), traced)
    }
}

/// Runs reps `0, 1, …` until `min_reps` are done and `seconds` have passed.
fn for_reps(min_reps: usize, seconds: f64, mut rep: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut done = 0;
    while done < min_reps || start.elapsed().as_secs_f64() < seconds {
        rep(done);
        done += 1;
    }
    done
}

fn run_serving(workload: &Workload, traffic: Traffic, settings: &Settings) -> Measured {
    let k = modeled_reps(workload, settings);
    let queries = settings.scale.queries;
    let (system, source) = System::build(workload.kind);

    // Warm-up on the rep-0 seed: fills the value cache, then feeds the
    // correctness checks.
    let mut violations = Violations::default();
    let seed0 = settings.seed;
    let warmup =
        serve_once(&system, &source, traffic, &serve_config(queries, RATE_QPS, seed0), seed0);
    verify::serve_rep(
        &system,
        &source,
        &shapes(traffic, seed0, queries),
        &warmup.outcome,
        &mut violations,
    );

    let mut measured = Measured::new(k, violations);
    let note_rep = |measured: &mut Measured, i: usize, rep: &ServeRep| {
        let (shed, failed) = (rep.report.shed, rep.report.failed);
        measured
            .violations
            .add((shed + failed) as u64, || format!("rep {i}: {shed} shed, {failed} failed"));
        measured.note(i, queries as u64, rep.json());
    };

    if settings.trace {
        let tracer = RefCell::new(Tracer::new());
        let mut layers = Vec::new();
        let mut modeled = Vec::new();
        let mut overheads = Vec::new();
        measured.reps = 2 * for_reps(k.min(TRACE_MIN_REPS), settings.seconds, |i| {
            let seed = settings.seed + (i % k) as u64;
            let config = serve_config(queries, RATE_QPS, seed);
            let untraced = || {
                let start = Instant::now();
                let rep = black_box(serve_once(&system, &source, traffic, &config, seed));
                (start.elapsed().as_secs_f64() * 1e9, rep)
            };
            let traced = || {
                traced_serve_rep(
                    &system,
                    &source,
                    traffic,
                    &config,
                    seed,
                    &tracer,
                    i < TRACE_KEPT_REPS,
                )
            };
            let ((plain_ns, plain), (rep, rep_layers, counters)) = paired(i, untraced, traced);
            note_rep(&mut measured, i, &plain);
            measured.attempted += queries as u64;
            measured.violations.check(plain.json() == rep.json(), || {
                format!("rep {i}: the traced report differs from the untraced one")
            });
            overheads.push(rep_layers.wall_ns / plain_ns - 1.0);
            if i < k.min(TRACE_MIN_REPS) {
                modeled.push(serve_layer_metrics(&counters, &rep));
            }
            let mut ratios = BTreeMap::new();
            ratios.insert(
                "mem.gather.host_ns_per_read",
                per(&rep_layers.total_ns, "mem.gather", counters.reads as f64),
            );
            ratios.insert(
                "core.reduce.host_ns_per_query",
                per(&rep_layers.total_ns, "core.reduce", counters.queries as f64),
            );
            layers.push((rep_layers, ratios));
        });
        measured.metrics = layer_metrics(&layers, &modeled, &overheads);
        measured.trace_json = Some(tracer.borrow().chrome_json());
        return measured;
    }

    let setup = setup_seconds(settings, || System::build(workload.kind));
    let mut times = RepTimes::new(k, queries as f64);
    let (mut p50, mut p99, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    measured.reps = for_reps(k, settings.seconds, |i| {
        let seed = settings.seed + (i % k) as u64;
        let config = serve_config(queries, RATE_QPS, seed);
        let start = Instant::now();
        let rep = black_box(serve_once(&system, &source, traffic, &config, seed));
        times.push(i, start.elapsed().as_secs_f64());
        if i < k {
            p50.push(rep.report.latency.p50_ns);
            p99.push(rep.report.latency.p99_ns);
            reads.push(rep.report.dram_reads_per_query);
        }
        note_rep(&mut measured, i, &rep);
    });
    let capacities: Vec<f64> = (0..CAPACITY_SEEDS.min(k))
        .map(|i| {
            let seed = settings.seed + i as u64;
            capacity(&system, &source, traffic, settings.scale.capacity_queries, seed)
        })
        .collect();
    measured.metrics = vec![
        times.metric(),
        setup_metric(setup),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("p50_latency_ns", mean(&p50), "ns"),
        metric("p99_latency_ns", mean(&p99), "ns"),
        metric("mem_reads_per_item", mean(&reads), "count"),
        metric("capacity_per_s", median(&capacities), "1/s"),
    ];
    measured
}

/// Values by metric or layer name.
type Named = BTreeMap<&'static str, f64>;

/// `map[key] / count`, 0 when either is missing.
fn per(map: &Named, key: &str, count: f64) -> f64 {
    match map.get(key) {
        Some(&value) if count > 0.0 => value / count,
        _ => 0.0,
    }
}

/// One traced serving rep: the real run under the wrappers, then the
/// replays that split the calls the wrappers cannot.
fn traced_serve_rep(
    system: &System,
    source: &StripedSource,
    traffic: Traffic,
    config: &ServeConfig,
    seed: u64,
    tracer: &RefCell<Tracer>,
    keep_spans: bool,
) -> (ServeRep, RepLayers, GatherCounters) {
    let first = tracer.borrow_mut().start_rep();
    // Generation runs inside `simulate`; replaying it moves its time out
    // of the serve loop's.
    let shapes = replay(tracer, "workloads", "serve", || {
        black_box(config.arrivals.schedule(config.queries, config.seed));
        shapes(traffic, seed, config.queries)
    });
    let rep = match system {
        System::Tree(engine) => {
            let timed = Timed::new(engine, tracer);
            let outcome = span(tracer, "serve", || {
                simulate(&timed, source, &mut traffic.generator(seed), config)
            })
            .expect("the workload's serving configuration is valid");
            let report = span(tracer, "report", || ServeReport::new(config, &outcome));
            replay_reduce(engine, source, &shapes, &outcome, tracer);
            ServeRep { outcome, report, cluster: None }
        }
        System::Cluster(cluster, shard) => {
            cluster.reset_stats();
            let timed = TimedCluster::new(cluster, tracer);
            let outcome = span(tracer, "serve", || {
                simulate(&timed, source, &mut traffic.generator(seed), config)
            })
            .expect("the workload's serving configuration is valid");
            let (report, cluster_report) = span(tracer, "report", || {
                let report = ServeReport::new(config, &outcome);
                let cluster_report = ClusterReport::new(cluster, &report);
                (report, cluster_report)
            });
            replay_cluster(cluster, shard, source, &shapes, &outcome, tracer);
            ServeRep { outcome, report, cluster: Some(cluster_report) }
        }
    };
    let mut tracer = tracer.borrow_mut();
    let layers = tracer.layers_since(first);
    if !keep_spans {
        tracer.truncate(first);
    }
    (rep, layers, tracer.counters.clone())
}

/// Splits `core.reduce` by replaying each hardware batch's reduce path —
/// rank injection and the event-timed tree, or the fast fold — on the
/// plans and gathered reads the real run used.
fn replay_reduce(
    engine: &FafnirEngine,
    source: &StripedSource,
    shapes: &[IndexSet],
    outcome: &ServeOutcome,
    tracer: &RefCell<Tracer>,
) {
    let config = engine.config();
    let operator = engine.active_operator();
    let ranks = engine.memory_config().topology.total_ranks();
    // The engine's own path choice, read from its public configuration.
    let fold = engine.memory_config().model == MemoryModelKind::Fast
        && engine.backend() == TreeBackend::EventTimed
        && fastpath::supports_shape(config.ranks_per_leaf);
    for (number, record) in outcome.batches.iter().enumerate() {
        let batch = Batch::from_index_sets(record.queries.iter().map(|&id| shapes[id].clone()));
        let plans = engine.preprocess(&batch, source).expect("the batch was served");
        for plan in &plans {
            let gathered = engine.gather(plan);
            let vectors: Vec<GatheredVector> = gathered
                .completions
                .iter()
                .map(|c| GatheredVector {
                    index: c.index,
                    rank: c.rank,
                    value: source.shared_value_of(plan.resolve(c.index)),
                    ready_ns: c.ready_ns,
                })
                .collect();
            tracer.borrow_mut().set_batch(Some(number));
            if fold {
                black_box(replay(tracer, "core.fold", "core.reduce", || {
                    fastpath::fast_reduce(&plan.batch, &vectors, engine.tree(), &*operator)
                }));
            } else {
                let inputs = replay(tracer, "core.inject", "core.reduce", || {
                    build_rank_inputs_with(
                        &plan.batch,
                        &vectors,
                        ranks,
                        config.ranks_per_leaf,
                        &*operator,
                        &config.pe_timing,
                    )
                });
                black_box(replay(tracer, "core.tree", "core.reduce", || {
                    engine.tree().run_with(&*operator, inputs)
                }));
            }
        }
    }
    tracer.borrow_mut().set_batch(None);
}

/// Splits a cluster lookup by replaying its routing and its shard
/// sub-batches (on a standalone engine under [`Timed`], which also times
/// the core and memory stages); what remains of the lookup is the merge.
fn replay_cluster(
    cluster: &ClusterEngine,
    shard: &FafnirEngine,
    source: &StripedSource,
    shapes: &[IndexSet],
    outcome: &ServeOutcome,
    tracer: &RefCell<Tracer>,
) {
    let timed = Timed::nested(shard, tracer);
    for (number, record) in outcome.batches.iter().enumerate() {
        let batch = Batch::from_index_sets(record.queries.iter().map(|&id| shapes[id].clone()));
        tracer.borrow_mut().set_batch(Some(number));
        let routed = replay(tracer, "cluster.route", "cluster.merge", || {
            route(&batch, cluster.plan(), cluster.policy())
        });
        replay(tracer, "cluster.shards", "cluster.merge", || {
            for sub_queries in routed.per_shard.iter().filter(|subs| !subs.is_empty()) {
                let sub = Batch::from_index_sets(sub_queries.iter().map(|sq| sq.indices.clone()));
                black_box(
                    GatherEngine::lookup(&timed, &sub, source).expect("the batch was served"),
                );
            }
        });
    }
    tracer.borrow_mut().set_batch(None);
}

/// Modeled layer metrics of one traced serving rep.
fn serve_layer_metrics(counters: &GatherCounters, rep: &ServeRep) -> Named {
    let ratio = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    let report = &rep.report;
    let mut metrics = BTreeMap::from([
        ("mem.gather.row_hit_rate", ratio(counters.row_hits, counters.bursts)),
        ("mem.gather.modeled_ns_p50", median(&counters.memory_ns)),
        ("mem.gather.max_queue_depth", counters.max_queue_depth as f64),
        ("core.preprocess.unique_frac", ratio(counters.reads, counters.references)),
        ("core.reduce.tail_ns_p50", median(&counters.tail_ns)),
        ("serve.mean_batch_size", report.mean_batch_size),
        ("serve.queue_wait_p99_ns", report.queue_wait.p99_ns),
        ("serve.service_p99_ns", report.service.p99_ns),
        ("serve.utilization", report.utilization),
    ]);
    if let Some(cluster) = &rep.cluster {
        metrics.insert("cluster.imbalance", cluster.imbalance);
        metrics.insert("cluster.split_frac", cluster.stats.split_fraction());
        metrics.insert(
            "cluster.xfer_bytes_per_query",
            ratio(cluster.stats.cross_shard_bytes, cluster.stats.queries),
        );
        metrics.insert("cluster.merge_p99_ns", cluster.merge.p99_ns);
    }
    metrics
}

/// The per-layer metrics of a traced run: host share, self ns per call and
/// calls of every layer, and each ratio, as medians over the traced reps;
/// the modeled layer metrics as medians over the modeled reps traced; and
/// the tracing overhead as the median over untraced/traced pairs. A layer
/// or metric the workload never reaches reads 0.
fn layer_metrics(reps: &[(RepLayers, Named)], modeled: &[Named], overheads: &[f64]) -> Vec<Metric> {
    let over_reps = |value: &dyn Fn(&RepLayers, &Named) -> Option<f64>| {
        let values: Vec<f64> =
            reps.iter().filter_map(|(layers, ratios)| value(layers, ratios)).collect();
        median(&values)
    };
    let mut metrics = Vec::new();
    for layer in LAYERS {
        let share = over_reps(&|layers, _| {
            Some(layers.self_ns.get(layer).copied().unwrap_or(0.0) / layers.wall_ns)
        });
        let ns_per_call = over_reps(&|layers, _| {
            let calls = layers.calls.get(layer).copied().unwrap_or(0);
            (calls > 0).then(|| layers.self_ns.get(layer).copied().unwrap_or(0.0) / calls as f64)
        });
        let calls =
            over_reps(&|layers, _| Some(layers.calls.get(layer).copied().unwrap_or(0) as f64));
        metrics.push(metric(&format!("{layer}.share"), share, "frac"));
        metrics.push(metric(&format!("{layer}.ns_per_call"), ns_per_call, "ns"));
        metrics.push(metric(&format!("{layer}.calls"), calls, "count"));
    }
    for (name, unit, _) in LAYER_METRICS {
        let value = if name == "trace.overhead_frac" {
            median(overheads)
        } else if reps.iter().any(|(_, ratios)| ratios.contains_key(name)) {
            over_reps(&|_, ratios| ratios.get(name).copied())
        } else {
            let values: Vec<f64> = modeled.iter().filter_map(|m| m.get(name).copied()).collect();
            median(&values)
        };
        metrics.push(metric(name, value, unit));
    }
    metrics
}

/// The SpMV workload's fixed inputs.
#[derive(Debug)]
struct SpmvSetup {
    matrix: CooMatrix,
    serial: SpmvRun,
    timing: SpmvTiming,
}

impl SpmvSetup {
    fn build(scale: Scale, seed: u64) -> Self {
        let (log2_rows, nnz) = scale.rmat;
        let matrix = gen::rmat(log2_rows, nnz, seed);
        let x = operand(matrix.cols(), seed);
        let serial = fafnir_spmv::execute(&LilMatrix::from(&matrix), &x, SPMV_VECTOR_SIZE);
        Self { matrix, serial, timing: SpmvTiming::paper() }
    }
}

/// A dense operand in [0.5, 1.5), determined by `seed` (SplitMix64).
fn operand(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// One SpMV rep's outputs.
struct SpmvRep {
    run: PartitionedRun,
    report: PartitionReport,
}

impl SpmvRep {
    fn check(&self, setup: &SpmvSetup, i: usize, violations: &mut Violations) {
        let error = self.report.max_abs_error;
        violations.check(error < SPMV_MAX_ERROR, || format!("rep {i}: SpMV error {error:e}"));
        let nnz: u64 = self.run.rank_runs.iter().map(|r| r.nnz).sum();
        violations.check(nnz == setup.matrix.nnz() as u64, || {
            format!("rep {i}: ranks multiplied {nnz} of {} nonzeros", setup.matrix.nnz())
        });
    }

    /// Entries streamed into the trees — every rank's multiply and merge
    /// iterations plus the cross-rank synchronization — per nonzero.
    fn entries_per_nnz(&self, nnz: usize) -> f64 {
        let streamed: u64 = self.run.rank_runs.iter().flat_map(|r| &r.volumes).sum();
        (streamed + self.run.sync_entries) as f64 / nnz as f64
    }
}

/// The stages of one SpMV rep, each wrapped by `stage(name, work)`.
fn spmv_stages(
    setup: &SpmvSetup,
    x: &[f64],
    reference: &[f64],
    mut stage: impl FnMut(&'static str, &mut dyn FnMut()),
) -> SpmvRep {
    let mut partition = None;
    stage("sparse.partition", &mut || {
        partition =
            Some(SpmvPartition::new(&setup.matrix, PartitionStrategy::NnzBalancedRows, SPMV_RANKS));
    });
    let partition = partition.expect("partition stage ran");
    let mut run = None;
    stage("sparse.execute", &mut || {
        run = Some(execute_partitioned(&setup.matrix, x, &partition, SPMV_VECTOR_SIZE));
    });
    let run = run.expect("execute stage ran");
    let mut report = None;
    stage("report", &mut || {
        report = Some(PartitionReport::new(&run, &setup.serial, &setup.timing, reference));
    });
    SpmvRep { run, report: report.expect("report stage ran") }
}

fn run_spmv(workload: &Workload, settings: &Settings) -> Measured {
    let k = modeled_reps(workload, settings);
    let setup = SpmvSetup::build(settings.scale, settings.seed);
    let nnz = setup.matrix.nnz();
    let mut measured = Measured::new(k, Violations::default());
    // The operand is the rep's workload; the dense reference product is
    // the check, so it stays outside every timing.
    let inputs = |i: usize| {
        let x = operand(setup.matrix.cols(), settings.seed + (i % k) as u64);
        let reference = setup.matrix.multiply_dense(&x);
        (x, reference)
    };
    let untraced = |i: usize| {
        let (x, reference) = inputs(i);
        let start = Instant::now();
        black_box(operand(setup.matrix.cols(), settings.seed + (i % k) as u64));
        let rep = spmv_stages(&setup, &x, &reference, |_, work| work());
        (start.elapsed().as_secs_f64(), rep)
    };
    let warmup = untraced(0).1;
    warmup.check(&setup, 0, &mut measured.violations);
    let note_rep = |measured: &mut Measured, i: usize, rep: &SpmvRep| {
        rep.check(&setup, i, &mut measured.violations);
        measured.note(i, 1, rep.report.to_json());
    };

    if settings.trace {
        let tracer = RefCell::new(Tracer::new());
        let (mut layers, mut modeled, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
        measured.reps = 2 * for_reps(k.min(TRACE_MIN_REPS), settings.seconds, |i| {
            let traced = || {
                let first = tracer.borrow_mut().start_rep();
                let x = span(&tracer, "workloads", || {
                    operand(setup.matrix.cols(), settings.seed + (i % k) as u64)
                });
                let reference = setup.matrix.multiply_dense(&x);
                let rep =
                    spmv_stages(&setup, &x, &reference, |name, work| span(&tracer, name, work));
                let mut tracer = tracer.borrow_mut();
                let layers = tracer.layers_since(first);
                if i >= TRACE_KEPT_REPS {
                    tracer.truncate(first);
                }
                (layers, rep)
            };
            let ((plain_s, plain), (rep_layers, rep)) = paired(i, || untraced(i), traced);
            note_rep(&mut measured, i, &plain);
            measured.attempted += 1;
            measured.violations.check(plain.report.to_json() == rep.report.to_json(), || {
                format!("rep {i}: the traced report differs from the untraced one")
            });
            overheads.push(rep_layers.wall_ns / (plain_s * 1e9) - 1.0);
            if i < k.min(TRACE_MIN_REPS) {
                modeled.push(BTreeMap::from([
                    ("sparse.nnz_imbalance", rep.report.nnz_imbalance),
                    ("sparse.time_imbalance", rep.report.time_imbalance),
                    ("sparse.speedup", rep.report.speedup),
                    ("sparse.critical_path_ns", rep.run.critical_path_ns(&setup.timing)),
                ]));
            }
            let ratios = BTreeMap::from([(
                "sparse.execute.host_ns_per_nnz",
                per(&rep_layers.total_ns, "sparse.execute", nnz as f64),
            )]);
            layers.push((rep_layers, ratios));
        });
        measured.metrics = layer_metrics(&layers, &modeled, &overheads);
        measured.trace_json = Some(tracer.borrow().chrome_json());
        return measured;
    }

    let setup_time = setup_seconds(settings, || SpmvSetup::build(settings.scale, settings.seed));
    let mut times = RepTimes::new(k, nnz as f64);
    let (mut latency, mut entries) = (Vec::new(), Vec::new());
    measured.reps = for_reps(k, settings.seconds, |i| {
        let (seconds, rep) = untraced(i);
        times.push(i, seconds);
        if i < k {
            latency.push(rep.report.parallel_ns);
            entries.push(rep.entries_per_nnz(nnz));
        }
        note_rep(&mut measured, i, &rep);
    });
    let p99 = fafnir_core::nearest_rank_percentile_ns(&latency, 0.99);
    let p50 = median(&latency);
    measured.metrics = vec![
        times.metric(),
        setup_metric(setup_time),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("p50_latency_ns", p50, "ns"),
        metric("p99_latency_ns", p99, "ns"),
        metric("mem_reads_per_item", median(&entries), "count"),
        metric("capacity_per_s", nnz as f64 / p50 * 1e9, "1/s"),
    ];
    measured
}
