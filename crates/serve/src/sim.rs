//! The deterministic virtual-time serving simulation.
//!
//! [`simulate`] drives an open-loop query stream through the serving
//! pipeline:
//!
//! ```text
//! arrivals ──▶ bounded arrival queue ──▶ dynamic batcher ──▶ dispatch
//!   (shed on overflow)      (BatchPolicy)        buffer ──▶ worker pool
//!                                                  ▲            │ crash /
//!                                                  └── retry ◀──┘ timeout
//! ```
//!
//! Time is *virtual nanoseconds*: the loop jumps between events (query
//! arrival, batching deadline, attempt resolution, hedge arming, retry
//! backoff expiry, worker restart), so a run is fully determined by its
//! configuration and seeds — byte-identical across hosts, thread counts,
//! and reruns. Each dispatched batch is served by a
//! [`LookupService::lookup_timing`] on the worker's own private memory
//! system (a replicated accelerator instance): the serve path reads only
//! timing and traffic, so no value is fetched or folded. The engine's
//! per-query completion times become per-query completion events on the
//! serving clock.
//!
//! [`simulate_resilient`] layers a fault model on top
//! ([`ResilienceConfig`]): a seeded [`FaultPlan`] schedules per-worker
//! crash/restart intervals and service-time slowdown multipliers; the
//! dispatcher reacts with per-batch timeouts, bounded retry-with-backoff
//! onto a different worker, and optional hedged dispatch (duplicate the
//! batch to a second free worker after a hedge delay; first completion
//! wins, the loser is cancelled). When every worker is permanently down,
//! the shed policy escalates: pending work is shed instead of queueing
//! without bound. A zero-fault plan reproduces the fault-free simulation
//! byte for byte, and all observable metrics are invariant under worker
//! renumbering (free-worker ties break on the *fault schedule*, not the
//! worker id — see [`WorkerFaults::schedule_cmp`]).

use std::collections::VecDeque;

use fafnir_core::placement::EmbeddingSource;
use fafnir_core::{Batch, IndexSet, LookupResult, LookupService, QueryId};
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::faults::{FaultPlan, WorkerFaults, MAX_EXPECTED_DOWNTIMES};
use fafnir_workloads::query::BatchGenerator;

use crate::policy::BatchPolicy;
use crate::queue::{Admission, ArrivalQueue, ShedPolicy};
use crate::record::{AttemptRecord, AttemptResult, BatchRecord, QueryOutcome, QueryRecord};
use crate::ServeError;

/// Configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Open-loop arrival process (virtual time).
    pub arrivals: ArrivalProcess,
    /// Dynamic batching policy.
    pub policy: BatchPolicy,
    /// Worker replicas (independent engine instances with private memory
    /// systems).
    pub workers: usize,
    /// Arrival-queue bound, in queries; admission control sheds beyond it.
    pub queue_capacity: usize,
    /// Formed batches that may wait for a free worker before the batcher
    /// stops closing new ones.
    pub dispatch_capacity: usize,
    /// Load-shedding policy when the arrival queue is full.
    pub shed: ShedPolicy,
    /// Number of queries the load generator offers (the run's duration).
    pub queries: usize,
    /// Seed for the arrival schedule (query *contents* come from the
    /// caller's [`BatchGenerator`], which carries its own seed).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            arrivals: ArrivalProcess::Poisson { rate_qps: 1e6 },
            policy: BatchPolicy::Adaptive { batch: 32, max_wait_ns: 500_000.0 },
            workers: 4,
            queue_capacity: 1_024,
            dispatch_capacity: 8,
            shed: ShedPolicy::DropNewest,
            queries: 512,
            seed: 7,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero workers/queries/
    /// capacities, invalid arrival or batching parameters, or a `Size`
    /// policy whose batch can never fit the bounded queue (a guaranteed
    /// livelock).
    pub fn validate(&self) -> Result<(), ServeError> {
        self.arrivals.validate().map_err(ServeError::InvalidConfig)?;
        self.policy.validate()?;
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be non-zero".into()));
        }
        if self.queries == 0 {
            return Err(ServeError::InvalidConfig("queries must be non-zero".into()));
        }
        if self.queue_capacity == 0 || self.dispatch_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity and dispatch_capacity must be non-zero".into(),
            ));
        }
        if let BatchPolicy::Size { batch } = self.policy {
            if batch > self.queue_capacity {
                return Err(ServeError::InvalidConfig(format!(
                    "size policy needs batch ({batch}) <= queue_capacity ({})",
                    self.queue_capacity
                )));
            }
        }
        Ok(())
    }
}

/// The fault-injection and resilience knobs of one serving run.
///
/// [`ResilienceConfig::none`] disables everything; a run under it is
/// byte-identical to [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Per-worker fault schedule (crash/restart intervals, slowdowns).
    pub faults: FaultPlan,
    /// Per-batch dispatch timeout: if a service attempt has not completed
    /// `timeout_ns` after its dispatch, the dispatcher gives up on it (the
    /// worker keeps crunching to its natural finish — wasted work) and
    /// retries elsewhere. `None` disables timeouts.
    pub timeout_ns: Option<f64>,
    /// Failed attempts (crash or timeout) a batch may absorb before its
    /// queries are marked [`QueryOutcome::Failed`]. Each failure beyond the
    /// first dispatch is retried onto a *different* worker when one is
    /// available.
    pub retries: u32,
    /// Base retry backoff; retry `k` (0-based) waits `backoff_ns × 2^k`
    /// after the failure before it becomes dispatchable.
    pub backoff_ns: f64,
    /// Hedged dispatch: if the lone in-flight attempt of a batch is still
    /// running `hedge_ns` after it started, duplicate the batch onto a
    /// second free worker. First completion wins; the loser is cancelled
    /// at the winner's completion time. `None` disables hedging.
    pub hedge_ns: Option<f64>,
}

impl ResilienceConfig {
    /// No faults, no timeouts, no hedging: the transparent configuration.
    #[must_use]
    pub fn none(workers: usize) -> Self {
        Self {
            faults: FaultPlan::none(workers),
            timeout_ns: None,
            retries: 0,
            backoff_ns: 1_000.0,
            hedge_ns: None,
        }
    }

    /// Validates the configuration against the serving worker count.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the fault plan does not
    /// cover exactly `workers` replicas, when the plan itself is malformed,
    /// or for non-positive/non-finite timeout, backoff, or hedge values.
    pub fn validate(&self, workers: usize) -> Result<(), ServeError> {
        self.faults.validate().map_err(ServeError::InvalidConfig)?;
        if self.faults.len() != workers {
            return Err(ServeError::InvalidConfig(format!(
                "fault plan covers {} workers but the run has {workers}",
                self.faults.len()
            )));
        }
        if let Some(timeout) = self.timeout_ns {
            if !timeout.is_finite() || timeout <= 0.0 {
                return Err(ServeError::InvalidConfig(format!(
                    "timeout_ns must be positive and finite, got {timeout}"
                )));
            }
        }
        if let Some(hedge) = self.hedge_ns {
            if !hedge.is_finite() || hedge < 0.0 {
                return Err(ServeError::InvalidConfig(format!(
                    "hedge_ns must be non-negative and finite, got {hedge}"
                )));
            }
        }
        if !self.backoff_ns.is_finite() || self.backoff_ns < 0.0 {
            return Err(ServeError::InvalidConfig(format!(
                "backoff_ns must be non-negative and finite, got {}",
                self.backoff_ns
            )));
        }
        Ok(())
    }
}

/// A fault plan's shape, apart from the run it is laid over. Its text is
/// the `--faults` grammar, [`FaultSpec::GRAMMAR`], with times in virtual ns:
/// [`FromStr`](std::str::FromStr) reads it, [`Display`](std::fmt::Display)
/// writes it back, and [`FaultSpec::plan`] checks the values against one
/// run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// No faults.
    None,
    /// Every worker down from t = 0, forever.
    Outage,
    /// The first `slowed` workers serve at `multiplier`× service time.
    Slow {
        /// Service-time multiplier of the degraded workers.
        multiplier: f64,
        /// How many workers are degraded.
        slowed: usize,
    },
    /// Seeded crash/restart churn on every worker.
    Crash {
        /// Mean time to failure in virtual ns.
        mttf_ns: f64,
        /// Mean time to repair in virtual ns.
        mttr_ns: f64,
    },
}

impl FaultSpec {
    /// The grammar's four shapes, as usage text shows them.
    pub const GRAMMAR: &'static str = "none|outage|slow:MULT:N|crash:MTTF:MTTR";

    /// The plan for `workers` replicas serving `queries` queries offered at
    /// `rate_qps`. A crash plan draws its schedule from `seed` out to a
    /// horizon of ten times the run's nominal length, `queries / rate_qps`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the spec when a slowdown is not finite and
    /// at least 1, more workers are slowed than the run has, a mean time is
    /// not positive and finite, or a crash plan expects more than
    /// [`MAX_EXPECTED_DOWNTIMES`] downtimes per worker over its horizon.
    pub fn plan(
        &self,
        workers: usize,
        queries: usize,
        rate_qps: f64,
        seed: u64,
    ) -> Result<FaultPlan, String> {
        match *self {
            Self::None => Ok(FaultPlan::none(workers)),
            Self::Outage => Ok(FaultPlan::total_outage(workers)),
            Self::Slow { multiplier, slowed } => {
                if !(multiplier.is_finite() && multiplier >= 1.0) {
                    return Err(format!("`{self}` needs a finite slowdown of at least 1"));
                }
                if slowed > workers {
                    return Err(format!("`{self}` slows {slowed} workers of {workers}"));
                }
                Ok(FaultPlan::slow_workers(workers, slowed, multiplier))
            }
            Self::Crash { mttf_ns, mttr_ns } => {
                if ![mttf_ns, mttr_ns].iter().all(|mean| mean.is_finite() && *mean > 0.0) {
                    return Err(format!("`{self}` needs positive, finite mean times"));
                }
                let horizon_ns = ((queries as f64 / rate_qps.max(1.0)) * 1e9 * 10.0).max(1.0);
                let expected = horizon_ns / (mttf_ns + mttr_ns);
                if expected > f64::from(MAX_EXPECTED_DOWNTIMES) {
                    return Err(format!(
                        "`{self}` expects {expected:.3e} downtimes per worker over the \
                         {horizon_ns:.0} ns horizon, more than {MAX_EXPECTED_DOWNTIMES}"
                    ));
                }
                Ok(FaultPlan::crash_restart(workers, mttf_ns, mttr_ns, horizon_ns, seed))
            }
        }
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let number = |raw: &str| {
            raw.parse::<f64>().map_err(|_| format!("`{raw}` in `{spec}` is not a number"))
        };
        match spec.split(':').collect::<Vec<_>>().as_slice() {
            ["none"] => Ok(Self::None),
            ["outage"] => Ok(Self::Outage),
            ["slow", multiplier, slowed] => Ok(Self::Slow {
                multiplier: number(multiplier)?,
                slowed: slowed
                    .parse()
                    .map_err(|_| format!("`{slowed}` in `{spec}` is not a whole number"))?,
            }),
            ["crash", mttf, mttr] => {
                Ok(Self::Crash { mttf_ns: number(mttf)?, mttr_ns: number(mttr)? })
            }
            _ => Err(format!("`{spec}` is not {}", Self::GRAMMAR)),
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Plain digits, unless they would run to dozens of them; either
        // form reads back to the same `f64`.
        let number = |x: f64| match x.abs() {
            0.0 | 1e-6..1e21 => format!("{x}"),
            _ => format!("{x:e}"),
        };
        match *self {
            Self::None => write!(f, "none"),
            Self::Outage => write!(f, "outage"),
            Self::Slow { multiplier, slowed } => write!(f, "slow:{}:{slowed}", number(multiplier)),
            Self::Crash { mttf_ns, mttr_ns } => {
                write!(f, "crash:{}:{}", number(mttf_ns), number(mttr_ns))
            }
        }
    }
}

/// Everything a finished run produced: per-query, per-batch, and
/// per-attempt records, and the fault plan it ran under.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// One record per offered query, in submission order.
    pub records: Vec<QueryRecord>,
    /// One record per formed batch, in formation order.
    pub batches: Vec<BatchRecord>,
    /// One record per started service attempt, in resolution order. Busy
    /// spans here (not the winning services alone) drive utilization and
    /// per-worker busy fractions, so wasted work is accounted.
    pub attempts: Vec<AttemptRecord>,
    /// The run's fault plan ([`FaultPlan::none`] for a fault-free run),
    /// from which the report scores per-worker availability.
    pub faults: FaultPlan,
}

impl ServeOutcome {
    /// Queries served to completion.
    #[must_use]
    pub fn served(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.outcome, QueryOutcome::Served { .. })).count()
    }

    /// Queries rejected by admission control (including shed escalation).
    #[must_use]
    pub fn shed(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.outcome, QueryOutcome::Shed { .. })).count()
    }

    /// Queries whose batch exhausted its retry budget.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.outcome, QueryOutcome::Failed { .. })).count()
    }

    /// Virtual time of the last host-side output (0 when nothing was
    /// served).
    #[must_use]
    pub fn makespan_ns(&self) -> f64 {
        self.records
            .iter()
            .filter_map(|r| match r.outcome {
                QueryOutcome::Served { completion_ns, .. } => Some(completion_ns),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Arrival time of the first offered query (0 for an empty run).
    #[must_use]
    pub fn first_arrival_ns(&self) -> f64 {
        self.records.first().map_or(0.0, |r| r.arrival_ns)
    }

    /// End of the measurement window: the later of the last host-side
    /// output and the last worker busy instant (wasted work included).
    #[must_use]
    pub fn window_end_ns(&self) -> f64 {
        self.attempts.iter().map(|a| a.busy_until_ns).fold(self.makespan_ns(), f64::max)
    }
}

/// How one in-flight attempt will resolve (fully determined at dispatch).
#[derive(Debug, Clone, Copy, PartialEq)]
enum ResolveKind {
    /// Completes and delivers outputs at `resolve_ns`.
    Success,
    /// The worker crashes at `resolve_ns`; the work is lost.
    Crash,
    /// The dispatcher gives up at `resolve_ns`; the worker stays busy
    /// until `busy_until_ns` (natural finish, or an even later crash).
    Timeout {
        /// When the abandoned worker actually stops crunching.
        busy_until_ns: f64,
    },
}

/// One in-flight service attempt.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    worker: usize,
    start_ns: f64,
    resolve_ns: f64,
    kind: ResolveKind,
    hedge: bool,
}

/// Lifecycle of a formed batch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum JobState {
    /// Formed, waiting for its first dispatch (counts against
    /// `dispatch_capacity`).
    WaitingFirst,
    /// At least one attempt in flight.
    InFlight,
    /// Last attempt failed; redispatch becomes possible at `ready_ns`,
    /// preferring any worker other than `exclude`.
    WaitingRetry {
        ready_ns: f64,
        exclude: usize,
    },
    Done,
}

/// A formed batch travelling through the dispatch layer. Its members and
/// formation time are in the [`BatchRecord`] with the same index.
#[derive(Debug)]
struct Job {
    state: JobState,
    /// Fault-free per-query completion offsets from the engine, sorted by
    /// query id. An attempt multiplies these and `service_ns` by its
    /// worker's slowdown (x * 1.0 = x, so fault-free runs stay
    /// bit-identical). Freed once the batch is done.
    per_query_ns: Vec<(QueryId, f64)>,
    /// Fault-free engine service time of one attempt.
    service_ns: f64,
    /// Deduplicated DRAM vector reads of one attempt.
    reads_per_attempt: u64,
    primary: Option<InFlight>,
    hedge: Option<InFlight>,
    /// Crashed or timed-out attempts so far (retry budget consumed).
    failures: u32,
    /// Retry redispatches scheduled so far (backoff exponent).
    redispatches: u32,
    attempts: u32,
    hedged: bool,
    first_dispatch_ns: f64,
    vectors_read: u64,
}

impl Job {
    fn in_flight_count(&self) -> usize {
        usize::from(self.primary.is_some()) + usize::from(self.hedge.is_some())
    }

    /// The in-flight attempt due by `now` with the earliest resolution
    /// (primary first on exact ties, which is deterministic).
    fn due_attempt(&self, now: f64) -> Option<InFlight> {
        [self.primary, self.hedge]
            .into_iter()
            .flatten()
            .filter(|a| a.resolve_ns <= now)
            .min_by(|a, b| a.resolve_ns.total_cmp(&b.resolve_ns))
    }
}

/// Runs one serving simulation to completion with no fault layer.
///
/// Equivalent to [`simulate_resilient`] under [`ResilienceConfig::none`]
/// (byte-identically so). The load generator offers `config.queries`
/// queries whose arrival times come from `config.arrivals` and whose index
/// sets come from `traffic` (drawn in submission order, so a given
/// generator seed always produces the same query stream). After the last
/// arrival the batcher drains: remaining queued queries close immediately
/// regardless of policy.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for invalid configurations,
/// [`ServeError::Engine`] if the engine rejects a formed batch, and
/// [`ServeError::Unaccounted`] if the finished run fails its conservation
/// check (see [`simulate_resilient`]).
pub fn simulate<E: LookupService, S: EmbeddingSource>(
    engine: &E,
    source: &S,
    traffic: &mut BatchGenerator,
    config: &ServeConfig,
) -> Result<ServeOutcome, ServeError> {
    simulate_resilient(engine, source, traffic, config, &ResilienceConfig::none(config.workers))
}

/// Runs one serving simulation to completion under a fault plan.
///
/// See the [module docs](self) for the dispatch model (timeouts, bounded
/// retry with backoff, hedged dispatch, shed escalation). Determinism
/// contract: same configuration and seeds ⇒ byte-identical
/// [`ServeOutcome`]; permuting worker ids together with the fault plan
/// leaves every report-level metric unchanged. Before returning, the run
/// checks its conservation law: every query was served, shed or failed,
/// and no batch is left in flight or waiting to retry.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for invalid configurations
/// (including a fault plan that does not cover `config.workers` replicas),
/// [`ServeError::Engine`] if the engine rejects a formed batch, and
/// [`ServeError::Unaccounted`], naming the first unaccounted query, if the
/// conservation check fails (a simulator bug).
#[allow(clippy::too_many_lines)]
pub fn simulate_resilient<E: LookupService, S: EmbeddingSource>(
    engine: &E,
    source: &S,
    traffic: &mut BatchGenerator,
    config: &ServeConfig,
    resilience: &ResilienceConfig,
) -> Result<ServeOutcome, ServeError> {
    config.validate()?;
    resilience.validate(config.workers)?;
    let times = config.arrivals.schedule(config.queries, config.seed);
    let shapes: Vec<IndexSet> = (0..config.queries).map(|_| traffic.query()).collect();
    let mut sim = Sim {
        resilience,
        records: times
            .iter()
            .map(|&arrival_ns| QueryRecord { arrival_ns, outcome: QueryOutcome::Pending })
            .collect(),
        batches: Vec::new(),
        attempt_log: Vec::new(),
        jobs: Vec::new(),
        live: Vec::new(),
        free_ns: vec![0.0; config.workers],
    };

    let mut queue = ArrivalQueue::new(config.queue_capacity, config.shed);
    let mut waiting_first: VecDeque<usize> = VecDeque::new();
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;

    loop {
        // Admit arrivals due by now.
        while next_arrival < times.len() && times[next_arrival] <= now {
            let id = next_arrival;
            next_arrival += 1;
            match queue.offer(id, times[id]) {
                Admission::Admitted => {}
                Admission::SheddedArrival => {
                    sim.records[id].outcome = QueryOutcome::Shed { shed_ns: times[id] };
                }
                Admission::SheddedOldest(evicted) => {
                    sim.records[evicted].outcome = QueryOutcome::Shed { shed_ns: times[id] };
                }
            }
        }
        let draining = next_arrival == times.len();

        // Run every state transition possible at `now` to a fixpoint:
        // attempt resolutions free workers, freed workers dispatch waiting
        // work, dispatches open batcher capacity, and so on.
        loop {
            let mut progressed = false;
            progressed |= sim.resolve_due(now);
            progressed |= sim.launch_hedges(now);
            progressed |= sim.dispatch_retries(now);
            while let Some(&job_id) = waiting_first.front() {
                let Some(worker) = sim.best_available(now, None) else { break };
                waiting_first.pop_front();
                sim.start_attempt(job_id, worker, now, false);
                progressed = true;
            }
            while waiting_first.len() < config.dispatch_capacity {
                let Some(oldest) = queue.oldest_arrival_ns() else { break };
                if !(config.policy.ready(queue.len(), oldest, now) || draining) {
                    break;
                }
                let ids = queue.take(config.policy.max_batch());
                let job_id = sim.form_job(ids, now, engine, source, &shapes)?;
                waiting_first.push_back(job_id);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }

        if draining && queue.is_empty() && waiting_first.is_empty() && sim.live.is_empty() {
            break;
        }

        // Jump to the next event. All candidates are strictly in the
        // future: due arrivals were admitted above, expired deadlines
        // closed their batch, due resolutions/hedges/retries were processed
        // by the fixpoint loop, and available workers already absorbed
        // dispatchable work.
        let mut t_next = f64::INFINITY;
        let mut work_blocked = !waiting_first.is_empty();
        if next_arrival < times.len() {
            t_next = t_next.min(times[next_arrival]);
        }
        if waiting_first.len() < config.dispatch_capacity && !draining {
            if let Some(oldest) = queue.oldest_arrival_ns() {
                if let Some(deadline) = config.policy.deadline_ns(oldest) {
                    t_next = t_next.min(deadline);
                }
            }
        }
        for &job_id in &sim.live {
            let job = &sim.jobs[job_id];
            match job.state {
                JobState::InFlight => {
                    for attempt in job.primary.iter().chain(job.hedge.iter()) {
                        t_next = t_next.min(attempt.resolve_ns);
                    }
                    if let (Some(hedge_ns), 1, false) =
                        (resilience.hedge_ns, job.in_flight_count(), job.hedged)
                    {
                        let lone = job.primary.or(job.hedge).expect("one attempt in flight");
                        let arm = lone.start_ns + hedge_ns;
                        if arm > now {
                            t_next = t_next.min(arm);
                        } else {
                            work_blocked = true;
                        }
                    }
                }
                JobState::WaitingRetry { ready_ns, .. } => {
                    if ready_ns > now {
                        t_next = t_next.min(ready_ns);
                    } else {
                        work_blocked = true;
                    }
                }
                JobState::WaitingFirst | JobState::Done => {}
            }
        }
        if work_blocked {
            for w in 0..config.workers {
                if let Some(up) = sim.next_available(w, now) {
                    if up > now {
                        t_next = t_next.min(up);
                    }
                }
            }
        }

        if !t_next.is_finite() {
            // No future event. If every worker is permanently down from
            // here, escalate the shed policy: drop the pending work instead
            // of queueing without bound. Anything else is a policy
            // livelock.
            let outage_forever = (0..config.workers).all(|w| sim.next_available(w, now).is_none());
            if work_blocked && outage_forever {
                sim.shed_escalation(now, &mut waiting_first);
                for id in queue.take(usize::MAX) {
                    sim.records[id].outcome = QueryOutcome::Shed { shed_ns: now };
                }
                break;
            }
        }
        if !t_next.is_finite() || t_next <= now {
            return Err(ServeError::InvalidConfig(format!(
                "simulation stalled at {now} ns with {} queued queries — \
                 the batching policy can never trigger under this configuration",
                queue.len()
            )));
        }
        now = t_next;
    }

    sim.audit()?;
    Ok(ServeOutcome {
        records: sim.records,
        batches: sim.batches,
        attempts: sim.attempt_log,
        faults: resilience.faults.clone(),
    })
}

/// Mutable simulation state shared by the dispatch-layer transitions.
struct Sim<'a> {
    resilience: &'a ResilienceConfig,
    records: Vec<QueryRecord>,
    batches: Vec<BatchRecord>,
    attempt_log: Vec<AttemptRecord>,
    jobs: Vec<Job>,
    /// Ids of the live jobs (in flight or waiting to retry), ascending.
    /// Every per-event walk visits these alone, in the job order a walk
    /// over all formed jobs would take.
    live: Vec<usize>,
    free_ns: Vec<f64>,
}

impl Sim<'_> {
    fn plan(&self) -> &FaultPlan {
        &self.resilience.faults
    }

    /// Whether worker `w` can accept a dispatch at `now`.
    fn available(&self, w: usize, now: f64) -> bool {
        self.free_ns[w] <= now && self.plan().worker(w).is_up(now)
    }

    /// The earliest time ≥ `now` at which worker `w` can accept a
    /// dispatch, or `None` if it is down forever.
    fn next_available(&self, w: usize, now: f64) -> Option<f64> {
        self.plan().worker(w).next_up_after(now.max(self.free_ns[w]))
    }

    /// The best available worker at `now`, skipping `exclude`: longest-idle
    /// first, then by fault schedule ([`WorkerFaults::schedule_cmp`]) so
    /// the choice — and with it every downstream metric — is invariant
    /// under worker renumbering, then by index among behaviourally
    /// identical workers.
    fn best_available(&self, now: f64, exclude: Option<usize>) -> Option<usize> {
        let mut best: Option<usize> = None;
        for w in 0..self.free_ns.len() {
            if Some(w) == exclude || !self.available(w, now) {
                continue;
            }
            best = Some(match best {
                None => w,
                Some(b) => {
                    let ordering = self.free_ns[w]
                        .total_cmp(&self.free_ns[b])
                        .then_with(|| self.worker_faults(w).schedule_cmp(self.worker_faults(b)));
                    if ordering.is_lt() {
                        w
                    } else {
                        b
                    }
                }
            });
        }
        best
    }

    fn worker_faults(&self, w: usize) -> &WorkerFaults {
        self.plan().worker(w)
    }

    /// Closes a batch: runs the engine exactly once (fault-free base
    /// service) and registers the job plus its placeholder [`BatchRecord`].
    ///
    /// The dispatcher reads only the result's timing and traffic, so this
    /// one lookup asks for timing alone ([`LookupService::lookup_timing`]):
    /// the job keeps the per-query times, the service time and the DRAM
    /// reads, and an engine whose times do not depend on its values
    /// (FAFNIR's) fetches and folds none. Retries and hedges replay that
    /// timing, scaled by their worker's slowdown; they never look up again.
    fn form_job<E: LookupService, S: EmbeddingSource>(
        &mut self,
        ids: Vec<usize>,
        now: f64,
        engine: &E,
        source: &S,
        shapes: &[IndexSet],
    ) -> Result<usize, ServeError> {
        let batch = Batch::from_index_sets(ids.iter().map(|&id| shapes[id].clone()));
        let LookupResult { per_query_ns, latency, traffic, .. } =
            engine.lookup_timing(&batch, source).map_err(ServeError::Engine)?;
        let job_id = self.jobs.len();
        self.batches.push(BatchRecord {
            queries: ids,
            formed_ns: now,
            dispatched_ns: 0.0,
            worker: 0,
            service_ns: 0.0,
            references: traffic.total_references,
            vectors_read: 0,
            attempts: 0,
            hedged: false,
            hedge_won: false,
            failed: false,
        });
        self.jobs.push(Job {
            state: JobState::WaitingFirst,
            per_query_ns,
            service_ns: latency.total_ns,
            reads_per_attempt: traffic.vectors_read,
            primary: None,
            hedge: None,
            failures: 0,
            redispatches: 0,
            attempts: 0,
            hedged: false,
            first_dispatch_ns: 0.0,
            vectors_read: 0,
        });
        Ok(job_id)
    }

    /// Starts one service attempt of `job_id` on `worker` at `now`. The
    /// attempt's entire future (success, crash, or timeout) is determined
    /// here from the fault plan, so it becomes a single resolution event.
    /// A first dispatch makes the job live.
    fn start_attempt(&mut self, job_id: usize, worker: usize, now: f64, hedge: bool) {
        let job = &mut self.jobs[job_id];
        let slowdown = self.resilience.faults.worker(worker).slowdown;
        let service_ns = job.service_ns * slowdown;
        let finish = now + service_ns;
        let crash = self.resilience.faults.worker(worker).first_crash_within(now, finish);
        let timeout = self.resilience.timeout_ns.map(|t| now + t).filter(|&t| t < finish);
        let (kind, resolve_ns, busy_until) = match (crash, timeout) {
            (Some(c), Some(t)) if c <= t => (ResolveKind::Crash, c, c),
            (Some(c), Some(t)) => (ResolveKind::Timeout { busy_until_ns: c }, t, c),
            (Some(c), None) => (ResolveKind::Crash, c, c),
            (None, Some(t)) => (ResolveKind::Timeout { busy_until_ns: finish }, t, finish),
            (None, None) => (ResolveKind::Success, finish, finish),
        };
        self.free_ns[worker] = busy_until;
        let attempt = InFlight { worker, start_ns: now, resolve_ns, kind, hedge };
        if hedge {
            job.hedge = Some(attempt);
            job.hedged = true;
        } else {
            job.primary = Some(attempt);
        }
        if job.attempts == 0 {
            job.first_dispatch_ns = now;
            // First dispatches follow formation order, so this appends.
            debug_assert!(self.live.last().is_none_or(|&last| last < job_id));
            self.live.push(job_id);
        }
        job.attempts += 1;
        job.vectors_read += job.reads_per_attempt;
        job.state = JobState::InFlight;
    }

    /// Marks `job_id` done: it leaves the live index and frees its timing.
    fn retire(&mut self, job_id: usize) {
        let job = &mut self.jobs[job_id];
        job.state = JobState::Done;
        job.per_query_ns = Vec::new();
        if let Ok(at) = self.live.binary_search(&job_id) {
            self.live.remove(at);
        }
    }

    /// Resolves every in-flight attempt due by `now`, in job order (within
    /// a job, earlier resolution first). Returns whether anything resolved.
    fn resolve_due(&mut self, now: f64) -> bool {
        let mut progressed = false;
        let mut cursor = 0;
        while let Some(&job_id) = self.live.get(cursor) {
            while let Some(attempt) = self.jobs[job_id].due_attempt(now) {
                match attempt.kind {
                    ResolveKind::Success => self.resolve_win(job_id, attempt),
                    ResolveKind::Crash => {
                        self.resolve_failure(
                            job_id,
                            attempt,
                            AttemptResult::Crashed,
                            attempt.resolve_ns,
                        );
                    }
                    ResolveKind::Timeout { busy_until_ns } => {
                        self.resolve_failure(
                            job_id,
                            attempt,
                            AttemptResult::TimedOut,
                            busy_until_ns,
                        );
                    }
                }
                progressed = true;
            }
            // A finished job left the index, and its successor moved up.
            if self.jobs[job_id].state != JobState::Done {
                cursor += 1;
            }
        }
        progressed
    }

    /// A successful attempt delivers the batch: stamp member completions
    /// with the winner's (slowdown-scaled) per-query times, cancel the
    /// losing attempt, and finalize the batch record.
    fn resolve_win(&mut self, job_id: usize, winner: InFlight) {
        let win_ns = winner.resolve_ns;
        let slowdown = self.resilience.faults.worker(winner.worker).slowdown;
        let job = &mut self.jobs[job_id];
        let record = &mut self.batches[job_id];
        for &(member, completion) in &job.per_query_ns {
            let id = record.queries[member.0 as usize];
            self.records[id].outcome = QueryOutcome::Served {
                batch: job_id,
                formed_ns: record.formed_ns,
                dispatched_ns: winner.start_ns,
                completion_ns: winner.start_ns + completion * slowdown,
            };
        }
        let loser = if winner.hedge { job.primary.take() } else { job.hedge.take() };
        if winner.hedge {
            job.hedge = None;
        } else {
            job.primary = None;
        }
        record.dispatched_ns = winner.start_ns;
        record.worker = winner.worker;
        record.service_ns = job.service_ns * slowdown;
        record.vectors_read = job.vectors_read;
        record.attempts = job.attempts;
        record.hedged = job.hedged;
        record.hedge_won = winner.hedge;
        self.retire(job_id);
        self.attempt_log.push(AttemptRecord {
            batch: job_id,
            worker: winner.worker,
            hedge: winner.hedge,
            start_ns: winner.start_ns,
            busy_until_ns: win_ns,
            result: AttemptResult::Won,
        });
        if let Some(loser) = loser {
            // Cancellation propagates instantly in virtual time: the losing
            // worker stops at the winner's completion.
            self.free_ns[loser.worker] = self.free_ns[loser.worker].min(win_ns);
            self.attempt_log.push(AttemptRecord {
                batch: job_id,
                worker: loser.worker,
                hedge: loser.hedge,
                start_ns: loser.start_ns,
                busy_until_ns: win_ns,
                result: AttemptResult::Cancelled,
            });
        }
    }

    /// A crashed or timed-out attempt: log it, then either lean on the
    /// other in-flight attempt, schedule a retry, or fail the batch.
    fn resolve_failure(
        &mut self,
        job_id: usize,
        failed: InFlight,
        result: AttemptResult,
        busy_until_ns: f64,
    ) {
        self.attempt_log.push(AttemptRecord {
            batch: job_id,
            worker: failed.worker,
            hedge: failed.hedge,
            start_ns: failed.start_ns,
            busy_until_ns,
            result,
        });
        let job = &mut self.jobs[job_id];
        if failed.hedge {
            job.hedge = None;
        } else {
            job.primary = None;
        }
        job.failures += 1;
        if job.in_flight_count() > 0 {
            return; // The other attempt carries the batch.
        }
        if job.failures <= self.resilience.retries {
            let backoff = self.resilience.backoff_ns * f64::from(1u32 << job.redispatches.min(31));
            job.redispatches += 1;
            job.state = JobState::WaitingRetry {
                ready_ns: failed.resolve_ns + backoff,
                exclude: failed.worker,
            };
            return;
        }
        let failed_ns = failed.resolve_ns;
        let record = &mut self.batches[job_id];
        for &id in &record.queries {
            self.records[id].outcome = QueryOutcome::Failed { failed_ns };
        }
        record.dispatched_ns = job.first_dispatch_ns;
        record.worker = failed.worker;
        record.service_ns = 0.0;
        record.vectors_read = job.vectors_read;
        record.attempts = job.attempts;
        record.hedged = job.hedged;
        record.failed = true;
        self.retire(job_id);
    }

    /// Launches hedge attempts for jobs whose lone in-flight attempt has
    /// outlived the hedge delay and a second worker is free.
    fn launch_hedges(&mut self, now: f64) -> bool {
        let Some(hedge_ns) = self.resilience.hedge_ns else { return false };
        let mut progressed = false;
        // Launching a hedge leaves the live index as it is.
        let mut cursor = 0;
        while let Some(&job_id) = self.live.get(cursor) {
            cursor += 1;
            let job = &self.jobs[job_id];
            if job.state != JobState::InFlight || job.hedged || job.in_flight_count() != 1 {
                continue;
            }
            let lone = job.primary.or(job.hedge).expect("one attempt in flight");
            if now < lone.start_ns + hedge_ns || lone.resolve_ns <= now {
                continue;
            }
            let Some(worker) = self.best_available(now, Some(lone.worker)) else { continue };
            self.start_attempt(job_id, worker, now, true);
            progressed = true;
        }
        progressed
    }

    /// Redispatches retry-ready jobs, preferring a worker other than the
    /// one that just failed (falling back when it is the only one up).
    fn dispatch_retries(&mut self, now: f64) -> bool {
        let mut progressed = false;
        // A retry is not a first dispatch, so the live index stays as it is.
        let mut cursor = 0;
        while let Some(&job_id) = self.live.get(cursor) {
            cursor += 1;
            let JobState::WaitingRetry { ready_ns, exclude } = self.jobs[job_id].state else {
                continue;
            };
            if ready_ns > now {
                continue;
            }
            let worker =
                self.best_available(now, Some(exclude)).or_else(|| self.best_available(now, None));
            let Some(worker) = worker else { continue };
            self.start_attempt(job_id, worker, now, false);
            progressed = true;
        }
        progressed
    }

    /// Shed escalation under a permanent total outage: pending batches and
    /// queued queries are dropped at `now` instead of waiting forever.
    fn shed_escalation(&mut self, now: f64, waiting_first: &mut VecDeque<usize>) {
        // Never dispatched: this is admission-control territory, so the
        // members count as shed.
        for job_id in waiting_first.drain(..) {
            self.abandon(job_id, QueryOutcome::Shed { shed_ns: now });
        }
        let mut cursor = 0;
        while let Some(&job_id) = self.live.get(cursor) {
            if let JobState::WaitingRetry { .. } = self.jobs[job_id].state {
                self.abandon(job_id, QueryOutcome::Failed { failed_ns: now });
            } else {
                cursor += 1;
            }
        }
    }

    /// Drops a pending batch: its members take `outcome`, and its record is
    /// closed as failed.
    fn abandon(&mut self, job_id: usize, outcome: QueryOutcome) {
        let job = &self.jobs[job_id];
        let record = &mut self.batches[job_id];
        for &id in &record.queries {
            self.records[id].outcome = outcome;
        }
        record.dispatched_ns = job.first_dispatch_ns;
        record.vectors_read = job.vectors_read;
        record.attempts = job.attempts;
        record.hedged = job.hedged;
        record.failed = true;
        self.retire(job_id);
    }

    /// The run's conservation law: every query was served, shed or failed,
    /// and no batch is left live in the dispatcher.
    fn audit(&self) -> Result<(), ServeError> {
        let pending = self.records.iter().position(|r| matches!(r.outcome, QueryOutcome::Pending));
        let stranded =
            self.live.first().and_then(|&job| self.batches[job].queries.first().copied());
        match pending.or(stranded) {
            Some(query) => Err(ServeError::Unaccounted { query }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVED: QueryOutcome =
        QueryOutcome::Served { batch: 0, formed_ns: 0.0, dispatched_ns: 0.0, completion_ns: 1.0 };

    fn sim<'a>(resilience: &'a ResilienceConfig, outcomes: &[QueryOutcome]) -> Sim<'a> {
        Sim {
            resilience,
            records: outcomes
                .iter()
                .map(|&outcome| QueryRecord { arrival_ns: 0.0, outcome })
                .collect(),
            batches: Vec::new(),
            attempt_log: Vec::new(),
            jobs: Vec::new(),
            live: Vec::new(),
            free_ns: vec![0.0],
        }
    }

    #[test]
    fn fault_specs_round_trip_through_their_text() {
        for spec in [
            FaultSpec::None,
            FaultSpec::Outage,
            FaultSpec::Slow { multiplier: 8.0, slowed: 1 },
            FaultSpec::Crash { mttf_ns: 20_000.0, mttr_ns: 2_500.5 },
            FaultSpec::Crash { mttf_ns: 1e-300, mttr_ns: 1e300 },
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<FaultSpec>(), Ok(spec), "{text}");
        }
        assert_eq!(FaultSpec::Slow { multiplier: 8.0, slowed: 1 }.to_string(), "slow:8:1");
        let crash = FaultSpec::Crash { mttf_ns: 5e4, mttr_ns: 1e4 };
        assert_eq!(crash.to_string(), "crash:50000:10000");
        let crash = FaultSpec::Crash { mttf_ns: 1e-300, mttr_ns: 1e300 };
        assert_eq!(crash.to_string(), "crash:1e-300:1e300");
        for text in ["", "bogus", "none:1", "slow:4", "slow:x:1", "slow:4:-1", "crash:1:2:3"] {
            assert!(text.parse::<FaultSpec>().is_err(), "`{text}` parsed");
        }
    }

    #[test]
    fn fault_spec_plans_check_the_run_instead_of_clamping_or_panicking() {
        assert_eq!(FaultSpec::None.plan(3, 64, 2e6, 7), Ok(FaultPlan::none(3)));
        assert_eq!(FaultSpec::Outage.plan(3, 64, 2e6, 7), Ok(FaultPlan::total_outage(3)));
        let slow = FaultSpec::Slow { multiplier: 4.0, slowed: 3 };
        assert_eq!(slow.plan(3, 64, 2e6, 7), Ok(FaultPlan::slow_workers(3, 3, 4.0)));
        assert!(slow.plan(2, 64, 2e6, 7).unwrap_err().contains("slow:4:3"));
        // 1,000 queries at 1,000 q/s: a 1e10 ns horizon, which holds at most
        // 2^17 mean cycles of 76,293.9 ns.
        let crash = |mean_ns: f64| FaultSpec::Crash { mttf_ns: mean_ns, mttr_ns: mean_ns };
        let plan = crash(40_000.0).plan(1, 1_000, 1e3, 7).expect("under the cap");
        assert_eq!(plan, FaultPlan::crash_restart(1, 40_000.0, 40_000.0, 1e10, 7));
        let error = crash(38_000.0).plan(1, 1_000, 1e3, 7).unwrap_err();
        assert!(error.contains("downtimes per worker"), "{error}");
        for spec in [
            FaultSpec::Slow { multiplier: 0.5, slowed: 1 },
            FaultSpec::Slow { multiplier: f64::INFINITY, slowed: 1 },
            crash(0.0),
            crash(f64::NAN),
            FaultSpec::Crash { mttf_ns: 1e-300, mttr_ns: 1e-300 },
        ] {
            assert!(spec.plan(2, 8, 1e6, 7).is_err(), "{spec}");
        }
    }

    #[test]
    fn audit_passes_when_every_query_is_accounted() {
        let resilience = ResilienceConfig::none(1);
        let outcomes =
            [SERVED, QueryOutcome::Shed { shed_ns: 0.0 }, QueryOutcome::Failed { failed_ns: 0.0 }];
        assert_eq!(sim(&resilience, &outcomes).audit(), Ok(()));
    }

    #[test]
    fn audit_names_the_first_pending_query() {
        let resilience = ResilienceConfig::none(1);
        let outcomes = [SERVED, QueryOutcome::Pending, SERVED, QueryOutcome::Pending];
        let error = sim(&resilience, &outcomes).audit().unwrap_err();
        assert_eq!(error, ServeError::Unaccounted { query: 1 });
        assert!(error.to_string().contains("query 1 neither served, shed nor failed"));
    }

    #[test]
    fn audit_names_the_first_member_of_a_batch_left_live() {
        let resilience = ResilienceConfig::none(1);
        let mut sim = sim(&resilience, &[SERVED; 3]);
        sim.batches.push(BatchRecord {
            queries: vec![2, 0],
            formed_ns: 0.0,
            dispatched_ns: 0.0,
            worker: 0,
            service_ns: 0.0,
            references: 2,
            vectors_read: 0,
            attempts: 1,
            hedged: false,
            hedge_won: false,
            failed: false,
        });
        sim.live.push(0);
        assert_eq!(sim.audit(), Err(ServeError::Unaccounted { query: 2 }));
    }
}
