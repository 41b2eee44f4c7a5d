//! Aggregated serving metrics: throughput vs goodput, utilization, shed
//! rate, resilience counters, and nearest-rank latency percentiles, with
//! deterministic table and JSON renderings.
//!
//! Time-normalized metrics (utilization, goodput, per-worker busy and
//! availability fractions) are measured over the *active window*
//! `[first arrival, last worker activity]`, not `[0, makespan]`: a
//! delayed-start arrival schedule would otherwise dilute utilization with
//! dead air the system never saw. Per-worker fractions are reported as
//! value-sorted arrays so the report is invariant under worker
//! renumbering.

use fafnir_core::json::{self, Layout, Object};

use crate::record::{AttemptResult, QueryRecord};
use crate::sim::{ServeConfig, ServeOutcome};

/// Nearest-rank summary of one latency sample, in nanoseconds.
///
/// An empty sample keeps the documented
/// [`nearest_rank_percentile_ns`](fafnir_core::nearest_rank_percentile_ns)
/// convention for library callers — every field is `0.0` and `count` is 0
/// — but serializes as JSON `null` (a percentile of nothing is not 0 ns).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Number of samples summarized (0 ⇒ every statistic is a placeholder).
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (p50).
    pub p50_ns: f64,
    /// 95th percentile.
    pub p95_ns: f64,
    /// 99th percentile.
    pub p99_ns: f64,
    /// 99.9th percentile (the hedging headline metric).
    pub p999_ns: f64,
    /// Maximum (p100).
    pub max_ns: f64,
}

impl LatencyStats {
    /// Summarizes a (possibly unsorted) sample; zeros for an empty one.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        // One sort serves all five percentiles. The rank arithmetic is
        // exactly [`nearest_rank_percentile_ns`]'s, and the mean still sums
        // in sample order, so the summary is byte-identical to five
        // independent percentile calls (pinned by a test below).
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        Self {
            count: samples.len(),
            mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
            p50_ns: at(0.5),
            p95_ns: at(0.95),
            p99_ns: at(0.99),
            p999_ns: at(0.999),
            max_ns: at(1.0),
        }
    }

    /// JSON rendering: an object with fixed key order, or `null` when the
    /// sample was empty.
    #[must_use]
    pub fn to_json(&self) -> String {
        if self.count == 0 {
            return "null".to_string();
        }
        Object::new(Layout::OneLine)
            .field("count", self.count)
            .num("mean_ns", self.mean_ns, 3)
            .num("p50_ns", self.p50_ns, 3)
            .num("p95_ns", self.p95_ns, 3)
            .num("p99_ns", self.p99_ns, 3)
            .num("p999_ns", self.p999_ns, 3)
            .num("max_ns", self.max_ns, 3)
            .to_string()
    }
}

/// The serving-run report: configuration echo plus measured load, latency,
/// resilience and data-movement metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Batching policy name (`size` / `deadline` / `adaptive`).
    pub policy: String,
    /// Shedding policy name (`drop-newest` / `drop-oldest`).
    pub shed_policy: String,
    /// Nominal long-run offered rate in queries per second.
    pub offered_qps: f64,
    /// Worker replicas.
    pub workers: usize,
    /// Arrival-queue bound in queries.
    pub queue_capacity: usize,
    /// Arrival-schedule seed.
    pub seed: u64,
    /// Queries offered by the load generator.
    pub offered: usize,
    /// Queries served to completion.
    pub served: usize,
    /// Queries rejected by admission control (including shed escalation).
    pub shed: usize,
    /// Queries whose batch exhausted its retry budget.
    pub failed: usize,
    /// Fraction of offered queries shed.
    pub shed_rate: f64,
    /// Batches formed.
    pub batches: usize,
    /// Mean queries per formed batch.
    pub mean_batch_size: f64,
    /// Virtual time of the last host-side output.
    pub makespan_ns: f64,
    /// Active window: first arrival → last worker activity or output.
    pub window_ns: f64,
    /// Served throughput over `[0, makespan]` (the classic headline rate).
    pub throughput_qps: f64,
    /// Goodput: completed queries per second of *active window* — what the
    /// system actually delivered while it was live, vs the offered rate.
    pub goodput_qps: f64,
    /// Busy fraction of the worker pool over the active window, wasted
    /// work (timed-out and cancelled attempts) included.
    pub utilization: f64,
    /// Retry redispatches after crashed or timed-out attempts.
    pub retries: usize,
    /// Attempts abandoned at the per-batch timeout.
    pub timeouts: usize,
    /// Attempts lost to worker crashes.
    pub crashes: usize,
    /// Hedge (duplicate) attempts launched.
    pub hedges: usize,
    /// Batches whose hedge attempt beat the primary.
    pub hedge_wins: usize,
    /// Per-worker up-time fraction over the active window, sorted
    /// ascending (renumbering-invariant).
    pub worker_availability: Vec<f64>,
    /// Per-worker busy fraction over the active window, sorted ascending
    /// (renumbering-invariant).
    pub worker_busy: Vec<f64>,
    /// End-to-end latency (arrival → output at host) of served queries.
    pub latency: LatencyStats,
    /// Queue wait (arrival → winning dispatch: batching, worker wait,
    /// retries).
    pub queue_wait: LatencyStats,
    /// Service time (winning dispatch → output at host).
    pub service: LatencyStats,
    /// Index references across formed batches.
    pub references: u64,
    /// Deduplicated DRAM vector reads across *all started attempts*
    /// (retries and hedges re-read, which is the DRAM cost of resilience).
    pub vectors_read: u64,
    /// DRAM vector reads per served query (the Fig. 3 dedup win under
    /// dynamic batching; rises when hedging or retries re-read).
    pub dram_reads_per_query: f64,
    /// Fraction of references dedup removed (`1 − reads/references`).
    pub dedup_savings: f64,
}

impl ServeReport {
    /// Builds the report of a finished run, scoring per-worker availability
    /// over the measured window from the fault plan the run carries.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn new(config: &ServeConfig, outcome: &ServeOutcome) -> Self {
        let served = outcome.served();
        let shed = outcome.shed();
        let failed = outcome.failed();
        let offered = outcome.records.len();
        let makespan_ns = outcome.makespan_ns();
        let window_start = outcome.first_arrival_ns();
        let window_end = outcome.window_end_ns();
        let window_ns = (window_end - window_start).max(0.0);
        let latencies: Vec<f64> =
            outcome.records.iter().filter_map(QueryRecord::latency_ns).collect();
        let queue_waits: Vec<f64> =
            outcome.records.iter().filter_map(QueryRecord::queue_wait_ns).collect();
        let services: Vec<f64> =
            outcome.records.iter().filter_map(QueryRecord::service_ns).collect();
        let references: u64 = outcome.batches.iter().map(|b| b.references).sum();
        let vectors_read: u64 = outcome.batches.iter().map(|b| b.vectors_read).sum();

        let mut busy_per_worker = vec![0.0f64; config.workers];
        for attempt in &outcome.attempts {
            busy_per_worker[attempt.worker] += attempt.busy_until_ns - attempt.start_ns;
        }
        let busy_ns: f64 = busy_per_worker.iter().sum();
        let mut worker_busy: Vec<f64> = busy_per_worker
            .iter()
            .map(|&b| if window_ns > 0.0 { b / window_ns } else { 0.0 })
            .collect();
        let mut worker_availability: Vec<f64> = (0..config.workers)
            .map(|w| {
                if window_ns > 0.0 {
                    outcome.faults.worker(w).availability(window_start, window_end)
                } else {
                    f64::from(u8::from(outcome.faults.worker(w).is_up(window_start)))
                }
            })
            .collect();
        worker_busy.sort_by(f64::total_cmp);
        worker_availability.sort_by(f64::total_cmp);

        let crashes =
            outcome.attempts.iter().filter(|a| a.result == AttemptResult::Crashed).count();
        let timeouts =
            outcome.attempts.iter().filter(|a| a.result == AttemptResult::TimedOut).count();
        let hedges = outcome.attempts.iter().filter(|a| a.hedge).count();
        let hedge_wins = outcome.batches.iter().filter(|b| b.hedge_won).count();
        let non_hedge_attempts: usize =
            outcome.batches.iter().map(|b| b.attempts as usize).sum::<usize>() - hedges;
        let dispatched_batches = outcome.batches.iter().filter(|b| b.attempts > 0).count();
        let retries = non_hedge_attempts - dispatched_batches;

        Self {
            policy: config.policy.name().to_string(),
            shed_policy: config.shed.name().to_string(),
            offered_qps: config.arrivals.mean_rate_qps(),
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            seed: config.seed,
            offered,
            served,
            shed,
            failed,
            shed_rate: if offered == 0 { 0.0 } else { shed as f64 / offered as f64 },
            batches: outcome.batches.len(),
            mean_batch_size: if outcome.batches.is_empty() {
                0.0
            } else {
                served as f64 / outcome.batches.len() as f64
            },
            makespan_ns,
            window_ns,
            throughput_qps: if makespan_ns <= 0.0 {
                0.0
            } else {
                served as f64 / (makespan_ns * 1e-9)
            },
            goodput_qps: if window_ns <= 0.0 { 0.0 } else { served as f64 / (window_ns * 1e-9) },
            utilization: if window_ns <= 0.0 {
                0.0
            } else {
                busy_ns / (config.workers as f64 * window_ns)
            },
            retries,
            timeouts,
            crashes,
            hedges,
            hedge_wins,
            worker_availability,
            worker_busy,
            latency: LatencyStats::of(&latencies),
            queue_wait: LatencyStats::of(&queue_waits),
            service: LatencyStats::of(&services),
            references,
            vectors_read,
            dram_reads_per_query: if served == 0 {
                0.0
            } else {
                vectors_read as f64 / served as f64
            },
            dedup_savings: if references == 0 {
                0.0
            } else {
                1.0 - vectors_read as f64 / references as f64
            },
        }
    }

    /// Renders the human-readable table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let row = |label: &str, value: String| format!("  {label:<22} {value}\n");
        let stats = |label: &str, stats: &LatencyStats| {
            if stats.count == 0 {
                return row(label, "no samples".to_string());
            }
            row(
                label,
                format!(
                    "p50 {:>10.1} ns   p99 {:>10.1} ns   p99.9 {:>10.1} ns   max {:>10.1} ns",
                    stats.p50_ns, stats.p99_ns, stats.p999_ns, stats.max_ns
                ),
            )
        };
        let mut out = format!(
            "serve: {} policy, {} workers, {:.0} qps offered ({} queries, seed {})\n",
            self.policy, self.workers, self.offered_qps, self.offered, self.seed
        );
        out.push_str(&row(
            "load",
            format!(
                "served {} / shed {} / failed {} ({:.2} % shed, {} policy)",
                self.served,
                self.shed,
                self.failed,
                self.shed_rate * 100.0,
                self.shed_policy
            ),
        ));
        out.push_str(&row(
            "throughput",
            format!(
                "{:.0} qps makespan, {:.0} qps goodput over {:.1} us window, \
                 utilization {:.1} %",
                self.throughput_qps,
                self.goodput_qps,
                self.window_ns / 1e3,
                self.utilization * 100.0
            ),
        ));
        out.push_str(&row(
            "batching",
            format!("{} batches, mean size {:.1}", self.batches, self.mean_batch_size),
        ));
        if self.retries + self.timeouts + self.crashes + self.hedges > 0 || self.failed > 0 {
            out.push_str(&row(
                "resilience",
                format!(
                    "{} retries, {} timeouts, {} crashes, {} hedges ({} won), \
                     min availability {:.1} %",
                    self.retries,
                    self.timeouts,
                    self.crashes,
                    self.hedges,
                    self.hedge_wins,
                    self.worker_availability.first().copied().unwrap_or(1.0) * 100.0
                ),
            ));
        }
        out.push_str(&stats("latency", &self.latency));
        out.push_str(&stats("queue wait", &self.queue_wait));
        out.push_str(&stats("service", &self.service));
        out.push_str(&row(
            "DRAM",
            format!(
                "{} vector reads / {} references = {:.2} reads per query \
                 ({:.1} % dedup savings)",
                self.vectors_read,
                self.references,
                self.dram_reads_per_query,
                self.dedup_savings * 100.0
            ),
        ));
        out
    }

    /// Renders the report as deterministic JSON (fixed key order and float
    /// formatting, so identical runs are byte-identical; empty latency
    /// samples render as `null`, per-worker arrays are value-sorted).
    #[must_use]
    pub fn to_json(&self) -> String {
        let fraction = |value: &f64| json::fixed(*value, 6);
        Object::new(Layout::Pretty)
            .str("policy", &self.policy)
            .str("shed_policy", &self.shed_policy)
            .num("offered_qps", self.offered_qps, 3)
            .field("workers", self.workers)
            .field("queue_capacity", self.queue_capacity)
            .field("seed", self.seed)
            .field("offered", self.offered)
            .field("served", self.served)
            .field("shed", self.shed)
            .field("failed", self.failed)
            .num("shed_rate", self.shed_rate, 6)
            .field("batches", self.batches)
            .num("mean_batch_size", self.mean_batch_size, 3)
            .num("makespan_ns", self.makespan_ns, 3)
            .num("window_ns", self.window_ns, 3)
            .num("throughput_qps", self.throughput_qps, 3)
            .num("goodput_qps", self.goodput_qps, 3)
            .num("utilization", self.utilization, 6)
            .field("retries", self.retries)
            .field("timeouts", self.timeouts)
            .field("crashes", self.crashes)
            .field("hedges", self.hedges)
            .field("hedge_wins", self.hedge_wins)
            .list("worker_availability", self.worker_availability.iter().map(fraction))
            .list("worker_busy", self.worker_busy.iter().map(fraction))
            .field("latency", self.latency.to_json())
            .field("queue_wait", self.queue_wait.to_json())
            .field("service", self.service.to_json())
            .field("references", self.references)
            .field("vectors_read", self.vectors_read)
            .num("dram_reads_per_query", self.dram_reads_per_query, 6)
            .num("dedup_savings", self.dedup_savings, 6)
            .to_string()
            + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AttemptRecord, AttemptResult, BatchRecord, QueryOutcome, QueryRecord};
    use fafnir_core::nearest_rank_percentile_ns;
    use fafnir_workloads::faults::FaultPlan;

    #[test]
    fn latency_stats_match_nearest_rank_definition() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        let stats = LatencyStats::of(&samples);
        assert_eq!(stats.count, 5);
        assert_eq!(stats.p50_ns, 3.0);
        assert_eq!(stats.p99_ns, 5.0);
        assert_eq!(stats.p999_ns, 5.0);
        assert_eq!(stats.max_ns, 5.0);
        assert!((stats.mean_ns - 3.0).abs() < 1e-12);
        assert_eq!(LatencyStats::of(&[]), LatencyStats::default());
    }

    #[test]
    fn sorted_once_summary_matches_five_percentile_calls_bitwise() {
        // Adversarial sample: duplicates, negative zero, unsorted order and
        // sizes straddling every rank rounding edge.
        for len in [1usize, 2, 3, 19, 100, 101, 999, 1000, 1001] {
            let samples: Vec<f64> = (0..len)
                .map(|i| match i % 7 {
                    0 => -0.0,
                    1 => 0.0,
                    n => ((i * 37 % len) as f64 - n as f64) * 13.5,
                })
                .collect();
            let stats = LatencyStats::of(&samples);
            for (got, p) in [
                (stats.p50_ns, 0.5),
                (stats.p95_ns, 0.95),
                (stats.p99_ns, 0.99),
                (stats.p999_ns, 0.999),
                (stats.max_ns, 1.0),
            ] {
                assert_eq!(
                    got.to_bits(),
                    nearest_rank_percentile_ns(&samples, p).to_bits(),
                    "len {len} p{p}"
                );
            }
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            assert_eq!(stats.mean_ns.to_bits(), mean.to_bits(), "len {len} mean");
        }
    }

    #[test]
    fn single_sample_collapses_all_percentiles() {
        let stats = LatencyStats::of(&[42.0]);
        assert_eq!(stats.p50_ns, 42.0);
        assert_eq!(stats.p95_ns, 42.0);
        assert_eq!(stats.p99_ns, 42.0);
        assert_eq!(stats.p999_ns, 42.0);
        assert_eq!(stats.max_ns, 42.0);
        assert_eq!(stats.mean_ns, 42.0);
    }

    #[test]
    fn empty_latency_sample_serializes_as_null() {
        assert_eq!(LatencyStats::of(&[]).to_json(), "null");
        assert!(LatencyStats::of(&[1.0]).to_json().starts_with('{'));
    }

    /// Regression for the utilization bug: a delayed-start arrival schedule
    /// must not dilute the busy fraction with dead air before the first
    /// arrival. One worker, one query arriving at 1 ms and busy for its
    /// whole window ⇒ utilization is exactly 1, not `service/makespan`.
    #[test]
    fn utilization_is_measured_over_the_active_window() {
        let config = ServeConfig { workers: 1, queries: 1, ..ServeConfig::default() };
        let outcome = ServeOutcome {
            records: vec![QueryRecord {
                arrival_ns: 1_000_000.0,
                outcome: QueryOutcome::Served {
                    batch: 0,
                    formed_ns: 1_000_000.0,
                    dispatched_ns: 1_000_000.0,
                    completion_ns: 1_000_100.0,
                },
            }],
            batches: vec![BatchRecord {
                queries: vec![0],
                formed_ns: 1_000_000.0,
                dispatched_ns: 1_000_000.0,
                worker: 0,
                service_ns: 100.0,
                references: 8,
                vectors_read: 8,
                attempts: 1,
                hedged: false,
                hedge_won: false,
                failed: false,
            }],
            attempts: vec![AttemptRecord {
                batch: 0,
                worker: 0,
                hedge: false,
                start_ns: 1_000_000.0,
                busy_until_ns: 1_000_100.0,
                result: AttemptResult::Won,
            }],
            faults: FaultPlan::none(1),
        };
        let report = ServeReport::new(&config, &outcome);
        assert_eq!(report.window_ns, 100.0);
        assert_eq!(report.utilization, 1.0);
        // The old `[0, makespan]` normalization would have reported ~1e-4.
        assert!(report.makespan_ns > 1e6);
        assert_eq!(report.retries, 0);
        assert_eq!(report.worker_availability, vec![1.0]);
        assert_eq!(report.worker_busy, vec![1.0]);
    }
}
