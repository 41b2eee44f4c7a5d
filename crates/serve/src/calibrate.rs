//! Calibration of the fast-functional memory model against the
//! cycle-accurate reference, at serving granularity.
//!
//! The fast model ([`fafnir_mem::FastFunctionalMemory`] plus the
//! fast-functional tree fold) changes *timing fidelity only*: per-batch
//! functional outputs are byte-identical by construction (pinned by tests
//! at the engine and property level). What it may move are the
//! serving-level metrics that depend on service times — tail latencies,
//! and, through dispatch backpressure, even batch composition and with it
//! DRAM read counts. This module measures exactly that drift: it sweeps a
//! seeded scenario matrix (arrival rates × batching windows × Zipf skews ×
//! fault plans), runs every scenario once per memory model with identical
//! seeds, and reports the per-metric relative divergence of the resulting
//! [`ServeReport`]s.
//!
//! [`ToleranceEnvelope::recorded`] holds the envelope measured on the
//! [`CalibrationMatrix::standard`] sweep; [`CalibrationReport::check`]
//! gates a report against an envelope and is run in CI (see
//! `tests/calibration.rs`). If a change moves the fast model outside the
//! recorded envelope, either the model regressed or the envelope needs
//! re-recording — both deserve a human look.

use fafnir_core::FafnirEngine;
use fafnir_mem::MemoryModelKind;
use fafnir_workloads::arrival::ArrivalProcess;
use fafnir_workloads::query::{BatchGenerator, Popularity};

use crate::policy::BatchPolicy;
use crate::report::ServeReport;
use crate::sim::{simulate_resilient, FaultSpec, ResilienceConfig, ServeConfig};
use crate::ServeError;

/// The scenario matrix one calibration run sweeps: the cross product of
/// rates, deadline-policy windows, popularity skews, and fault plans.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationMatrix {
    /// Poisson arrival rates in queries per second.
    pub rates_qps: Vec<f64>,
    /// Deadline-policy batching windows in virtual ns.
    pub windows_ns: Vec<f64>,
    /// Zipf exponents for query popularity (0.0 = uniform).
    pub skews: Vec<f64>,
    /// Fault plans layered on the runs.
    pub faults: Vec<FaultSpec>,
    /// Queries offered per scenario.
    pub queries: usize,
    /// Worker replicas per scenario.
    pub workers: usize,
    /// Embedding-table universe the generator draws from.
    pub universe: u64,
    /// Indices per query.
    pub query_len: usize,
    /// Deadline-policy batch cap.
    pub max_batch: usize,
    /// Seed shared by arrivals, traffic, and fault schedules.
    pub seed: u64,
}

impl CalibrationMatrix {
    /// The recorded sweep behind [`ToleranceEnvelope::recorded`]: 24
    /// scenarios spanning moderate and saturating load, short and long
    /// windows, uniform and skewed popularity, fault-free and degraded
    /// fleets.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            rates_qps: vec![1e6, 2e6],
            windows_ns: vec![1_000.0, 4_000.0, 16_000.0],
            skews: vec![0.8, 1.15],
            faults: vec![FaultSpec::None, FaultSpec::Slow { multiplier: 4.0, slowed: 1 }],
            queries: 256,
            workers: 4,
            universe: 2_000,
            query_len: 16,
            max_batch: 32,
            seed: 7,
        }
    }

    /// A four-scenario subset for quick checks (unit tests, smoke CI).
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            rates_qps: vec![2e6],
            windows_ns: vec![4_000.0],
            skews: vec![1.15],
            faults: vec![
                FaultSpec::None,
                FaultSpec::Crash { mttf_ns: 40_000.0, mttr_ns: 20_000.0 },
            ],
            queries: 128,
            ..Self::standard()
        }
    }

    fn scenario_count(&self) -> usize {
        self.rates_qps.len() * self.windows_ns.len() * self.skews.len() * self.faults.len()
    }
}

/// One metric compared across the two models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDelta {
    /// Metric name (`p50_ns`, `p95_ns`, `p99_ns`, `dram_reads_per_query`,
    /// `goodput_qps`).
    pub name: &'static str,
    /// Value under the cycle-accurate model.
    pub cycle: f64,
    /// Value under the fast-functional model.
    pub fast: f64,
}

impl MetricDelta {
    /// Relative divergence `|fast − cycle| / cycle` (0 when both are 0).
    #[must_use]
    pub fn relative(&self) -> f64 {
        if self.cycle == 0.0 && self.fast == 0.0 {
            0.0
        } else {
            (self.fast - self.cycle).abs() / self.cycle.abs().max(f64::MIN_POSITIVE)
        }
    }
}

/// Divergence of one scenario across every compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDivergence {
    /// `rate … window … skew … faults …` display label.
    pub label: String,
    /// One delta per compared metric.
    pub metrics: Vec<MetricDelta>,
}

/// The full calibration result: one row per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Per-scenario divergences, in matrix sweep order.
    pub scenarios: Vec<ScenarioDivergence>,
}

/// Per-metric relative tolerances the calibration must stay within.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceEnvelope {
    /// Median query latency.
    pub p50: f64,
    /// 95th-percentile query latency.
    pub p95: f64,
    /// 99th-percentile query latency.
    pub p99: f64,
    /// DRAM vector reads per served query.
    pub dram_reads: f64,
    /// Served goodput.
    pub goodput: f64,
}

impl ToleranceEnvelope {
    /// The envelope recorded on [`CalibrationMatrix::standard`], roughly
    /// 2× the measured maxima (p50 1.64 %, p95 2.26 %, p99 2.89 %, reads
    /// 0.00 %, goodput 1.69 % — see EXPERIMENTS.md). The latency
    /// tolerances absorb the fast model's optimistic service times — it
    /// skips FR-FCFS queueing, output-port serialization and merge-unit
    /// stalls — which can also shift batch-formation timing and through
    /// it the read counts and goodput.
    #[must_use]
    pub fn recorded() -> Self {
        Self { p50: 0.05, p95: 0.05, p99: 0.06, dram_reads: 0.01, goodput: 0.05 }
    }

    fn bound(&self, metric: &str) -> f64 {
        match metric {
            "p50_ns" => self.p50,
            "p95_ns" => self.p95,
            "p99_ns" => self.p99,
            "dram_reads_per_query" => self.dram_reads,
            "goodput_qps" => self.goodput,
            _ => f64::INFINITY,
        }
    }
}

impl CalibrationReport {
    /// The largest relative divergence seen per metric, across scenarios.
    #[must_use]
    pub fn worst_per_metric(&self) -> Vec<(&'static str, f64)> {
        let mut worst: Vec<(&'static str, f64)> = Vec::new();
        for row in &self.scenarios {
            for delta in &row.metrics {
                match worst.iter_mut().find(|(name, _)| *name == delta.name) {
                    Some((_, value)) => *value = value.max(delta.relative()),
                    None => worst.push((delta.name, delta.relative())),
                }
            }
        }
        worst
    }

    /// Gates the report against `envelope`.
    ///
    /// # Errors
    ///
    /// Returns one message per metric × scenario exceeding its tolerance.
    pub fn check(&self, envelope: &ToleranceEnvelope) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        for row in &self.scenarios {
            for delta in &row.metrics {
                let bound = envelope.bound(delta.name);
                if delta.relative() > bound {
                    violations.push(format!(
                        "{}: {} diverges {:.1} % (cycle {:.3}, fast {:.3}, tolerance {:.0} %)",
                        row.label,
                        delta.name,
                        delta.relative() * 100.0,
                        delta.cycle,
                        delta.fast,
                        bound * 100.0
                    ));
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Renders the per-metric worst-case divergence as a fixed-width table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "calibration: {} scenarios, fast vs cycle divergence\n{:<22} {:>12}\n",
            self.scenarios.len(),
            "metric",
            "max |Δ| %"
        );
        for (name, worst) in self.worst_per_metric() {
            out.push_str(&format!("{name:<22} {:>11.2} %\n", worst * 100.0));
        }
        out
    }
}

/// Runs the matrix in both memory models and reports per-metric divergence.
///
/// Every scenario pair shares its seeds: the same arrival schedule, query
/// stream, and fault plan feed both models, so the divergence isolates the
/// timing model.
///
/// # Errors
///
/// Returns the first [`ServeError`] any simulation hits.
pub fn calibrate(matrix: &CalibrationMatrix) -> Result<CalibrationReport, ServeError> {
    let (cycle_engine, source) = crate::setup::paper_setup(MemoryModelKind::Cycle)?;
    let (fast_engine, _) = crate::setup::paper_setup(MemoryModelKind::Fast)?;

    let mut scenarios = Vec::with_capacity(matrix.scenario_count());
    for &rate in &matrix.rates_qps {
        for &window in &matrix.windows_ns {
            for &skew in &matrix.skews {
                for fault in &matrix.faults {
                    let config = ServeConfig {
                        arrivals: ArrivalProcess::Poisson { rate_qps: rate },
                        policy: BatchPolicy::Deadline {
                            max_wait_ns: window,
                            max_batch: matrix.max_batch,
                        },
                        workers: matrix.workers,
                        queries: matrix.queries,
                        seed: matrix.seed,
                        ..ServeConfig::default()
                    };
                    let resilience = ResilienceConfig {
                        faults: fault
                            .plan(matrix.workers, matrix.queries, rate, matrix.seed)
                            .map_err(ServeError::InvalidConfig)?,
                        ..ResilienceConfig::none(matrix.workers)
                    };
                    let popularity = if skew == 0.0 {
                        Popularity::Uniform
                    } else {
                        Popularity::Zipf { exponent: skew }
                    };
                    let report_for = |engine: &FafnirEngine| -> Result<ServeReport, ServeError> {
                        let mut traffic = BatchGenerator::new(
                            popularity,
                            matrix.universe,
                            matrix.query_len,
                            matrix.seed,
                        );
                        let outcome = simulate_resilient(
                            engine,
                            &source,
                            &mut traffic,
                            &config,
                            &resilience,
                        )?;
                        Ok(ServeReport::new(&config, &outcome))
                    };
                    let cycle = report_for(&cycle_engine)?;
                    let fast = report_for(&fast_engine)?;
                    let delta = |name, c, f| MetricDelta { name, cycle: c, fast: f };
                    scenarios.push(ScenarioDivergence {
                        label: format!(
                            "rate {rate:.0} window {window:.0} skew {skew} faults {fault}"
                        ),
                        metrics: vec![
                            delta("p50_ns", cycle.latency.p50_ns, fast.latency.p50_ns),
                            delta("p95_ns", cycle.latency.p95_ns, fast.latency.p95_ns),
                            delta("p99_ns", cycle.latency.p99_ns, fast.latency.p99_ns),
                            delta(
                                "dram_reads_per_query",
                                cycle.dram_reads_per_query,
                                fast.dram_reads_per_query,
                            ),
                            delta("goodput_qps", cycle.goodput_qps, fast.goodput_qps),
                        ],
                    });
                }
            }
        }
    }
    Ok(CalibrationReport { scenarios })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_delta_relative_handles_zero_and_sign() {
        assert_eq!(MetricDelta { name: "x", cycle: 0.0, fast: 0.0 }.relative(), 0.0);
        let delta = MetricDelta { name: "x", cycle: 100.0, fast: 80.0 };
        assert!((delta.relative() - 0.2).abs() < 1e-12);
        let delta = MetricDelta { name: "x", cycle: 100.0, fast: 120.0 };
        assert!((delta.relative() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn envelope_check_reports_violations_with_context() {
        let report = CalibrationReport {
            scenarios: vec![ScenarioDivergence {
                label: "toy".into(),
                metrics: vec![MetricDelta { name: "p50_ns", cycle: 100.0, fast: 10.0 }],
            }],
        };
        let tight = ToleranceEnvelope { p50: 0.05, ..ToleranceEnvelope::recorded() };
        let violations = report.check(&tight).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("p50_ns"), "{violations:?}");
        assert!(violations[0].contains("toy"));
        let loose = ToleranceEnvelope { p50: 1.0, ..ToleranceEnvelope::recorded() };
        assert!(report.check(&loose).is_ok());
    }

    #[test]
    fn smoke_matrix_stays_within_the_recorded_envelope() {
        let report = calibrate(&CalibrationMatrix::smoke()).unwrap();
        assert_eq!(report.scenarios.len(), 2);
        if let Err(violations) = report.check(&ToleranceEnvelope::recorded()) {
            panic!("fast model drifted out of envelope:\n{}", violations.join("\n"));
        }
        let table = report.render_table();
        for metric in ["p50_ns", "p99_ns", "dram_reads_per_query", "goodput_qps"] {
            assert!(table.contains(metric), "{table}");
        }
    }
}
