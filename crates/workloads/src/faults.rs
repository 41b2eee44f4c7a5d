//! Deterministic fault plans for serving simulation.
//!
//! A production embedding-lookup service is defined as much by how it
//! behaves when workers stall, crash, or slow down as by its fault-free
//! p99 — RecNMP (ISCA 2020) frames recommendation inference as a
//! tail-latency-bound datacenter service, and the tail is exactly where
//! degraded replicas show up. This module generates *virtual-time* fault
//! schedules the same way [`crate::arrival`] generates arrival schedules:
//! seeded, host-independent, and byte-reproducible.
//!
//! A [`FaultPlan`] assigns every worker replica a [`WorkerFaults`] record:
//!
//! * **downtimes** — disjoint, sorted `[start, end)` crash/restart
//!   intervals in virtual nanoseconds (an `end` of `f64::INFINITY` models a
//!   worker that never comes back);
//! * **slowdown** — a service-time multiplier ≥ 1 (a degraded replica:
//!   thermal throttling, a straggler DIMM, a noisy neighbour).
//!
//! The plan is pure data: the serving simulation consults it when
//! dispatching (is the worker up? when does it restart? does it crash
//! mid-service?) and the report layer turns it into per-worker
//! availability. Because the plan is data, permuting worker ids
//! ([`FaultPlan::permuted`]) permutes behaviour exactly — the serving
//! report is required to be invariant under that renumbering.
//!
//! ```
//! use fafnir_workloads::faults::FaultPlan;
//!
//! let plan = FaultPlan::crash_restart(4, 2e6, 5e5, 1e7, 7);
//! assert_eq!(plan, FaultPlan::crash_restart(4, 2e6, 5e5, 1e7, 7));
//! assert!(plan.worker(0).is_up(0.0)); // plans start healthy
//! ```

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arrival::exponential;

/// The most downtimes per worker [`FaultPlan::crash_restart`] expects,
/// `horizon_ns / (mttf_ns + mttr_ns)`. A plan holds every downtime out to
/// its horizon, so a mean cycle far shorter than the horizon would fill
/// memory, and one below the horizon's float resolution would stop the
/// schedule's clock without ever reaching the horizon. The largest plan
/// in use, 10 µs up and 5 µs down over one second, expects 66,667.
pub const MAX_EXPECTED_DOWNTIMES: u32 = 1 << 17;

/// The fault schedule of one worker replica.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerFaults {
    /// Service-time multiplier (≥ 1.0; 1.0 = healthy speed).
    pub slowdown: f64,
    /// Disjoint, sorted `[start, end)` downtime intervals in virtual ns.
    /// `end = f64::INFINITY` means the worker never restarts.
    pub downtimes: Vec<(f64, f64)>,
}

impl Default for WorkerFaults {
    fn default() -> Self {
        Self::healthy()
    }
}

impl WorkerFaults {
    /// A worker with no faults: full speed, never down.
    #[must_use]
    pub fn healthy() -> Self {
        Self { slowdown: 1.0, downtimes: Vec::new() }
    }

    /// Whether the worker is up (not inside a downtime) at `t`.
    #[must_use]
    pub fn is_up(&self, t: f64) -> bool {
        self.downtimes.iter().all(|&(start, end)| !(start <= t && t < end))
    }

    /// The earliest time `>= t` at which the worker is up, or `None` if it
    /// is down from `t` forever.
    #[must_use]
    pub fn next_up_after(&self, t: f64) -> Option<f64> {
        for &(start, end) in &self.downtimes {
            if start <= t && t < end {
                if end.is_finite() {
                    return Some(end);
                }
                return None;
            }
        }
        Some(t)
    }

    /// The first crash (downtime start) strictly inside `(start, end)` —
    /// the instant an in-flight service attempt on this worker dies.
    #[must_use]
    pub fn first_crash_within(&self, start: f64, end: f64) -> Option<f64> {
        self.downtimes.iter().map(|&(s, _)| s).find(|&s| start < s && s < end)
    }

    /// Fraction of `[t0, t1]` the worker is up (1.0 for an empty window).
    #[must_use]
    pub fn availability(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return 1.0;
        }
        let down: f64 =
            self.downtimes.iter().map(|&(start, end)| (end.min(t1) - start.max(t0)).max(0.0)).sum();
        1.0 - down / (t1 - t0)
    }

    /// Total order on fault *schedules* (not worker ids): slowdown first,
    /// then downtime lists lexicographically. The serving dispatcher breaks
    /// free-worker ties with this order so a run's observable metrics are
    /// invariant under worker renumbering — two workers compare equal here
    /// exactly when they are behaviourally interchangeable.
    #[must_use]
    pub fn schedule_cmp(&self, other: &Self) -> Ordering {
        self.slowdown.total_cmp(&other.slowdown).then_with(|| {
            for (a, b) in self.downtimes.iter().zip(&other.downtimes) {
                let by_interval = a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1));
                if by_interval != Ordering::Equal {
                    return by_interval;
                }
            }
            self.downtimes.len().cmp(&other.downtimes.len())
        })
    }

    /// Validates the schedule: slowdown ≥ 1 and finite, downtimes sorted,
    /// disjoint, non-empty, non-negative.
    fn validate(&self) -> Result<(), String> {
        if !self.slowdown.is_finite() || self.slowdown < 1.0 {
            return Err(format!("slowdown must be finite and >= 1.0, got {}", self.slowdown));
        }
        let mut previous_end = 0.0f64;
        for &(start, end) in &self.downtimes {
            if start.is_nan() || end.is_nan() || start < 0.0 {
                return Err(format!("downtime [{start}, {end}) is malformed"));
            }
            if end <= start {
                return Err(format!("downtime [{start}, {end}) is empty or inverted"));
            }
            if start < previous_end {
                return Err(format!("downtime [{start}, {end}) overlaps its predecessor"));
            }
            previous_end = end;
        }
        Ok(())
    }
}

/// A seeded, per-worker fault schedule for one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// One schedule per worker replica, indexed by worker id.
    pub workers: Vec<WorkerFaults>,
}

impl FaultPlan {
    /// The zero-fault plan: every worker healthy forever. A serving run
    /// under this plan is required to be byte-identical to the same run
    /// without any fault layer.
    #[must_use]
    pub fn none(workers: usize) -> Self {
        Self { workers: vec![WorkerFaults::healthy(); workers] }
    }

    /// A permanent total outage: every worker down from t = 0, forever.
    /// Forces the shed-escalation path — the service must shed everything
    /// rather than queue without bound.
    #[must_use]
    pub fn total_outage(workers: usize) -> Self {
        Self {
            workers: vec![
                WorkerFaults { slowdown: 1.0, downtimes: vec![(0.0, f64::INFINITY)] };
                workers
            ],
        }
    }

    /// The first `slowed` workers run at `slowdown` × service time; the
    /// rest are healthy. The canonical straggler-replica plan for hedging
    /// experiments.
    #[must_use]
    pub fn slow_workers(workers: usize, slowed: usize, slowdown: f64) -> Self {
        Self {
            workers: (0..workers)
                .map(|w| WorkerFaults {
                    slowdown: if w < slowed { slowdown } else { 1.0 },
                    downtimes: Vec::new(),
                })
                .collect(),
        }
    }

    /// Seeded crash/restart churn: each worker alternates exponentially
    /// distributed up periods (mean `mttf_ns`) and down periods (mean
    /// `mttr_ns`) out to `horizon_ns`. Every worker draws from its own
    /// seed stream, so the plan for worker `w` does not depend on how many
    /// other workers exist.
    ///
    /// # Panics
    ///
    /// Panics if `mttf_ns`, `mttr_ns`, or `horizon_ns` is not positive and
    /// finite, or if the plan expects more than [`MAX_EXPECTED_DOWNTIMES`]
    /// downtimes per worker.
    #[must_use]
    pub fn crash_restart(
        workers: usize,
        mttf_ns: f64,
        mttr_ns: f64,
        horizon_ns: f64,
        seed: u64,
    ) -> Self {
        for (name, value) in
            [("mttf_ns", mttf_ns), ("mttr_ns", mttr_ns), ("horizon_ns", horizon_ns)]
        {
            assert!(value.is_finite() && value > 0.0, "{name} must be positive and finite");
        }
        let expected = horizon_ns / (mttf_ns + mttr_ns);
        assert!(
            expected <= f64::from(MAX_EXPECTED_DOWNTIMES),
            "{expected} expected downtimes per worker exceed {MAX_EXPECTED_DOWNTIMES}"
        );
        let workers = (0..workers)
            .map(|w| {
                let mut rng =
                    StdRng::seed_from_u64(seed.wrapping_add((w as u64).wrapping_mul(0x9E37_79B9)));
                let mut downtimes = Vec::new();
                let mut now = 0.0f64;
                // Four times the cap bounds the loop even if the draws stop
                // advancing `now`; under the cap no plan comes near it.
                for _ in 0..4 * MAX_EXPECTED_DOWNTIMES {
                    now += exponential(&mut rng, mttf_ns);
                    if now > horizon_ns {
                        break;
                    }
                    let restart = now + exponential(&mut rng, mttr_ns);
                    downtimes.push((now, restart));
                    now = restart;
                }
                WorkerFaults { slowdown: 1.0, downtimes }
            })
            .collect();
        Self { workers }
    }

    /// Number of workers the plan covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the plan covers zero workers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The schedule of worker `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    #[must_use]
    pub fn worker(&self, w: usize) -> &WorkerFaults {
        &self.workers[w]
    }

    /// Whether any worker has any fault (a false result means the plan is
    /// exactly [`FaultPlan::none`]).
    #[must_use]
    pub fn has_faults(&self) -> bool {
        self.workers.iter().any(|w| w.slowdown != 1.0 || !w.downtimes.is_empty())
    }

    /// The plan with worker ids renumbered: new worker `i` gets the old
    /// schedule `permutation[i]`. Serving reports must be invariant under
    /// this relabeling.
    ///
    /// # Panics
    ///
    /// Panics if `permutation` is not a permutation of `0..self.len()`.
    #[must_use]
    pub fn permuted(&self, permutation: &[usize]) -> Self {
        assert_eq!(permutation.len(), self.workers.len(), "permutation length");
        let mut seen = vec![false; self.workers.len()];
        for &p in permutation {
            assert!(!seen[p], "duplicate index {p} in permutation");
            seen[p] = true;
        }
        Self { workers: permutation.iter().map(|&p| self.workers[p].clone()).collect() }
    }

    /// Validates every worker schedule.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed schedule: non-finite or
    /// sub-unity slowdowns, or unsorted/overlapping/inverted downtimes.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers.is_empty() {
            return Err("fault plan covers zero workers".into());
        }
        for (w, worker) in self.workers.iter().enumerate() {
            worker.validate().map_err(|e| format!("worker {w}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fault_plan_is_always_up_and_has_no_faults() {
        let plan = FaultPlan::none(3);
        assert!(!plan.has_faults());
        assert!(plan.validate().is_ok());
        for w in 0..3 {
            assert!(plan.worker(w).is_up(0.0));
            assert!(plan.worker(w).is_up(1e12));
            assert_eq!(plan.worker(w).next_up_after(5.0), Some(5.0));
            assert_eq!(plan.worker(w).availability(0.0, 100.0), 1.0);
        }
    }

    #[test]
    fn crash_restart_is_seeded_and_starts_up() {
        let a = FaultPlan::crash_restart(4, 1e6, 2e5, 1e8, 11);
        let b = FaultPlan::crash_restart(4, 1e6, 2e5, 1e8, 11);
        assert_eq!(a, b);
        let c = FaultPlan::crash_restart(4, 1e6, 2e5, 1e8, 12);
        assert_ne!(a, c);
        assert!(a.validate().is_ok());
        assert!(a.has_faults());
        for w in 0..4 {
            assert!(a.worker(w).is_up(0.0), "plans must start healthy");
        }
        // Worker schedules are independent of the worker count.
        let wider = FaultPlan::crash_restart(8, 1e6, 2e5, 1e8, 11);
        assert_eq!(wider.workers[..4], a.workers[..]);
    }

    #[test]
    fn crash_restart_caps_its_expected_downtimes() {
        // A mean cycle of 2e-300 ns used to grow the schedule until memory
        // ran out: `now` stopped advancing short of the horizon.
        let flood = || FaultPlan::crash_restart(1, 1e-300, 1e-300, 1e5, 1);
        assert!(std::panic::catch_unwind(flood).is_err());
        let cap = f64::from(MAX_EXPECTED_DOWNTIMES);
        let at_cap = FaultPlan::crash_restart(1, 1.0, 1.0, 2.0 * cap, 1);
        assert!(at_cap.validate().is_ok() && at_cap.has_faults());
    }

    #[test]
    fn downtime_queries_cover_edges() {
        let worker =
            WorkerFaults { slowdown: 1.0, downtimes: vec![(100.0, 200.0), (500.0, f64::INFINITY)] };
        assert!(worker.is_up(99.9));
        assert!(!worker.is_up(100.0));
        assert!(!worker.is_up(199.9));
        assert!(worker.is_up(200.0));
        assert_eq!(worker.next_up_after(150.0), Some(200.0));
        assert_eq!(worker.next_up_after(300.0), Some(300.0));
        assert_eq!(worker.next_up_after(600.0), None);
        // Crash strictly inside the attempt span, never at its endpoints.
        assert_eq!(worker.first_crash_within(0.0, 100.0), None);
        assert_eq!(worker.first_crash_within(0.0, 100.1), Some(100.0));
        assert_eq!(worker.first_crash_within(100.0, 600.0), Some(500.0));
        assert!((worker.availability(0.0, 400.0) - 0.75).abs() < 1e-12);
        assert_eq!(worker.availability(500.0, 600.0), 0.0);
    }

    #[test]
    fn schedule_cmp_orders_by_behaviour_not_id() {
        let fast = WorkerFaults::healthy();
        let slow = WorkerFaults { slowdown: 4.0, downtimes: Vec::new() };
        let crashy = WorkerFaults { slowdown: 1.0, downtimes: vec![(10.0, 20.0)] };
        assert_eq!(fast.schedule_cmp(&fast), Ordering::Equal);
        assert_eq!(fast.schedule_cmp(&slow), Ordering::Less);
        assert_eq!(slow.schedule_cmp(&fast), Ordering::Greater);
        assert_eq!(fast.schedule_cmp(&crashy), Ordering::Less, "shorter downtime list first");
    }

    #[test]
    fn permutation_relabels_schedules() {
        let plan = FaultPlan::slow_workers(3, 1, 8.0);
        let permuted = plan.permuted(&[2, 0, 1]);
        assert_eq!(permuted.workers[1], plan.workers[0]);
        assert_eq!(permuted.worker(1).slowdown, 8.0);
        assert_eq!(permuted.worker(0).slowdown, 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn malformed_permutation_panics() {
        let _ = FaultPlan::none(2).permuted(&[0, 0]);
    }

    #[test]
    fn validation_rejects_malformed_schedules() {
        let bad_slowdown =
            FaultPlan { workers: vec![WorkerFaults { slowdown: 0.5, downtimes: Vec::new() }] };
        assert!(bad_slowdown.validate().is_err());
        let inverted = FaultPlan {
            workers: vec![WorkerFaults { slowdown: 1.0, downtimes: vec![(20.0, 10.0)] }],
        };
        assert!(inverted.validate().is_err());
        let overlapping = FaultPlan {
            workers: vec![WorkerFaults {
                slowdown: 1.0,
                downtimes: vec![(0.0, 10.0), (5.0, 20.0)],
            }],
        };
        assert!(overlapping.validate().is_err());
        assert!(FaultPlan { workers: Vec::new() }.validate().is_err());
        assert!(FaultPlan::total_outage(2).validate().is_ok());
    }
}
