//! Open-loop arrival processes for serving simulation.
//!
//! Production embedding inference is not a stream of pre-formed batches: it
//! is an open-loop flow of individual queries whose arrival times the
//! server does not control (RecNMP, ISCA 2020, characterizes exactly this
//! regime). This module generates deterministic, seeded arrival schedules
//! in *virtual nanoseconds* that `fafnir-serve` layers on top of
//! [`crate::query::BatchGenerator`]: the generator supplies *what* each
//! query asks for, the arrival process supplies *when* it asks.
//!
//! Two processes cover the paper-relevant space:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at a fixed rate, the
//!   standard open-loop load model;
//! * [`ArrivalProcess::OnOff`] — an MMPP-style two-state burst model:
//!   exponentially-distributed ON periods emit a Poisson stream at the
//!   burst rate, separated by silent exponentially-distributed OFF
//!   periods. Bursty traffic is where dynamic batching earns (deep batches
//!   during bursts) and admission control matters (queues overflow).
//!
//! ```
//! use fafnir_workloads::arrival::ArrivalProcess;
//!
//! let process = ArrivalProcess::Poisson { rate_qps: 1_000_000.0 };
//! let schedule = process.schedule(100, 7);
//! assert_eq!(schedule, process.schedule(100, 7)); // same seed ⇒ same times
//! assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An open-loop arrival process generating query arrival times in virtual
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: independent exponential inter-arrival gaps with
    /// mean `1e9 / rate_qps` ns.
    Poisson {
        /// Mean arrival rate in queries per second.
        rate_qps: f64,
    },
    /// MMPP-style on/off bursts: during an ON period (exponential, mean
    /// `mean_on_ns`) queries arrive as a Poisson stream at `burst_qps`;
    /// OFF periods (exponential, mean `mean_off_ns`) are silent.
    OnOff {
        /// Arrival rate *inside* a burst, in queries per second.
        burst_qps: f64,
        /// Mean ON-period duration in nanoseconds.
        mean_on_ns: f64,
        /// Mean OFF-period duration in nanoseconds.
        mean_off_ns: f64,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate in queries per second.
    ///
    /// For [`ArrivalProcess::OnOff`] this is the burst rate scaled by the
    /// ON duty cycle: `burst_qps × mean_on / (mean_on + mean_off)`.
    #[must_use]
    pub fn mean_rate_qps(&self) -> f64 {
        match *self {
            Self::Poisson { rate_qps } => rate_qps,
            Self::OnOff { burst_qps, mean_on_ns, mean_off_ns } => {
                burst_qps * mean_on_ns / (mean_on_ns + mean_off_ns)
            }
        }
    }

    /// Validates the process parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter: rates and
    /// period means must be positive and finite.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |name: &str, value: f64| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be positive and finite, got {value}"))
            }
        };
        match *self {
            Self::Poisson { rate_qps } => positive("rate_qps", rate_qps),
            Self::OnOff { burst_qps, mean_on_ns, mean_off_ns } => {
                positive("burst_qps", burst_qps)?;
                positive("mean_on_ns", mean_on_ns)?;
                positive("mean_off_ns", mean_off_ns)
            }
        }
    }

    /// Generates the arrival times (virtual ns, non-decreasing, starting
    /// after 0) of the first `count` queries, fully determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the process parameters are invalid (see
    /// [`ArrivalProcess::validate`]).
    #[must_use]
    pub fn schedule(&self, count: usize, seed: u64) -> Vec<f64> {
        self.validate().expect("valid arrival process");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut times = Vec::with_capacity(count);
        match *self {
            Self::Poisson { rate_qps } => {
                let mean_gap_ns = 1e9 / rate_qps;
                let mut now = 0.0;
                for _ in 0..count {
                    now += exponential(&mut rng, mean_gap_ns);
                    times.push(now);
                }
            }
            Self::OnOff { burst_qps, mean_on_ns, mean_off_ns } => {
                let mean_gap_ns = 1e9 / burst_qps;
                // The process starts at the beginning of an ON period.
                let mut now = 0.0;
                let mut on_ends = exponential(&mut rng, mean_on_ns);
                while times.len() < count {
                    let candidate = now + exponential(&mut rng, mean_gap_ns);
                    if candidate <= on_ends {
                        now = candidate;
                        times.push(now);
                    } else {
                        // Burst over: skip the OFF period and restart the
                        // arrival clock at the next ON period.
                        now = on_ends + exponential(&mut rng, mean_off_ns);
                        on_ends = now + exponential(&mut rng, mean_on_ns);
                    }
                }
            }
        }
        times
    }
}

/// Draws an exponential variate with the given mean by inverse transform:
/// the arrival gaps here and the fault plans' up and down periods
/// ([`crate::faults`]) share this one draw.
pub(crate) fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    // gen::<f64>() is uniform in [0, 1), so 1 − u is in (0, 1] and the log
    // is finite.
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_schedule() {
        for process in [
            ArrivalProcess::Poisson { rate_qps: 2e6 },
            ArrivalProcess::OnOff { burst_qps: 5e6, mean_on_ns: 50_000.0, mean_off_ns: 150_000.0 },
        ] {
            let a = process.schedule(500, 42);
            let b = process.schedule(500, 42);
            assert_eq!(a, b, "{process:?} must be reproducible");
            let c = process.schedule(500, 43);
            assert_ne!(a, c, "{process:?} should depend on the seed");
        }
    }

    #[test]
    fn schedules_are_non_decreasing_and_positive() {
        for process in [
            ArrivalProcess::Poisson { rate_qps: 1e5 },
            ArrivalProcess::OnOff { burst_qps: 1e6, mean_on_ns: 10_000.0, mean_off_ns: 90_000.0 },
        ] {
            let times = process.schedule(200, 7);
            assert_eq!(times.len(), 200);
            assert!(times[0] >= 0.0);
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "{process:?} not sorted");
        }
    }

    #[test]
    fn poisson_mean_rate_is_close_to_nominal() {
        let process = ArrivalProcess::Poisson { rate_qps: 1e6 };
        let times = process.schedule(20_000, 11);
        let span_s = times.last().unwrap() * 1e-9;
        let measured = 20_000.0 / span_s;
        let relative_error = (measured - 1e6).abs() / 1e6;
        assert!(relative_error < 0.05, "measured {measured:.0} qps, error {relative_error:.3}");
    }

    #[test]
    fn on_off_long_run_rate_matches_duty_cycle() {
        let process =
            ArrivalProcess::OnOff { burst_qps: 4e6, mean_on_ns: 100_000.0, mean_off_ns: 300_000.0 };
        assert!((process.mean_rate_qps() - 1e6).abs() < 1.0);
        let times = process.schedule(20_000, 13);
        let span_s = times.last().unwrap() * 1e-9;
        let measured = 20_000.0 / span_s;
        let relative_error = (measured - 1e6).abs() / 1e6;
        assert!(relative_error < 0.10, "measured {measured:.0} qps, error {relative_error:.3}");
    }

    #[test]
    fn on_off_bursts_are_denser_than_the_long_run_rate() {
        // Median gap reflects the in-burst rate; the mean gap reflects the
        // long-run rate. A bursty process separates the two.
        let process =
            ArrivalProcess::OnOff { burst_qps: 8e6, mean_on_ns: 20_000.0, mean_off_ns: 180_000.0 };
        let times = process.schedule(5_000, 5);
        let mut gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_by(f64::total_cmp);
        let median = gaps[gaps.len() / 2];
        let mean = times.last().unwrap() / times.len() as f64;
        assert!(
            median * 4.0 < mean,
            "bursty traffic should have median gap ({median:.0} ns) far below mean ({mean:.0} ns)"
        );
    }

    #[test]
    #[should_panic(expected = "rate_qps must be positive")]
    fn zero_rate_panics() {
        let _ = ArrivalProcess::Poisson { rate_qps: 0.0 }.schedule(1, 0);
    }
}
