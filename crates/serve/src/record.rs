//! Per-query, per-batch, and per-attempt accounting in virtual nanoseconds.

/// What happened to one submitted query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryOutcome {
    /// Still queued (only observable mid-simulation; a finished run has
    /// none of these).
    Pending,
    /// Rejected by admission control at `shed_ns` (queue overflow, or the
    /// shed-escalation path when every worker is permanently down).
    Shed {
        /// Virtual time the query was dropped.
        shed_ns: f64,
    },
    /// Dispatched but never completed: every service attempt crashed or
    /// timed out and the retry budget ran out.
    Failed {
        /// Virtual time the last attempt gave up.
        failed_ns: f64,
    },
    /// Served to completion.
    Served {
        /// Index of the formed batch (in formation order) that carried it.
        batch: usize,
        /// Virtual time the batcher closed that batch.
        formed_ns: f64,
        /// Virtual time the *winning* service attempt started (with retries
        /// and hedging this is the attempt whose output reached the host).
        dispatched_ns: f64,
        /// Virtual time this query's output reached the host.
        completion_ns: f64,
    },
}

/// The life of one query through the serving pipeline, in submission order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Virtual arrival time.
    pub arrival_ns: f64,
    /// Outcome (shed, failed, or served with its timeline).
    pub outcome: QueryOutcome,
}

impl QueryRecord {
    /// Time spent waiting in the batcher (arrival → batch closed), if
    /// served.
    #[must_use]
    pub fn batch_wait_ns(&self) -> Option<f64> {
        match self.outcome {
            QueryOutcome::Served { formed_ns, .. } => Some(formed_ns - self.arrival_ns),
            _ => None,
        }
    }

    /// Time the closed batch waited for its winning dispatch, if served
    /// (worker wait plus any failed attempts and retry backoff).
    #[must_use]
    pub fn dispatch_wait_ns(&self) -> Option<f64> {
        match self.outcome {
            QueryOutcome::Served { formed_ns, dispatched_ns, .. } => {
                Some(dispatched_ns - formed_ns)
            }
            _ => None,
        }
    }

    /// Queue wait: arrival → winning dispatch (batching plus worker wait
    /// plus retries), if served.
    #[must_use]
    pub fn queue_wait_ns(&self) -> Option<f64> {
        match self.outcome {
            QueryOutcome::Served { dispatched_ns, .. } => Some(dispatched_ns - self.arrival_ns),
            _ => None,
        }
    }

    /// Service time: winning dispatch → this query's output at the host, if
    /// served.
    #[must_use]
    pub fn service_ns(&self) -> Option<f64> {
        match self.outcome {
            QueryOutcome::Served { dispatched_ns, completion_ns, .. } => {
                Some(completion_ns - dispatched_ns)
            }
            _ => None,
        }
    }

    /// End-to-end latency: arrival → output at the host, if served.
    #[must_use]
    pub fn latency_ns(&self) -> Option<f64> {
        match self.outcome {
            QueryOutcome::Served { completion_ns, .. } => Some(completion_ns - self.arrival_ns),
            _ => None,
        }
    }
}

/// One formed batch's journey through the worker pool.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Submission-order ids of the member queries.
    pub queries: Vec<usize>,
    /// Virtual time the batcher closed the batch.
    pub formed_ns: f64,
    /// Virtual time the winning (or, for a failed batch, the first) service
    /// attempt started.
    pub dispatched_ns: f64,
    /// Worker replica whose attempt won (for a failed batch: the last
    /// attempt's worker).
    pub worker: usize,
    /// Winning attempt's engine service time, slowdown included (0 for a
    /// failed batch).
    pub service_ns: f64,
    /// Index references in the batch (`Σ |query|`), counted once.
    pub references: u64,
    /// Deduplicated DRAM vector reads summed over *every started attempt* —
    /// retries and hedges re-issue the batch's reads, which is exactly the
    /// extra-DRAM cost of resilience.
    pub vectors_read: u64,
    /// Service attempts started (first dispatch, retries, and the hedge).
    pub attempts: u32,
    /// Whether a hedge attempt was launched.
    pub hedged: bool,
    /// Whether the hedge attempt delivered the winning completion.
    pub hedge_won: bool,
    /// Whether the batch exhausted its retry budget and failed.
    pub failed: bool,
}

/// How one service attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptResult {
    /// Delivered the batch's outputs to the host.
    Won,
    /// Cancelled because the other (primary/hedge) attempt won first.
    Cancelled,
    /// The worker crashed mid-service; the work was lost.
    Crashed,
    /// The dispatcher gave up at the per-batch timeout; the worker kept
    /// crunching to its natural finish (wasted work).
    TimedOut,
}

/// One service attempt of one formed batch on one worker. The busy span
/// `[start_ns, busy_until_ns]` is what utilization and per-worker busy
/// fractions are computed from — it includes wasted work (timed-out
/// attempts crunch to their natural finish; cancelled hedges stop at the
/// winner's completion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptRecord {
    /// Index of the formed batch (matches [`BatchRecord`] order).
    pub batch: usize,
    /// Worker replica the attempt ran on.
    pub worker: usize,
    /// Whether this was the hedge (duplicate) attempt.
    pub hedge: bool,
    /// Virtual time the attempt started.
    pub start_ns: f64,
    /// Virtual time the worker stopped working on it.
    pub busy_until_ns: f64,
    /// How the attempt ended.
    pub result: AttemptResult,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_record_decomposes_latency() {
        let record = QueryRecord {
            arrival_ns: 100.0,
            outcome: QueryOutcome::Served {
                batch: 0,
                formed_ns: 150.0,
                dispatched_ns: 170.0,
                completion_ns: 300.0,
            },
        };
        assert_eq!(record.batch_wait_ns(), Some(50.0));
        assert_eq!(record.dispatch_wait_ns(), Some(20.0));
        assert_eq!(record.queue_wait_ns(), Some(70.0));
        assert_eq!(record.service_ns(), Some(130.0));
        assert_eq!(record.latency_ns(), Some(200.0));
    }

    #[test]
    fn shed_failed_and_pending_records_have_no_latency() {
        for outcome in [
            QueryOutcome::Pending,
            QueryOutcome::Shed { shed_ns: 5.0 },
            QueryOutcome::Failed { failed_ns: 9.0 },
        ] {
            let record = QueryRecord { arrival_ns: 1.0, outcome };
            assert_eq!(record.latency_ns(), None);
            assert_eq!(record.queue_wait_ns(), None);
            assert_eq!(record.service_ns(), None);
        }
    }
}
