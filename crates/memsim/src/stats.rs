//! Aggregate counters collected by the memory system.

use crate::Cycle;

/// Counters accumulated over a simulation run.
///
/// All counters are monotone. [`MemoryStats::reset`] zeroes a standalone
/// block; to reset a live [`crate::MemorySystem`] between experiment
/// phases use [`crate::MemorySystem::reset_stats`], which checks that no
/// request is mid-flight (a mid-flight reset would split one request's
/// counters across two phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Completed read bursts.
    pub reads: u64,
    /// Completed write bursts.
    pub writes: u64,
    /// Row activations issued.
    pub activations: u64,
    /// Precharges issued.
    pub precharges: u64,
    /// Refresh cycles performed.
    pub refreshes: u64,
    /// Bursts that hit an open row.
    pub row_hits: u64,
    /// Bursts to an idle bank (activate, no precharge needed).
    pub row_misses: u64,
    /// Bursts that found a different row open (precharge + activate).
    pub row_conflicts: u64,
    /// Requests completed.
    pub requests_completed: u64,
    /// Sum of request latencies (arrival → last data beat), for averaging.
    pub total_request_latency: Cycle,
    /// Bytes moved across all channel buses.
    pub bytes_transferred: u64,
    /// Deepest controller queue observed (bursts).
    pub max_queue_depth: u64,
}

impl MemoryStats {
    /// New zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Row-buffer hit rate over all bursts (0.0 when nothing completed).
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean request latency in cycles (0.0 when nothing completed).
    #[must_use]
    pub fn mean_request_latency(&self) -> f64 {
        if self.requests_completed == 0 {
            0.0
        } else {
            self.total_request_latency as f64 / self.requests_completed as f64
        }
    }

    /// Total column accesses (reads + writes).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Merges another stats block into this one (for multi-system sweeps).
    pub fn merge(&mut self, other: &MemoryStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.activations += other.activations;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.requests_completed += other.requests_completed;
        self.total_request_latency += other.total_request_latency;
        self.bytes_transferred += other.bytes_transferred;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut stats = MemoryStats::new();
        assert_eq!(stats.row_hit_rate(), 0.0);
        stats.row_hits = 3;
        stats.row_misses = 1;
        assert!((stats.row_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mean_latency_divides_by_completions() {
        let mut stats = MemoryStats::new();
        assert_eq!(stats.mean_request_latency(), 0.0);
        stats.requests_completed = 4;
        stats.total_request_latency = 100;
        assert!((stats.mean_request_latency() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = MemoryStats { reads: 1, writes: 2, activations: 3, ..Default::default() };
        let b = MemoryStats { reads: 10, row_hits: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.reads, 11);
        assert_eq!(a.writes, 2);
        assert_eq!(a.row_hits, 5);
        assert_eq!(a.accesses(), 13);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut stats = MemoryStats { reads: 9, row_conflicts: 2, ..Default::default() };
        stats.reset();
        assert_eq!(stats, MemoryStats::default());
    }
}
