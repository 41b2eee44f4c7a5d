//! Per-channel shared data bus.
//!
//! All ranks on a channel share one data bus; concurrent bank/rank accesses
//! overlap their array work but serialize their data beats here. Switching
//! drivers between ranks costs an extra [`Timing::tRTRS`] bubble.

use crate::config::Timing;
use crate::Cycle;

/// Data-bus occupancy tracker for one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataBus {
    /// Cycle at which the bus becomes free.
    free_at: Cycle,
    /// Rank that drove the bus last.
    last_rank: Option<usize>,
    /// Total cycles the bus has been occupied (for utilization stats).
    busy_cycles: Cycle,
}

impl DataBus {
    /// A bus that is free at cycle 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest cycle (≥ `earliest`) at which `rank` may start a data burst.
    #[must_use]
    pub fn ready(&self, earliest: Cycle, rank: usize, timing: &Timing) -> Cycle {
        let mut at = self.free_at.max(earliest);
        if let Some(last) = self.last_rank {
            if last != rank && at < self.free_at + timing.tRTRS {
                at = self.free_at + timing.tRTRS;
            }
        }
        at
    }

    /// Absolute earliest cycle at which `rank` could start any data burst,
    /// given the current reservation: [`DataBus::ready`] with no lower
    /// bound. Used by the controller's next-event calculation — an existing
    /// reservation (plus a rank-switch bubble) is what bounds how far the
    /// clock may jump before a held column command becomes legal.
    #[must_use]
    pub fn earliest_start(&self, rank: usize, timing: &Timing) -> Cycle {
        self.ready(0, rank, timing)
    }

    /// Reserves the bus for `rank` from `at` for `duration` cycles.
    ///
    /// # Panics
    ///
    /// Debug-panics if the reservation starts before the bus is free.
    pub fn reserve(&mut self, at: Cycle, duration: Cycle, rank: usize) {
        debug_assert!(at >= self.free_at, "bus double-booked");
        self.free_at = at + duration;
        self.last_rank = Some(rank);
        self.busy_cycles += duration;
    }

    /// Cycle at which the bus next becomes free.
    #[must_use]
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Total cycles spent transferring data.
    #[must_use]
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Bus utilization over the first `horizon` cycles (0.0–1.0).
    #[must_use]
    pub fn utilization(&self, horizon: Cycle) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / horizon as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Timing {
        Timing::ddr4_2400()
    }

    #[test]
    fn fresh_bus_is_immediately_ready() {
        let bus = DataBus::new();
        assert_eq!(bus.ready(5, 0, &timing()), 5);
        assert_eq!(bus.free_at(), 0);
    }

    #[test]
    fn reservation_blocks_until_free() {
        let t = timing();
        let mut bus = DataBus::new();
        bus.reserve(10, t.tBL, 0);
        assert_eq!(bus.ready(0, 0, &t), 10 + t.tBL);
    }

    #[test]
    fn rank_switch_costs_trtrs() {
        let t = timing();
        let mut bus = DataBus::new();
        bus.reserve(0, t.tBL, 0);
        // Same rank: back-to-back; different rank: bubble.
        assert_eq!(bus.ready(0, 0, &t), t.tBL);
        assert_eq!(bus.ready(0, 1, &t), t.tBL + t.tRTRS);
    }

    #[test]
    fn late_requester_does_not_pay_switch_penalty_twice() {
        let t = timing();
        let mut bus = DataBus::new();
        bus.reserve(0, t.tBL, 0);
        // Arriving well after the switch window: no penalty.
        let late = t.tBL + t.tRTRS + 100;
        assert_eq!(bus.ready(late, 1, &t), late);
    }

    #[test]
    fn utilization_accumulates_busy_cycles() {
        let t = timing();
        let mut bus = DataBus::new();
        bus.reserve(0, t.tBL, 0);
        bus.reserve(bus.free_at(), t.tBL, 0);
        assert_eq!(bus.busy_cycles(), 2 * t.tBL);
        assert!((bus.utilization(2 * t.tBL) - 1.0).abs() < 1e-12);
        assert_eq!(bus.utilization(0), 0.0);
    }
}
