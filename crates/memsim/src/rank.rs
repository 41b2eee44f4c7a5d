//! Per-rank state: banks plus rank-wide activation and column constraints.

use serde::{Deserialize, Serialize};

use crate::bank::Bank;
use crate::config::{Timing, Topology};
use crate::Cycle;

/// One DRAM rank: a set of banks sharing tRRD, tFAW and tCCD constraints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rank {
    banks: Vec<Bank>,
    banks_per_group: usize,
    /// Issue cycles of the most recent activations (for tFAW).
    recent_acts: Vec<Cycle>,
    /// Last ACT cycle and its bank group (for tRRD_S/L).
    last_act: Option<(Cycle, usize)>,
    /// Last column command cycle and its bank group (for tCCD_S/L).
    last_column: Option<(Cycle, usize)>,
}

impl Rank {
    /// Creates a rank with the topology's bank organization, all banks idle.
    #[must_use]
    pub fn new(topology: &Topology) -> Self {
        Self {
            banks: vec![Bank::new(); topology.banks_per_rank()],
            banks_per_group: topology.banks_per_group,
            recent_acts: Vec::new(),
            last_act: None,
            last_column: None,
        }
    }

    /// Immutable access to a bank by flat index.
    ///
    /// # Panics
    ///
    /// Panics if `flat_bank` is out of range.
    #[must_use]
    pub fn bank(&self, flat_bank: usize) -> &Bank {
        &self.banks[flat_bank]
    }

    /// Mutable access to a bank by flat index.
    ///
    /// # Panics
    ///
    /// Panics if `flat_bank` is out of range.
    pub fn bank_mut(&mut self, flat_bank: usize) -> &mut Bank {
        &mut self.banks[flat_bank]
    }

    /// Number of banks in this rank.
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The bank group a flat bank index belongs to.
    #[must_use]
    pub fn group_of(&self, flat_bank: usize) -> usize {
        flat_bank / self.banks_per_group
    }

    /// Earliest cycle (≥ `now`) an ACT targeting `flat_bank` satisfies the
    /// rank-wide tRRD and tFAW constraints (bank-local tRC is separate).
    #[must_use]
    pub fn act_ready(&self, now: Cycle, flat_bank: usize, timing: &Timing) -> Cycle {
        let mut ready = now;
        if let Some((last, group)) = self.last_act {
            let gap = if group == self.group_of(flat_bank) { timing.tRRD_L } else { timing.tRRD_S };
            ready = ready.max(last + gap);
        }
        if self.recent_acts.len() >= 4 {
            // The 4th-most-recent ACT bounds the four-activate window.
            let oldest = self.recent_acts[self.recent_acts.len() - 4];
            ready = ready.max(oldest + timing.tFAW);
        }
        ready
    }

    /// Earliest cycle (≥ `now`) a RD/WR targeting `flat_bank` satisfies the
    /// rank-wide tCCD constraint.
    #[must_use]
    pub fn column_ready(&self, now: Cycle, flat_bank: usize, timing: &Timing) -> Cycle {
        match self.last_column {
            Some((last, group)) => {
                let gap =
                    if group == self.group_of(flat_bank) { timing.tCCD_L } else { timing.tCCD_S };
                now.max(last + gap)
            }
            None => now,
        }
    }

    /// Records an ACT issued at `at` to `flat_bank`.
    pub fn record_act(&mut self, at: Cycle, flat_bank: usize) {
        self.last_act = Some((at, self.group_of(flat_bank)));
        self.recent_acts.push(at);
        let keep = self.recent_acts.len().saturating_sub(4);
        if keep > 0 {
            self.recent_acts.drain(..keep);
        }
    }

    /// Records a RD/WR issued at `at` to `flat_bank`.
    pub fn record_column(&mut self, at: Cycle, flat_bank: usize) {
        self.last_column = Some((at, self.group_of(flat_bank)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;

    fn rank() -> Rank {
        Rank::new(&MemoryConfig::ddr4_2400_4ch().topology)
    }

    fn timing() -> Timing {
        Timing::ddr4_2400()
    }

    #[test]
    fn new_rank_has_sixteen_idle_banks() {
        let rank = rank();
        assert_eq!(rank.bank_count(), 16);
        assert_eq!(rank.act_ready(0, 0, &timing()), 0);
        assert_eq!(rank.column_ready(0, 0, &timing()), 0);
    }

    #[test]
    fn group_of_partitions_banks() {
        let rank = rank();
        assert_eq!(rank.group_of(0), 0);
        assert_eq!(rank.group_of(3), 0);
        assert_eq!(rank.group_of(4), 1);
        assert_eq!(rank.group_of(15), 3);
    }

    #[test]
    fn trrd_is_longer_within_a_bank_group() {
        let t = timing();
        let mut rank = rank();
        rank.record_act(100, 0);
        assert_eq!(rank.act_ready(0, 1, &t), 100 + t.tRRD_L); // same group
        assert_eq!(rank.act_ready(0, 4, &t), 100 + t.tRRD_S); // other group
    }

    #[test]
    fn tfaw_limits_four_activations() {
        let t = timing();
        let mut rank = rank();
        for (i, at) in [0, 6, 12, 18].into_iter().enumerate() {
            rank.record_act(at, i * 4); // all different groups: tRRD_S pace
        }
        // Fifth ACT must wait until the first ACT + tFAW.
        assert_eq!(rank.act_ready(0, 1, &t), t.tFAW);
    }

    #[test]
    fn tccd_is_longer_within_a_bank_group() {
        let t = timing();
        let mut rank = rank();
        rank.record_column(50, 0);
        assert_eq!(rank.column_ready(0, 1, &t), 50 + t.tCCD_L);
        assert_eq!(rank.column_ready(0, 8, &t), 50 + t.tCCD_S);
    }

    #[test]
    fn constraints_do_not_apply_before_any_command() {
        let t = timing();
        let rank = rank();
        assert_eq!(rank.act_ready(33, 5, &t), 33);
        assert_eq!(rank.column_ready(71, 5, &t), 71);
    }
}
