//! Per-bank state machine: row buffer and bank-local timing constraints.

use crate::config::Timing;
use crate::Cycle;

/// State of one DRAM bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankState {
    /// No row open; an ACT is required before column access.
    Idle,
    /// The given row is latched in the row buffer.
    Active(usize),
}

/// How a burst to a given row relates to the bank's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// Target row already open: column access only.
    Hit,
    /// Bank idle: ACT then column access.
    Miss,
    /// Different row open: PRE, ACT, then column access.
    Conflict,
}

/// One DRAM bank: row-buffer state plus the earliest cycles at which each
/// command class may legally issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bank {
    state: BankState,
    /// Earliest cycle a new ACT may issue (tRC / tRP driven).
    next_act: Cycle,
    /// Earliest cycle a PRE may issue (tRAS / tRTP / tWR driven).
    next_pre: Cycle,
    /// Earliest cycle a RD/WR may issue (tRCD driven).
    next_column: Cycle,
}

impl Bank {
    /// A bank with no open row and no pending constraints.
    #[must_use]
    pub fn new() -> Self {
        Self { state: BankState::Idle, next_act: 0, next_pre: 0, next_column: 0 }
    }

    /// Current row-buffer state.
    #[must_use]
    pub fn state(&self) -> BankState {
        self.state
    }

    /// Classifies an access to `row` against the current row buffer.
    #[must_use]
    pub fn outcome_for(&self, row: usize) -> RowOutcome {
        match self.state {
            BankState::Active(open) if open == row => RowOutcome::Hit,
            BankState::Active(_) => RowOutcome::Conflict,
            BankState::Idle => RowOutcome::Miss,
        }
    }

    /// Earliest cycle (≥ `now`) an ACT may issue.
    #[must_use]
    pub fn act_ready(&self, now: Cycle) -> Cycle {
        self.next_act.max(now)
    }

    /// Earliest cycle (≥ `now`) a PRE may issue.
    #[must_use]
    pub fn pre_ready(&self, now: Cycle) -> Cycle {
        self.next_pre.max(now)
    }

    /// Earliest cycle (≥ `now`) a RD/WR may issue (requires an open row).
    #[must_use]
    pub fn column_ready(&self, now: Cycle) -> Cycle {
        self.next_column.max(now)
    }

    /// Issues an ACT for `row` at `at`.
    ///
    /// # Panics
    ///
    /// Debug-panics if the bank is not idle or `at` violates tRC.
    pub fn activate(&mut self, at: Cycle, row: usize, timing: &Timing) {
        debug_assert_eq!(self.state, BankState::Idle, "ACT on non-idle bank");
        debug_assert!(at >= self.next_act, "ACT violates tRC/tRP");
        self.state = BankState::Active(row);
        self.next_column = at + timing.tRCD;
        self.next_pre = at + timing.tRAS;
        self.next_act = at + timing.tRC;
    }

    /// Issues a PRE at `at`, closing the open row.
    ///
    /// # Panics
    ///
    /// Debug-panics if `at` violates tRAS/tRTP/tWR.
    pub fn precharge(&mut self, at: Cycle, timing: &Timing) {
        debug_assert!(at >= self.next_pre, "PRE violates tRAS/tRTP/tWR");
        self.state = BankState::Idle;
        self.next_act = self.next_act.max(at + timing.tRP);
    }

    /// Closes the row unconditionally as part of a refresh cycle (the
    /// precharge cost is folded into tRFC, which the controller enforces).
    pub fn force_precharge(&mut self, at: Cycle) {
        self.state = BankState::Idle;
        self.next_act = self.next_act.max(at);
    }

    /// Issues a RD at `at`. Returns the cycle the last data beat leaves the
    /// device (`at + tCL + tBL`).
    ///
    /// # Panics
    ///
    /// Debug-panics if no row is open or `at` violates tRCD.
    pub fn read(&mut self, at: Cycle, timing: &Timing) -> Cycle {
        debug_assert!(matches!(self.state, BankState::Active(_)), "RD on idle bank");
        debug_assert!(at >= self.next_column, "RD violates tRCD");
        // A later PRE must respect read-to-precharge.
        self.next_pre = self.next_pre.max(at + timing.tRTP);
        at + timing.tCL + timing.tBL
    }

    /// Issues a WR at `at`. Returns the cycle the last data beat is written
    /// (`at + tCWL + tBL`).
    ///
    /// # Panics
    ///
    /// Debug-panics if no row is open or `at` violates tRCD.
    pub fn write(&mut self, at: Cycle, timing: &Timing) -> Cycle {
        debug_assert!(matches!(self.state, BankState::Active(_)), "WR on idle bank");
        debug_assert!(at >= self.next_column, "WR violates tRCD");
        let data_end = at + timing.tCWL + timing.tBL;
        self.next_pre = self.next_pre.max(data_end + timing.tWR);
        data_end
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Timing {
        Timing::ddr4_2400()
    }

    #[test]
    fn fresh_bank_is_idle_and_unconstrained() {
        let bank = Bank::new();
        assert_eq!(bank.state(), BankState::Idle);
        assert_eq!(bank.act_ready(0), 0);
        assert_eq!(bank.outcome_for(42), RowOutcome::Miss);
    }

    #[test]
    fn activate_opens_row_and_blocks_columns_for_trcd() {
        let t = timing();
        let mut bank = Bank::new();
        bank.activate(10, 7, &t);
        assert_eq!(bank.state(), BankState::Active(7));
        assert_eq!(bank.outcome_for(7), RowOutcome::Hit);
        assert_eq!(bank.outcome_for(8), RowOutcome::Conflict);
        assert_eq!(bank.column_ready(0), 10 + t.tRCD);
        assert_eq!(bank.pre_ready(0), 10 + t.tRAS);
        assert_eq!(bank.act_ready(0), 10 + t.tRC);
    }

    #[test]
    fn read_returns_data_completion_cycle() {
        let t = timing();
        let mut bank = Bank::new();
        bank.activate(0, 0, &t);
        let issue = bank.column_ready(0);
        let done = bank.read(issue, &t);
        assert_eq!(done, t.tRCD + t.tCL + t.tBL);
    }

    #[test]
    fn write_pushes_precharge_past_twr() {
        let t = timing();
        let mut bank = Bank::new();
        bank.activate(0, 0, &t);
        let issue = bank.column_ready(0);
        let data_end = bank.write(issue, &t);
        assert_eq!(data_end, t.tRCD + t.tCWL + t.tBL);
        assert_eq!(bank.pre_ready(0), data_end + t.tWR);
    }

    #[test]
    fn precharge_closes_row_and_enforces_trp() {
        let t = timing();
        let mut bank = Bank::new();
        bank.activate(0, 3, &t);
        let pre_at = bank.pre_ready(0);
        bank.precharge(pre_at, &t);
        assert_eq!(bank.state(), BankState::Idle);
        // Next ACT respects both tRC from the old ACT and tRP from the PRE.
        assert_eq!(bank.act_ready(0), t.tRC.max(pre_at + t.tRP));
    }

    #[test]
    fn force_precharge_closes_row_immediately() {
        let mut bank = Bank::new();
        bank.activate(0, 3, &timing());
        bank.force_precharge(5);
        assert_eq!(bank.state(), BankState::Idle);
    }

    #[test]
    fn back_to_back_activates_respect_trc() {
        let t = timing();
        let mut bank = Bank::new();
        bank.activate(0, 1, &t);
        bank.precharge(bank.pre_ready(0), &t);
        let second_act = bank.act_ready(0);
        assert!(second_act >= t.tRC);
        bank.activate(second_act, 2, &t);
        assert_eq!(bank.state(), BankState::Active(2));
    }
}
