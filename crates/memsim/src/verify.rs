//! Independent JEDEC timing verification of recorded command streams.
//!
//! The controller enforces timing while scheduling; this module re-checks a
//! recorded [`CommandLog`] against the constraints *independently*, so a
//! scheduling bug cannot hide behind its own bookkeeping. Property tests
//! drive random traffic through the system and assert the log verifies.

use crate::config::Timing;
use crate::Cycle;

/// A DRAM command class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Row activation.
    Act,
    /// Precharge.
    Pre,
    /// Column read.
    Rd,
    /// Column write.
    Wr,
    /// Refresh (blocks the rank for tRFC).
    Ref,
}

/// One issued command with its coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRecord {
    /// Issue cycle.
    pub cycle: Cycle,
    /// Command class.
    pub kind: CommandKind,
    /// Rank within the channel.
    pub rank: usize,
    /// Flat bank index within the rank (ignored for `Ref`).
    pub bank: usize,
    /// Row (for `Act`; ignored otherwise).
    pub row: usize,
}

/// An append-only log of commands issued on one channel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommandLog {
    records: Vec<CommandRecord>,
}

impl CommandLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: CommandRecord) {
        self.records.push(record);
    }

    /// The recorded commands in issue order.
    #[must_use]
    pub fn records(&self) -> &[CommandRecord] {
        &self.records
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A violated timing constraint found by [`verify_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingViolation {
    /// The JEDEC parameter violated (e.g. "tRCD").
    pub parameter: &'static str,
    /// Index of the offending record in the log.
    pub record_index: usize,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violated at record {}: {}", self.parameter, self.record_index, self.detail)
    }
}

/// Checks every pairwise constraint in the log. Returns all violations
/// (empty = legal stream).
///
/// Verified constraints: tRCD (ACT→RD/WR), tRAS (ACT→PRE), tRP (PRE→ACT),
/// tRC (ACT→ACT same bank), tRRD_S/L (ACT→ACT same rank), tFAW (four-ACT
/// window), tCCD_S/L (column→column same rank), tRTP (RD→PRE), command
/// ordering (no column to a closed/mismatched row), and tRFC (rank blocked
/// after REF).
#[must_use]
pub fn verify_log(
    log: &CommandLog,
    timing: &Timing,
    banks_per_group: usize,
) -> Vec<TimingViolation> {
    let mut violations = Vec::new();
    let records = log.records();

    // Per-(rank, bank) state replay.
    use std::collections::HashMap;
    #[derive(Clone, Copy)]
    struct BankReplay {
        open_row: Option<usize>,
        last_act: Option<Cycle>,
        last_pre: Option<Cycle>,
        last_rd: Option<Cycle>,
        last_wr: Option<Cycle>,
    }
    let mut banks: HashMap<(usize, usize), BankReplay> = HashMap::new();
    let mut rank_acts: HashMap<usize, Vec<(Cycle, usize)>> = HashMap::new(); // (cycle, bank)
    let mut rank_cols: HashMap<usize, (Cycle, usize)> = HashMap::new(); // last col (cycle, bank)
    let mut rank_ref: HashMap<usize, Cycle> = HashMap::new(); // last REF cycle

    fn violation(parameter: &'static str, index: usize, detail: String) -> TimingViolation {
        TimingViolation { parameter, record_index: index, detail }
    }

    for (index, record) in records.iter().enumerate() {
        let key = (record.rank, record.bank);
        let state = banks.entry(key).or_insert(BankReplay {
            open_row: None,
            last_act: None,
            last_pre: None,
            last_rd: None,
            last_wr: None,
        });
        // Refresh blackout applies to every command on the rank.
        if record.kind != CommandKind::Ref {
            if let Some(&ref_at) = rank_ref.get(&record.rank) {
                if record.cycle < ref_at + timing.tRFC {
                    violations.push(violation(
                        "tRFC",
                        index,
                        format!("command at {} inside refresh from {ref_at}", record.cycle),
                    ));
                }
            }
        }
        match record.kind {
            CommandKind::Act => {
                if state.open_row.is_some() {
                    violations.push(violation(
                        "ordering",
                        index,
                        "ACT on a bank with an open row".into(),
                    ));
                }
                if let Some(last) = state.last_act {
                    if record.cycle < last + timing.tRC {
                        violations.push(violation(
                            "tRC",
                            index,
                            format!("{} < {} + {}", record.cycle, last, timing.tRC),
                        ));
                    }
                }
                if let Some(last) = state.last_pre {
                    if record.cycle < last + timing.tRP {
                        violations.push(violation(
                            "tRP",
                            index,
                            format!("{} < {} + {}", record.cycle, last, timing.tRP),
                        ));
                    }
                }
                let acts = rank_acts.entry(record.rank).or_default();
                if let Some(&(last, bank)) = acts.last() {
                    let gap = if bank / banks_per_group == record.bank / banks_per_group {
                        timing.tRRD_L
                    } else {
                        timing.tRRD_S
                    };
                    if record.cycle < last + gap {
                        violations.push(violation(
                            "tRRD",
                            index,
                            format!("{} < {} + {gap}", record.cycle, last),
                        ));
                    }
                }
                if acts.len() >= 4 {
                    let oldest = acts[acts.len() - 4].0;
                    if record.cycle < oldest + timing.tFAW {
                        violations.push(violation(
                            "tFAW",
                            index,
                            format!("{} < {} + {}", record.cycle, oldest, timing.tFAW),
                        ));
                    }
                }
                acts.push((record.cycle, record.bank));
                state.open_row = Some(record.row);
                state.last_act = Some(record.cycle);
            }
            CommandKind::Pre => {
                if let Some(last) = state.last_act {
                    if record.cycle < last + timing.tRAS {
                        violations.push(violation(
                            "tRAS",
                            index,
                            format!("{} < {} + {}", record.cycle, last, timing.tRAS),
                        ));
                    }
                }
                if let Some(last) = state.last_rd {
                    if record.cycle < last + timing.tRTP {
                        violations.push(violation(
                            "tRTP",
                            index,
                            format!("{} < {} + {}", record.cycle, last, timing.tRTP),
                        ));
                    }
                }
                if let Some(last) = state.last_wr {
                    let earliest = last + timing.tCWL + timing.tBL + timing.tWR;
                    if record.cycle < earliest {
                        violations.push(violation(
                            "tWR",
                            index,
                            format!("{} < {earliest}", record.cycle),
                        ));
                    }
                }
                state.open_row = None;
                state.last_pre = Some(record.cycle);
            }
            CommandKind::Rd | CommandKind::Wr => {
                if state.open_row.is_none() {
                    violations.push(violation(
                        "ordering",
                        index,
                        "column command to a closed bank".into(),
                    ));
                }
                if let Some(last) = state.last_act {
                    if record.cycle < last + timing.tRCD {
                        violations.push(violation(
                            "tRCD",
                            index,
                            format!("{} < {} + {}", record.cycle, last, timing.tRCD),
                        ));
                    }
                }
                if let Some(&(last, bank)) = rank_cols.get(&record.rank) {
                    let gap = if bank / banks_per_group == record.bank / banks_per_group {
                        timing.tCCD_L
                    } else {
                        timing.tCCD_S
                    };
                    if record.cycle < last + gap {
                        violations.push(violation(
                            "tCCD",
                            index,
                            format!("{} < {} + {gap}", record.cycle, last),
                        ));
                    }
                }
                rank_cols.insert(record.rank, (record.cycle, record.bank));
                if record.kind == CommandKind::Rd {
                    state.last_rd = Some(record.cycle);
                } else {
                    state.last_wr = Some(record.cycle);
                }
            }
            CommandKind::Ref => {
                rank_ref.insert(record.rank, record.cycle);
                // Refresh implies precharge-all: every open bank of the rank
                // must be precharge-legal, and closes.
                for ((rank, _), bank_state) in banks.iter_mut() {
                    if *rank != record.rank || bank_state.open_row.is_none() {
                        continue;
                    }
                    if let Some(last) = bank_state.last_act {
                        if record.cycle < last + timing.tRAS {
                            violations.push(TimingViolation {
                                parameter: "tRAS",
                                record_index: index,
                                detail: format!(
                                    "REF at {} closes a row activated at {last}",
                                    record.cycle
                                ),
                            });
                        }
                    }
                    bank_state.open_row = None;
                    bank_state.last_pre = Some(record.cycle);
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Timing {
        Timing::ddr4_2400()
    }

    fn record(cycle: Cycle, kind: CommandKind, bank: usize, row: usize) -> CommandRecord {
        CommandRecord { cycle, kind, rank: 0, bank, row }
    }

    #[test]
    fn legal_sequence_passes() {
        let t = timing();
        let mut log = CommandLog::new();
        log.push(record(0, CommandKind::Act, 0, 5));
        log.push(record(t.tRCD, CommandKind::Rd, 0, 5));
        log.push(record(t.tRCD + t.tRTP.max(t.tRAS - t.tRCD), CommandKind::Pre, 0, 0));
        assert!(verify_log(&log, &t, 4).is_empty());
    }

    #[test]
    fn early_read_violates_trcd() {
        let t = timing();
        let mut log = CommandLog::new();
        log.push(record(0, CommandKind::Act, 0, 5));
        log.push(record(t.tRCD - 1, CommandKind::Rd, 0, 5));
        let violations = verify_log(&log, &t, 4);
        assert!(violations.iter().any(|v| v.parameter == "tRCD"), "{violations:?}");
    }

    #[test]
    fn early_precharge_violates_tras() {
        let t = timing();
        let mut log = CommandLog::new();
        log.push(record(0, CommandKind::Act, 0, 5));
        log.push(record(t.tRAS - 1, CommandKind::Pre, 0, 0));
        assert!(verify_log(&log, &t, 4).iter().any(|v| v.parameter == "tRAS"));
    }

    #[test]
    fn five_fast_activations_violate_tfaw() {
        let t = timing();
        let mut log = CommandLog::new();
        for (i, at) in [0, 4, 8, 12, 16].into_iter().enumerate() {
            // Alternate bank groups so tRRD_S paces them.
            log.push(record(at, CommandKind::Act, i * 4 % 16, 1));
        }
        assert!(verify_log(&log, &t, 4).iter().any(|v| v.parameter == "tFAW"));
    }

    #[test]
    fn column_to_closed_bank_is_an_ordering_violation() {
        let t = timing();
        let mut log = CommandLog::new();
        log.push(record(100, CommandKind::Rd, 0, 0));
        assert!(verify_log(&log, &t, 4).iter().any(|v| v.parameter == "ordering"));
    }

    #[test]
    fn command_inside_refresh_blackout_is_flagged() {
        let t = timing();
        let mut log = CommandLog::new();
        log.push(CommandRecord { cycle: 0, kind: CommandKind::Ref, rank: 0, bank: 0, row: 0 });
        log.push(record(t.tRFC - 1, CommandKind::Act, 0, 1));
        assert!(verify_log(&log, &t, 4).iter().any(|v| v.parameter == "tRFC"));
    }

    #[test]
    fn display_names_the_parameter() {
        let violation =
            TimingViolation { parameter: "tRCD", record_index: 3, detail: "early".into() };
        assert_eq!(violation.to_string(), "tRCD violated at record 3: early");
    }
}
