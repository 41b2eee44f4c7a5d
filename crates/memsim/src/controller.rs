//! Per-channel FR-FCFS memory controller.
//!
//! The controller schedules *bursts*: each command-clock cycle it issues at
//! most one command on the channel command bus, for one 64-byte burst,
//! picked FR-FCFS:
//!
//! 1. the oldest burst whose row is already open and whose column command is
//!    legal now (the "first-ready" / row-hit-first part), else
//! 2. the oldest burst whose bank is idle and may be activated, else
//! 3. the oldest burst whose bank holds a conflicting row that may be
//!    precharged.
//!
//! Data beats of reads and writes reserve the shared [`DataBus`], which is
//! what serializes rank-parallel accesses on one channel.
//!
//! # Row runs
//!
//! The [`crate::MemorySystem`] hands a request to the controllers one *row
//! run* at a time ([`RowRun`]): consecutive bursts in one row of one bank,
//! with consecutive seqs (a 512 B vector is one run of eight bursts). The
//! controller queues a run as one entry and takes its bursts off its front
//! only. That loses nothing: the bursts of a run share bank, row, kind and
//! arrival, so they are legal on the same cycles, and every rule above
//! breaks ties by age: the oldest legal hit, the head-only ACT and PRE,
//! and strict FCFS's oldest arrived burst are always a run's front.
//!
//! # Scheduling window
//!
//! Only the [`SCHED_WINDOW`] globally oldest queued bursts are visible to
//! the scheduler, like a real controller's bounded transaction queue. Runs
//! are queued **per bank** in seq order, and once more in one seq-ordered
//! list of every queued run. The window's limit is the seq of the
//! `SCHED_WINDOW`-th oldest queued burst; it is kept up to date as bursts
//! come and go, and moves by one burst when one leaves. A run is in the
//! window while its front is. The banks holding at least one window run
//! form the *window banks*; no other bank can issue anything.
//!
//! # Cached next commands
//!
//! Each window bank caches its next legal commands: its next RD/WR (the
//! oldest row hit at the earliest cycle any of its hits can issue) and its
//! head burst's ACT or PRE, each with its earliest issue cycle, as two
//! packed keys, with a `BankCommand` holding the rest. An entry is recomputed only when something it reads has moved,
//! and whatever moved marks it stale:
//!
//! * the bank's own queue or row state: a run enters the window or a burst
//!   leaves, or a command, an adaptive close or an auto-precharge changes
//!   the bank (a burst that slides into the window behind its own run's
//!   front changes nothing the entry reads);
//! * its rank: every column command, ACT and refresh in the rank marks the
//!   rank's window banks (tCCD, tRRD, tFAW and the refresh block);
//! * the shared data bus: every column command marks every window bank when
//!   the NDP data path is off (with it on, each rank has its own bus,
//!   covered by the rank's mark);
//! * the clock: an older row hit whose cycle has come takes the column
//!   pick's place, so the entry holds only until that cycle.
//!
//! A selection pass recomputes the marked entries and those whose cycle
//! has come, then takes the minimum over every window bank's two
//! candidates, each packed into one integer key whose order is FR-FCFS
//! order. That yields the earliest cycle at which any command is legal and
//! the FR-FCFS pick on it: columns before ACTs before PREs, the oldest seq
//! within a class. [`ChannelController::tick`] issues that pick when its
//! cycle is now, [`ChannelController::next_event_cycle`] reports its cycle,
//! and [`ChannelController::drain`] jumps straight to it. An issued command
//! moves only its own bank, its rank and its data bus, so it costs one
//! pass plus a few bank recomputations.
//!
//! Under FR-FCFS the pass's cycle is exact: device state is static until
//! the next command, refresh or adaptive close, so the earliest legal
//! command issues on exactly that cycle. Strict FCFS applies its restriction
//! at selection (only the oldest *arrived* burst may issue), so its bound
//! stays conservative-early: the earliest legal command may belong to a
//! burst FCFS holds back, and the clock lands, issues nothing and moves on
//! (see DESIGN.md, "Time advance").
//!
//! Simplifications (documented in DESIGN.md): under the closed-page policy
//! the precharge after the last burst to a row does not consume a
//! command-bus slot.

use std::collections::VecDeque;

use crate::address::Location;
use crate::bank::{BankState, RowOutcome};
use crate::channel::DataBus;
use crate::config::{MemoryConfig, PagePolicy, SchedulerPolicy};
use crate::rank::Rank;
use crate::request::{AccessKind, RequestId};
use crate::stats::MemoryStats;
use crate::verify::{CommandKind, CommandLog, CommandRecord};
use crate::Cycle;

/// A row run of a request, as the system hands it to its channel's
/// controller: `len` consecutive bursts in one row of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRun {
    /// Owning request.
    pub id: RequestId,
    /// Index of the run's first burst within the request.
    pub burst_index: u32,
    /// Decoded coordinates of the run's first burst; the others follow it
    /// column by column.
    pub location: Location,
    /// Bursts in the run, at least 1.
    pub len: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Earliest cycle the run's bursts may be served.
    pub arrival: Cycle,
    /// Global submission order of the run's first burst, used for FCFS
    /// tie-breaking; burst `i` of the run has `seq + i`.
    pub seq: u64,
}

/// Outcome of one completed burst, reported back to the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstResult {
    /// Owning request.
    pub id: RequestId,
    /// Index of this burst within the request.
    pub burst_index: u32,
    /// Cycle the column command issued.
    pub issue_cycle: Cycle,
    /// Cycle the last data beat crossed the bus.
    pub finish_cycle: Cycle,
    /// How the burst met the row buffer.
    pub outcome: RowOutcome,
}

/// A row run waiting in its bank queue, from its first remaining burst
/// on. The queue fixes its channel, rank and bank; this keeps what
/// scheduling and completion still need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedRun {
    id: RequestId,
    /// Seq of the first remaining burst; the others follow.
    seq: u64,
    arrival: Cycle,
    row: usize,
    /// The run's number in the controller's seq-ordered list.
    number: u64,
    /// Index of the first remaining burst within its request.
    burst_index: u32,
    /// Bursts left, at least 1.
    len: u32,
    kind: AccessKind,
    /// An ACT was issued for the first remaining burst (a row miss).
    issued_act: bool,
    /// A PRE was issued for the first remaining burst (a row conflict).
    issued_pre: bool,
}

/// Scheduling-window size: only the oldest `SCHED_WINDOW` queued bursts are
/// considered for issue each cycle, like a real controller's bounded
/// transaction queue. Keeps per-cycle work O(window) for large backlogs.
pub const SCHED_WINDOW: usize = 48;

// Every window bank holds a window burst, so a slot bitmask of one word
// covers them all.
const _: () = assert!(SCHED_WINDOW <= u64::BITS as usize);

/// A command class, in FR-FCFS priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// RD or WR to an open row.
    Column,
    /// ACT for the head burst of an idle bank.
    Act,
    /// PRE for the head burst of a bank holding another row.
    Pre,
}

/// A queued run in global seq order: its remaining bursts are the seqs
/// `seq..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeqRun {
    seq: u64,
    end: u64,
    arrival: Cycle,
    /// Its bank queue.
    qi: u32,
}

/// What a window bank's cached next commands need besides their packed
/// keys (`window_keys`), valid while nothing they read has moved (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BankCommand {
    /// The bank queue this entry describes.
    qi: u32,
    /// Its rank.
    rank: u32,
    /// Queue position of the column pick's run.
    column_pos: u32,
    /// The first cycle on which an older row hit becomes legal and takes
    /// the column pick's place.
    valid_until: Cycle,
}

/// Packs a candidate `(cycle, class, seq)` into one key whose integer
/// order is FR-FCFS order: earliest cycle, then class, then oldest burst.
fn pack(at: Cycle, class: Class, seq: u64) -> u128 {
    debug_assert!(seq < 1 << 62, "seqs fit in 62 bits");
    (u128::from(at) << 64) | (u128::from(class as u8) << 62) | u128::from(seq)
}

/// A packed key's class and seq bits.
const CLASS_AND_SEQ: u128 = u128::MAX >> 64;

/// The key of a command a bank does not have: later than every real one.
const NO_COMMAND: u128 = u128::MAX;

/// A command chosen by the scheduler: window bank `slot` issues `class`
/// for burst `seq`, no earlier than cycle `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pick {
    at: Cycle,
    class: Class,
    seq: u64,
    slot: usize,
}

impl Pick {
    /// Window bank `slot`'s candidate with packed key `key`.
    fn unpack(key: u128, slot: usize) -> Self {
        let class = match (key >> 62) as u8 & 3 {
            0 => Class::Column,
            1 => Class::Act,
            _ => Class::Pre,
        };
        Self { at: (key >> 64) as Cycle, class, seq: key as u64 & ((1 << 62) - 1), slot }
    }
}

/// FR-FCFS controller for one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelController {
    config: MemoryConfig,
    ranks: Vec<Rank>,
    /// Shared channel bus (one entry), or one bus per rank when the
    /// configuration enables the NDP data path.
    buses: Vec<DataBus>,
    /// Per-bank run queues in submission (seq) order, indexed
    /// `rank * banks_per_rank + flat_bank`. Deques because the scheduler
    /// overwhelmingly takes bursts from the head run.
    bank_queues: Vec<VecDeque<QueuedRun>>,
    /// Every queued run in seq order, run number `n` at `n - first_run`.
    /// Appends go to the back (submission order is global seq order). Only
    /// window runs lose bursts, so every run past the window limit's is
    /// whole; a run that empties stays as a tombstone (`seq == end`) until
    /// it reaches the front.
    runs: VecDeque<SeqRun>,
    /// Number of the run at the front of `runs`.
    first_run: u64,
    /// Queued bursts.
    queued: usize,
    /// Seq of the `SCHED_WINDOW`-th oldest queued burst, the last one the
    /// scheduler sees (`u64::MAX` while fewer are queued).
    window_limit: u64,
    /// Number of the run holding `window_limit`.
    limit_run: u64,
    /// The bank queues holding at least one window run, each with its
    /// cached next commands (unordered: every selection is a min over
    /// unique seqs or cycles, so scan order is irrelevant). A bank's slot
    /// here is its bit in `stale` and `rank_slots`.
    window_banks: Vec<BankCommand>,
    /// Each window bank's two candidates as packed keys, slot for slot: all
    /// a selection pass reads.
    window_keys: Vec<[u128; 2]>,
    /// Per bank queue: its index in `window_banks`, or `u32::MAX`.
    window_bank_pos: Vec<u32>,
    /// Window banks whose cached commands the next pass recomputes, one bit
    /// per slot: set by whatever moved the bank, its rank or its bus.
    stale: u64,
    /// Per rank: the slots of its window banks.
    rank_slots: Vec<u64>,
    /// No cached entry's `valid_until` is earlier than this.
    expiry: Cycle,
    /// The cycle and result of the last selection pass, dropped whenever
    /// anything it read moves. `MemorySystem::run_until_idle` asks for the
    /// next event right after a tick that issued nothing, which then needs
    /// no second pass.
    last_pass: Option<(Cycle, Option<Pick>)>,
    /// Banks per rank, cached for queue indexing.
    banks_per_rank: usize,
    stats: MemoryStats,
    /// Per-rank cycle of the next due refresh (staggered across ranks).
    next_refresh: Vec<Cycle>,
    /// Per-rank cycle until which the rank is blocked by a refresh.
    refresh_until: Vec<Cycle>,
    /// Optional command log for independent timing verification.
    log: Option<CommandLog>,
    /// This controller's channel index (for fault injection).
    channel: usize,
}

impl ChannelController {
    /// A controller for one channel of `config`, all banks idle; channel
    /// index 0 (see [`ChannelController::with_channel`]).
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self::with_channel(config, 0)
    }

    /// A controller knowing its channel index (needed for per-rank fault
    /// injection).
    #[must_use]
    pub fn with_channel(config: MemoryConfig, channel: usize) -> Self {
        let ranks: Vec<Rank> =
            (0..config.topology.ranks_per_channel()).map(|_| Rank::new(&config.topology)).collect();
        let bus_count = if config.ndp_data_path { ranks.len() } else { 1 };
        let rank_count = ranks.len();
        let banks_per_rank = config.topology.banks_per_rank();
        let mut controller = Self {
            config,
            ranks,
            buses: vec![DataBus::new(); bus_count],
            bank_queues: (0..rank_count * banks_per_rank).map(|_| VecDeque::new()).collect(),
            runs: VecDeque::new(),
            first_run: 0,
            queued: 0,
            window_limit: u64::MAX,
            limit_run: 0,
            window_banks: Vec::new(),
            window_keys: Vec::new(),
            window_bank_pos: vec![u32::MAX; rank_count * banks_per_rank],
            stale: 0,
            rank_slots: vec![0; rank_count],
            expiry: Cycle::MAX,
            last_pass: None,
            banks_per_rank,
            stats: MemoryStats::new(),
            next_refresh: vec![0; rank_count],
            refresh_until: vec![0; rank_count],
            log: None,
            channel,
        };
        controller.stagger_refreshes();
        controller
    }

    /// Schedules each rank's first refresh, staggered so ranks do not all
    /// block at once.
    fn stagger_refreshes(&mut self) {
        let (interval, ranks) = (self.config.timing.tREFI, self.next_refresh.len() as Cycle);
        for (r, due) in self.next_refresh.iter_mut().enumerate() {
            *due = (r as Cycle + 1) * interval / ranks.max(1);
        }
    }

    /// Returns the controller to its freshly built state: idle banks,
    /// ranks and buses, nothing queued, zeroed counters and no command
    /// log. Every buffer keeps its capacity.
    pub fn reset(&mut self) {
        for rank in &mut self.ranks {
            rank.reset();
        }
        self.buses.fill(DataBus::new());
        for queue in &mut self.bank_queues {
            queue.clear();
        }
        self.runs.clear();
        self.first_run = 0;
        self.queued = 0;
        self.window_limit = u64::MAX;
        self.limit_run = 0;
        self.window_banks.clear();
        self.window_keys.clear();
        self.window_bank_pos.fill(u32::MAX);
        self.stale = 0;
        self.rank_slots.fill(0);
        self.expiry = Cycle::MAX;
        self.last_pass = None;
        self.stats.reset();
        self.stagger_refreshes();
        self.refresh_until.fill(0);
        self.log = None;
    }

    /// Extra read cycles if `rank` is the configured straggler.
    fn straggler_penalty(&self, rank: usize) -> u64 {
        match self.config.straggler {
            Some((channel, straggler_rank, penalty))
                if channel == self.channel && straggler_rank == rank =>
            {
                penalty
            }
            _ => 0,
        }
    }

    /// Starts recording every issued command (see [`crate::verify`]).
    pub fn enable_command_log(&mut self) {
        self.log = Some(CommandLog::new());
    }

    /// Takes the recorded log, leaving logging enabled with a fresh log.
    pub fn take_command_log(&mut self) -> Option<CommandLog> {
        self.log.replace(CommandLog::new())
    }

    /// Records a command if logging is enabled.
    fn record(&mut self, cycle: Cycle, kind: CommandKind, rank: usize, bank: usize, row: usize) {
        if let Some(log) = &mut self.log {
            log.push(CommandRecord { cycle, kind, rank, bank, row });
        }
    }

    /// Index of the data bus serving `rank`.
    fn bus_index(&self, rank: usize) -> usize {
        if self.config.ndp_data_path {
            rank
        } else {
            0
        }
    }

    /// Index into `bank_queues` for (`rank`, `flat_bank`).
    fn queue_index(&self, rank: usize, flat_bank: usize) -> usize {
        rank * self.banks_per_rank + flat_bank
    }

    /// Adds a row run to its bank's queue. Runs must be enqueued in
    /// increasing `seq` order (the system's global submission order).
    pub fn enqueue(&mut self, run: RowRun) {
        debug_assert!(run.len >= 1, "a row run holds at least one burst");
        let qi = self.queue_index(run.location.rank, run.location.flat_bank(&self.config.topology));
        debug_assert!(
            self.bank_queues[qi]
                .back()
                .is_none_or(|last| last.seq + u64::from(last.len) <= run.seq),
            "runs must arrive in seq order"
        );
        debug_assert!(self.runs.back().is_none_or(|last| last.end <= run.seq));
        let number = self.first_run + self.runs.len() as u64;
        self.runs.push_back(SeqRun {
            seq: run.seq,
            end: run.seq + u64::from(run.len),
            arrival: run.arrival,
            qi: qi as u32,
        });
        self.bank_queues[qi].push_back(QueuedRun {
            id: run.id,
            seq: run.seq,
            arrival: run.arrival,
            row: run.location.row,
            number,
            burst_index: run.burst_index,
            len: run.len,
            kind: run.kind,
            issued_act: false,
            issued_pre: false,
        });
        let before = self.queued;
        self.queued += run.len as usize;
        if before < SCHED_WINDOW {
            self.window_run_entered(qi);
            if self.queued >= SCHED_WINDOW {
                self.window_limit = run.seq + (SCHED_WINDOW - 1 - before) as u64;
                self.limit_run = number;
            }
        }
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queued as u64);
    }

    /// Takes the front burst of the run at `pos` of bank queue `qi`, a
    /// window run, and slides the next queued burst into the window.
    /// Returns the run as it stood, its front being the burst taken.
    fn take_front(&mut self, qi: usize, pos: usize) -> QueuedRun {
        let queue = &mut self.bank_queues[qi];
        let front = queue[pos];
        if front.len == 1 {
            queue.remove(pos);
        } else {
            let rest = &mut queue[pos];
            rest.seq += 1;
            rest.burst_index += 1;
            rest.len -= 1;
            rest.issued_act = false;
            rest.issued_pre = false;
        }
        let entry = &mut self.runs[(front.number - self.first_run) as usize];
        debug_assert_eq!(entry.seq, front.seq, "bursts leave a run from its front");
        entry.seq += 1;
        self.queued -= 1;
        let slid_in = self.advance_window_limit();
        while self.runs.front().is_some_and(|run| run.seq == run.end) {
            self.runs.pop_front();
            self.first_run += 1;
        }
        if self.bank_queues[qi].front().is_some_and(|head| head.seq <= self.window_limit) {
            self.bank_moved(qi);
        } else {
            self.window_bank_remove(qi as u32);
        }
        if let Some(slid_in) = slid_in {
            self.window_run_entered(slid_in);
        }
        front
    }

    /// Moves the window limit on after a window burst left, returning the
    /// bank queue of a run whose front slid into the window.
    fn advance_window_limit(&mut self) -> Option<usize> {
        if self.window_limit == u64::MAX {
            return None;
        }
        if self.queued < SCHED_WINDOW {
            self.window_limit = u64::MAX;
            return None;
        }
        // Runs past the limit's are whole, and one follows: a burst was
        // queued past the limit.
        let end = self.runs[(self.limit_run - self.first_run) as usize].end;
        if self.window_limit + 1 < end {
            // Behind its own run's front, which is already in the window.
            self.window_limit += 1;
            return None;
        }
        self.limit_run += 1;
        let next = self.runs[(self.limit_run - self.first_run) as usize];
        self.window_limit = next.seq;
        Some(next.qi as usize)
    }

    /// True when no bursts are waiting.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queued == 0
    }

    /// Number of queued bursts.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queued
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Zeroes the accumulated counters. Callers are responsible for only
    /// doing this on an idle controller — see
    /// [`crate::MemorySystem::reset_stats`] for the checked phase-boundary
    /// entry point.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Data-bus occupancy trackers (one, or one per rank under the NDP data
    /// path).
    #[must_use]
    pub fn buses(&self) -> &[DataBus] {
        &self.buses
    }

    /// A run's front entered the window in bank queue `qi`: adds the bank
    /// to the window banks, or marks its cached commands stale. Only
    /// window banks can legally issue anything: every issue rule requires
    /// a burst inside the window, and a bank whose oldest run is outside it
    /// has no such burst. Bursts of one read share one run, so the list is
    /// typically far smaller than the set of banks with queued runs.
    fn window_run_entered(&mut self, qi: usize) {
        if self.window_bank_pos[qi] == u32::MAX {
            let slot = self.window_banks.len();
            self.window_bank_pos[qi] = slot as u32;
            let rank = qi / self.banks_per_rank;
            let command =
                BankCommand { qi: qi as u32, rank: rank as u32, column_pos: 0, valid_until: 0 };
            self.window_banks.push(command);
            self.window_keys.push([NO_COMMAND; 2]);
            self.stale |= 1 << slot;
            self.rank_slots[rank] |= 1 << slot;
            self.last_pass = None;
        } else {
            self.bank_moved(qi);
        }
    }

    /// Drops bank queue `qi` from the window banks after its last window
    /// run left the window.
    fn window_bank_remove(&mut self, qi: u32) {
        let pos = self.window_bank_pos[qi as usize] as usize;
        self.window_bank_pos[qi as usize] = u32::MAX;
        let removed = self.window_banks.swap_remove(pos);
        self.window_keys.swap_remove(pos);
        self.rank_slots[removed.rank as usize] &= !(1 << pos);
        self.last_pass = None;
        // The last slot moves into `pos`, bits and all.
        let last = self.window_banks.len();
        let last_stale = self.stale >> last & 1;
        self.stale &= !(1 << pos | 1 << last);
        if let Some(moved) = self.window_banks.get(pos) {
            self.window_bank_pos[moved.qi as usize] = pos as u32;
            let slots = &mut self.rank_slots[moved.rank as usize];
            *slots = *slots & !(1 << last) | 1 << pos;
            self.stale |= last_stale << pos;
        }
    }

    /// Marks bank queue `qi`'s cached commands stale after its queue or row
    /// state changed (a no-op for banks outside the window, whose entry is
    /// built fresh when they enter it).
    fn bank_moved(&mut self, qi: usize) {
        let slot = self.window_bank_pos[qi];
        if slot != u32::MAX {
            self.stale |= 1 << slot;
        }
        self.last_pass = None;
    }

    /// Marks every cached command of `rank`'s banks stale after its
    /// timing, refresh block or (NDP) bus moved.
    fn rank_moved(&mut self, rank: usize) {
        self.stale |= self.rank_slots[rank];
        self.last_pass = None;
    }

    /// Recomputes bank queue `qi`'s next legal commands as of `now`, with
    /// their keys: the column pick's and the head burst's ACT or PRE.
    ///
    /// The column pick is the oldest row hit whose earliest issue cycle is
    /// the bank's minimum; `valid_until` is the earliest cycle of any older
    /// hit, at which that hit would take the pick's place. A column command
    /// must issue exactly tCL/tCWL before its data phase starts on the bus,
    /// so the bus's earliest start for this rank bounds it too. The head
    /// burst needs an ACT when the bank is idle and a PRE when another row
    /// is open; ACT and PRE only ever go to the head of a bank queue.
    ///
    /// Kept out of line: it runs only for the entries a pass refreshes.
    #[inline(never)]
    fn bank_command(&self, qi: usize, rank_index: usize, now: Cycle) -> (BankCommand, [u128; 2]) {
        let timing = &self.config.timing;
        let flat = qi - rank_index * self.banks_per_rank;
        let rank = &self.ranks[rank_index];
        let bank = rank.bank(flat);
        let queue = &self.bank_queues[qi];
        let head = &queue[0];
        let refresh_floor = if self.config.refresh { self.refresh_until[rank_index] } else { 0 };
        let mut command = BankCommand {
            qi: qi as u32,
            rank: rank_index as u32,
            column_pos: 0,
            valid_until: Cycle::MAX,
        };
        let open_row = match bank.state() {
            BankState::Idle => {
                let at = bank
                    .act_ready(now)
                    .max(rank.act_ready(now, flat, timing))
                    .max(head.arrival)
                    .max(refresh_floor);
                return (command, [NO_COMMAND, pack(at, Class::Act, head.seq)]);
            }
            BankState::Active(open_row) => open_row,
        };
        let head_key = if head.row == open_row {
            NO_COMMAND
        } else {
            let at = bank.pre_ready(now).max(head.arrival).max(refresh_floor);
            pack(at, Class::Pre, head.seq)
        };
        let hit_base =
            bank.column_ready(now).max(rank.column_ready(now, flat, timing)).max(refresh_floor);
        let bus_start = self.buses[self.bus_index(rank_index)].earliest_start(rank_index, timing);
        let read_floor = hit_base.max(bus_start.saturating_sub(timing.tCL));
        let write_floor = hit_base.max(bus_start.saturating_sub(timing.tCWL));
        // No hit in this bank can issue before `floor`.
        let floor = read_floor.min(write_floor);
        // A run's bursts are legal on the same cycles, so its front, the
        // oldest, stands for all of them.
        let (mut column_at, mut column_seq) = (Cycle::MAX, 0);
        for (pos, run) in queue.iter().enumerate() {
            if run.seq > self.window_limit {
                break;
            }
            if run.row != open_row {
                continue;
            }
            let at = match run.kind {
                AccessKind::Read => read_floor,
                AccessKind::Write => write_floor,
            }
            .max(run.arrival);
            if at < column_at {
                // Every older hit is later than this one; the earliest of
                // them is the previous pick.
                command.valid_until = column_at;
                (column_at, column_seq) = (at, run.seq);
                command.column_pos = pos as u32;
                if at == floor {
                    break; // no younger hit can issue earlier
                }
            }
        }
        (command, [pack(column_at, Class::Column, column_seq), head_key])
    }

    /// Recomputes window bank `slot`'s cached commands as of `now`.
    fn recompute(&mut self, slot: usize, now: Cycle) {
        let BankCommand { qi, rank, .. } = self.window_banks[slot];
        let (command, keys) = self.bank_command(qi as usize, rank as usize, now);
        self.window_banks[slot] = command;
        self.window_keys[slot] = keys;
        self.expiry = self.expiry.min(command.valid_until);
    }

    /// Recomputes every cached command that something moved or whose
    /// `valid_until` has come, and no other.
    fn refresh(&mut self, now: Cycle) {
        if now >= self.expiry {
            self.expiry = Cycle::MAX;
            for (slot, command) in self.window_banks.iter().enumerate() {
                if now >= command.valid_until {
                    self.stale |= 1 << slot;
                } else {
                    self.expiry = self.expiry.min(command.valid_until);
                }
            }
        }
        let live = u64::MAX.checked_shr(u64::BITS - self.window_banks.len() as u32).unwrap_or(0);
        let mut stale = self.stale & live;
        self.stale = 0;
        while stale != 0 {
            self.recompute(stale.trailing_zeros() as usize, now);
            stale &= stale - 1;
        }
    }

    /// The FR-FCFS pick at the earliest cycle `>= now` on which any window
    /// bank has a legal command, assuming nothing else moves first; `None`
    /// only when nothing is queued. The pass is a min over the packed keys,
    /// each candidate's cycle raised to `now`.
    fn select(&mut self, now: Cycle) -> Option<Pick> {
        self.refresh(now);
        let floor = u128::from(now) << 64;
        let (mut best, mut best_slot) = (u128::MAX, 0);
        for (slot, keys) in self.window_keys.iter().enumerate() {
            for &key in keys {
                let key = key.max(floor | (key & CLASS_AND_SEQ));
                if key < best {
                    (best, best_slot) = (key, slot);
                }
            }
        }
        // A window bank always has a candidate: its head hits the open row
        // or needs an ACT or PRE.
        let pick = (!self.window_keys.is_empty()).then(|| Pick::unpack(best, best_slot));
        self.last_pass = Some((now, pick));
        pick
    }

    /// The strict-FCFS pick on cycle `now`: the oldest *arrived* burst's
    /// command, if it lies inside the window and is legal now.
    fn fcfs_pick(&mut self, now: Cycle) -> Option<Pick> {
        let oldest = *self.runs.iter().find(|run| run.seq < run.end && run.arrival <= now)?;
        let slot = self.window_bank_pos[oldest.qi as usize];
        if slot == u32::MAX {
            return None;
        }
        let slot = slot as usize;
        if self.stale >> slot & 1 == 1 || now >= self.window_banks[slot].valid_until {
            self.stale &= !(1 << slot);
            self.recompute(slot, now);
        }
        // Any older hit in this bank has not arrived, so when the oldest
        // arrived burst is a legal hit it is the bank's column pick.
        self.window_keys[slot]
            .map(|key| Pick::unpack(key, slot))
            .into_iter()
            .find(|pick| pick.seq == oldest.seq && pick.at <= now)
            .map(|pick| Pick { at: now, ..pick })
    }

    /// Advances one command-clock cycle, issuing at most one command.
    ///
    /// Completed bursts are appended to `out` (their `finish_cycle` may lie
    /// in the future relative to `now`; the data is in flight).
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<BurstResult>) {
        if self.config.refresh {
            self.service_refreshes(now);
        }
        if let PagePolicy::Adaptive { timeout } = self.config.page_policy {
            self.service_adaptive_closes(now, timeout);
        }
        let pick = match self.config.scheduler {
            SchedulerPolicy::FrFcfs => self.select(now).filter(|pick| pick.at == now),
            SchedulerPolicy::Fcfs => self.fcfs_pick(now),
        };
        if let Some(pick) = pick {
            self.issue(pick, now, out);
        }
    }

    /// Drains this controller's queue to empty on a private clock starting
    /// at `start`, jumping from command to command exactly like
    /// [`crate::MemorySystem::run_until_idle`]. Returns the local cycle
    /// after the last command issued plus the cycles never ticked.
    ///
    /// Only valid while channels are decoupled: with periodic refresh off
    /// and a non-adaptive page policy, every issue decision is a function
    /// of this controller's own state and the cycle number, so draining
    /// channels one at a time issues every command on exactly the same
    /// cycle as ticking all channels on one clock (the command digests pin
    /// this).
    pub fn drain(&mut self, start: Cycle, out: &mut Vec<BurstResult>) -> (Cycle, u64) {
        debug_assert!(
            !self.config.refresh && !matches!(self.config.page_policy, PagePolicy::Adaptive { .. }),
            "drain requires decoupled channels (no refresh, non-adaptive page policy)"
        );
        let mut now = start;
        let mut skipped = 0;
        // Nothing can issue before the selected cycle, so every cycle in
        // between is dead. Under FR-FCFS the selected command is exactly
        // the one a tick there issues; strict FCFS may hold it back.
        while let Some(next) = self.select(now) {
            skipped += next.at - now;
            now = next.at;
            let pick = match self.config.scheduler {
                SchedulerPolicy::FrFcfs => Some(next),
                SchedulerPolicy::Fcfs => self.fcfs_pick(now),
            };
            if let Some(pick) = pick {
                self.issue(pick, now, out);
            }
            now += 1;
        }
        (now, skipped)
    }

    /// Issues `pick` on cycle `now`.
    fn issue(&mut self, pick: Pick, now: Cycle, out: &mut Vec<BurstResult>) {
        let command = self.window_banks[pick.slot];
        let (qi, rank) = (command.qi as usize, command.rank as usize);
        match pick.class {
            Class::Column => self.issue_column(qi, rank, command.column_pos as usize, now, out),
            Class::Act => self.issue_act(qi, rank, now),
            Class::Pre => self.issue_pre(qi, rank, now),
        }
    }

    /// Fires any due refresh: close the rank's banks and block it for tRFC.
    ///
    /// A refresh is deferred while any open row cannot legally precharge
    /// yet (tRAS/tRTP/tWR), exactly as a real controller holds REF behind
    /// the precharge-all.
    fn service_refreshes(&mut self, now: Cycle) {
        let timing = self.config.timing;
        for rank_index in 0..self.ranks.len() {
            if now >= self.next_refresh[rank_index] && now >= self.refresh_until[rank_index] {
                let all_precharge_ready = (0..self.ranks[rank_index].bank_count()).all(|bank| {
                    let bank = self.ranks[rank_index].bank(bank);
                    matches!(bank.state(), BankState::Idle) || bank.pre_ready(now) <= now
                });
                if !all_precharge_ready {
                    continue;
                }
                let rank = &mut self.ranks[rank_index];
                for bank in 0..rank.bank_count() {
                    rank.bank_mut(bank).force_precharge(now);
                }
                self.refresh_until[rank_index] = now + timing.tRFC;
                // Allow drift instead of cascading catch-up refreshes.
                self.next_refresh[rank_index] = now + timing.tREFI;
                self.rank_moved(rank_index);
                self.record(now, CommandKind::Ref, rank_index, 0, 0);
                self.stats.refreshes += 1;
            }
        }
    }

    /// Speculatively closes rows idle past the adaptive timeout with no
    /// queued access (free of command-bus cost, like the closed-page
    /// auto-precharge — see the module docs).
    fn service_adaptive_closes(&mut self, now: Cycle, timeout: u64) {
        let timing = self.config.timing;
        for rank_index in 0..self.ranks.len() {
            for flat in 0..self.ranks[rank_index].bank_count() {
                let bank = self.ranks[rank_index].bank(flat);
                let BankState::Active(open_row) = bank.state() else { continue };
                // Idle long enough? pre_ready is the last activity horizon.
                if now < bank.pre_ready(0).saturating_add(timeout) {
                    continue;
                }
                let qi = self.queue_index(rank_index, flat);
                let wanted = self.bank_queues[qi].iter().any(|job| job.row == open_row);
                if wanted {
                    continue;
                }
                let at = self.ranks[rank_index].bank(flat).pre_ready(now);
                self.record(at, CommandKind::Pre, rank_index, flat, 0);
                self.ranks[rank_index].bank_mut(flat).precharge(at, &timing);
                self.bank_moved(qi);
                self.stats.precharges += 1;
            }
        }
    }

    /// The earliest cycle `>= now` at which this controller could do
    /// anything observable: issue a command for a queued burst, fire a
    /// refresh, or speculatively close a row under the adaptive policy.
    ///
    /// Takes `&mut self` because the scheduler pass behind the first term
    /// refreshes stale cached bank commands. Used by
    /// [`crate::MemorySystem::run_until_idle`] to fast-forward the clock
    /// over dead cycles. The bound is never late: every term is exact while
    /// device state is static, and any state change before the reported
    /// cycle is itself an earlier event. Under FR-FCFS the command term is
    /// exact; under strict FCFS it is conservative-early (the earliest legal
    /// command may belong to a burst FCFS holds back). See DESIGN.md, "Time
    /// advance".
    #[must_use]
    pub fn next_event_cycle(&mut self, now: Cycle) -> Option<Cycle> {
        // (1) The scheduler's next command. With nothing moved since the
        // last pass, that pass's pick still stands until its cycle.
        let pick = match self.last_pass {
            Some((pass_now, pick)) if pass_now <= now && pick.is_none_or(|pick| now <= pick.at) => {
                pick
            }
            _ => self.select(now),
        };
        let mut best = pick.map_or(Cycle::MAX, |pick| pick.at);
        // (2) Refresh fire times: a refresh is observable (Ref record, rank
        // blocked for tRFC) even when no burst is queued, and it is held
        // behind the latest open row's precharge horizon. Open rows can only
        // hold a refresh later, so a rank due no earlier than `best` needs no
        // scan.
        if self.config.refresh {
            for rank_index in 0..self.ranks.len() {
                let rank = &self.ranks[rank_index];
                let mut fire =
                    self.next_refresh[rank_index].max(self.refresh_until[rank_index]).max(now);
                if fire >= best {
                    continue;
                }
                for flat in 0..rank.bank_count() {
                    let bank = rank.bank(flat);
                    if matches!(bank.state(), BankState::Active(_)) {
                        fire = fire.max(bank.pre_ready(now));
                    }
                }
                best = best.min(fire);
            }
        }
        // (3) Adaptive speculative closes of unwanted open rows.
        if let PagePolicy::Adaptive { timeout } = self.config.page_policy {
            for rank_index in 0..self.ranks.len() {
                for flat in 0..self.ranks[rank_index].bank_count() {
                    let bank = self.ranks[rank_index].bank(flat);
                    let BankState::Active(open_row) = bank.state() else { continue };
                    let qi = self.queue_index(rank_index, flat);
                    if self.bank_queues[qi].iter().any(|job| job.row == open_row) {
                        continue;
                    }
                    best = best.min(bank.pre_ready(0).saturating_add(timeout).max(now));
                }
            }
        }
        (best != Cycle::MAX).then_some(best)
    }

    /// Issues the RD/WR for the burst at `pos` of bank queue `qi`, a bank
    /// of `rank`.
    fn issue_column(
        &mut self,
        qi: usize,
        rank_index: usize,
        pos: usize,
        now: Cycle,
        out: &mut Vec<BurstResult>,
    ) {
        let timing = self.config.timing;
        let burst = self.take_front(qi, pos);
        let flat = qi - rank_index * self.banks_per_rank;
        let kind = match burst.kind {
            AccessKind::Read => CommandKind::Rd,
            AccessKind::Write => CommandKind::Wr,
        };
        self.record(now, kind, rank_index, flat, burst.row);
        let rank = &mut self.ranks[rank_index];
        let finish = match burst.kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                rank.bank_mut(flat).read(now, &timing)
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                rank.bank_mut(flat).write(now, &timing)
            }
        };
        rank.record_column(now, flat);
        let finish = finish + self.straggler_penalty(rank_index);
        let data_start = finish - timing.tBL;
        let bus_index = self.bus_index(rank_index);
        self.buses[bus_index].reserve(data_start, timing.tBL, rank_index);
        self.rank_moved(rank_index);
        if !self.config.ndp_data_path {
            // The shared bus moved every window bank's column floor.
            self.stale = u64::MAX;
        }
        self.stats.bytes_transferred += self.config.topology.burst_bytes as u64;
        let outcome = if burst.issued_pre {
            RowOutcome::Conflict
        } else if burst.issued_act {
            RowOutcome::Miss
        } else {
            RowOutcome::Hit
        };
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        self.maybe_auto_precharge(qi, rank_index, burst.row, finish);
        out.push(BurstResult {
            id: burst.id,
            burst_index: burst.burst_index,
            issue_cycle: now,
            finish_cycle: finish,
            outcome,
        });
    }

    /// Activates the row the head burst of bank queue `qi`, a bank of
    /// `rank`, needs.
    fn issue_act(&mut self, qi: usize, rank_index: usize, now: Cycle) {
        let timing = self.config.timing;
        let flat = qi - rank_index * self.banks_per_rank;
        let head = &mut self.bank_queues[qi][0];
        head.issued_act = true;
        let row = head.row;
        self.record(now, CommandKind::Act, rank_index, flat, row);
        let rank = &mut self.ranks[rank_index];
        rank.bank_mut(flat).activate(now, row, &timing);
        rank.record_act(now, flat);
        self.bank_moved(qi);
        self.rank_moved(rank_index);
        self.stats.activations += 1;
    }

    /// Precharges bank queue `qi`'s bank, a bank of `rank` whose open row
    /// blocks its head burst.
    fn issue_pre(&mut self, qi: usize, rank_index: usize, now: Cycle) {
        let timing = self.config.timing;
        let flat = qi - rank_index * self.banks_per_rank;
        self.bank_queues[qi][0].issued_pre = true;
        self.record(now, CommandKind::Pre, rank_index, flat, 0);
        self.ranks[rank_index].bank_mut(flat).precharge(now, &timing);
        self.bank_moved(qi);
        self.stats.precharges += 1;
    }

    /// Under the closed-page policy, precharges bank queue `qi`'s bank after
    /// the last queued burst to `row` (free of command-bus cost — see module
    /// docs).
    fn maybe_auto_precharge(&mut self, qi: usize, rank_index: usize, row: usize, data_end: Cycle) {
        if self.config.page_policy != PagePolicy::Closed {
            return;
        }
        if self.bank_queues[qi].iter().any(|other| other.row == row) {
            return;
        }
        let timing = self.config.timing;
        let flat = qi - rank_index * self.banks_per_rank;
        let bank = self.ranks[rank_index].bank_mut(flat);
        let at = bank.pre_ready(data_end);
        bank.precharge(at, &timing);
        self.bank_moved(qi);
        self.record(at, CommandKind::Pre, rank_index, flat, 0);
        self.stats.precharges += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressMapping;
    use crate::request::Request;

    fn controller(policy: PagePolicy) -> ChannelController {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.page_policy = policy;
        ChannelController::new(config)
    }

    fn job(seq: u64, location: Location, kind: AccessKind) -> RowRun {
        RowRun { id: RequestId(seq), burst_index: 0, location, len: 1, kind, arrival: 0, seq }
    }

    fn run_to_idle(ctrl: &mut ChannelController) -> Vec<BurstResult> {
        let mut out = Vec::new();
        let mut now = 0;
        while !ctrl.is_idle() {
            ctrl.tick(now, &mut out);
            now += 1;
            assert!(now < 1_000_000, "controller livelock");
        }
        out
    }

    #[test]
    fn single_read_miss_takes_trcd_plus_tcl_plus_tbl() {
        let mut ctrl = controller(PagePolicy::Open);
        let loc = Location { row: 5, ..Location::default() };
        ctrl.enqueue(job(0, loc, AccessKind::Read));
        let results = run_to_idle(&mut ctrl);
        let t = crate::config::Timing::ddr4_2400();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].outcome, RowOutcome::Miss);
        assert_eq!(results[0].finish_cycle, t.tRCD + t.tCL + t.tBL);
    }

    #[test]
    fn second_read_to_same_row_is_a_hit() {
        let mut ctrl = controller(PagePolicy::Open);
        let loc = Location { row: 5, ..Location::default() };
        ctrl.enqueue(job(0, loc, AccessKind::Read));
        ctrl.enqueue(job(1, Location { column: 1, ..loc }, AccessKind::Read));
        let results = run_to_idle(&mut ctrl);
        assert_eq!(results[1].outcome, RowOutcome::Hit);
        assert_eq!(ctrl.stats().row_hits, 1);
        assert_eq!(ctrl.stats().row_misses, 1);
    }

    #[test]
    fn conflicting_row_forces_precharge() {
        let mut ctrl = controller(PagePolicy::Open);
        let bank = Location::default();
        ctrl.enqueue(job(0, Location { row: 1, ..bank }, AccessKind::Read));
        ctrl.enqueue(job(1, Location { row: 2, ..bank }, AccessKind::Read));
        let results = run_to_idle(&mut ctrl);
        assert_eq!(results[1].outcome, RowOutcome::Conflict);
        assert_eq!(ctrl.stats().precharges, 1);
        assert_eq!(ctrl.stats().activations, 2);
    }

    #[test]
    fn closed_page_precharges_after_last_burst_to_row() {
        let mut ctrl = controller(PagePolicy::Closed);
        let loc = Location { row: 9, ..Location::default() };
        ctrl.enqueue(job(0, loc, AccessKind::Read));
        let _ = run_to_idle(&mut ctrl);
        assert_eq!(ctrl.stats().precharges, 1);
        // A later access to the same row misses (row was closed).
        ctrl.enqueue(job(1, Location { column: 3, ..loc }, AccessKind::Read));
        let mut out = Vec::new();
        let mut now = 200;
        while !ctrl.is_idle() {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        assert_eq!(out[0].outcome, RowOutcome::Miss);
    }

    #[test]
    fn rank_parallel_reads_overlap() {
        // Two reads to different ranks finish much sooner than 2× a single
        // read, because only their data beats serialize on the bus.
        let mut ctrl = controller(PagePolicy::Open);
        let t = crate::config::Timing::ddr4_2400();
        ctrl.enqueue(job(0, Location { rank: 0, row: 1, ..Location::default() }, AccessKind::Read));
        ctrl.enqueue(job(1, Location { rank: 1, row: 2, ..Location::default() }, AccessKind::Read));
        let results = run_to_idle(&mut ctrl);
        let last = results.iter().map(|r| r.finish_cycle).max().unwrap();
        let single = t.tRCD + t.tCL + t.tBL;
        assert!(last < 2 * single, "no overlap: last={last}, single={single}");
    }

    #[test]
    fn fr_fcfs_prefers_row_hit_over_older_conflict() {
        let mut ctrl = controller(PagePolicy::Open);
        let bank0 = Location::default();
        // Open row 1 on bank 0.
        ctrl.enqueue(job(0, Location { row: 1, ..bank0 }, AccessKind::Read));
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        // Older burst conflicts (row 2, bank 0); younger hits (row 1).
        ctrl.enqueue(RowRun {
            arrival: now,
            ..job(1, Location { row: 2, ..bank0 }, AccessKind::Read)
        });
        ctrl.enqueue(RowRun {
            arrival: now,
            ..job(2, Location { row: 1, column: 7, ..bank0 }, AccessKind::Read)
        });
        let results = run_to_idle(&mut ctrl);
        let order: Vec<u64> = results.iter().map(|r| r.id.0).collect();
        assert_eq!(order, vec![2, 1], "row hit should bypass older conflict");
    }

    #[test]
    fn writes_are_counted_and_complete() {
        let mut ctrl = controller(PagePolicy::Open);
        ctrl.enqueue(job(0, Location { row: 3, ..Location::default() }, AccessKind::Write));
        let results = run_to_idle(&mut ctrl);
        assert_eq!(results.len(), 1);
        assert_eq!(ctrl.stats().writes, 1);
        assert_eq!(ctrl.stats().reads, 0);
    }

    #[test]
    fn adaptive_policy_closes_idle_rows_but_keeps_hot_ones() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.page_policy = PagePolicy::Adaptive { timeout: 100 };
        let mut ctrl = ChannelController::new(config);
        let loc = Location { row: 9, ..Location::default() };
        ctrl.enqueue(job(0, loc, AccessKind::Read));
        let _ = run_to_idle(&mut ctrl);
        // Immediately after: row still open (within timeout).
        let t = config.timing;
        let mut out = Vec::new();
        ctrl.enqueue(RowRun {
            arrival: 60,
            ..job(1, Location { column: 1, ..loc }, AccessKind::Read)
        });
        let mut now = 60;
        while !ctrl.is_idle() {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        assert_eq!(out[0].outcome, RowOutcome::Hit, "hot row stays open");
        // Far beyond the timeout: an idle tick closes it, so a later access
        // to the same row misses.
        for idle in 0..(t.tRAS + 300) {
            ctrl.tick(now + idle, &mut out);
        }
        let late = now + t.tRAS + 400;
        ctrl.enqueue(RowRun {
            arrival: late,
            ..job(2, Location { column: 2, ..loc }, AccessKind::Read)
        });
        let mut results = Vec::new();
        let mut cycle = late;
        while !ctrl.is_idle() {
            ctrl.tick(cycle, &mut results);
            cycle += 1;
        }
        assert_eq!(results[0].outcome, RowOutcome::Miss, "idle row was closed");
    }

    #[test]
    fn fcfs_never_bypasses_the_oldest_request() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.scheduler = crate::config::SchedulerPolicy::Fcfs;
        let mut ctrl = ChannelController::new(config);
        let bank0 = Location::default();
        // Open row 1 on bank 0.
        ctrl.enqueue(job(0, Location { row: 1, ..bank0 }, AccessKind::Read));
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        // Older conflicting burst, younger row hit: FCFS must serve the
        // conflict first (contrast with the FR-FCFS test above).
        ctrl.enqueue(RowRun {
            arrival: now,
            ..job(1, Location { row: 2, ..bank0 }, AccessKind::Read)
        });
        ctrl.enqueue(RowRun {
            arrival: now,
            ..job(2, Location { row: 1, column: 7, ..bank0 }, AccessKind::Read)
        });
        let results = run_to_idle(&mut ctrl);
        let order: Vec<u64> = results.iter().map(|r| r.id.0).collect();
        assert_eq!(order, vec![1, 2], "FCFS preserves age order");
    }

    #[test]
    fn refresh_blocks_the_rank_and_is_counted() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.refresh = true;
        let mut ctrl = ChannelController::new(config);
        let t = config.timing;
        // A burst arriving exactly when rank 0's first refresh is due must
        // wait out tRFC.
        let due = t.tREFI / config.topology.ranks_per_channel() as u64;
        ctrl.enqueue(RowRun {
            arrival: due,
            ..job(0, Location { row: 5, ..Location::default() }, AccessKind::Read)
        });
        let mut out = Vec::new();
        let mut now = due;
        while out.is_empty() {
            ctrl.tick(now, &mut out);
            now += 1;
            assert!(now < due + 10 * t.tRFC, "livelock");
        }
        assert!(ctrl.stats().refreshes >= 1);
        // The first command could not issue before the refresh finished.
        assert!(out[0].issue_cycle >= due + t.tRFC, "{} < {}", out[0].issue_cycle, due + t.tRFC);
    }

    #[test]
    fn refresh_disabled_never_fires() {
        let mut ctrl = controller(PagePolicy::Open);
        ctrl.enqueue(job(0, Location::default(), AccessKind::Read));
        let _ = run_to_idle(&mut ctrl);
        assert_eq!(ctrl.stats().refreshes, 0);
    }

    #[test]
    fn request_helper_burst_count_matches_controller_use() {
        // Sanity link between Request::bursts and mapping granularity.
        let config = MemoryConfig::ddr4_2400_4ch();
        let req = Request::read(0, 512);
        assert_eq!(req.bursts(config.topology.burst_bytes), 8);
        let _ = AddressMapping::RowRankBankColumn;
    }

    #[test]
    fn next_event_cycle_is_exact_for_a_future_arrival() {
        let mut ctrl = controller(PagePolicy::Open);
        ctrl.enqueue(RowRun {
            arrival: 777,
            ..job(0, Location { row: 5, ..Location::default() }, AccessKind::Read)
        });
        assert_eq!(ctrl.next_event_cycle(0), Some(777));
        assert_eq!(ctrl.next_event_cycle(800), Some(800));
    }

    #[test]
    fn next_event_cycle_reports_refresh_on_an_empty_queue() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.refresh = true;
        let mut ctrl = ChannelController::new(config);
        let first = ctrl.next_event_cycle(0).expect("refresh event");
        let stagger = config.timing.tREFI / config.topology.ranks_per_channel() as u64;
        assert_eq!(first, stagger, "first staggered refresh");
    }

    /// Ticks from `start` until idle, returning the issued bursts' ids in
    /// issue order.
    fn issue_order(ctrl: &mut ChannelController, start: Cycle) -> Vec<u64> {
        let mut out = Vec::new();
        let mut now = start;
        while !ctrl.is_idle() {
            ctrl.tick(now, &mut out);
            now += 1;
            assert!(now < start + 100_000, "controller livelock");
        }
        out.iter().map(|result| result.id.0).collect()
    }

    /// A controller with NDP data paths whose bank 0 has row 1 open on
    /// ranks `0..ranks`, idle from cycle 1000 on.
    fn rows_open_on_ranks(ranks: usize) -> ChannelController {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.ndp_data_path = true;
        let mut ctrl = ChannelController::new(config);
        for rank in 0..ranks {
            ctrl.enqueue(job(
                rank as u64,
                Location { rank, row: 1, ..Location::default() },
                AccessKind::Read,
            ));
        }
        let _ = run_to_idle(&mut ctrl);
        ctrl
    }

    #[test]
    fn an_older_hit_displaces_a_cached_pick_once_it_arrives() {
        // Rank 0's younger hit (8) is legal at once, its older hit (7) only
        // three cycles later. Older hits on ranks 1-3 win the first three
        // cycles without touching rank 0, so the cached pick must give way
        // to 7 exactly when it arrives.
        let mut ctrl = rows_open_on_ranks(4);
        let at = |rank, seq, arrival| RowRun {
            arrival,
            ..job(
                seq,
                Location { rank, row: 1, column: seq as usize, ..Location::default() },
                AccessKind::Read,
            )
        };
        for (rank, seq, arrival) in
            [(1, 4, 1000), (2, 5, 1000), (3, 6, 1000), (0, 7, 1003), (0, 8, 1000)]
        {
            ctrl.enqueue(at(rank, seq, arrival));
        }
        assert_eq!(issue_order(&mut ctrl, 1000), vec![4, 5, 6, 7, 8]);
    }

    #[test]
    fn a_hit_joining_a_window_bank_bypasses_its_pending_precharge() {
        // Bank 0 holds row 1; its head burst wants row 2 from cycle 1001.
        // A row-1 hit queued behind it at 1001 must issue before the PRE.
        let mut ctrl = rows_open_on_ranks(1);
        ctrl.enqueue(RowRun {
            arrival: 1001,
            ..job(1, Location { row: 2, ..Location::default() }, AccessKind::Read)
        });
        let mut out = Vec::new();
        ctrl.tick(1000, &mut out);
        ctrl.enqueue(RowRun {
            arrival: 1001,
            ..job(2, Location { row: 1, column: 5, ..Location::default() }, AccessKind::Read)
        });
        let mut order = issue_order(&mut ctrl, 1001);
        order.splice(0..0, out.iter().map(|result| result.id.0));
        assert_eq!(order, vec![2, 1]);
        assert_eq!(ctrl.stats().row_hits, 1, "the joining burst hit the open row");
    }
}
