//! Pluggable memory timing models: the cycle-accurate reference and a
//! fast-functional analytic model.
//!
//! [`AnyMemory`] is the submit/drain/completion surface that the gather
//! pipeline drives, over two implementations:
//!
//! * [`crate::MemorySystem`] — the cycle-accurate, command-level simulator
//!   (unchanged; still the calibrated reference), and
//! * [`FastFunctionalMemory`] — an analytic model that skips per-command
//!   DRAM state entirely and prices each read **eagerly at submit time**
//!   from the address stream: per-bank row-buffer hit/miss/conflict runs,
//!   bank and data-bus pacing ceilings, an optional straggler-rank penalty,
//!   and refresh as a bandwidth derate factor.
//!
//! The fast model keeps *functional* behaviour identical (every request
//! completes, burst counts and byte counts match the cycle model exactly)
//! while timing is approximate: it ignores FR-FCFS reordering, tFAW/tRRD
//! activation pacing and bus turnaround, which is precisely the divergence
//! the `fafnir-serve` calibration harness measures and gates. Selection is
//! explicit via [`MemoryConfig::model`] — never a silent change to the
//! calibrated paths (see DESIGN.md §13).
//!
//! Both models take a request's bursts from the same walk over
//! [`AddressMapping::row_run`](crate::AddressMapping::row_run)s, one row run
//! at a time: consecutive bursts in one row of one bank. The fast model
//! prices a whole run in one call, looking the bank and data path up once
//! and keeping their clocks and the run's counters in locals, while each
//! burst still takes the page policy's rules on its own.

use std::str::FromStr;

use crate::address::{FirstBurst, Location};
use crate::config::{MemoryConfig, PagePolicy};
use crate::request::{bursts, AccessKind, Completion, RequestId};
use crate::stats::MemoryStats;
use crate::system::MemorySystem;
use crate::Cycle;

/// Which memory timing model a [`MemoryConfig`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryModelKind {
    /// The cycle-accurate command-level simulator (the default and the
    /// calibrated reference).
    #[default]
    Cycle,
    /// The fast-functional analytic model ([`FastFunctionalMemory`]).
    Fast,
}

impl std::fmt::Display for MemoryModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryModelKind::Cycle => write!(f, "cycle"),
            MemoryModelKind::Fast => write!(f, "fast"),
        }
    }
}

impl FromStr for MemoryModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cycle" => Ok(MemoryModelKind::Cycle),
            "fast" => Ok(MemoryModelKind::Fast),
            other => Err(format!("unknown memory model `{other}` (cycle|fast)")),
        }
    }
}

/// Per-bank analytic state: the open row and pacing clocks.
#[derive(Debug, Clone, Copy)]
struct FastBank {
    /// Row left open by the last access (`u64::MAX` = closed).
    open_row: u64,
    /// Earliest cycle the bank can issue its next column access.
    free: Cycle,
    /// Issue cycle of the last access (drives the adaptive-close estimate).
    last_issue: Cycle,
}

impl FastBank {
    const CLOSED: u64 = u64::MAX;
}

/// Per-data-path backlog estimate feeding `max_queue_depth`.
#[derive(Debug, Clone, Copy, Default)]
struct FastBacklog {
    drained_by: Cycle,
    queued: u64,
}

/// The fast-functional memory model: analytic per-read pricing, no
/// per-command DRAM state.
///
/// Every burst is priced **eagerly at submit time**, in submission order,
/// one row run of a request at a time:
///
/// ```text
/// issue  = max(arrival, bank.free, bus.free) + row_delay
/// finish = issue + tCL + tBL (+ straggler penalty on the faulted rank)
/// ```
///
/// where `row_delay` is 0 for a row-buffer hit, `tRCD` for a miss and
/// `tRP + tRCD` for a conflict, estimated from consecutive-row runs in the
/// per-bank address stream. The bank clock advances by `tCCD_L` per burst
/// and the data-path clock (per rank under `ndp_data_path`, per channel
/// otherwise) by `max(tBL, tCCD_S)` — the two bandwidth ceilings. Closed
/// page policy makes every access a miss plus a precharge; the adaptive
/// policy closes a row whose bank sat idle past the timeout. When refresh
/// is enabled, reported times are derated by `tREFI / (tREFI − tRFC)`
/// instead of simulating REF commands.
///
/// Functional counters (`reads`, `bytes_transferred`, burst outcome counts)
/// are computed from the same address stream the cycle model sees, so they
/// match it exactly on identical submissions.
#[derive(Debug, Clone)]
pub struct FastFunctionalMemory {
    config: MemoryConfig,
    banks: Vec<FastBank>,
    /// One pacing clock per data path (rank or channel).
    buses: Vec<Cycle>,
    backlogs: Vec<FastBacklog>,
    /// `completions[i]` holds the request with id `i`.
    completions: Vec<Completion>,
    now: Cycle,
    stats: MemoryStats,
}

impl FastFunctionalMemory {
    /// Builds a fast-functional model of `config`'s system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (same contract as
    /// [`MemorySystem::new`]).
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid memory config: {e}"));
        let topology = config.topology;
        let banks = topology.total_ranks() * topology.banks_per_rank();
        let buses = if config.ndp_data_path { topology.total_ranks() } else { topology.channels };
        Self {
            config,
            banks: vec![FastBank { open_row: FastBank::CLOSED, free: 0, last_issue: 0 }; banks],
            buses: vec![0; buses],
            backlogs: vec![FastBacklog::default(); buses],
            completions: Vec::new(),
            now: 0,
            stats: MemoryStats::new(),
        }
    }

    /// Refresh bandwidth derate: the fraction of time a rank is *not*
    /// blocked by REF is `(tREFI − tRFC) / tREFI`, so completion times
    /// stretch by the reciprocal.
    fn derate(&self, cycle: Cycle) -> Cycle {
        if !self.config.refresh {
            return cycle;
        }
        let t = self.config.timing;
        // validate() guarantees tREFI > tRFC.
        (cycle as f64 * t.tREFI as f64 / (t.tREFI - t.tRFC) as f64).round() as Cycle
    }

    /// Index of the data path serving `location`.
    fn bus_index(&self, location: Location) -> usize {
        if self.config.ndp_data_path {
            location.global_rank(&self.config.topology)
        } else {
            location.channel
        }
    }

    /// Prices a row run: `len` consecutive bursts from `first` on, all in
    /// one row of one bank. Returns the first burst's issue cycle and the
    /// last burst's finish, underated. The bank, the data path, their
    /// backlog and the run's counters are looked up once and held in locals
    /// across the run; each burst still takes the page policy's rules on
    /// its own.
    #[inline]
    fn price_run(
        &mut self,
        first: Location,
        len: usize,
        kind: AccessKind,
        arrival: Cycle,
    ) -> (Cycle, Cycle) {
        let topology = self.config.topology;
        let t = self.config.timing;
        let bank_index =
            first.global_rank(&topology) * topology.banks_per_rank() + first.flat_bank(&topology);
        let bus_index = self.bus_index(first);
        let access_latency = match kind {
            AccessKind::Read => t.tCL,
            AccessKind::Write => t.tCWL,
        };
        let straggler = match (kind, self.config.straggler) {
            (AccessKind::Read, Some((channel, rank, extra)))
                if channel == first.channel && rank == first.rank =>
            {
                extra
            }
            _ => 0,
        };
        let service = access_latency + t.tBL + straggler;
        // Only the adaptive policy closes an idle row; the closed one
        // precharges after every access instead.
        let timeout = match self.config.page_policy {
            PagePolicy::Adaptive { timeout } => timeout,
            PagePolicy::Open | PagePolicy::Closed => Cycle::MAX,
        };
        let auto_precharge = self.config.page_policy == PagePolicy::Closed;
        let row = first.row as u64;
        let mut bank = self.banks[bank_index];
        let mut bus = self.buses[bus_index];
        let mut backlog = self.backlogs[bus_index];
        let (mut hits, mut misses, mut conflicts, mut precharges) = (0, 0, 0, 0);
        let mut depth = self.stats.max_queue_depth;
        let (mut start, mut finish) = (Cycle::MAX, 0);
        for _ in 0..len {
            let ready = arrival.max(bank.free).max(bus);

            // Row-buffer outcome from the consecutive-row run in this bank's
            // stream, with the adaptive policy's idle-timeout close estimated
            // from the gap since the bank's last access.
            let mut open_row = bank.open_row;
            if open_row != FastBank::CLOSED && ready.saturating_sub(bank.last_issue) > timeout {
                precharges += 1; // the speculative close
                open_row = FastBank::CLOSED;
            }
            let row_delay = if open_row == row {
                hits += 1;
                0
            } else if open_row == FastBank::CLOSED {
                misses += 1;
                t.tRCD
            } else {
                conflicts += 1;
                precharges += 1;
                t.tRP + t.tRCD
            };

            let issue = ready + row_delay;
            let end = issue + service;
            let next_open = if auto_precharge {
                precharges += 1; // auto-precharge after the access
                FastBank::CLOSED
            } else {
                row
            };
            bank = FastBank { open_row: next_open, free: issue + t.tCCD_L, last_issue: issue };
            bus = issue + t.tBL.max(t.tCCD_S);

            // Backlog estimate for `max_queue_depth`: bursts stack up on a
            // data path until its pacing clock passes their arrival.
            if arrival >= backlog.drained_by {
                backlog.queued = 0;
            }
            backlog.queued += 1;
            backlog.drained_by = backlog.drained_by.max(end);
            depth = depth.max(backlog.queued);

            start = start.min(issue);
            finish = finish.max(end);
        }
        self.banks[bank_index] = bank;
        self.buses[bus_index] = bus;
        self.backlogs[bus_index] = backlog;
        let stats = &mut self.stats;
        stats.row_hits += hits;
        stats.row_misses += misses;
        stats.row_conflicts += conflicts;
        stats.activations += misses + conflicts;
        stats.precharges += precharges;
        stats.max_queue_depth = depth;
        match kind {
            AccessKind::Read => stats.reads += len as u64,
            AccessKind::Write => stats.writes += len as u64,
        }
        stats.bytes_transferred += (len * topology.burst_bytes) as u64;
        (start, finish)
    }

    /// Prices a request's bursts one row run at a time and records its
    /// completion, returning its id.
    fn submit(
        &mut self,
        first: FirstBurst,
        bursts: usize,
        kind: AccessKind,
        arrival: Cycle,
    ) -> RequestId {
        let id = RequestId(self.completions.len() as u64);
        let mut start = Cycle::MAX;
        let mut finish = 0;
        let (hits0, misses0, conflicts0) =
            (self.stats.row_hits, self.stats.row_misses, self.stats.row_conflicts);
        let (mapping, topology) = (self.config.mapping, self.config.topology);
        mapping.for_each_row_run(first, bursts, &topology, |location, len| {
            let (issue, end) = self.price_run(location, len, kind, arrival);
            start = start.min(issue);
            finish = finish.max(end);
        });
        let completion = Completion {
            id,
            finish_cycle: self.derate(finish),
            start_cycle: self.derate(start),
            row_hits: (self.stats.row_hits - hits0) as u32,
            row_misses: (self.stats.row_misses - misses0) as u32,
            row_conflicts: (self.stats.row_conflicts - conflicts0) as u32,
        };
        self.now = self.now.max(completion.finish_cycle);
        self.stats.requests_completed += 1;
        self.stats.total_request_latency += completion.finish_cycle.saturating_sub(arrival);
        self.completions.push(completion);
        id
    }

    /// Submits a read of `bytes` starting at the device `location`, which
    /// must be in bounds; the bursts are those of the read at its address
    /// under the configured mapping.
    pub fn submit_read_at(
        &mut self,
        location: Location,
        bytes: usize,
        arrival: Cycle,
    ) -> RequestId {
        let bursts = bursts(bytes, self.config.topology.burst_bytes);
        self.submit(FirstBurst::At(location), bursts, AccessKind::Read, arrival)
    }

    /// Eager pricing means every submitted request is already complete;
    /// this just reports the latest completion.
    pub fn run_until_idle(&mut self) -> Cycle {
        self.now
    }

    /// Completion record for a submitted request.
    #[must_use]
    pub fn completion(&self, id: RequestId) -> Option<&Completion> {
        self.completions.get(usize::try_from(id.0).ok()?)
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        let mut stats = self.stats;
        if self.config.refresh && self.now > 0 {
            // One REF per rank per tREFI of (derated) elapsed time.
            stats.refreshes =
                self.config.topology.total_ranks() as u64 * (self.now / self.config.timing.tREFI);
        }
        stats
    }
}

/// Static dispatch over the two memory models, selected by
/// [`MemoryConfig::model`].
#[derive(Debug, Clone)]
pub enum AnyMemory {
    /// The cycle-accurate reference.
    Cycle(MemorySystem),
    /// The fast-functional analytic model.
    Fast(FastFunctionalMemory),
}

impl AnyMemory {
    /// Builds the model named by `config.model`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        match config.model {
            MemoryModelKind::Cycle => AnyMemory::Cycle(MemorySystem::new(config)),
            MemoryModelKind::Fast => AnyMemory::Fast(FastFunctionalMemory::new(config)),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $m:ident, $($arg:expr),*) => {
        match $self {
            AnyMemory::Cycle(inner) => inner.$m($($arg),*),
            AnyMemory::Fast(inner) => inner.$m($($arg),*),
        }
    };
}

impl AnyMemory {
    /// Submits a read of `bytes` at a device location.
    pub fn submit_read_at(
        &mut self,
        location: Location,
        bytes: usize,
        arrival: Cycle,
    ) -> RequestId {
        delegate!(self, submit_read_at, location, bytes, arrival)
    }

    /// Drains all outstanding work; returns the cycle the system went idle.
    pub fn run_until_idle(&mut self) -> Cycle {
        delegate!(self, run_until_idle,)
    }

    /// Completion record for a finished request.
    #[must_use]
    pub fn completion(&self, id: RequestId) -> Option<&Completion> {
        delegate!(self, completion, id)
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        delegate!(self, stats,)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemoryConfig {
        MemoryConfig::ddr4_2400_1ch_1rank()
    }

    fn read_at(
        memory: &mut FastFunctionalMemory,
        bank: usize,
        row: usize,
        column: usize,
        bytes: usize,
    ) -> RequestId {
        let location =
            Location { channel: 0, rank: 0, bank_group: bank / 4, bank: bank % 4, row, column };
        memory.submit_read_at(location, bytes, 0)
    }

    #[test]
    fn kind_parses_and_displays_round_trip() {
        assert_eq!("cycle".parse::<MemoryModelKind>().unwrap(), MemoryModelKind::Cycle);
        assert_eq!("fast".parse::<MemoryModelKind>().unwrap(), MemoryModelKind::Fast);
        assert_eq!(MemoryModelKind::Fast.to_string(), "fast");
        assert_eq!(MemoryModelKind::default(), MemoryModelKind::Cycle);
        let err = "warp".parse::<MemoryModelKind>().unwrap_err();
        assert!(err.contains("unknown memory model `warp`"), "{err}");
        assert!(err.contains("cycle|fast"), "{err}");
    }

    #[test]
    fn every_preset_defaults_to_the_cycle_model() {
        // Backward compatibility: configurations that predate the field
        // must select the calibrated reference model.
        for preset in [
            MemoryConfig::default(),
            MemoryConfig::ddr4_2400_4ch(),
            MemoryConfig::ddr5_4800_4ch(),
            MemoryConfig::hbm2_32pc(),
            MemoryConfig::ddr4_2400_1ch_1rank(),
            MemoryConfig::with_total_ranks(8),
        ] {
            assert_eq!(preset.model, MemoryModelKind::Cycle);
        }
    }

    #[test]
    fn vector_read_latency_matches_cycle_bounds() {
        // Mirror of the cycle model's activation-plus-burst-stream bound: a
        // single 512 B read must land inside the same envelope the cycle
        // tests pin ([tRCD + tCL + 7·tCCD_L + tBL, +3·tCCD_L]).
        let mut memory = FastFunctionalMemory::new(config());
        let id = read_at(&mut memory, 0, 5, 0, 512);
        let t = config().timing;
        let finish = memory.completion(id).unwrap().finish_cycle;
        let floor = t.tRCD + t.tCL + 7 * t.tCCD_L.min(t.tBL) + t.tBL;
        assert!(finish >= floor, "finish {finish} below floor {floor}");
        assert!(finish <= floor + 3 * t.tCCD_L, "finish {finish} too slow");
        // 8 bursts: one miss activation, seven row hits.
        let stats = memory.stats();
        assert_eq!(stats.reads, 8);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_hits, 7);
        assert_eq!(stats.activations, 1);
        assert_eq!(stats.bytes_transferred, 512);
    }

    #[test]
    fn reads_to_same_bank_different_rows_serialize() {
        let mut memory = FastFunctionalMemory::new(config());
        let a = read_at(&mut memory, 0, 0, 0, 64);
        let b = read_at(&mut memory, 0, 1, 0, 64);
        let fa = memory.completion(a).unwrap().finish_cycle;
        let fb = memory.completion(b).unwrap().finish_cycle;
        assert!(fb > fa + config().timing.tRP, "conflict must pay the precharge: {fa} vs {fb}");
        assert_eq!(memory.stats().row_conflicts, 1);
        assert_eq!(memory.stats().precharges, 1);
    }

    #[test]
    fn reads_to_different_channels_are_fully_parallel() {
        let mut memory = FastFunctionalMemory::new(MemoryConfig::ddr4_2400_4ch());
        let ids: Vec<RequestId> = (0..4)
            .map(|channel| {
                let location =
                    Location { channel, rank: 0, bank_group: 0, bank: 0, row: 0, column: 0 };
                memory.submit_read_at(location, 512, 0)
            })
            .collect();
        let finishes: Vec<Cycle> =
            ids.iter().map(|&id| memory.completion(id).unwrap().finish_cycle).collect();
        assert!(finishes.iter().all(|&f| f == finishes[0]), "channels must not interfere");
    }

    #[test]
    fn straggler_rank_slows_only_its_own_reads() {
        let mut fast_config = MemoryConfig::ddr4_2400_4ch();
        fast_config.straggler = Some((0, 0, 500));
        let mut memory = FastFunctionalMemory::new(fast_config);
        let slow = memory.submit_read_at(
            Location { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 0, column: 0 },
            64,
            0,
        );
        let ok = memory.submit_read_at(
            Location { channel: 1, rank: 0, bank_group: 0, bank: 0, row: 0, column: 0 },
            64,
            0,
        );
        let slow_finish = memory.completion(slow).unwrap().finish_cycle;
        let ok_finish = memory.completion(ok).unwrap().finish_cycle;
        assert!(slow_finish >= ok_finish + 400, "straggler: {slow_finish} vs {ok_finish}");
    }

    #[test]
    fn closed_page_precharges_every_access() {
        let mut closed = config();
        closed.page_policy = PagePolicy::Closed;
        let mut memory = FastFunctionalMemory::new(closed);
        let open_finish = {
            let mut open = FastFunctionalMemory::new(config());
            let id = read_at(&mut open, 0, 0, 0, 512);
            open.completion(id).unwrap().finish_cycle
        };
        let id = read_at(&mut memory, 0, 0, 0, 512);
        let stats = memory.stats();
        assert_eq!(stats.row_hits, 0, "closed page never hits");
        assert_eq!(stats.row_misses, 8);
        assert_eq!(stats.precharges, 8);
        assert!(memory.completion(id).unwrap().finish_cycle > open_finish);
    }

    #[test]
    fn refresh_derates_completion_times() {
        let mut with_refresh = config();
        with_refresh.refresh = true;
        let mut slow = FastFunctionalMemory::new(with_refresh);
        let mut fast = FastFunctionalMemory::new(config());
        let a = read_at(&mut slow, 0, 0, 0, 512);
        let b = read_at(&mut fast, 0, 0, 0, 512);
        let derated = slow.completion(a).unwrap().finish_cycle;
        let plain = fast.completion(b).unwrap().finish_cycle;
        assert!(derated > plain, "refresh must stretch time: {derated} vs {plain}");
        let t = config().timing;
        let expected = (plain as f64 * t.tREFI as f64 / (t.tREFI - t.tRFC) as f64).round();
        assert_eq!(derated, expected as u64);
    }

    #[test]
    fn burst_counters_match_the_cycle_model_exactly() {
        // Same address stream through both models: the functional counters
        // (bursts, bytes, outcome totals) must agree exactly — only timing
        // may differ.
        let mut cycle = MemorySystem::new(config());
        let mut fast = FastFunctionalMemory::new(config());
        for i in 0..16u64 {
            let addr = i * 512;
            cycle.submit(crate::Request::read(addr, 512));
            fast.submit(FirstBurst::Addr(crate::PhysAddr(addr)), 8, AccessKind::Read, 0);
        }
        cycle.run_until_idle();
        fast.run_until_idle();
        let c = cycle.stats();
        let f = fast.stats();
        assert_eq!(f.reads, c.reads);
        assert_eq!(f.bytes_transferred, c.bytes_transferred);
        assert_eq!(f.requests_completed, c.requests_completed);
        assert_eq!(
            f.row_hits + f.row_misses + f.row_conflicts,
            c.row_hits + c.row_misses + c.row_conflicts,
            "every burst has exactly one outcome"
        );
    }

    #[test]
    fn any_memory_dispatches_on_the_config_field() {
        let mut fast_config = MemoryConfig::ddr4_2400_4ch();
        fast_config.model = MemoryModelKind::Fast;
        assert!(matches!(AnyMemory::new(fast_config), AnyMemory::Fast(_)));
        assert!(matches!(AnyMemory::new(MemoryConfig::ddr4_2400_4ch()), AnyMemory::Cycle(_)));
        // The gather surface works through the enum.
        let mut memory = AnyMemory::new(fast_config);
        let location = Location { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 0, column: 0 };
        let id = memory.submit_read_at(location, 512, 0);
        memory.run_until_idle();
        assert!(memory.completion(id).is_some());
        assert_eq!(memory.stats().reads, 8);
    }

    #[test]
    fn adaptive_timeout_closes_idle_rows() {
        let mut adaptive = config();
        adaptive.page_policy = PagePolicy::Adaptive { timeout: 10 };
        let mut memory = FastFunctionalMemory::new(adaptive);
        // Same row twice, but the second read arrives long after the bank
        // went idle: the row was speculatively closed, so it re-activates.
        let a = {
            let location =
                Location { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 7, column: 0 };
            memory.submit_read_at(location, 64, 0)
        };
        let _ = a;
        let location = Location { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 7, column: 1 };
        let b = memory.submit_read_at(location, 64, 1_000);
        let stats = memory.stats();
        assert_eq!(stats.row_misses, 2, "both accesses re-activate");
        assert_eq!(stats.row_hits, 0);
        let t = config().timing;
        let finish = memory.completion(b).unwrap().finish_cycle;
        assert_eq!(finish, 1_000 + t.tRCD + t.tCL + t.tBL);
    }
}
