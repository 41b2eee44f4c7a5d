//! The user-facing memory system: request submission, simulation driving,
//! and completion collection.

use std::collections::VecDeque;

use crate::address::{FirstBurst, Location};
use crate::config::MemoryConfig;
use crate::controller::{ChannelController, RowRun};
use crate::request::{bursts, AccessKind, Completion, Request, RequestId};
use crate::stats::MemoryStats;
use crate::Cycle;

/// Per-request tracking while its bursts are in flight.
#[derive(Debug, Clone, Copy)]
struct Pending {
    arrival: Cycle,
    remaining: u32,
    start_cycle: Cycle,
    finish_cycle: Cycle,
    row_hits: u32,
    row_misses: u32,
    row_conflicts: u32,
}

/// Where one request stands.
#[derive(Debug, Clone, Copy)]
enum Tracked {
    /// Some bursts have not issued yet.
    InFlight(Pending),
    /// Finished: reported by [`MemorySystem::completion`] until
    /// [`MemorySystem::take_completions`] hands it out.
    Done(Completion),
    /// Finished and handed out.
    Taken,
}

/// A complete simulated DDR4 memory system.
///
/// Submit [`Request`]s, then either step cycle-by-cycle with
/// [`MemorySystem::tick`] or drain everything with
/// [`MemorySystem::run_until_idle`], and read back [`Completion`]s.
///
/// ```
/// use fafnir_mem::{MemoryConfig, MemorySystem, Request};
///
/// let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
/// let a = mem.submit(Request::read(0x0000, 512));
/// let b = mem.submit(Request::read(0x8000, 512));
/// mem.run_until_idle();
/// assert!(mem.completion(a).is_some() && mem.completion(b).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemoryConfig,
    controllers: Vec<ChannelController>,
    /// Every request from id `first_id` on, indexed by `id - first_id`:
    /// ids are dense from 0, and the taken prefix is dropped.
    requests: VecDeque<Tracked>,
    first_id: u64,
    /// Requests with bursts still in flight.
    in_flight: usize,
    /// Latest data beat among the `Done` requests.
    last_finish: Option<Cycle>,
    request_stats: MemoryStats,
    next_seq: u64,
    now: Cycle,
    /// Cycles skipped by event-driven fast-forwarding (diagnostic only;
    /// deliberately not part of [`MemoryStats`] so stepped and
    /// fast-forwarded runs produce identical stats).
    skipped_cycles: u64,
}

impl MemorySystem {
    /// Creates a memory system from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`MemoryConfig::validate`].
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid memory config: {e}"));
        let controllers = (0..config.topology.channels)
            .map(|channel| ChannelController::with_channel(config, channel))
            .collect();
        Self {
            config,
            controllers,
            requests: VecDeque::new(),
            first_id: 0,
            in_flight: 0,
            last_finish: None,
            request_stats: MemoryStats::new(),
            next_seq: 0,
            now: 0,
            skipped_cycles: 0,
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Current simulation cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Submits a request, splitting it into bursts routed to the owning
    /// channels. Returns the id used to look up its [`Completion`].
    pub fn submit(&mut self, request: Request) -> RequestId {
        let bursts = request.bursts(self.config.topology.burst_bytes);
        self.submit_from(FirstBurst::Addr(request.addr), bursts, request.kind, request.arrival)
    }

    /// Convenience: submits a read of `bytes` starting at the device
    /// `location`, which must be in bounds; the bursts are those of the
    /// read at its address under the configured mapping.
    pub fn submit_read_at(
        &mut self,
        location: Location,
        bytes: usize,
        arrival: Cycle,
    ) -> RequestId {
        let bursts = bursts(bytes, self.config.topology.burst_bytes);
        self.submit_from(FirstBurst::At(location), bursts, AccessKind::Read, arrival)
    }

    /// Queues a request's bursts on their channels, one row run at a time.
    fn submit_from(
        &mut self,
        first: FirstBurst,
        bursts: usize,
        kind: AccessKind,
        arrival: Cycle,
    ) -> RequestId {
        let id = RequestId(self.first_id + self.requests.len() as u64);
        self.requests.push_back(Tracked::InFlight(Pending {
            arrival,
            remaining: bursts as u32,
            start_cycle: Cycle::MAX,
            finish_cycle: 0,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
        }));
        self.in_flight += 1;
        let (mapping, topology) = (self.config.mapping, self.config.topology);
        let mut burst_index = 0;
        mapping.for_each_row_run(first, bursts, &topology, |location, len| {
            let len = len as u32;
            self.controllers[location.channel].enqueue(RowRun {
                id,
                burst_index,
                location,
                len,
                kind,
                arrival,
                seq: self.next_seq,
            });
            self.next_seq += u64::from(len);
            burst_index += len;
        });
        id
    }

    /// Returns the system to its freshly built state, as
    /// [`MemorySystem::new`] with the same configuration would build it:
    /// every bank, rank and bus idle, no request queued or tracked, zeroed
    /// counters, cycle 0 and no command logs. Queued work is dropped. Every
    /// buffer keeps its capacity, so a system reused across independent
    /// runs allocates only when a run outgrows the ones before it.
    pub fn reset(&mut self) {
        for controller in &mut self.controllers {
            controller.reset();
        }
        self.requests.clear();
        self.first_id = 0;
        self.in_flight = 0;
        self.last_finish = None;
        self.request_stats.reset();
        self.next_seq = 0;
        self.now = 0;
        self.skipped_cycles = 0;
    }

    /// Advances the simulation one command-clock cycle.
    pub fn tick(&mut self) {
        let mut results = Vec::new();
        for controller in &mut self.controllers {
            controller.tick(self.now, &mut results);
        }
        self.absorb(results);
        self.now += 1;
    }

    /// Folds finished bursts into per-request tracking; requests whose last
    /// burst landed become [`Completion`]s. Every fold is commutative (min
    /// start, max finish, outcome counts, integer sums), so the absorption
    /// order across controllers is immaterial.
    fn absorb(&mut self, results: Vec<crate::controller::BurstResult>) {
        for result in results {
            let Some(slot) = self.slot(result.id).and_then(|index| self.requests.get_mut(index))
            else {
                continue;
            };
            let Tracked::InFlight(pending) = slot else { continue };
            pending.start_cycle = pending.start_cycle.min(result.issue_cycle);
            pending.finish_cycle = pending.finish_cycle.max(result.finish_cycle);
            match result.outcome {
                crate::bank::RowOutcome::Hit => pending.row_hits += 1,
                crate::bank::RowOutcome::Miss => pending.row_misses += 1,
                crate::bank::RowOutcome::Conflict => pending.row_conflicts += 1,
            }
            pending.remaining -= 1;
            if pending.remaining == 0 {
                let pending = *pending;
                *slot = Tracked::Done(Completion {
                    id: result.id,
                    finish_cycle: pending.finish_cycle,
                    start_cycle: pending.start_cycle,
                    row_hits: pending.row_hits,
                    row_misses: pending.row_misses,
                    row_conflicts: pending.row_conflicts,
                });
                self.in_flight -= 1;
                self.last_finish = self.last_finish.max(Some(pending.finish_cycle));
                self.request_stats.requests_completed += 1;
                self.request_stats.total_request_latency +=
                    pending.finish_cycle.saturating_sub(pending.arrival);
            }
        }
    }

    /// Request `id`'s index in `requests`, unless it was dropped with the
    /// taken prefix.
    fn slot(&self, id: RequestId) -> Option<usize> {
        usize::try_from(id.0.checked_sub(self.first_id)?).ok()
    }

    /// Runs until every queued burst has issued, then advances the clock to
    /// the last data beat. Returns the final cycle.
    ///
    /// Time advances by **next-event fast-forwarding**; channels share no
    /// state. Without refresh and the adaptive policy, each controller
    /// drains on its own clock, jumping from each command straight to the
    /// cycle of its scheduler's next pick
    /// ([`ChannelController::drain`]). Otherwise idle controllers still
    /// have events, so one clock visits the earliest cycle at which *any*
    /// controller could do something observable (issue a command, fire a
    /// refresh, close an idle row) and ticks just the controllers due then.
    /// The bounds are never late (exact under FR-FCFS, conservative-early
    /// under strict FCFS), so every command issues on exactly the cycle the
    /// unit-stepped [`MemorySystem::run_until_idle_stepped`] gives it: the
    /// parity suite asserts identical command logs, stats and completions,
    /// and `tests/memsim_command_digests.rs` pins both against recorded
    /// digests.
    pub fn run_until_idle(&mut self) -> Cycle {
        // Periodic refresh and adaptive closes fire on controllers even
        // while they hold no queued work, so every channel's events count
        // until the last one drains; those modes keep one shared clock.
        if self.config.refresh
            || matches!(self.config.page_policy, crate::config::PagePolicy::Adaptive { .. })
        {
            return self.run_until_idle_shared_clock();
        }
        // Otherwise channels share no simulation state, so each controller
        // drains to empty on its own private clock — skipping every cycle
        // on which only *other* channels had events — and issues each
        // command on exactly the same cycle as one shared clock would.
        let start = self.now;
        let mut end = self.now;
        // Every queued burst completes in this call.
        let mut results = Vec::with_capacity(self.total_queued());
        for controller in &mut self.controllers {
            if controller.is_idle() {
                continue;
            }
            let (local_end, skipped) = controller.drain(start, &mut results);
            end = end.max(local_end);
            self.skipped_cycles += skipped;
        }
        self.now = end;
        self.absorb(results);
        self.finish_clock()
    }

    /// Runs every channel on one clock, as needed whenever idle controllers
    /// still have scheduled events (refresh, adaptive closes). Channels share no
    /// state, so a controller is ticked only on its own next event cycle:
    /// any tick before it is a no-op, since the bound is never late. The
    /// clock visits the earliest event of any controller, idle ones
    /// included, so their refreshes fire on schedule.
    fn run_until_idle_shared_clock(&mut self) -> Cycle {
        let mut next_events: Vec<Option<Cycle>> =
            self.controllers.iter_mut().map(|c| c.next_event_cycle(self.now)).collect();
        let mut results = Vec::new();
        while self.controllers.iter().any(|c| !c.is_idle()) {
            let now = next_events
                .iter()
                .flatten()
                .copied()
                .min()
                .expect("a controller with queued bursts has a next event");
            self.skipped_cycles += now - self.now;
            for (controller, next) in self.controllers.iter_mut().zip(&mut next_events) {
                if *next == Some(now) {
                    controller.tick(now, &mut results);
                    *next = controller.next_event_cycle(now + 1);
                }
            }
            self.now = now + 1;
        }
        self.absorb(results);
        self.finish_clock()
    }

    /// Reference driver: identical contract to
    /// [`MemorySystem::run_until_idle`] but advances strictly one cycle at a
    /// time, never jumping the clock. O(total simulated cycles); kept as the
    /// ground truth the fast-forwarding driver is verified against.
    pub fn run_until_idle_stepped(&mut self) -> Cycle {
        while self.controllers.iter().any(|c| !c.is_idle()) {
            self.tick();
        }
        self.finish_clock()
    }

    /// Advances the clock to the last data beat of any completion not yet
    /// taken and returns it.
    fn finish_clock(&mut self) -> Cycle {
        self.now = self.now.max(self.last_finish.unwrap_or(self.now));
        self.now
    }

    /// Cycles that fast-forwarding jumped over without ticking them
    /// (diagnostic; always 0 after a purely stepped run).
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// The completion record for `id`, if it has finished.
    #[must_use]
    pub fn completion(&self, id: RequestId) -> Option<&Completion> {
        match self.requests.get(self.slot(id)?)? {
            Tracked::Done(completion) => Some(completion),
            Tracked::InFlight(_) | Tracked::Taken => None,
        }
    }

    /// Drains and returns all recorded completions (e.g. between batches),
    /// ordered by finish cycle, then id.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        let mut all = Vec::new();
        for slot in &mut self.requests {
            if let Tracked::Done(completion) = *slot {
                all.push(completion);
                *slot = Tracked::Taken;
            }
        }
        while matches!(self.requests.front(), Some(Tracked::Taken)) {
            self.requests.pop_front();
            self.first_id += 1;
        }
        self.last_finish = None;
        all.sort_by_key(|c| (c.finish_cycle, c.id));
        all
    }

    /// Whether the whole system is quiescent: no request partially
    /// completed and no controller with queued bursts.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.controllers.iter().all(ChannelController::is_idle)
    }

    /// Zeroes every accumulated counter (request-level and per-channel) at
    /// an experiment-phase boundary.
    ///
    /// Resetting while requests are in flight would split one request's
    /// counters across two phases (its bursts issued before the reset
    /// vanish, but its completion latency lands in the new phase), so this
    /// is the checked entry point: it debug-asserts the system is idle.
    /// Drain with [`MemorySystem::run_until_idle`] first.
    ///
    /// # Panics
    ///
    /// In debug builds, panics when the system is not idle.
    pub fn reset_stats(&mut self) {
        debug_assert!(
            self.is_idle(),
            "reset_stats on a busy memory system: {} pending requests, {} queued bursts — \
             counters of in-flight work would be split across phases",
            self.in_flight,
            self.total_queued()
        );
        self.request_stats.reset();
        for controller in &mut self.controllers {
            controller.reset_stats();
        }
    }

    /// Merged counters across all channels plus request-level stats.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        let mut merged = self.request_stats;
        for controller in &self.controllers {
            merged.merge(controller.stats());
        }
        merged
    }

    /// Peak data-bus utilization across all buses, over the elapsed cycles.
    #[must_use]
    pub fn peak_bus_utilization(&self) -> f64 {
        self.controllers
            .iter()
            .flat_map(|c| c.buses().iter().map(|bus| bus.utilization(self.now)))
            .fold(0.0, f64::max)
    }

    fn total_queued(&self) -> usize {
        self.controllers.iter().map(ChannelController::queue_len).sum()
    }

    /// Starts recording every issued command on every channel (see
    /// [`crate::verify`]).
    pub fn enable_command_logs(&mut self) {
        for controller in &mut self.controllers {
            controller.enable_command_log();
        }
    }

    /// Takes the per-channel command logs (empty if logging was never
    /// enabled); logging stays on with fresh logs.
    pub fn take_command_logs(&mut self) -> Vec<crate::verify::CommandLog> {
        self.controllers.iter_mut().filter_map(ChannelController::take_command_log).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Timing;

    #[test]
    fn vector_read_is_eight_bursts_one_activation() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let id = mem.submit(Request::read(0x10000, 512));
        mem.run_until_idle();
        let done = mem.completion(id).unwrap();
        assert_eq!(done.row_hits + done.row_misses + done.row_conflicts, 8);
        // One activation, seven hits: the vector streams from one row.
        assert_eq!(mem.stats().activations, 1);
        assert_eq!(mem.stats().row_hits, 7);
    }

    #[test]
    fn vector_read_latency_is_activation_plus_burst_stream() {
        let mem_config = MemoryConfig::ddr4_2400_4ch();
        let t = Timing::ddr4_2400();
        let mut mem = MemorySystem::new(mem_config);
        let id = mem.submit(Request::read(0, 512));
        mem.run_until_idle();
        let done = mem.completion(id).unwrap();
        // Lower bound: ACT + tRCD + tCL + 8 bursts at tCCD_L pacing.
        let lower = t.tRCD + t.tCL + 7 * t.tCCD_L.min(t.tBL) + t.tBL;
        assert!(done.finish_cycle >= lower, "{} < {}", done.finish_cycle, lower);
        // And it should not be wildly above that.
        assert!(done.finish_cycle <= lower + 3 * t.tCCD_L, "{}", done.finish_cycle);
    }

    #[test]
    fn reads_to_different_channels_are_fully_parallel() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        // Same-rank-coordinates, different channels.
        let base = crate::Location { row: 1, ..crate::Location::default() };
        let mut ids = Vec::new();
        for channel in 0..4 {
            let loc = crate::Location { channel, ..base };
            ids.push(mem.submit_read_at(loc, 512, 0));
        }
        mem.run_until_idle();
        let finishes: Vec<Cycle> =
            ids.iter().map(|&id| mem.completion(id).unwrap().finish_cycle).collect();
        let spread = finishes.iter().max().unwrap() - finishes.iter().min().unwrap();
        assert_eq!(spread, 0, "channels should not interfere: {finishes:?}");
    }

    #[test]
    fn reads_to_same_bank_different_rows_serialize() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let a = mem.submit_read_at(crate::Location { row: 1, ..Default::default() }, 64, 0);
        let b = mem.submit_read_at(crate::Location { row: 2, ..Default::default() }, 64, 0);
        mem.run_until_idle();
        let fa = mem.completion(a).unwrap().finish_cycle;
        let fb = mem.completion(b).unwrap().finish_cycle;
        let t = Timing::ddr4_2400();
        assert!(fb > fa + t.tRP, "conflict should pay precharge: {fa} vs {fb}");
    }

    #[test]
    fn arrival_cycle_delays_service() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let id = mem.submit(Request::read(0, 64).at(500));
        mem.run_until_idle();
        let done = mem.completion(id).unwrap();
        assert!(done.start_cycle >= 500);
    }

    #[test]
    fn reset_stats_gives_clean_per_phase_counters() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        mem.submit(Request::read(0x10000, 512));
        mem.run_until_idle();
        assert!(mem.is_idle());
        let phase_one = mem.stats();
        assert_eq!(phase_one.reads, 8);
        mem.reset_stats();
        assert_eq!(mem.stats(), MemoryStats::default());
        // Phase two counts only its own work — nothing carried over.
        mem.submit(Request::read(0x20000, 512));
        mem.run_until_idle();
        assert_eq!(mem.stats().reads, 8);
        assert_eq!(mem.stats().requests_completed, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "reset_stats on a busy memory system")]
    fn reset_stats_mid_flight_is_rejected() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        mem.submit(Request::read(0, 512));
        assert!(!mem.is_idle());
        mem.reset_stats(); // Counters of the in-flight read would be split.
    }

    #[test]
    fn reset_returns_a_used_system_to_its_built_state() {
        for refresh in [false, true] {
            let config = MemoryConfig { refresh, ..MemoryConfig::ddr4_2400_4ch() };
            let mut mem = MemorySystem::new(config);
            mem.enable_command_logs();
            for i in 0..40u64 {
                mem.submit(Request::read(i * 5_000, if i % 4 == 0 { 1024 } else { 512 }));
            }
            mem.run_until_idle();
            let _ = mem.take_completions();
            // Half-served work is dropped too.
            mem.submit(Request::read(0, 512).at(mem.now() + 10_000));
            mem.reset();
            let fresh = MemorySystem::new(config);
            assert_eq!(format!("{mem:?}"), format!("{fresh:?}"), "refresh {refresh}");
        }
    }

    #[test]
    fn take_completions_drains_in_finish_order() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let _ = mem.submit(Request::read(0, 64));
        let _ = mem.submit(Request::read(1 << 20, 64));
        mem.run_until_idle();
        let completions = mem.take_completions();
        assert_eq!(completions.len(), 2);
        assert!(completions[0].finish_cycle <= completions[1].finish_cycle);
        assert!(mem.take_completions().is_empty());
    }

    #[test]
    fn take_completions_leaves_in_flight_requests_for_a_later_take() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let early = mem.submit(Request::read(0, 64));
        let late = mem.submit(Request::read(1 << 20, 64).at(5_000));
        while mem.completion(early).is_none() {
            mem.tick();
        }
        let first = mem.take_completions();
        assert_eq!(first.iter().map(|c| c.id).collect::<Vec<_>>(), vec![early]);
        assert!(mem.completion(early).is_none(), "taken completions are gone");
        assert!(!mem.is_idle(), "the late read is still in flight");
        mem.run_until_idle();
        assert_eq!(mem.take_completions().iter().map(|c| c.id).collect::<Vec<_>>(), vec![late]);
        assert!(mem.is_idle());
        // Ids stay dense across takes.
        assert_eq!(mem.submit(Request::read(0, 64)), RequestId(2));
    }

    #[test]
    fn stats_accumulate_across_requests() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        for i in 0..10 {
            mem.submit(Request::read(i * 4096, 512));
        }
        mem.run_until_idle();
        let stats = mem.stats();
        assert_eq!(stats.requests_completed, 10);
        assert_eq!(stats.reads, 80);
        assert!(stats.mean_request_latency() > 0.0);
        assert!(mem.peak_bus_utilization() > 0.0);
    }

    #[test]
    fn command_logs_verify_against_jedec_constraints() {
        let config = MemoryConfig::ddr4_2400_4ch();
        let mut mem = MemorySystem::new(config);
        mem.enable_command_logs();
        for i in 0..24u64 {
            // Mixed sizes and overlapping banks/rows.
            mem.submit(Request::read(i * 3_000, if i % 3 == 0 { 512 } else { 64 }));
        }
        mem.run_until_idle();
        for log in mem.take_command_logs() {
            let violations =
                crate::verify::verify_log(&log, &config.timing, config.topology.banks_per_group);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }

    #[test]
    fn channel_interleaved_mapping_spreads_a_stream() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.mapping = crate::AddressMapping::ChannelInterleaved;
        let mut mem = MemorySystem::new(config);
        // A contiguous 2 KB stream: bursts round-robin over the channels, so
        // all four channels carry traffic.
        let id = mem.submit(Request::read(0, 2048));
        mem.run_until_idle();
        assert!(mem.completion(id).is_some());
        let stats = mem.stats();
        assert_eq!(stats.reads, 32);
        // Each channel served 8 bursts: the stream completed much faster
        // than a single-channel serial read would allow.
        let t = config.timing;
        let single_channel_floor = 32 * t.tBL;
        assert!(
            mem.completion(id).unwrap().finish_cycle < single_channel_floor + t.tRCD + t.tCL,
            "interleaving should engage all channels"
        );
    }

    #[test]
    fn straggler_rank_slows_only_its_own_reads() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.straggler = Some((0, 0, 500));
        config.ndp_data_path = true; // per-rank ports: reads are independent
        let mut mem = MemorySystem::new(config);
        let slow = mem.submit_read_at(crate::Location { row: 1, ..Default::default() }, 64, 0);
        let fast =
            mem.submit_read_at(crate::Location { rank: 1, row: 1, ..Default::default() }, 64, 0);
        mem.run_until_idle();
        let slow_done = mem.completion(slow).unwrap().finish_cycle;
        let fast_done = mem.completion(fast).unwrap().finish_cycle;
        assert!(slow_done >= fast_done + 400, "slow {slow_done} vs fast {fast_done}");
    }

    #[test]
    fn run_until_idle_on_empty_system_is_a_noop() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        assert_eq!(mem.run_until_idle(), 0);
    }
}
