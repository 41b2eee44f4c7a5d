//! Cycle-accurate tree simulation with finite buffers and backpressure.
//!
//! The event-timed model in [`crate::tree`] assumes every PE buffer is
//! large enough (Table I sizes them so). This simulator drops that
//! assumption: PEs have FIFOs of a configurable capacity, outputs move to
//! the parent only when space exists, and full buffers stall the producer.
//! Running the same batch through both models checks two things:
//!
//! * with Table I-sized buffers (capacity ≥ B), the cycle simulation never
//!   stalls and completes close to the event model's estimate, and
//! * undersized buffers produce real stalls and longer completions — the
//!   quantitative cost of shrinking Table I.
//!
//! Like the event model, this is a timing model over headers: each PE's
//! output set comes from the same [`crate::pe::ProcessingElement`] logic,
//! and the cycle simulation re-times their movement. The values are the
//! fold's ([`crate::fastpath`]). PEs fire when their batch window is
//! complete (the hardware's end-of-batch delimiter), then emit one item per
//! initiation interval.
//!
//! Two engines share these semantics. [`CycleTree::run_stepped`] is the
//! reference: it sweeps every PE on every cycle, advancing time strictly one
//! cycle at a time. [`CycleTree::run`] is **event-driven**: PEs live in a
//! ready-queue keyed by their next relevant cycle (window completion after
//! sealing, scheduled emissions at the initiation interval, link arrivals),
//! and the clock jumps between events instead of visiting dead cycles. The
//! two are cycle-exact: same outputs, completion cycle, stall count, peak
//! occupancy — and the same deadlock cycle when buffers are undersized
//! (pinned by the parity property suite).
//!
//! A consequence of the window semantics: a PE cannot free its input FIFO
//! until the whole window has arrived, so a window larger than the FIFO is
//! not merely slow — it **deadlocks**. The simulator detects this and
//! returns [`CycleSimError::Deadlock`]; Table I's `min(nm + n + m, B)`
//! output bound is precisely the sizing that makes deadlock impossible.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use crate::config::FafnirConfig;
use crate::item::{Arena, Item, Node, RankInputs};
use crate::pe::{PeScratch, ProcessingElement};
use crate::tree::ReductionTree;

/// Why a cycle-stepped traversal could not complete (or start).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CycleSimError {
    /// A PE's batch window exceeds its input FIFOs: the producer can never
    /// drain and the consumer can never fire.
    Deadlock {
        /// Cycle at which progress stopped.
        at_cycle: u64,
        /// Configured per-side FIFO capacity.
        fifo_capacity: usize,
    },
    /// The configured FIFO capacity was zero, rejected at construction: a
    /// zero-slot FIFO could never hold any batch window and every run would
    /// deadlock at cycle 0.
    ZeroFifoCapacity,
}

impl std::fmt::Display for CycleSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleSimError::Deadlock { at_cycle, fifo_capacity } => write!(
                f,
                "backpressure deadlock at cycle {at_cycle}: a batch window exceeds the \
                 {fifo_capacity}-item FIFO (Table I sizes buffers to prevent exactly this)"
            ),
            CycleSimError::ZeroFifoCapacity => write!(
                f,
                "FIFO capacity must be non-zero: a zero-slot PE input FIFO cannot hold any \
                 batch window (Table I sizes buffers to the batch capacity)"
            ),
        }
    }
}

impl std::error::Error for CycleSimError {}

/// Result of a cycle-stepped traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRun {
    /// Items emitted by the root (headers), with `ready_ns` set from the
    /// cycle clock.
    pub outputs: Vec<Item>,
    /// Completion cycle (NDP clock).
    pub completion_cycle: u64,
    /// Completion in nanoseconds.
    pub completion_ns: f64,
    /// Total cycles any PE spent stalled on a full downstream FIFO.
    pub stall_cycles: u64,
    /// Largest FIFO occupancy observed anywhere (items).
    pub max_occupancy: usize,
}

/// Per-PE state during the cycle loop.
#[derive(Debug, Clone)]
struct PeState {
    /// Items queued on each input with their arrival cycles.
    arrivals: Vec<(u64, Node, bool)>, // (cycle, item, is_side_b)
    /// Expected input count (known once producers finish).
    expected: Option<usize>,
    /// Received so far.
    received: usize,
    /// Outputs awaiting transfer to the parent, with earliest-emit cycles.
    pending_out: Vec<(u64, Node)>,
    /// Current occupancy of this PE's input FIFOs.
    occupancy: usize,
    fired: bool,
}

/// Everything both engines need, built once per run: injected leaf state,
/// topology lookup tables and derived timing constants.
struct SimSetup {
    states: Vec<PeState>,
    /// The batch's query lists, entries and masks.
    arena: Arena,
    /// (start index, count) per level, leaves first.
    levels: Vec<(usize, usize)>,
    /// Parent PE id (None for the root).
    parent: Vec<Option<usize>>,
    /// Child PE ids (None for leaves).
    children: Vec<Option<(usize, usize)>>,
    /// Whether a PE feeds its parent's B side (odd index within its level).
    side_b: Vec<bool>,
    link_cycles: u64,
    reduce_cycles: u64,
    interval: u64,
    cycle_ns: f64,
}

/// A cycle-accurate simulator over the same topology as a
/// [`ReductionTree`].
///
/// # Examples
///
/// ```
/// use fafnir_core::cycle_sim::CycleTree;
/// use fafnir_core::inject::{build_rank_inputs, GatheredVector};
/// use fafnir_core::{indexset, Batch, FafnirConfig, PeTiming, ReductionTree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() };
/// let tree = ReductionTree::new(config, 4)?;
/// let batch = Batch::from_index_sets([indexset![0, 3]]);
/// let gathered: Vec<GatheredVector> = batch
///     .unique_indices()
///     .iter()
///     .map(|index| GatheredVector {
///         index,
///         rank: index.value() as usize % 4,
///         value: vec![1.0; 4].into(),
///         ready_ns: 0.0,
///     })
///     .collect();
/// let inputs = build_rank_inputs(&batch, &gathered, 4, 2, &PeTiming::default());
/// let run = CycleTree::new(&tree, 8)?.run(inputs)?;
/// assert_eq!(run.stall_cycles, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CycleTree {
    config: FafnirConfig,
    leaf_count: usize,
    /// Input-FIFO capacity per PE side, in items.
    fifo_capacity: usize,
}

impl CycleTree {
    /// Builds a cycle simulator matching `tree`, with `fifo_capacity` items
    /// per PE input side (Table I sizes this as the batch capacity).
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::ZeroFifoCapacity`] when `fifo_capacity` is
    /// zero — rejected here, at construction, rather than surfacing later
    /// as a confusing `Deadlock` at cycle 0.
    pub fn new(tree: &ReductionTree, fifo_capacity: usize) -> Result<Self, CycleSimError> {
        if fifo_capacity == 0 {
            return Err(CycleSimError::ZeroFifoCapacity);
        }
        Ok(Self { config: *tree.config(), leaf_count: tree.leaf_count(), fifo_capacity })
    }

    /// Injects leaf items and builds the per-run lookup tables shared by
    /// both engines.
    fn prepare(&self, rank_inputs: RankInputs) -> SimSetup {
        let RankInputs { arena, ranks: rank_inputs } = rank_inputs;
        assert_eq!(
            rank_inputs.len(),
            self.leaf_count * self.config.ranks_per_leaf,
            "one input list per rank required"
        );
        let cycle_ns = self.config.pe_timing.cycle_ns();
        let total_pes = 2 * self.leaf_count - 1;
        // PE ids: level-major, leaves first: leaf i = i; next level starts at
        // leaf_count, etc.
        let mut states: Vec<PeState> = (0..total_pes)
            .map(|_| PeState {
                arrivals: Vec::new(),
                expected: None,
                received: 0,
                pending_out: Vec::new(),
                occupancy: 0,
                fired: false,
            })
            .collect();

        // Inject leaf items at their memory-ready cycles.
        for (leaf, ranks) in rank_inputs.chunks(self.config.ranks_per_leaf).enumerate() {
            let half = ranks.len().div_ceil(2);
            for (side_index, rank_items) in ranks.iter().enumerate() {
                let is_b = side_index >= half;
                for &item in rank_items {
                    let cycle = (item.ready_ns / cycle_ns).ceil() as u64;
                    states[leaf].arrivals.push((cycle, item, is_b));
                    states[leaf].received += 1;
                }
            }
            states[leaf].expected = Some(states[leaf].received);
        }

        // Level bookkeeping: (start index, count) per level.
        let mut levels: Vec<(usize, usize)> = Vec::new();
        let mut start = 0usize;
        let mut count = self.leaf_count;
        while count >= 1 {
            levels.push((start, count));
            if count == 1 {
                break;
            }
            start += count;
            count /= 2;
        }

        let mut parent: Vec<Option<usize>> = vec![None; total_pes];
        let mut children: Vec<Option<(usize, usize)>> = vec![None; total_pes];
        let mut side_b: Vec<bool> = vec![false; total_pes];
        for (level_pos, &(level_start, level_count)) in levels.iter().enumerate() {
            for pe_index in 0..level_count {
                let id = level_start + pe_index;
                side_b[id] = pe_index % 2 == 1;
                if level_count > 1 {
                    let (next_start, _) = levels[level_pos + 1];
                    parent[id] = Some(next_start + pe_index / 2);
                }
                if level_pos > 0 {
                    let (child_start, _) = levels[level_pos - 1];
                    children[id] =
                        Some((child_start + 2 * pe_index, child_start + 2 * pe_index + 1));
                }
            }
        }

        SimSetup {
            states,
            arena,
            levels,
            parent,
            children,
            side_b,
            link_cycles: (self.config.link_transfer_ns() / cycle_ns).ceil() as u64,
            reduce_cycles: self.config.pe_timing.reduce_path_cycles()
                + self.config.pe_timing.merge_cycles,
            interval: self.config.pe_timing.output_interval_cycles.max(1),
            cycle_ns,
        }
    }

    /// Packages root emissions into a [`CycleRun`].
    fn finish(
        &self,
        arena: &Arena,
        root_outputs: Vec<(u64, Node)>,
        final_cycle: u64,
        stall_cycles: u64,
        max_occupancy: usize,
        cycle_ns: f64,
    ) -> CycleRun {
        let completion_cycle = root_outputs.iter().map(|&(c, _)| c).max().unwrap_or(final_cycle);
        let outputs = root_outputs
            .into_iter()
            .map(|(c, node)| arena.item(&Node { ready_ns: c as f64 * cycle_ns, ..node }))
            .collect();
        CycleRun {
            outputs,
            completion_cycle,
            completion_ns: completion_cycle as f64 * cycle_ns,
            stall_cycles,
            max_occupancy,
        }
    }

    /// Runs one batch with the **event-driven** engine; `rank_inputs` as in
    /// [`ReductionTree::run`].
    ///
    /// PEs are woken from a ready-queue at their next relevant cycle —
    /// window completion (all arrivals landed, after sealing), each
    /// scheduled emission, each link arrival — and the clock jumps straight
    /// between events. Within a visited cycle PEs are processed in
    /// ascending id order, which is exactly the reference sweep order, so
    /// every fire, transfer and stall lands on the same cycle as
    /// [`CycleTree::run_stepped`]; idle gaps contribute their per-cycle
    /// backpressure stalls arithmetically (`gap × blocked PEs`) instead of
    /// being visited.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Deadlock`] when a batch window exceeds the
    /// FIFO capacity (see the module docs), on the same cycle the stepped
    /// engine reports.
    ///
    /// # Panics
    ///
    /// Panics if the input list length does not match the topology.
    pub fn run(&self, rank_inputs: RankInputs) -> Result<CycleRun, CycleSimError> {
        let SimSetup {
            mut states,
            mut arena,
            levels: _,
            parent,
            children,
            side_b,
            link_cycles,
            reduce_cycles,
            interval,
            cycle_ns,
        } = self.prepare(rank_inputs);
        let pe = ProcessingElement { timing: self.config.pe_timing };
        let mut scratch = PeScratch::new(arena.query_count());
        let total_pes = states.len();

        // Ready-queue of (cycle, pe) wake-ups. Every future arrival and
        // scheduled emission is pushed, so the heap is also the exact set of
        // future events the deadlock detector must consider. Stale entries
        // (for work already done) are always <= the current cycle and drain
        // harmlessly.
        let mut wake: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (id, state) in states.iter().enumerate().take(self.leaf_count) {
            wake.push(Reverse((0, id)));
            for &(arrival, _, _) in &state.arrivals {
                wake.push(Reverse((arrival, id)));
            }
        }
        // PEs with an overdue head-of-queue emission: they attempt one
        // transfer on every visited cycle until drained or blocked.
        let mut due: BTreeSet<usize> = BTreeSet::new();

        let mut unfired = total_pes;
        let mut pending_total = 0usize;
        let mut stall_cycles = 0u64;
        let mut max_occupancy = 0usize;
        let mut root_outputs: Vec<(u64, Node)> = Vec::new();
        let mut cycle: u64 = 0;
        loop {
            // Agenda for this cycle: overdue emitters plus everything the
            // ready-queue scheduled at or before now, in ascending id order
            // (= the reference engine's sweep order).
            let mut agenda: BTreeSet<usize> = due.iter().copied().collect();
            while let Some(&Reverse((at, id))) = wake.peek() {
                if at > cycle {
                    break;
                }
                wake.pop();
                agenda.insert(id);
            }

            let mut progress = false;
            let mut blocked_now = 0u64;
            let mut seal_candidates: Vec<usize> = Vec::new();
            while let Some(id) = agenda.pop_first() {
                // Fire when the batch window is complete.
                if !states[id].fired {
                    let complete =
                        states[id].expected.is_some_and(|expected| states[id].received >= expected)
                            && states[id].arrivals.iter().all(|&(arrival, _, _)| arrival <= cycle);
                    if complete {
                        progress = true;
                        unfired -= 1;
                        let state = &mut states[id];
                        state.fired = true;
                        let (a, b): (Vec<_>, Vec<_>) =
                            state.arrivals.drain(..).partition(|&(_, _, is_b)| !is_b);
                        let a: Vec<Node> = a.into_iter().map(|(_, item, _)| item).collect();
                        let b: Vec<Node> = b.into_iter().map(|(_, item, _)| item).collect();
                        let (outputs, _) = pe.fire(&mut arena, &mut scratch, &a, &b);
                        state.occupancy = 0;
                        pending_total += outputs.len();
                        for (position, item) in outputs.into_iter().enumerate() {
                            let emit = cycle + reduce_cycles + position as u64 * interval;
                            state.pending_out.push((emit, item));
                            wake.push(Reverse((emit, id)));
                        }
                        if states[id].pending_out.is_empty() {
                            if let Some(p) = parent[id] {
                                seal_candidates.push(p);
                            }
                        }
                    }
                }
                // Move one due output toward the parent (or the host).
                if let Some(&(emit, _)) = states[id].pending_out.first() {
                    if emit <= cycle {
                        match parent[id] {
                            None => {
                                let (_, item) = states[id].pending_out.remove(0);
                                root_outputs.push((cycle, item));
                                pending_total -= 1;
                                progress = true;
                            }
                            Some(p) => {
                                if states[p].occupancy >= 2 * self.fifo_capacity {
                                    stall_cycles += 1; // backpressure
                                    blocked_now += 1;
                                } else {
                                    let (_, mut item) = states[id].pending_out.remove(0);
                                    let arrival = cycle + link_cycles;
                                    item.ready_ns = arrival as f64 * cycle_ns;
                                    states[p].arrivals.push((arrival, item, side_b[id]));
                                    states[p].received += 1;
                                    states[p].occupancy += 1;
                                    max_occupancy = max_occupancy.max(states[p].occupancy);
                                    pending_total -= 1;
                                    progress = true;
                                    wake.push(Reverse((arrival, p)));
                                    if arrival <= cycle {
                                        // Zero-latency link: the parent can
                                        // fire later this same cycle (it has
                                        // a larger id, so it is still ahead
                                        // of us in the agenda).
                                        agenda.insert(p);
                                    }
                                    if states[id].pending_out.is_empty() {
                                        if let Some(gp) = parent[id] {
                                            seal_candidates.push(gp);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                // Due-set maintenance: stay hot while the head is overdue.
                if states[id].pending_out.first().is_some_and(|&(emit, _)| emit <= cycle) {
                    due.insert(id);
                } else {
                    due.remove(&id);
                }
            }

            // Seal expectations: a parent's window is complete when both
            // children fired and drained their queues. Only parents whose
            // children changed state this cycle can newly qualify.
            for p in seal_candidates {
                if states[p].expected.is_some() {
                    continue;
                }
                let (left, right) = children[p].expect("seal candidates are internal PEs");
                let children_done = states[left].fired
                    && states[left].pending_out.is_empty()
                    && states[right].fired
                    && states[right].pending_out.is_empty();
                if children_done {
                    states[p].expected = Some(states[p].received);
                    progress = true;
                    // The reference engine's fire check next evaluates this
                    // PE on the following cycle, once all arrivals landed.
                    let last_arrival =
                        states[p].arrivals.iter().map(|&(at, _, _)| at).max().unwrap_or(0);
                    wake.push(Reverse((last_arrival.max(cycle + 1), p)));
                }
            }

            if unfired == 0 && pending_total == 0 {
                break;
            }
            if progress {
                cycle += 1;
                continue;
            }
            // No progress: every remaining actor is waiting on a future
            // event or permanently blocked. Jump to the next event, charging
            // the skipped cycles' backpressure stalls arithmetically; if no
            // future event exists the system is deadlocked.
            while wake.peek().is_some_and(|&Reverse((at, _))| at <= cycle) {
                wake.pop(); // stale: that work was already handled above
            }
            match wake.peek() {
                Some(&Reverse((event, _))) => {
                    stall_cycles += (event - cycle - 1) * blocked_now;
                    cycle = event;
                }
                None => {
                    return Err(CycleSimError::Deadlock {
                        at_cycle: cycle,
                        fifo_capacity: self.fifo_capacity,
                    })
                }
            }
        }

        Ok(self.finish(&arena, root_outputs, cycle, stall_cycles, max_occupancy, cycle_ns))
    }

    /// Runs one batch with the **unit-stepped reference engine**: every PE
    /// is swept on every cycle and time advances strictly by one. O(total
    /// simulated cycles); kept as the ground truth [`CycleTree::run`] is
    /// verified against, cycle for cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CycleSimError::Deadlock`] when a batch window exceeds the
    /// FIFO capacity (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the input list length does not match the topology.
    pub fn run_stepped(&self, rank_inputs: RankInputs) -> Result<CycleRun, CycleSimError> {
        let SimSetup {
            mut states,
            mut arena,
            levels,
            parent: _,
            children: _,
            side_b: _,
            link_cycles,
            reduce_cycles,
            interval,
            cycle_ns,
        } = self.prepare(rank_inputs);
        let pe = ProcessingElement { timing: self.config.pe_timing };
        let mut scratch = PeScratch::new(arena.query_count());

        let mut stall_cycles = 0u64;
        let mut max_occupancy = 0usize;
        let mut root_outputs: Vec<(u64, Node)> = Vec::new();
        let mut cycle: u64 = 0;
        loop {
            let mut all_drained = true;
            let mut made_progress = false;
            for (level_pos, &(level_start, level_count)) in levels.iter().enumerate() {
                for pe_index in 0..level_count {
                    let id = level_start + pe_index;
                    // Fire when the batch window is complete.
                    if !states[id].fired {
                        let complete = states[id]
                            .expected
                            .is_some_and(|expected| states[id].received >= expected)
                            && states[id].arrivals.iter().all(|&(arrival, _, _)| arrival <= cycle);
                        if complete {
                            made_progress = true;
                            let state = &mut states[id];
                            state.fired = true;
                            let (a, b): (Vec<_>, Vec<_>) =
                                state.arrivals.drain(..).partition(|&(_, _, is_b)| !is_b);
                            let a: Vec<Node> = a.into_iter().map(|(_, item, _)| item).collect();
                            let b: Vec<Node> = b.into_iter().map(|(_, item, _)| item).collect();
                            let (outputs, _) = pe.fire(&mut arena, &mut scratch, &a, &b);
                            state.occupancy = 0;
                            for (position, item) in outputs.into_iter().enumerate() {
                                let emit = cycle + reduce_cycles + position as u64 * interval;
                                state.pending_out.push((emit, item));
                            }
                        } else {
                            all_drained = false;
                        }
                    }
                    // Move due outputs toward the parent (or the host).
                    if states[id].pending_out.is_empty() {
                        continue;
                    }
                    all_drained = false;
                    let is_root = level_count == 1;
                    let parent_id = if is_root {
                        None
                    } else {
                        let (next_start, _) = levels[level_pos + 1];
                        Some(next_start + pe_index / 2)
                    };
                    // One item per cycle per output port.
                    let due =
                        states[id].pending_out.first().is_some_and(|&(emit, _)| emit <= cycle);
                    if !due {
                        continue;
                    }
                    match parent_id {
                        None => {
                            let (_, item) = states[id].pending_out.remove(0);
                            root_outputs.push((cycle, item));
                            made_progress = true;
                        }
                        Some(parent) => {
                            if states[parent].occupancy >= 2 * self.fifo_capacity {
                                stall_cycles += 1; // backpressure
                            } else {
                                let (_, mut item) = states[id].pending_out.remove(0);
                                let arrival = cycle + link_cycles;
                                item.ready_ns = arrival as f64 * cycle_ns;
                                let is_b = pe_index % 2 == 1;
                                states[parent].arrivals.push((arrival, item, is_b));
                                states[parent].received += 1;
                                states[parent].occupancy += 1;
                                max_occupancy = max_occupancy.max(states[parent].occupancy);
                                made_progress = true;
                            }
                        }
                    }
                }
            }
            // Seal expectations: a parent's window is complete when both
            // children fired and drained their queues.
            for (level_pos, &(level_start, level_count)) in levels.iter().enumerate().skip(1) {
                let (child_start, _) = levels[level_pos - 1];
                for pe_index in 0..level_count {
                    let id = level_start + pe_index;
                    if states[id].expected.is_some() {
                        continue;
                    }
                    let left = child_start + 2 * pe_index;
                    let right = child_start + 2 * pe_index + 1;
                    let children_done = states[left].fired
                        && states[left].pending_out.is_empty()
                        && states[right].fired
                        && states[right].pending_out.is_empty();
                    if children_done {
                        let in_flight = states[id].received;
                        states[id].expected = Some(in_flight);
                        made_progress = true;
                    }
                }
            }
            if all_drained {
                break;
            }
            if made_progress {
                cycle += 1;
                continue;
            }
            // No progress this cycle: if any future event (a pending arrival
            // or a scheduled emission) exists, step on toward it; otherwise
            // the system is deadlocked on backpressure.
            let has_future_event = states.iter().any(|state| {
                state.arrivals.iter().map(|&(arrival, _, _)| arrival).any(|event| event > cycle)
                    || state.pending_out.iter().map(|&(emit, _)| emit).any(|event| event > cycle)
            });
            if has_future_event {
                cycle += 1;
            } else {
                return Err(CycleSimError::Deadlock {
                    at_cycle: cycle,
                    fifo_capacity: self.fifo_capacity,
                });
            }
        }

        Ok(self.finish(&arena, root_outputs, cycle, stall_cycles, max_occupancy, cycle_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::index::{IndexSet, QueryId};
    use crate::indexset;
    use crate::inject::{build_rank_inputs, GatheredVector};
    use crate::timing::PeTiming;

    fn inputs_for(batch: &Batch, ranks: usize) -> RankInputs {
        let gathered: Vec<GatheredVector> = batch
            .unique_indices()
            .iter()
            .map(|index| GatheredVector {
                index,
                rank: index.value() as usize % ranks,
                value: vec![index.value() as f32; 4].into(),
                ready_ns: 50.0 + 5.0 * f64::from(index.value()),
            })
            .collect();
        build_rank_inputs(batch, &gathered, ranks, 2, &PeTiming::default())
    }

    fn tree(ranks: usize) -> ReductionTree {
        let config = FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() };
        ReductionTree::new(config, ranks).unwrap()
    }

    /// The completed queries among root items, with the indices each one
    /// reduced, sorted by query.
    fn completed(items: &[Item]) -> Vec<(QueryId, IndexSet)> {
        let mut done: Vec<(QueryId, IndexSet)> = items
            .iter()
            .flat_map(|item| {
                item.header
                    .queries
                    .iter()
                    .filter(|p| p.is_complete())
                    .map(|p| (p.query, item.header.indices.clone()))
            })
            .collect();
        done.sort_by_key(|(query, _)| *query);
        done
    }

    #[test]
    fn completes_the_same_queries_as_the_event_model() {
        let batch =
            Batch::from_index_sets([indexset![0, 1, 5, 6], indexset![2, 3, 5], indexset![7, 4, 1]]);
        let tree = tree(8);
        let event = tree.run(inputs_for(&batch, 8));
        let cycle = CycleTree::new(&tree, 32).unwrap().run(inputs_for(&batch, 8)).unwrap();
        assert_eq!(completed(&event.outputs), completed(&cycle.outputs));
        assert_eq!(completed(&cycle.outputs).len(), batch.len());
    }

    #[test]
    fn table1_sized_buffers_never_stall() {
        let sets: Vec<_> = (0..16u32).map(|i| indexset![i % 8, (i + 3) % 8, 8 + i % 8]).collect();
        let batch = Batch::from_index_sets(sets);
        let tree = tree(8);
        let run = CycleTree::new(&tree, 16).unwrap().run(inputs_for(&batch, 8)).unwrap();
        assert_eq!(run.stall_cycles, 0, "Table I sizing must avoid backpressure");
        assert!(run.max_occupancy <= 2 * 16);
        assert!(run.completion_cycle > 0);
    }

    #[test]
    fn undersized_buffers_deadlock_and_are_detected() {
        // A PE window larger than the FIFO cannot drain: Table I's sizing is
        // not an optimization but a correctness requirement. The simulator
        // must say so rather than hang.
        let sets: Vec<_> = (0..16u32).map(|i| indexset![i % 8, (i + 3) % 8, 8 + i % 8]).collect();
        let batch = Batch::from_index_sets(sets);
        let tree = tree(8);
        let error = CycleTree::new(&tree, 1).unwrap().run(inputs_for(&batch, 8)).unwrap_err();
        match error.clone() {
            CycleSimError::Deadlock { fifo_capacity, .. } => assert_eq!(fifo_capacity, 1),
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert!(error.to_string().contains("Table I"));
    }

    #[test]
    fn completion_tracks_event_model_estimate() {
        let batch = Batch::from_index_sets([indexset![0, 7, 13, 21], indexset![2, 9]]);
        let tree = tree(8);
        let event = tree.run(inputs_for(&batch, 8));
        let cycle = CycleTree::new(&tree, 32).unwrap().run(inputs_for(&batch, 8)).unwrap();
        // The models make different pipelining assumptions (the cycle model
        // fires on complete windows); they must agree within a small factor.
        let ratio = cycle.completion_ns / event.stats.completion_ns;
        assert!((0.5..3.0).contains(&ratio), "completion ratio {ratio}");
    }

    #[test]
    fn single_query_through_the_root() {
        let batch = Batch::from_index_sets([indexset![0, 7]]);
        let tree = tree(8);
        let run = CycleTree::new(&tree, 8).unwrap().run(inputs_for(&batch, 8)).unwrap();
        assert_eq!(completed(&run.outputs), vec![(QueryId(0), indexset![0, 7])]);
    }

    #[test]
    fn zero_capacity_is_rejected_at_construction() {
        let tree = tree(8);
        let error = CycleTree::new(&tree, 0).unwrap_err();
        assert_eq!(error, CycleSimError::ZeroFifoCapacity);
        assert!(error.to_string().contains("FIFO capacity"));
    }

    #[test]
    fn event_engine_matches_stepped_on_a_fixture() {
        let batch =
            Batch::from_index_sets([indexset![0, 1, 5, 6], indexset![2, 3, 5], indexset![7, 4, 1]]);
        let tree = tree(8);
        let sim = CycleTree::new(&tree, 32).unwrap();
        let fast = sim.run(inputs_for(&batch, 8)).unwrap();
        let stepped = sim.run_stepped(inputs_for(&batch, 8)).unwrap();
        assert_eq!(fast, stepped, "event-driven and stepped engines must agree exactly");
    }

    #[test]
    fn event_engine_matches_stepped_deadlock_cycle() {
        let sets: Vec<_> = (0..16u32).map(|i| indexset![i % 8, (i + 3) % 8, 8 + i % 8]).collect();
        let batch = Batch::from_index_sets(sets);
        let tree = tree(8);
        let sim = CycleTree::new(&tree, 1).unwrap();
        let fast = sim.run(inputs_for(&batch, 8)).unwrap_err();
        let stepped = sim.run_stepped(inputs_for(&batch, 8)).unwrap_err();
        assert_eq!(fast, stepped, "deadlock reports must agree exactly");
    }
}
