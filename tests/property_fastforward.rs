//! Cycle-exactness of event-driven fast-forwarding.
//!
//! Both hot loops — the DDR4 controller driver and the reduction-tree cycle
//! simulator — advance time by jumping to the next event instead of unit
//! stepping. These properties pin the contract that makes that a pure
//! optimization: on arbitrary traffic and arbitrary trees, the
//! fast-forwarded run is **byte-identical** to the retained stepped
//! reference (command logs, stats, completions; outputs, completion and
//! stall cycles).

use proptest::prelude::*;

use fafnir_core::cycle_sim::CycleTree;
use fafnir_core::inject::{build_rank_inputs, GatheredVector};
use fafnir_core::{Batch, FafnirConfig, IndexSet, PeTiming, ReductionTree, VectorIndex};
use fafnir_mem::{MemoryConfig, MemorySystem, PagePolicy, Request, SchedulerPolicy};

/// A random request with staggered arrivals: long gaps are exactly where
/// fast-forwarding skips, so they are where divergence would hide.
fn request_strategy(capacity: u64) -> impl Strategy<Value = Request> {
    (
        0..capacity / 64,
        prop_oneof![Just(64usize), Just(128), Just(512)],
        0u64..40_000,
        any::<bool>(),
    )
        .prop_map(move |(slot, bytes, arrival, write)| {
            let addr = (slot * 64).min(capacity - bytes as u64);
            let request =
                if write { Request::write(addr, bytes) } else { Request::read(addr, bytes) };
            request.at(arrival)
        })
}

/// Refresh always on (refresh deadlines bound the jump), both page policies
/// plus adaptive, both schedulers, and the NDP per-rank data path.
fn config_variants() -> Vec<MemoryConfig> {
    let mut open = MemoryConfig::ddr4_2400_4ch();
    open.refresh = true;
    let mut closed = open;
    closed.page_policy = PagePolicy::Closed;
    let mut adaptive = open;
    adaptive.page_policy = PagePolicy::Adaptive { timeout: 150 };
    let mut fcfs = open;
    fcfs.scheduler = SchedulerPolicy::Fcfs;
    let mut ndp = open;
    ndp.ndp_data_path = true;
    let mut quiet = MemoryConfig::ddr4_2400_4ch();
    quiet.refresh = false;
    vec![open, closed, adaptive, fcfs, ndp, quiet]
}

fn drive(
    config: MemoryConfig,
    requests: &[Request],
    stepped: bool,
) -> (Vec<fafnir_mem::CommandLog>, fafnir_mem::MemoryStats, Vec<fafnir_mem::Completion>, u64) {
    let capacity = config.topology.capacity_bytes();
    let mut mem = MemorySystem::new(config);
    mem.enable_command_logs();
    for request in requests {
        let mut request = *request;
        request.addr = fafnir_mem::PhysAddr(request.addr.value() % (capacity - 4096));
        mem.submit(request);
    }
    let done = if stepped { mem.run_until_idle_stepped() } else { mem.run_until_idle() };
    (mem.take_command_logs(), mem.stats(), mem.take_completions(), done)
}

fn batch_strategy() -> impl Strategy<Value = Batch> {
    proptest::collection::vec(proptest::collection::vec(0u32..48, 1..8), 1..10).prop_map(|sets| {
        sets.into_iter()
            .map(|s| IndexSet::from_iter_dedup(s.into_iter().map(VectorIndex)))
            .collect()
    })
}

fn inputs_for(batch: &Batch, ranks: usize) -> Vec<Vec<fafnir_core::Item>> {
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % ranks,
            value: vec![index.value() as f32; 4].into(),
            ready_ns: 40.0 + 3.0 * f64::from(index.value()),
        })
        .collect();
    build_rank_inputs(batch, &gathered, ranks, 2, &PeTiming::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole parity, memory side: the fast-forwarded driver must issue
    /// every command on the same cycle, count the same stats, and complete
    /// every request identically to pure unit stepping.
    #[test]
    fn fast_forwarded_memory_system_is_cycle_exact(
        requests in proptest::collection::vec(
            request_strategy(MemoryConfig::ddr4_2400_4ch().topology.capacity_bytes()), 1..30),
        variant in 0usize..6,
    ) {
        let config = config_variants()[variant];
        let (logs_fast, stats_fast, done_fast, final_fast) = drive(config, &requests, false);
        let (logs_step, stats_step, done_step, final_step) = drive(config, &requests, true);
        prop_assert_eq!(logs_fast, logs_step, "command logs diverge");
        prop_assert_eq!(stats_fast, stats_step, "stats diverge");
        prop_assert_eq!(done_fast, done_step, "completions diverge");
        prop_assert_eq!(final_fast, final_step, "final cycle diverges");
    }

    /// Tentpole parity, tree side: the ready-queue cycle simulator must
    /// report the same outputs, completion cycle, stall count and peak
    /// occupancy as the per-cycle sweep, at any FIFO capacity — including
    /// capacities small enough to deadlock, where the errors must agree.
    #[test]
    fn fast_forwarded_cycle_tree_matches_stepped(
        batch in batch_strategy(),
        capacity in 1usize..24,
    ) {
        let config = FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() };
        let tree = ReductionTree::new(config, 8).unwrap();
        let sim = CycleTree::new(&tree, capacity).expect("non-zero capacity");
        let fast = sim.run(inputs_for(&batch, 8));
        let stepped = sim.run_stepped(inputs_for(&batch, 8));
        match (fast, stepped) {
            (Ok(fast), Ok(stepped)) => {
                prop_assert_eq!(&fast.outputs, &stepped.outputs, "outputs diverge");
                prop_assert_eq!(fast.completion_cycle, stepped.completion_cycle);
                prop_assert!((fast.completion_ns - stepped.completion_ns).abs() < 1e-9);
                prop_assert_eq!(fast.stall_cycles, stepped.stall_cycles, "stall cycles diverge");
                prop_assert_eq!(fast.max_occupancy, stepped.max_occupancy);
            }
            (Err(fast), Err(stepped)) => {
                prop_assert_eq!(fast.to_string(), stepped.to_string(), "errors diverge");
            }
            (fast, stepped) => {
                return Err(TestCaseError::fail(format!(
                    "one engine deadlocked, the other did not: fast={fast:?} stepped={stepped:?}"
                )));
            }
        }
    }
}
