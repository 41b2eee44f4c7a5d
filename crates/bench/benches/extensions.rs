//! Extensions beyond the paper's evaluation, implementing its stated
//! future-work directions and completing the energy story:
//!
//! 1. **HBM2 integration** (Sec. VIII): leaf PEs attached to 32 pseudo
//!    channels instead of DDR4 ranks.
//! 2. **Full energy accounting**: DRAM + tree energy per engine (the paper
//!    reports access savings; this adds the joules).
//! 3. **Refresh sensitivity**: the evaluation ignores refresh; quantify it.
//! 4. **Interactive vs batch processing** (Sec. IV-C's interactive mode).
//! 5. The deployment report for the paper's floorplan (Fig. 4a).

use fafnir_baselines::{NoNdpEngine, RecNmpEngine};
use fafnir_bench::{banner, engines, ns, paper_memory, paper_traffic, print_table, times};
use fafnir_core::model::energy::TreeEnergyModel;
use fafnir_core::model::report::DeploymentSummary;
use fafnir_core::{FafnirConfig, FafnirEngine, GatherEngine, StripedSource};
use fafnir_mem::{EnergyModel, MemoryConfig};

fn main() {
    hbm_integration();
    energy_accounting();
    refresh_sensitivity();
    interactive_vs_batch();
    measured_stream_throughput();
    buffer_sizing_validation();
    tail_latency_and_stragglers();
    warm_cache_vs_dedup();
    deployment_report();
}

fn warm_cache_vs_dedup() {
    banner(
        "Extension 7 — cross-batch reuse: RecNMP's warm caches vs FAFNIR's dedup",
        "caches warm up over a stream; dedup is stateless and per-batch — the fair \
long-running comparison",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let recnmp = RecNmpEngine::paper_default(mem);
    let fafnir = FafnirEngine::new(FafnirConfig::paper_default(), mem).expect("engine");
    let mut generator = paper_traffic(79);
    let batches: Vec<_> = (0..6).map(|_| generator.batch(32)).collect();
    let warm = recnmp.lookup_warm_stream(&batches, &source).expect("recnmp stream");
    let mut rows = Vec::new();
    for (position, (recnmp_result, hit_rate)) in warm.iter().enumerate() {
        let fafnir_result = fafnir.lookup(&batches[position], &source).expect("fafnir");
        rows.push(vec![
            position.to_string(),
            format!("{:.0} %", hit_rate * 100.0),
            recnmp_result.memory.requests_completed.to_string(),
            fafnir_result.traffic.vectors_read.to_string(),
        ]);
    }
    print_table(
        &["batch #", "recnmp cache hits", "recnmp DRAM reads", "fafnir DRAM reads (dedup)"],
        &rows,
    );
}

fn tail_latency_and_stragglers() {
    banner(
        "Extension 6 — serving tail latency and straggler ranks",
        "p99 tracks the slowest rank's bandwidth; queries avoiding it finish far earlier",
    );
    let source = StripedSource::new(paper_memory().topology, 128);
    let mut generator = paper_traffic(78);
    let batch = generator.batch(32);
    let mut rows = Vec::new();
    for (name, straggler) in [
        ("healthy", None),
        // The per-burst penalty compounds into a bandwidth throttle on the
        // rank's port (in-order data return).
        ("rank 0 ~10x slower", Some((0usize, 0usize, 50u64))),
        ("rank 0 ~60x slower", Some((0, 0, 250))),
    ] {
        let mut mem = paper_memory();
        mem.straggler = straggler;
        let engine = FafnirEngine::new(FafnirConfig::paper_default(), mem).expect("engine");
        let result = engine.lookup(&batch, &source).expect("lookup");
        rows.push(vec![
            name.into(),
            ns(result.completion_percentile_ns(0.25)),
            ns(result.completion_percentile_ns(0.5)),
            ns(result.completion_percentile_ns(0.99)),
            ns(result.latency.memory_ns),
        ]);
    }
    print_table(&["system", "p25", "p50", "p99", "memory phase"], &rows);
}

fn buffer_sizing_validation() {
    banner(
        "Extension 4c — Table I sizing validated by cycle simulation",
        "window semantics make undersized FIFOs deadlock; B-sized FIFOs never stall",
    );
    use fafnir_core::cycle_sim::CycleTree;
    use fafnir_core::inject::{build_rank_inputs, GatheredVector};
    use fafnir_core::ReductionTree;
    let config = FafnirConfig { vector_dim: 16, ..FafnirConfig::paper_default() };
    let tree = ReductionTree::new(config, 8).expect("tree");
    let batch = paper_traffic(76).batch(16);
    let gathered: Vec<GatheredVector> = batch
        .unique_indices()
        .iter()
        .map(|index| GatheredVector {
            index,
            rank: index.value() as usize % 8,
            value: vec![1.0; 16].into(),
            ready_ns: 60.0,
        })
        .collect();
    let inputs = |cap: usize| {
        let _ = cap;
        build_rank_inputs(&batch, &gathered, 8, 2, &fafnir_core::PeTiming::default())
    };
    let mut rows = Vec::new();
    for capacity in [1usize, 2, 4, 8, 16, 32] {
        let outcome =
            CycleTree::new(&tree, capacity).expect("non-zero capacity").run(inputs(capacity));
        rows.push(match outcome {
            Ok(run) => vec![
                capacity.to_string(),
                "completes".into(),
                format!("{} cy", run.completion_cycle),
                run.max_occupancy.to_string(),
            ],
            Err(_) => {
                vec![capacity.to_string(), "DEADLOCK".into(), "-".into(), "window > FIFO".into()]
            }
        });
    }
    print_table(&["FIFO capacity", "outcome", "completion", "max occupancy"], &rows);
}

fn measured_stream_throughput() {
    banner(
        "Extension 4b — measured pipelined throughput (lookup_stream)",
        "batches share one memory system; sustained rate is measured, not modelled",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let engine = FafnirEngine::new(FafnirConfig::paper_default(), mem).expect("engine");
    let mut generator = paper_traffic(75);
    let mut rows = Vec::new();
    for batch_size in [8usize, 16, 32] {
        let batches: Vec<_> = (0..8).map(|_| generator.batch(batch_size)).collect();
        let stream = engine.lookup_stream(&batches, &source).expect("stream");
        let single = engine.lookup(&batches[0], &source).expect("single");
        rows.push(vec![
            batch_size.to_string(),
            ns(single.latency.total_ns),
            ns(stream.sustained_ns_per_batch()),
            times(single.latency.total_ns / stream.sustained_ns_per_batch()),
            format!("{:.1} Mq/s", stream.queries_per_second() / 1e6),
        ]);
    }
    print_table(
        &["batch", "latency/batch", "sustained/batch", "pipelining gain", "throughput"],
        &rows,
    );
}

fn hbm_integration() {
    banner(
        "Extension 1 — HBM2 integration (paper future work, Sec. VIII)",
        "leaf PEs on 32 HBM pseudo channels instead of 32 DDR4 ranks",
    );
    let batch = paper_traffic(71).batch(32);
    let mut rows = Vec::new();
    for (name, mem) in [
        ("DDR4-2400, 32 ranks", paper_memory()),
        ("DDR5-4800, 32 ranks", MemoryConfig::ddr5_4800_4ch()),
        ("HBM2, 32 pseudo ch.", MemoryConfig::hbm2_32pc()),
    ] {
        let source = StripedSource::new(mem.topology, 128);
        let engine = FafnirEngine::paper_default(mem).expect("engine");
        let result = engine.lookup(&batch, &source).expect("lookup");
        rows.push(vec![
            name.into(),
            ns(result.latency.memory_ns),
            ns(result.latency.total_ns),
            format!("{:.0} %", result.memory.row_hit_rate() * 100.0),
        ]);
    }
    print_table(&["memory system", "memory phase", "total", "row-hit rate"], &rows);
}

fn energy_accounting() {
    banner(
        "Extension 2 — full lookup energy (DRAM + tree)",
        "dedup's access savings translate into joules; tree energy is marginal",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let (fafnir, recnmp, tensordimm, no_ndp) = engines(mem);
    let fafnir_raw = fafnir_bench::fafnir_without_dedup(mem);
    let dram_model = EnergyModel::ddr4();
    let tree_model = TreeEnergyModel::asap7();
    let batch = paper_traffic(72).batch(32);

    let fafnir_result = fafnir.lookup(&batch, &source).expect("fafnir");
    let tree_nj = tree_model.tree_energy_nj(&fafnir_result.tree.ops);
    let mut rows = vec![vec![
        "fafnir".to_string(),
        format!("{:.0} nJ", dram_model.dynamic_nj(&fafnir_result.memory)),
        format!("{tree_nj:.1} nJ"),
        format!("{:.0} nJ", dram_model.dynamic_nj(&fafnir_result.memory) + tree_nj),
    ]];
    for (name, result) in [
        ("fafnir (no dedup)", fafnir_raw.lookup(&batch, &source).expect("raw")),
        ("recnmp", recnmp.lookup(&batch, &source).expect("recnmp")),
        ("tensordimm", tensordimm.lookup(&batch, &source).expect("tensordimm")),
        ("no-ndp", no_ndp.lookup(&batch, &source).expect("no-ndp")),
    ] {
        let dram = dram_model.dynamic_nj(&result.memory);
        rows.push(vec![name.into(), format!("{dram:.0} nJ"), "-".into(), format!("{dram:.0} nJ")]);
    }
    print_table(&["engine", "DRAM dynamic", "tree", "total"], &rows);
}

fn refresh_sensitivity() {
    banner(
        "Extension 3 — refresh sensitivity",
        "a single batch finishes well inside tREFI; sustained streams pay ~4 % (tRFC/tREFI)",
    );
    // A read stream spanning several refresh intervals on one rank.
    let mut rows = Vec::new();
    for (name, refresh) in [("off", false), ("on", true)] {
        let mut mem = MemoryConfig::ddr4_2400_1ch_1rank();
        mem.refresh = refresh;
        mem.ndp_data_path = true;
        let mut system = fafnir_mem::MemorySystem::new(mem);
        let interval = mem.timing.tREFI / 16;
        let mut ids = Vec::new();
        for burst in 0..64u64 {
            // Paced arrivals stretch the stream over 4 × tREFI.
            ids.push(
                system
                    .submit(fafnir_mem::Request::read(burst * 16 * 8192, 512).at(burst * interval)),
            );
        }
        let done = system.run_until_idle();
        let stats = system.stats();
        rows.push(vec![
            name.into(),
            ns(mem.timing.cycles_to_ns(done)),
            stats.refreshes.to_string(),
            format!("{:.1}", stats.mean_request_latency()),
        ]);
    }
    print_table(&["refresh", "stream time", "REF cycles", "mean latency (cy)"], &rows);
}

fn interactive_vs_batch() {
    banner(
        "Extension 4 — interactive vs batch processing (Sec. IV-C)",
        "batch mode shares unique reads and gather parallelism",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let engine = FafnirEngine::new(FafnirConfig::paper_default(), mem).expect("engine");
    let batch = paper_traffic(74).batch(16);
    let batched = engine.lookup(&batch, &source).expect("batched");
    let interactive = engine.lookup_interactive(&batch, &source).expect("interactive");
    let rows = vec![
        vec![
            "batch".to_string(),
            ns(batched.latency.total_ns),
            batched.traffic.vectors_read.to_string(),
        ],
        vec![
            "interactive".to_string(),
            ns(interactive.latency.total_ns),
            interactive.traffic.vectors_read.to_string(),
        ],
        vec![
            "batch advantage".to_string(),
            times(interactive.latency.total_ns / batched.latency.total_ns),
            times(interactive.traffic.vectors_read as f64 / batched.traffic.vectors_read as f64),
        ],
    ];
    print_table(&["mode", "latency", "vector reads"], &rows);
}

fn deployment_report() {
    banner("Extension 5 — deployment report (Fig. 4a floorplan)", "node grouping + totals");
    let summary = DeploymentSummary::new(&FafnirConfig::paper_default(), 32, 4);
    println!("{}", summary.render());
    // Comparison point from the paper: RecNMP and the no-NDP organization.
    let recnmp = RecNmpEngine::paper_default(paper_memory());
    let no_ndp = NoNdpEngine::paper_default(paper_memory());
    println!("(engines available for comparison: {}, {})", recnmp.name(), no_ndp.name());
}
