//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. leaf fan-in ratio (1PE:1R vs 1PE:2R vs 1PE:4R, Sec. IV-B),
//! 2. DRAM page policy (open vs closed — row-buffer-locality sensitivity),
//! 3. workload skew (how much of the dedup win survives as traffic
//!    approaches uniform),
//! 4. hardware batch capacity (splitting software batches).

use fafnir_bench::{banner, ns, paper_memory, paper_traffic, print_table, times};
use fafnir_core::{FafnirConfig, FafnirEngine, GatherEngine, StripedSource};
use fafnir_mem::PagePolicy;
use fafnir_workloads::query::{BatchGenerator, Popularity};

fn main() {
    leaf_ratio();
    page_policy();
    skew_sweep();
    batch_capacity();
    temporal_drift();
    host_arrangement();
    scheduler_policy();
    table_placement();
}

fn table_placement() {
    banner(
        "Ablation 8 — table placement x traffic skew (Fig. 4b's layout choice)",
        "rank striping spreads hot indices; table-contiguous piles them on one rank",
    );
    use fafnir_workloads::{EmbeddingTableSet, TablePlacement};
    let mem = paper_memory();
    // Skewed global traffic: hot indices cluster in the low tables.
    let mut generator = fafnir_workloads::query::BatchGenerator::new(
        fafnir_workloads::query::Popularity::Zipf { exponent: 1.15 },
        32 * 4_096,
        16,
        68,
    );
    let batch = generator.batch(32);
    let mut rows = Vec::new();
    for (name, placement) in [
        ("rank-striped (paper)", TablePlacement::RankStriped),
        ("table-contiguous", TablePlacement::TableContiguous),
    ] {
        let tables = EmbeddingTableSet::new(mem.topology, 32, 4_096, 128).with_placement(placement);
        let engine = FafnirEngine::paper_default(mem).expect("engine");
        let result = engine.lookup(&batch, &tables).expect("lookup");
        rows.push(vec![
            name.into(),
            ns(result.latency.memory_ns),
            ns(result.latency.total_ns),
            format!("{:.0} %", result.memory.row_hit_rate() * 100.0),
        ]);
    }
    print_table(&["placement", "memory phase", "total", "row-hit rate"], &rows);
}

fn scheduler_policy() {
    banner(
        "Ablation 7 — controller arbitration: FR-FCFS vs FCFS",
        "row-hit-first reordering is part of the memory-latency story",
    );
    let source = StripedSource::new(paper_memory().topology, 128);
    let mut generator = paper_traffic(67);
    let batch = generator.batch(32);
    let mut rows = Vec::new();
    for (name, scheduler) in [
        ("fr-fcfs", fafnir_mem::SchedulerPolicy::FrFcfs),
        ("fcfs", fafnir_mem::SchedulerPolicy::Fcfs),
    ] {
        let mut mem = paper_memory();
        mem.scheduler = scheduler;
        let engine = FafnirEngine::paper_default(mem).expect("engine");
        let result = engine.lookup(&batch, &source).expect("lookup");
        rows.push(vec![
            name.into(),
            ns(result.latency.memory_ns),
            format!("{:.0} %", result.memory.row_hit_rate() * 100.0),
            result.memory.max_queue_depth.to_string(),
        ]);
    }
    print_table(&["scheduler", "memory phase", "row-hit rate", "max queue depth"], &rows);
}

fn host_arrangement() {
    banner(
        "Ablation 6 — host batch arrangement (Sec. IV-B)",
        "grouping sharers into one hardware batch keeps dedup working across splits",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let naive = FafnirEngine::new(
        FafnirConfig { batch_capacity: 16, ..FafnirConfig::paper_default() },
        mem,
    )
    .expect("engine");
    let arranged = FafnirEngine::new(
        FafnirConfig { batch_capacity: 16, arrange_batches: true, ..FafnirConfig::paper_default() },
        mem,
    )
    .expect("engine");
    let mut generator = paper_traffic(66);
    let mut rows = Vec::new();
    for software_batch in [32usize, 64, 128] {
        let batch = generator.batch(software_batch);
        let naive_result = naive.lookup(&batch, &source).expect("naive");
        let arranged_result = arranged.lookup(&batch, &source).expect("arranged");
        rows.push(vec![
            software_batch.to_string(),
            naive_result.traffic.vectors_read.to_string(),
            arranged_result.traffic.vectors_read.to_string(),
            format!(
                "{:.1} %",
                (1.0 - arranged_result.traffic.vectors_read as f64
                    / naive_result.traffic.vectors_read as f64)
                    * 100.0
            ),
        ]);
    }
    print_table(
        &["software batch", "reads (arrival order)", "reads (arranged)", "extra savings"],
        &rows,
    );
}

fn temporal_drift() {
    banner(
        "Ablation 5 — temporal drift: caches vs dedup",
        "finding: both mechanisms feed on short-range reuse and degrade together under \
drift — but dedup matches the 128 KB-per-rank cache benefit with zero storage",
    );
    use fafnir_workloads::trace::QueryTrace;
    let mut rows = Vec::new();
    for (name, popularity) in [
        ("static zipf 1.05", Popularity::Zipf { exponent: 1.05 }),
        ("drifting (2 idx/query)", Popularity::DriftingZipf { exponent: 1.05, drift_per_query: 2 }),
        (
            "drifting (20 idx/query)",
            Popularity::DriftingZipf { exponent: 1.05, drift_per_query: 20 },
        ),
    ] {
        let mut generator = BatchGenerator::new(popularity, 100_000, 16, 65);
        let trace = QueryTrace::record(&mut generator, 600);
        let distances = trace.reuse_distances();
        // RecNMP-class cache: 128 KB = 256 vectors, idealized fully
        // associative LRU.
        let hit_rate = distances.lru_hit_rate(256);
        // Dedup's win: mean per-batch access savings at batch 32.
        let mut savings = 0.0;
        for batch in trace.replay(32).iter().take(18) {
            savings += batch.access_savings();
        }
        savings /= 18.0;
        rows.push(vec![
            name.into(),
            format!("{:.1} %", hit_rate * 100.0),
            format!("{:.1} %", savings * 100.0),
        ]);
    }
    print_table(&["traffic", "LRU-256 hit rate (cache)", "batch dedup savings"], &rows);
}

fn leaf_ratio() {
    banner(
        "Ablation 1 — leaf fan-in ratio",
        "1PE:2R is the paper's default; fewer PEs trade parallel injection for area",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let mut generator = paper_traffic(61);
    let batch = generator.batch(16);
    let mut rows = Vec::new();
    for ranks_per_leaf in [1usize, 2, 4] {
        let config = FafnirConfig { ranks_per_leaf, ..FafnirConfig::paper_default() };
        let engine = FafnirEngine::new(config, mem).expect("valid config");
        let result = engine.lookup(&batch, &source).expect("lookup");
        rows.push(vec![
            format!("1PE:{ranks_per_leaf}R"),
            config.pe_count(32).to_string(),
            ns(result.latency.total_ns),
            ns(result.latency.compute_tail_ns),
        ]);
    }
    print_table(&["ratio", "PEs", "total", "compute tail"], &rows);
}

fn page_policy() {
    banner(
        "Ablation 2 — DRAM page policy",
        "finding: FAFNIR's whole-vector layout is page-policy-insensitive — each \
vector streams from one row visit, so smart auto-precharge costs nothing",
    );
    let source = StripedSource::new(paper_memory().topology, 128);
    // Random traffic: vectors rarely share a row, so the policies tie —
    // FAFNIR's layout is insensitive to the page policy (a finding itself).
    let mut generator = paper_traffic(62);
    let random_batch = generator.batch(16);
    // Row-reuse stress: indices 512 apart land in the same (rank, bank,
    // row) under the striped layout — open-page converts the repeat visits
    // into row hits.
    let stress_batch =
        fafnir_core::Batch::from_index_sets([fafnir_core::IndexSet::from_iter_dedup(
            (0..16u32).map(|i| fafnir_core::VectorIndex(i * 512)),
        )]);
    for (label, batch) in [("random traffic", &random_batch), ("row-reuse stress", &stress_batch)] {
        println!("{label}:");
        let mut rows = Vec::new();
        for (name, policy) in [("open", PagePolicy::Open), ("closed", PagePolicy::Closed)] {
            let mut mem = paper_memory();
            mem.page_policy = policy;
            let engine = FafnirEngine::paper_default(mem).expect("engine");
            let result = engine.lookup(batch, &source).expect("lookup");
            rows.push(vec![
                name.into(),
                ns(result.latency.memory_ns),
                format!("{:.0} %", result.memory.row_hit_rate() * 100.0),
                result.memory.activations.to_string(),
            ]);
        }
        print_table(&["policy", "memory", "row-hit rate", "activations"], &rows);
        println!();
    }
}

fn skew_sweep() {
    banner(
        "Ablation 3 — workload skew vs dedup win",
        "the dedup multiplier exists only under skewed (production-like) traffic",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let dedup = FafnirEngine::paper_default(mem).expect("engine");
    let raw_config = FafnirConfig { dedup: false, ..FafnirConfig::paper_default() };
    let raw = FafnirEngine::new(raw_config, mem).expect("engine");
    let mut rows = Vec::new();
    for exponent in [0.0f64, 0.6, 1.05, 1.4] {
        let mut generator = BatchGenerator::new(Popularity::Zipf { exponent }, 2_000, 16, 63);
        let mut savings = 0.0;
        let mut win = 0.0;
        let trials = 5;
        for _ in 0..trials {
            let batch = generator.batch(32);
            let with = dedup.lookup(&batch, &source).expect("dedup lookup");
            let without = raw.lookup(&batch, &source).expect("raw lookup");
            savings += 1.0 - with.traffic.vectors_read as f64 / without.traffic.vectors_read as f64;
            win += without.latency.total_ns / with.latency.total_ns;
        }
        rows.push(vec![
            format!("zipf {exponent:.2}"),
            format!("{:.1} %", savings / trials as f64 * 100.0),
            times(win / trials as f64),
        ]);
    }
    print_table(&["traffic", "access savings", "dedup speedup"], &rows);
}

fn batch_capacity() {
    banner(
        "Ablation 4 — hardware batch capacity",
        "software batches beyond B are served as several hardware batches",
    );
    let mem = paper_memory();
    let source = StripedSource::new(mem.topology, 128);
    let mut generator = paper_traffic(64);
    let batch = generator.batch(32);
    let mut rows = Vec::new();
    for capacity in [8usize, 16, 32] {
        let config = FafnirConfig { batch_capacity: capacity, ..FafnirConfig::paper_default() };
        let engine = FafnirEngine::new(config, mem).expect("engine");
        let result = engine.lookup(&batch, &source).expect("lookup");
        rows.push(vec![
            capacity.to_string(),
            (32usize.div_ceil(capacity)).to_string(),
            ns(result.latency.total_ns),
            result.traffic.vectors_read.to_string(),
        ]);
    }
    print_table(&["B", "hardware batches", "total", "vector reads"], &rows);
}
