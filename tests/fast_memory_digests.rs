//! Pins both memory models' completions and counters on requests that
//! cross rows and banks.
//!
//! Each configuration runs seeded streams on fresh models: reads through
//! `AnyMemory::submit_read_at` at staggered arrivals, one `gather_plan` of
//! planned reads, and, on the cycle model, reads and writes through
//! `MemorySystem::submit` at raw addresses, some not burst-aligned and some
//! past the capacity, where the row field wraps. Reads are 64, 100, 512 and
//! 8,192 B, and a third of them start in one of a row's last four columns,
//! so most cross into the next bank. Half the traffic lands in a few hot
//! rows of a few banks, so banks see hits, conflicts and idle gaps. An
//! FNV-1a digest folds every completion (start, finish and its hit, miss
//! and conflict counts), the idle cycle and the final `MemoryStats`.
//!
//! The digests were recorded while both models decoded every burst of a
//! request from its address, so a rewrite of how a request becomes bursts
//! must price and queue every burst as before to pass. Configurations:
//! both models × {open, closed, adaptive 10, adaptive 10,000} pages ×
//! {shared bus, NDP data path} × {refresh off, on}, then a straggler rank,
//! the channel-interleaved mapping and the other presets.
//!
//! When a deliberate model change moves a digest, the failure message
//! prints the full table to paste back here.

use fafnir_core::pipeline::gather_plan;
use fafnir_core::{Batch, MemoryPlan, PlannedRead, VectorIndex};
use fafnir_mem::{
    AddressMapping, AnyMemory, Location, MemoryConfig, MemoryModelKind, MemoryStats, MemorySystem,
    PagePolicy, Request,
};

/// Seeds per configuration.
const SEEDS: u64 = 3;
/// Requests per stream.
const REQUESTS: usize = 24;
/// Arrivals spread over this many cycles: long enough for refreshes, and
/// for a hot bank to sit idle past the long adaptive timeout now and then.
const ARRIVAL_SPREAD: u64 = 40_000;

/// The recorded digest of each configuration, in [`configs`] order.
const RECORDED: &[(&str, u64)] = &[
    ("cycle/open/bus/norefresh", 0xadc322c88e2a7382),
    ("cycle/open/bus/refresh", 0x5b1f38f55b354e1f),
    ("cycle/open/ndp/norefresh", 0x0422c5c53fef6d7f),
    ("cycle/open/ndp/refresh", 0x8f7819963d5aa7e8),
    ("cycle/closed/bus/norefresh", 0xed24ebb41d1e66ec),
    ("cycle/closed/bus/refresh", 0xc1e07b677378a2eb),
    ("cycle/closed/ndp/norefresh", 0x3cacaa1669bb4212),
    ("cycle/closed/ndp/refresh", 0x9eb0dd805f329ff7),
    ("cycle/adaptive10/bus/norefresh", 0xbc9e72b7a31af25b),
    ("cycle/adaptive10/bus/refresh", 0x2353c83ce7974e44),
    ("cycle/adaptive10/ndp/norefresh", 0xff05d0eed5aa1372),
    ("cycle/adaptive10/ndp/refresh", 0x2ee261d3d422c372),
    ("cycle/adaptive10000/bus/norefresh", 0xcedd2bab069c2c04),
    ("cycle/adaptive10000/bus/refresh", 0x5b1f38f55b354e1f),
    ("cycle/adaptive10000/ndp/norefresh", 0x2140a9e8ac7825a0),
    ("cycle/adaptive10000/ndp/refresh", 0x8f7819963d5aa7e8),
    ("cycle/straggler", 0x7f34796b51645768),
    ("cycle/interleaved", 0x7a35f50d4218e679),
    ("cycle/interleaved/adaptive10/ndp/refresh", 0x2efeff35fe008687),
    ("cycle/ddr5", 0xaea967fdc0e9c010),
    ("cycle/hbm2", 0x76bd2637c56d14fd),
    ("cycle/1rank", 0x3abe1bf8bee6985b),
    ("fast/open/bus/norefresh", 0x41efd06c2efbfe87),
    ("fast/open/bus/refresh", 0x8216fe565fdf8f20),
    ("fast/open/ndp/norefresh", 0x18d60e26c1b0ec6a),
    ("fast/open/ndp/refresh", 0xe6b791b3053e5596),
    ("fast/closed/bus/norefresh", 0xd67e8c4a066e8db5),
    ("fast/closed/bus/refresh", 0x122080f3fed97254),
    ("fast/closed/ndp/norefresh", 0x23e8a97085ded4d3),
    ("fast/closed/ndp/refresh", 0x3c367ac806ab7dd5),
    ("fast/adaptive10/bus/norefresh", 0x6a3fc6e23598c08a),
    ("fast/adaptive10/bus/refresh", 0xa7b7bc73ca2016cc),
    ("fast/adaptive10/ndp/norefresh", 0x164e139d5e97d74c),
    ("fast/adaptive10/ndp/refresh", 0xdb9385f21630f9d6),
    ("fast/adaptive10000/bus/norefresh", 0xd7d6547284cc910b),
    ("fast/adaptive10000/bus/refresh", 0x9d6ede694b7fc5d7),
    ("fast/adaptive10000/ndp/norefresh", 0x80340f3eb1330bb0),
    ("fast/adaptive10000/ndp/refresh", 0x2038710e3facd8dd),
    ("fast/straggler", 0xdbb63e64f97b1bb5),
    ("fast/interleaved", 0x5a41035f61119ec8),
    ("fast/interleaved/adaptive10/ndp/refresh", 0xba10e9c2856dd650),
    ("fast/ddr5", 0xaaaf5cba1a87544a),
    ("fast/hbm2", 0x3e6819cf54d19899),
    ("fast/1rank", 0x5bec638c85f7386c),
];

/// splitmix64: a self-contained generator, so the traffic never depends on
/// a random-number crate's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn stats(&mut self, stats: MemoryStats) {
        for value in [
            stats.reads,
            stats.writes,
            stats.activations,
            stats.precharges,
            stats.refreshes,
            stats.row_hits,
            stats.row_misses,
            stats.row_conflicts,
            stats.requests_completed,
            stats.total_request_latency,
            stats.bytes_transferred,
            stats.max_queue_depth,
        ] {
            self.word(value);
        }
    }
}

/// Both models × {open, closed, adaptive 10, adaptive 10,000} ×
/// {shared bus, NDP} × {refresh off, on}, then a straggler rank, the
/// channel-interleaved mapping and the other presets.
fn configs() -> Vec<(String, MemoryConfig)> {
    let mut out = Vec::new();
    for (model_name, model) in [("cycle", MemoryModelKind::Cycle), ("fast", MemoryModelKind::Fast)]
    {
        let mut push = |name: String, mut config: MemoryConfig| {
            config.model = model;
            out.push((format!("{model_name}/{name}"), config));
        };
        for (page_name, page) in [
            ("open", PagePolicy::Open),
            ("closed", PagePolicy::Closed),
            ("adaptive10", PagePolicy::Adaptive { timeout: 10 }),
            ("adaptive10000", PagePolicy::Adaptive { timeout: 10_000 }),
        ] {
            for (bus_name, ndp) in [("bus", false), ("ndp", true)] {
                for (refresh_name, refresh) in [("norefresh", false), ("refresh", true)] {
                    let mut config = MemoryConfig::ddr4_2400_4ch();
                    config.page_policy = page;
                    config.ndp_data_path = ndp;
                    config.refresh = refresh;
                    push(format!("{page_name}/{bus_name}/{refresh_name}"), config);
                }
            }
        }
        let mut straggler = MemoryConfig::ddr4_2400_4ch();
        straggler.straggler = Some((0, 1, 300));
        push("straggler".into(), straggler);
        let mut interleaved = MemoryConfig::ddr4_2400_4ch();
        interleaved.mapping = AddressMapping::ChannelInterleaved;
        push("interleaved".into(), interleaved);
        interleaved.page_policy = PagePolicy::Adaptive { timeout: 10 };
        interleaved.ndp_data_path = true;
        interleaved.refresh = true;
        push("interleaved/adaptive10/ndp/refresh".into(), interleaved);
        push("ddr5".into(), MemoryConfig::ddr5_4800_4ch());
        push("hbm2".into(), MemoryConfig::hbm2_32pc());
        push("1rank".into(), MemoryConfig::ddr4_2400_1ch_1rank());
    }
    out
}

/// A read size: mostly one vector, sometimes a burst, a partial burst or
/// a long run of rows.
fn bytes(rng: &mut SplitMix) -> usize {
    match rng.below(8) {
        0 => 64,
        1 => 100,
        2..=6 => 512,
        _ => 8_192,
    }
}

/// A location. Half land in three hot rows of four banks; a third start
/// in one of a row's last four columns.
fn location(rng: &mut SplitMix, config: &MemoryConfig) -> Location {
    let t = config.topology;
    let mut location = if rng.below(2) == 0 {
        Location {
            channel: 0,
            rank: rng.below(2.min(t.ranks_per_channel())),
            bank_group: 0,
            bank: rng.below(2),
            row: rng.below(3),
            column: 0,
        }
    } else {
        Location {
            channel: rng.below(t.channels),
            rank: rng.below(t.ranks_per_channel()),
            bank_group: rng.below(t.bank_groups),
            bank: rng.below(t.banks_per_group),
            row: rng.below(t.rows),
            column: 0,
        }
    };
    location.column =
        if rng.below(3) == 0 { t.columns - 1 - rng.below(4) } else { rng.below(t.columns) };
    location
}

/// Reads through `AnyMemory::submit_read_at` at staggered arrivals.
fn read_at_stream(config: MemoryConfig, rng: &mut SplitMix, fnv: &mut Fnv) {
    let mut memory = AnyMemory::new(config);
    let ids: Vec<_> = (0..REQUESTS)
        .map(|_| {
            let location = location(rng, &config);
            let bytes = bytes(rng);
            memory.submit_read_at(location, bytes, rng.below(ARRIVAL_SPREAD as usize) as u64)
        })
        .collect();
    fnv.word(memory.run_until_idle());
    for id in ids {
        let completion = memory.completion(id).expect("every read completes");
        fnv.word(completion.id.0);
        fnv.word(completion.start_cycle);
        fnv.word(completion.finish_cycle);
        fnv.word(u64::from(completion.row_hits));
        fnv.word(u64::from(completion.row_misses));
        fnv.word(u64::from(completion.row_conflicts));
    }
    fnv.stats(memory.stats());
}

/// One plan of reads through `gather_plan`.
fn plan_stream(config: MemoryConfig, rng: &mut SplitMix, fnv: &mut Fnv) {
    let mut plan = MemoryPlan::new(Batch::new(), config);
    for index in 0..REQUESTS {
        let location = location(rng, &config);
        plan.reads.push(PlannedRead {
            index: VectorIndex(index as u32),
            location,
            rank: location.global_rank(&config.topology),
            bytes: bytes(rng),
        });
    }
    let outcome = gather_plan(&plan);
    for completion in &outcome.completions {
        fnv.word(u64::from(completion.index.value()));
        fnv.word(completion.rank as u64);
        fnv.word(completion.ready_ns.to_bits());
    }
    fnv.word(outcome.idle_ns.to_bits());
    fnv.stats(outcome.memory);
}

/// Reads and writes through `MemorySystem::submit` at raw addresses: a
/// quarter of them not burst-aligned, a quarter past the capacity.
fn submit_stream(config: MemoryConfig, rng: &mut SplitMix, fnv: &mut Fnv) {
    let mut memory = MemorySystem::new(config);
    let capacity = config.topology.capacity_bytes();
    for _ in 0..REQUESTS {
        let mut addr = config.mapping.encode(location(rng, &config), &config.topology).value();
        match rng.below(4) {
            0 => addr += rng.below(64) as u64,
            1 => addr += capacity * (1 + rng.below(3) as u64),
            _ => {}
        }
        let bytes = bytes(rng);
        let request = if rng.below(4) == 0 {
            Request::write(addr, bytes)
        } else {
            Request::read(addr, bytes)
        };
        memory.submit(request.at(rng.below(ARRIVAL_SPREAD as usize) as u64));
    }
    fnv.word(memory.run_until_idle());
    for completion in memory.take_completions() {
        fnv.word(completion.id.0);
        fnv.word(completion.start_cycle);
        fnv.word(completion.finish_cycle);
        fnv.word(u64::from(completion.row_hits));
        fnv.word(u64::from(completion.row_misses));
        fnv.word(u64::from(completion.row_conflicts));
    }
    fnv.stats(memory.stats());
}

fn digest(config: MemoryConfig) -> u64 {
    let mut fnv = Fnv::new();
    for seed in 0..SEEDS {
        let mut rng = SplitMix(seed);
        read_at_stream(config, &mut rng, &mut fnv);
        plan_stream(config, &mut rng, &mut fnv);
        if config.model == MemoryModelKind::Cycle {
            submit_stream(config, &mut rng, &mut fnv);
        }
    }
    fnv.0
}

#[test]
fn every_configuration_reproduces_the_recorded_digest() {
    let configs = configs();
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (index, (name, config)) in configs.iter().enumerate() {
        let digest = digest(*config);
        table.push_str(&format!("    (\"{name}\", {digest:#018x}),\n"));
        let recorded = RECORDED.get(index).copied();
        if recorded != Some((name.as_str(), digest)) {
            mismatches.push(format!("{name}: recorded {recorded:?}, now {digest:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "memory digests moved:\n{}\n\ncurrent table:\n{table}",
        mismatches.join("\n")
    );
}
