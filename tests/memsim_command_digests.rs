//! Pins the DDR4 controller's exact behaviour across its configuration
//! space.
//!
//! Each configuration runs seeded traffic: reads and writes of 64 B–2 KB
//! with staggered arrivals, submitted out of arrival order, then a second
//! wave submitted after the first one drained. An FNV-1a digest folds every
//! channel's command log, the merged stats, every completion and the final
//! cycle of each wave. The digests were recorded with the scheduler that
//! rescanned every window bank on each tick (the two channel-interleaved
//! ones with the controller that queued every burst on its own), so a
//! scheduler rewrite must issue every command on the same cycle in every
//! configuration to pass.
//! Refresh and the adaptive policy run the lockstep driver (`tick` plus
//! `next_event_cycle`); the other configurations drain each channel on its
//! own clock.
//!
//! When a deliberate model change moves a digest, the failure message
//! prints the full table to paste back here.

use fafnir_mem::{
    AddressMapping, CommandKind, MemoryConfig, MemorySystem, PagePolicy, Request, SchedulerPolicy,
};

/// Seeds per configuration. Each seed runs two waves on a fresh system, or
/// on one system reset between seeds.
const SEEDS: u64 = 3;
/// Requests in the first and second wave.
const WAVES: [usize; 2] = [56, 28];
/// Arrivals of a wave spread over this many cycles after its start: long
/// enough for several staggered refreshes and adaptive-close timeouts.
const ARRIVAL_SPREAD: u64 = 6_000;

/// The recorded digest of each configuration, in [`configs`] order.
const RECORDED: &[(&str, u64)] = &[
    ("open/frfcfs/bus/norefresh", 0x32e0c731cb847a83),
    ("open/frfcfs/bus/refresh", 0xa28bad330b314a08),
    ("open/frfcfs/ndp/norefresh", 0x2431b6ca4bd5ac60),
    ("open/frfcfs/ndp/refresh", 0xdc31adea0cec1280),
    ("open/fcfs/bus/norefresh", 0xf1612b6d6adc3686),
    ("open/fcfs/bus/refresh", 0xba50a98c587b5415),
    ("open/fcfs/ndp/norefresh", 0x111aad831e45a97d),
    ("open/fcfs/ndp/refresh", 0x821c8cb20e96a856),
    ("closed/frfcfs/bus/norefresh", 0x4f0cc8cafed304b4),
    ("closed/frfcfs/bus/refresh", 0xde5c95d757d7a7d8),
    ("closed/frfcfs/ndp/norefresh", 0xc7582001a936e5d8),
    ("closed/frfcfs/ndp/refresh", 0xffe9e316c720e789),
    ("closed/fcfs/bus/norefresh", 0x0dd9cff122fcc670),
    ("closed/fcfs/bus/refresh", 0xba890fdbb31172a1),
    ("closed/fcfs/ndp/norefresh", 0x921db7ac717cbad5),
    ("closed/fcfs/ndp/refresh", 0xa69b4d50665f5af1),
    ("adaptive/frfcfs/bus/norefresh", 0x11fb43c6ed334f2e),
    ("adaptive/frfcfs/bus/refresh", 0x729fa221740fbb58),
    ("adaptive/frfcfs/ndp/norefresh", 0xbd8fd9d10341f4d4),
    ("adaptive/frfcfs/ndp/refresh", 0xc65e68667491be1f),
    ("adaptive/fcfs/bus/norefresh", 0x8a129fb63d74d0e8),
    ("adaptive/fcfs/bus/refresh", 0xe44a611ec51be1e4),
    ("adaptive/fcfs/ndp/norefresh", 0xe7fa5b69400a6ee9),
    ("adaptive/fcfs/ndp/refresh", 0xc45c11df48d30d74),
    ("straggler", 0x1a5bc8d70198318e),
    ("ddr5", 0x25226a1f4c81597a),
    ("hbm2", 0x42c436a084e963d6),
    ("1rank", 0xe4e4cd3a982c08a8),
    ("interleaved/frfcfs/bus/norefresh", 0xdd22bfdccd7df43f),
    ("interleaved/fcfs/ndp/refresh", 0xa989d490e8de2163),
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

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
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
}

/// {open, closed, adaptive} × {FR-FCFS, FCFS} × {shared bus, NDP} ×
/// {refresh off, on}, then a straggler rank, the other presets, and two
/// open-page configurations under the channel-interleaved mapping, where
/// every burst is a row run of its own on the next channel.
fn configs() -> Vec<(String, MemoryConfig)> {
    let mut out = Vec::new();
    for (page_name, page) in [
        ("open", PagePolicy::Open),
        ("closed", PagePolicy::Closed),
        ("adaptive", PagePolicy::Adaptive { timeout: 150 }),
    ] {
        for (scheduler_name, scheduler) in
            [("frfcfs", SchedulerPolicy::FrFcfs), ("fcfs", SchedulerPolicy::Fcfs)]
        {
            for (bus_name, ndp) in [("bus", false), ("ndp", true)] {
                for (refresh_name, refresh) in [("norefresh", false), ("refresh", true)] {
                    let mut config = MemoryConfig::ddr4_2400_4ch();
                    config.page_policy = page;
                    config.scheduler = scheduler;
                    config.ndp_data_path = ndp;
                    config.refresh = refresh;
                    let name = format!("{page_name}/{scheduler_name}/{bus_name}/{refresh_name}");
                    out.push((name, config));
                }
            }
        }
    }
    let mut straggler = MemoryConfig::ddr4_2400_4ch();
    straggler.straggler = Some((0, 1, 300));
    out.push(("straggler".into(), straggler));
    out.push(("ddr5".into(), MemoryConfig::ddr5_4800_4ch()));
    out.push(("hbm2".into(), MemoryConfig::hbm2_32pc()));
    out.push(("1rank".into(), MemoryConfig::ddr4_2400_1ch_1rank()));
    for (name, scheduler, ndp, refresh) in [
        ("interleaved/frfcfs/bus/norefresh", SchedulerPolicy::FrFcfs, false, false),
        ("interleaved/fcfs/ndp/refresh", SchedulerPolicy::Fcfs, true, true),
    ] {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.mapping = AddressMapping::ChannelInterleaved;
        config.scheduler = scheduler;
        config.ndp_data_path = ndp;
        config.refresh = refresh;
        out.push((name.into(), config));
    }
    out
}

/// One request. Half of them land in a small hot region spread over a few
/// rows, so banks see hits, conflicts and deep queues; the rest are
/// uniform over 64 MB.
fn request(rng: &mut SplitMix, wave_start: u64) -> Request {
    let addr = if rng.below(2) == 0 {
        rng.below(4) * (4 << 20) + rng.below(256 << 10)
    } else {
        rng.below(64 << 20)
    };
    let bytes = 64 + rng.below(2048 - 64 + 1) as usize;
    let arrival = wave_start + rng.below(ARRIVAL_SPREAD);
    let request =
        if rng.below(4) == 0 { Request::write(addr, bytes) } else { Request::read(addr, bytes) };
    request.at(arrival)
}

fn kind_code(kind: CommandKind) -> u64 {
    match kind {
        CommandKind::Act => 0,
        CommandKind::Pre => 1,
        CommandKind::Rd => 2,
        CommandKind::Wr => 3,
        CommandKind::Ref => 4,
    }
}

/// Runs both waves of one seed on `mem`, a freshly built or reset system,
/// and folds everything observable into `fnv`.
fn run_seed(mem: &mut MemorySystem, seed: u64, fnv: &mut Fnv) {
    let mut rng = SplitMix(seed);
    mem.enable_command_logs();
    for wave in WAVES {
        let start = mem.now();
        for _ in 0..wave {
            mem.submit(request(&mut rng, start));
        }
        fnv.word(mem.run_until_idle());
        for completion in mem.take_completions() {
            fnv.word(completion.id.0);
            fnv.word(completion.start_cycle);
            fnv.word(completion.finish_cycle);
            fnv.word(u64::from(completion.row_hits));
            fnv.word(u64::from(completion.row_misses));
            fnv.word(u64::from(completion.row_conflicts));
        }
    }
    for log in mem.take_command_logs() {
        fnv.word(log.len() as u64);
        for record in log.records() {
            fnv.word(record.cycle);
            fnv.word(kind_code(record.kind));
            fnv.word(record.rank as u64);
            fnv.word(record.bank as u64);
            fnv.word(record.row as u64);
        }
    }
    let stats = mem.stats();
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
        fnv.word(value);
    }
}

fn digest(config: MemoryConfig) -> u64 {
    let mut fnv = Fnv::new();
    for seed in 0..SEEDS {
        run_seed(&mut MemorySystem::new(config), seed, &mut fnv);
    }
    fnv.0
}

/// [`digest`] with every seed on one system, reset between seeds.
fn digest_on_one_system(config: MemoryConfig) -> u64 {
    let mut fnv = Fnv::new();
    let mut mem = MemorySystem::new(config);
    for seed in 0..SEEDS {
        if seed > 0 {
            mem.reset();
        }
        run_seed(&mut mem, seed, &mut fnv);
    }
    fnv.0
}

#[test]
fn every_configuration_reproduces_the_recorded_command_digest() {
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
        "command digests moved:\n{}\n\ncurrent table:\n{table}",
        mismatches.join("\n")
    );
}

#[test]
fn a_reset_system_reproduces_every_recorded_digest() {
    for ((name, config), (recorded_name, recorded)) in configs().iter().zip(RECORDED) {
        assert_eq!(name, recorded_name);
        assert_eq!(
            digest_on_one_system(*config),
            *recorded,
            "{name}: a reset system diverged from a fresh one"
        );
    }
}
