//! Every engine's reported numbers, pinned.
//!
//! The four paper-default engines run `Sum` and `Mean` on two inputs: the
//! Fig. 11 query and a 32-query Zipf-1.15 batch over 2 000 rows. A digest
//! of every figure a lookup reports — the five times, the DRAM counters,
//! vectors read, bytes to host, both op counts and the output bits — must
//! equal the recorded one. RecNMP's warm-cache stream over four batches is
//! pinned the same way, hit rates included.

use fafnir_baselines::{CoreModel, NoNdpEngine, RecNmpEngine, TensorDimmEngine};
use fafnir_core::{
    Batch, FafnirConfig, FafnirEngine, GatherEngine, IndexSet, LookupResult, PeTiming, ReduceOp,
    StripedSource, VectorIndex,
};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};

/// Recorded digests, one per engine and operator over both inputs.
const EXPECTED: [(&str, ReduceOp, u64); 8] = [
    ("fafnir", ReduceOp::Sum, 0xb2cf_c33e_47c4_de19),
    ("fafnir", ReduceOp::Mean, 0x9232_a05c_36f9_5571),
    ("recnmp", ReduceOp::Sum, 0x433b_f877_222a_e0dd),
    ("recnmp", ReduceOp::Mean, 0x0f0a_fd2d_8b94_ea7e),
    ("tensordimm", ReduceOp::Sum, 0xeec5_b9bd_d9da_7b86),
    ("tensordimm", ReduceOp::Mean, 0xb4c2_93d0_86a1_6276),
    ("no-ndp", ReduceOp::Sum, 0xaa2d_ce0e_5e91_fc48),
    ("no-ndp", ReduceOp::Mean, 0x9bc7_980d_cdfe_54e4),
];

/// Recorded digest of RecNMP's warm-cache stream.
const EXPECTED_STREAM: u64 = 0x026b_5008_0d63_055a;

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// Every reported field of one lookup, in a fixed order.
    fn lookup(&mut self, result: &LookupResult) {
        let latency = &result.latency;
        for time in [
            latency.total_ns,
            latency.memory_ns,
            latency.compute_tail_ns,
            latency.compute_busy_ns,
            latency.host_link_ns,
        ] {
            self.f64(time);
        }
        let memory = &result.memory;
        for counter in [
            memory.reads,
            memory.writes,
            memory.activations,
            memory.precharges,
            memory.refreshes,
            memory.row_hits,
            memory.row_misses,
            memory.row_conflicts,
            memory.requests_completed,
            memory.total_request_latency,
            memory.bytes_transferred,
            memory.max_queue_depth,
        ] {
            self.u64(counter);
        }
        for count in [
            result.traffic.vectors_read,
            result.traffic.bytes_to_host,
            result.ndp_elem_ops,
            result.core_elem_ops,
        ] {
            self.u64(count);
        }
        for (query, value) in &result.outputs {
            self.bytes(&query.0.to_le_bytes());
            self.bytes(&(value.len() as u32).to_le_bytes());
            value.iter().for_each(|x| self.bytes(&x.to_bits().to_le_bytes()));
        }
    }
}

/// The Fig. 11 query and a 32-query Zipf-1.15 batch.
fn inputs() -> [Batch; 2] {
    let fig11 = Batch::from_index_sets([IndexSet::from_iter_dedup(
        (0..16u32).map(|i| VectorIndex(37 * i + 5)),
    )]);
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 11);
    [fig11, generator.batch(32)]
}

fn digest<E: GatherEngine>(engine: &E, source: &StripedSource) -> u64 {
    let mut digest = Digest::new();
    for batch in inputs() {
        digest.lookup(&engine.lookup(&batch, source).unwrap());
    }
    digest.0
}

#[test]
fn every_engine_reports_the_recorded_numbers() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let (core, pe) = (CoreModel::server_cpu(), PeTiming::fpga_200mhz());
    let mut failures = Vec::new();
    for (name, op, expected) in EXPECTED {
        let got = match name {
            "fafnir" => {
                let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
                digest(&FafnirEngine::new(config, mem).unwrap(), &source)
            }
            "recnmp" => digest(&RecNmpEngine::new(mem, core, pe, op), &source),
            "tensordimm" => digest(&TensorDimmEngine::new(mem, pe, op), &source),
            _ => digest(&NoNdpEngine::new(mem, core, op), &source),
        };
        if got != expected {
            failures.push(format!("{name} {op}: {got:#018x}"));
        }
    }
    assert!(failures.is_empty(), "engine numbers moved:\n{}", failures.join("\n"));
}

#[test]
fn recnmp_warm_cache_stream_reports_the_recorded_numbers() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, 128);
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 13);
    let batches: Vec<Batch> = (0..4).map(|_| generator.batch(32)).collect();
    let stream = RecNmpEngine::paper_default(mem).lookup_warm_stream(&batches, &source).unwrap();
    let mut digest = Digest::new();
    for (result, hit_rate) in &stream {
        digest.lookup(result);
        digest.f64(*hit_rate);
    }
    assert_eq!(digest.0, EXPECTED_STREAM, "stream numbers moved: {:#018x}", digest.0);
}
