//! Output bit patterns, pinned.
//!
//! Every engine configuration — six operators × {cycle, fast} memory —
//! reduces the same seeded Zipf-1.15 batch stream, and a digest of every
//! output's `to_bits` must equal the recorded one. The memory models only
//! time the reduction (the event-timed tree under the cycle model, the
//! fold's own times under the fast one), so both configurations of one
//! operator share a digest.

use fafnir_core::{
    Batch, FafnirConfig, FafnirEngine, GatherEngine, QueryId, ReduceOp, StripedSource,
};
use fafnir_mem::{MemoryConfig, MemoryModelKind};
use fafnir_workloads::query::{BatchGenerator, Popularity};

/// Recorded digests, one per operator.
const EXPECTED: [(ReduceOp, u64); 6] = [
    (ReduceOp::Sum, 0x4090_ff8f_ced3_2806),
    (ReduceOp::Mean, 0xe551_3b10_2b13_8676),
    (ReduceOp::Max, 0xc83a_1ad3_b535_ccb1),
    (ReduceOp::Min, 0x624b_e59e_f0c1_8774),
    (ReduceOp::ArgMax, 0x411e_3353_aa1c_cfe5),
    (ReduceOp::TopK { k: 4 }, 0xd016_ded1_8ca4_d5c4),
];

fn batches() -> Vec<Batch> {
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 12);
    (0..3).map(|_| generator.batch(32)).collect()
}

/// FNV-1a over the query ids, output widths and output bit patterns.
fn digest(outputs: &[(QueryId, Vec<f32>)], hash: &mut u64) {
    let mut feed = |word: u32| {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (query, value) in outputs {
        feed(query.0);
        feed(value.len() as u32);
        value.iter().for_each(|x| feed(x.to_bits()));
    }
}

#[test]
fn every_configuration_reproduces_the_recorded_output_bits() {
    let batches = batches();
    let mut failures = Vec::new();
    for (op, expected) in EXPECTED {
        for model in [MemoryModelKind::Cycle, MemoryModelKind::Fast] {
            let mem = MemoryConfig { model, ..MemoryConfig::ddr4_2400_4ch() };
            let source = StripedSource::new(mem.topology, 128);
            let config = FafnirConfig { op, ..FafnirConfig::paper_default() };
            let engine = FafnirEngine::new(config, mem).unwrap();
            let mut hash = 0xcbf2_9ce4_8422_2325;
            for batch in &batches {
                digest(&engine.lookup(batch, &source).unwrap().outputs, &mut hash);
            }
            if hash != expected {
                failures.push(format!("{op} {model}: {hash:#018x}"));
            }
        }
    }
    assert!(failures.is_empty(), "output bits moved:\n{}", failures.join("\n"));
}
