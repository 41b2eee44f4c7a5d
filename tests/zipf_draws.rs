//! Pins the Zipf sampler's draws and the batch generator's queries.
//!
//! An FNV-1a digest folds 10^5 draws of `Zipf::sample` for each universe
//! size and exponent below, from a seeded `StdRng`, and 512 queries of
//! `BatchGenerator::query` for each popularity model. The universes
//! straddle 16,384 and 65,536 ranks, so a per-rank table capped at either
//! size is pinned on both its tabulated and its directly evaluated side.
//! The digests were recorded while every draw evaluated the inverse hat
//! integral, so a faster sampler must return the same index for every
//! uniform to pass.
//!
//! When a deliberate change moves a digest, the failure message prints the
//! full table to paste back here.

use fafnir_workloads::query::{BatchGenerator, Popularity};
use fafnir_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Draws per (universe, exponent) setting.
const DRAWS: usize = 100_000;
/// Queries per popularity model.
const QUERIES: usize = 512;
const UNIVERSES: [u64; 8] = [1, 2, 16, 2_000, 16_384, 16_385, 65_536, 65_537];
const EXPONENTS: [f64; 8] = [0.0, 0.5, 0.99, 1.0, 1.01, 1.15, 2.0, 8.0];

/// The recorded digest of each setting, in [`settings`] order.
const RECORDED: &[(&str, u64)] = &[
    ("zipf n=1 theta=0", 0xe3dbd3f783edc725),
    ("zipf n=1 theta=0.5", 0xe3dbd3f783edc725),
    ("zipf n=1 theta=0.99", 0xe3dbd3f783edc725),
    ("zipf n=1 theta=1", 0xe3dbd3f783edc725),
    ("zipf n=1 theta=1.01", 0xe3dbd3f783edc725),
    ("zipf n=1 theta=1.15", 0xe3dbd3f783edc725),
    ("zipf n=1 theta=2", 0xe3dbd3f783edc725),
    ("zipf n=1 theta=8", 0xe3dbd3f783edc725),
    ("zipf n=2 theta=0", 0x2d87df59303d2d45),
    ("zipf n=2 theta=0.5", 0x55af46d2d97870c5),
    ("zipf n=2 theta=0.99", 0x16633f776020a785),
    ("zipf n=2 theta=1", 0x87a13bed8b344b25),
    ("zipf n=2 theta=1.01", 0xf71a5a3c8f1d95a5),
    ("zipf n=2 theta=1.15", 0x243e1dc0a2664b64),
    ("zipf n=2 theta=2", 0x9fdca2c7b9a2e885),
    ("zipf n=2 theta=8", 0x4d1ac5d254b1a485),
    ("zipf n=16 theta=0", 0x2898b27514b08980),
    ("zipf n=16 theta=0.5", 0xc8397dfed5e0e6a8),
    ("zipf n=16 theta=0.99", 0xe0bb01c2e66a08ee),
    ("zipf n=16 theta=1", 0x7e48e69924a662c8),
    ("zipf n=16 theta=1.01", 0x3b4014e85c5d2085),
    ("zipf n=16 theta=1.15", 0xb90670f0cd49b8cf),
    ("zipf n=16 theta=2", 0x67869ee14a64dc83),
    ("zipf n=16 theta=8", 0x411092bd53a44286),
    ("zipf n=2000 theta=0", 0x39c4f757511bbf1b),
    ("zipf n=2000 theta=0.5", 0x4f5fb21866009595),
    ("zipf n=2000 theta=0.99", 0xaa57142e066a9517),
    ("zipf n=2000 theta=1", 0x8d222a1d72db59af),
    ("zipf n=2000 theta=1.01", 0x07936597bd79367a),
    ("zipf n=2000 theta=1.15", 0xe24fcb868ebf5444),
    ("zipf n=2000 theta=2", 0x640e9a714956ea20),
    ("zipf n=2000 theta=8", 0x8b2c0747358e16a1),
    ("zipf n=16384 theta=0", 0xa9e727f7743eb72e),
    ("zipf n=16384 theta=0.5", 0xc87ccd9a23408600),
    ("zipf n=16384 theta=0.99", 0x9c415a310d6ad4b5),
    ("zipf n=16384 theta=1", 0xf1f9af0ade57f222),
    ("zipf n=16384 theta=1.01", 0xe7f759bd7a421d0b),
    ("zipf n=16384 theta=1.15", 0x8b56d1e036cda902),
    ("zipf n=16384 theta=2", 0x8ded80fe92cb5c33),
    ("zipf n=16384 theta=8", 0x909e965a8d78dbe4),
    ("zipf n=16385 theta=0", 0xe70d53b203bb5e45),
    ("zipf n=16385 theta=0.5", 0x8c9a5dd32dda211f),
    ("zipf n=16385 theta=0.99", 0x5f91250930d1f405),
    ("zipf n=16385 theta=1", 0x2f744b8f63eeae26),
    ("zipf n=16385 theta=1.01", 0x4fe0e2e81c4f49b2),
    ("zipf n=16385 theta=1.15", 0xfc0a6fb89f1ffd17),
    ("zipf n=16385 theta=2", 0xf7990e70f0079882),
    ("zipf n=16385 theta=8", 0xccf234037a50fe26),
    ("zipf n=65536 theta=0", 0x26ed1a14288dbe70),
    ("zipf n=65536 theta=0.5", 0x67836d4de8abac4e),
    ("zipf n=65536 theta=0.99", 0xbe2cf33bc4984877),
    ("zipf n=65536 theta=1", 0x3d80a42195d1ffa8),
    ("zipf n=65536 theta=1.01", 0xa9522e6dd34420d5),
    ("zipf n=65536 theta=1.15", 0x2a6d2560474a22d1),
    ("zipf n=65536 theta=2", 0x39368e70bd5aa36d),
    ("zipf n=65536 theta=8", 0x432f8d0af76f3747),
    ("zipf n=65537 theta=0", 0x4fcece198b7289bd),
    ("zipf n=65537 theta=0.5", 0x57919e5ef2a60aa5),
    ("zipf n=65537 theta=0.99", 0x77d79dcfe25a7521),
    ("zipf n=65537 theta=1", 0x42c32aef671cff0e),
    ("zipf n=65537 theta=1.01", 0xb8ed55fc9903f7e8),
    ("zipf n=65537 theta=1.15", 0x4e0edfca1ca1ebff),
    ("zipf n=65537 theta=2", 0xe1cf855a7fd04656),
    ("zipf n=65537 theta=8", 0x885b8a623430d266),
    ("query zipf1.15/2000", 0xe2d69272419fb94a),
    ("query zipf1.15/16", 0x6e960518ac756325),
    ("query uniform/2000", 0x764205dcb0a59c23),
    ("query drifting1.3/100000", 0xfa228b334f76d53e),
    ("query hotcold0.9/1000000", 0x0711d4cd57d12414),
];

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

fn zipf_digest(n: u64, theta: f64) -> u64 {
    let zipf = Zipf::new(n, theta);
    let mut rng = StdRng::seed_from_u64(n ^ theta.to_bits());
    let mut fnv = Fnv::new();
    for _ in 0..DRAWS {
        fnv.word(zipf.sample(&mut rng));
    }
    fnv.0
}

/// Each popularity model at a universe, query length and seed where every
/// query fills with draws.
fn generators() -> Vec<(&'static str, BatchGenerator)> {
    vec![
        ("zipf1.15/2000", BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 1)),
        ("zipf1.15/16", BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 16, 16, 2)),
        ("uniform/2000", BatchGenerator::new(Popularity::Uniform, 2_000, 16, 3)),
        (
            "drifting1.3/100000",
            BatchGenerator::new(
                Popularity::DriftingZipf { exponent: 1.3, drift_per_query: 2 },
                100_000,
                16,
                4,
            ),
        ),
        (
            "hotcold0.9/1000000",
            BatchGenerator::new(
                Popularity::HotCold { hot_fraction: 0.9, hot_set: 32 },
                1_000_000,
                16,
                5,
            ),
        ),
    ]
}

fn query_digest(mut generator: BatchGenerator) -> u64 {
    let mut fnv = Fnv::new();
    for _ in 0..QUERIES {
        let query = generator.query();
        fnv.word(query.len() as u64);
        for index in query.iter() {
            fnv.word(u64::from(index.value()));
        }
    }
    fnv.0
}

/// Every (name, digest) in recording order.
fn settings() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for n in UNIVERSES {
        for theta in EXPONENTS {
            out.push((format!("zipf n={n} theta={theta}"), zipf_digest(n, theta)));
        }
    }
    for (name, generator) in generators() {
        out.push((format!("query {name}"), query_digest(generator)));
    }
    out
}

#[test]
fn every_setting_reproduces_the_recorded_digest() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (index, (name, digest)) in settings().into_iter().enumerate() {
        table.push_str(&format!("    (\"{name}\", {digest:#018x}),\n"));
        let recorded = RECORDED.get(index).copied();
        if recorded != Some((name.as_str(), digest)) {
            mismatches.push(format!("{name}: recorded {recorded:?}, now {digest:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "draw digests moved:\n{}\n\ncurrent table:\n{table}",
        mismatches.join("\n")
    );
}
