//! Pins every sparse-matrix generator's exact output.
//!
//! Each case folds the matrix's shape, its stored-entry count and the row,
//! column and value bits of every stored entry, in stored order, into one
//! FNV-1a digest. The cases cover the ledger's `spmv_rmat` input
//! (`gen::rmat(14, 500_000, seed)`) at two seeds, a small R-MAT graph,
//! `gen::uniform` at a low density and at density 1 (where most draws land
//! on a cell already drawn), `gen::banded`, `gen::spd_banded`, and
//! `mtx::parse` of a symmetric and a skew-symmetric file whose coordinates
//! repeat with values of mixed magnitude, so a changed summation order
//! moves a value bit.
//!
//! The digests were recorded with the generators that drew R-MAT quadrants
//! through an `if` chain and summed repeated coordinates after one global
//! stable sort, so a rewrite of the draws or of
//! `CooMatrix::sum_duplicates` must reproduce every entry bit to pass. When
//! a deliberate change moves a digest, the failure message prints the full
//! table to paste back here.

use fafnir_sparse::{gen, mtx, CooMatrix};

/// The recorded stored-entry count and digest of each case, in [`cases`]
/// order.
const RECORDED: &[(&str, usize, u64)] = &[
    ("rmat14/seed1", 408296, 0xc553b1bd19147def),
    ("rmat14/seed11", 408771, 0xfbdefbe8020aed29),
    ("rmat10", 6509, 0xeaa7fdf4c7ec1a69),
    ("uniform", 2926, 0x02262b3aca39e685),
    ("uniform/full", 1910, 0x995bc1fbef8915b6),
    ("banded", 6570, 0x7fde9cc4e35939ea),
    ("spd_banded", 2788, 0xb9a853dfb3cd727e),
    ("mtx/symmetric", 1086, 0xdc6dcb426d7a6ef9),
    ("mtx/skew", 1104, 0x26e788135aae6757),
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

/// A small deterministic generator (SplitMix64) for the `.mtx` texts.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value in [-3, 5) scaled by 10^-6 to 10^6, so sums of repeats
    /// round differently in different orders.
    fn value(&mut self) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 3.0;
        unit * 10f64.powi(self.below(13) as i32 - 6)
    }
}

/// A square Matrix Market file of `entries` lines under `header` whose
/// coordinates fall on both sides of the diagonal and repeat often, plus
/// the cancelling run `1e16, 1, -1e16` on one cell.
fn mtx_text(header: &str, n: usize, entries: usize, seed: u64) -> String {
    let mut mix = Mix(seed);
    let mut lines: Vec<String> = (0..entries)
        .map(|_| format!("{} {} {}", mix.below(n) + 1, mix.below(n) + 1, mix.value()))
        .collect();
    lines.extend(["7 3 1e16", "7 3 1", "7 3 -1e16"].map(String::from));
    format!("{header}\n% generated\n{n} {n} {}\n{}\n", lines.len(), lines.join("\n"))
}

fn parsed(header: &str, seed: u64) -> CooMatrix {
    mtx::parse(&mtx_text(header, 40, 900, seed)).expect("generated text parses")
}

fn cases() -> Vec<(&'static str, CooMatrix)> {
    vec![
        ("rmat14/seed1", gen::rmat(14, 500_000, 1)),
        ("rmat14/seed11", gen::rmat(14, 500_000, 11)),
        ("rmat10", gen::rmat(10, 8_000, 41)),
        ("uniform", gen::uniform(300, 200, 0.05, 44)),
        ("uniform/full", gen::uniform(64, 48, 1.0, 7)),
        ("banded", gen::banded(600, 5, 43)),
        ("spd_banded", gen::spd_banded(400, 3, 45)),
        ("mtx/symmetric", parsed("%%MatrixMarket matrix coordinate real symmetric", 46)),
        ("mtx/skew", parsed("%%MatrixMarket matrix coordinate real skew-symmetric", 47)),
    ]
}

fn digest(matrix: &CooMatrix) -> u64 {
    let mut fnv = Fnv::new();
    for count in [matrix.rows(), matrix.cols(), matrix.nnz()] {
        fnv.word(count as u64);
    }
    for &(row, col, value) in matrix.entries() {
        fnv.word(row as u64);
        fnv.word(col as u64);
        fnv.word(value.to_bits());
    }
    fnv.0
}

#[test]
fn every_generator_reproduces_the_recorded_digest() {
    let measured: Vec<(String, usize, u64)> = cases()
        .iter()
        .map(|(name, matrix)| ((*name).to_string(), matrix.nnz(), digest(matrix)))
        .collect();
    let table: String = measured
        .iter()
        .map(|(name, nnz, value)| format!("    (\"{name}\", {nnz}, {value:#018x}),\n"))
        .collect();
    let recorded: Vec<(String, usize, u64)> =
        RECORDED.iter().map(|&(name, nnz, value)| (name.to_string(), nnz, value)).collect();
    assert_eq!(measured, recorded, "generator digests moved; measured table:\n{table}");
}
