//! `CooMatrix::sum_duplicates` stores exactly what one global stable sort
//! by `(row, col)` followed by a left-to-right merge of equal coordinates
//! stores, bit for bit: repeated coordinates sum in insertion order. The
//! shapes include one row, one column, and far more rows or columns than
//! entries (up to `usize::MAX`), where the sort groups many rows into one
//! bucket. Coordinates come from a small pool, so most of them repeat, and
//! values span many magnitudes, so a changed summation order moves a bit.

use fafnir_sparse::CooMatrix;
use proptest::prelude::*;

type Entry = (usize, usize, f64);

/// The summation `sum_duplicates` must reproduce: one stable sort of every
/// entry by `(row, col)`, then each run of equal coordinates summed in
/// order.
fn stable_sort_and_merge(mut entries: Vec<Entry>) -> Vec<Entry> {
    entries.sort_by_key(|&(row, col, _)| (row, col));
    let mut merged: Vec<Entry> = Vec::with_capacity(entries.len());
    for (row, col, value) in entries {
        match merged.last_mut() {
            Some((r, c, v)) if *r == row && *c == col => *v += value,
            _ => merged.push((row, col, value)),
        }
    }
    merged
}

fn bits(entries: &[Entry]) -> Vec<(usize, usize, u64)> {
    entries.iter().map(|&(row, col, value)| (row, col, value.to_bits())).collect()
}

/// A small deterministic generator (SplitMix64) for the drawn entries.
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

    /// A value in [-1, 1) scaled by 2^-40 to 2^40.
    fn value(&mut self) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        unit * 2f64.powi(self.below(81) as i32 - 40)
    }
}

/// A row or column count: one, a few, many, or far above any entry count.
fn dimension() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        2usize..40,
        40usize..5_000,
        (1usize << 20)..(1usize << 28),
        Just(usize::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sum_duplicates_matches_one_global_stable_sort(
        rows in dimension(),
        cols in dimension(),
        len in 0usize..300,
        distinct in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        let cells: Vec<(usize, usize)> =
            (0..distinct).map(|_| (mix.below(rows), mix.below(cols))).collect();
        let entries: Vec<Entry> = (0..len)
            .map(|_| {
                let (row, col) = cells[mix.below(distinct)];
                (row, col, mix.value())
            })
            .collect();
        let mut matrix = CooMatrix::new(rows, cols);
        for &(row, col, value) in &entries {
            matrix.push(row, col, value);
        }
        matrix.sum_duplicates();
        prop_assert_eq!(bits(matrix.entries()), bits(&stable_sort_and_merge(entries)));
    }
}
