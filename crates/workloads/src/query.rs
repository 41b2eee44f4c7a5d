//! Query and batch generation under different popularity models.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fafnir_core::{Batch, IndexSet, VectorIndex};

use crate::zipf::Zipf;

/// Popularity model for index sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Zipf popularity whose hottest region drifts through the universe
    /// over time (diurnal content churn): the item at Zipf rank `k` maps to
    /// index `(k + drift) mod universe`, with `drift` advancing by
    /// `drift_per_query` indices per generated query. Caches suffer under
    /// drift; FAFNIR's per-batch dedup does not.
    DriftingZipf {
        /// Skew exponent θ.
        exponent: f64,
        /// Indices the hot spot advances per generated query.
        drift_per_query: u64,
    },
    /// Every index equally likely.
    Uniform,
    /// Zipf(θ) over the universe (production-like skew).
    Zipf {
        /// Skew exponent θ; production embedding traffic is around 1.0.
        exponent: f64,
    },
    /// A fraction of traffic hits a small hot set uniformly; the rest is
    /// uniform over the whole universe. A coarse two-knob alternative to
    /// Zipf for sensitivity studies.
    HotCold {
        /// Fraction of references going to the hot set (0.0–1.0).
        hot_fraction: f64,
        /// Size of the hot set in indices.
        hot_set: u64,
    },
}

/// Consecutive duplicate draws after which [`BatchGenerator::query`] and
/// [`crate::TablewiseGenerator::query`] stop drawing and fill the remaining
/// slots with the lowest-ranked values not yet picked. A skew so steep that
/// nearly every draw is the hottest value would otherwise redraw forever.
/// Where a fresh value has even a 1 % chance per draw, 4,096 duplicates in
/// a row happen with probability below 10⁻¹⁷, so no realistic query
/// reaches the cap.
pub const MAX_DUPLICATE_DRAWS: u32 = 4_096;

/// Generates batches of embedding-lookup queries.
///
/// Queries hold `query_len` *distinct* indices (an index cannot appear twice
/// in one pooling operation); duplicate draws are retried, up to
/// [`MAX_DUPLICATE_DRAWS`] in a row.
#[derive(Debug, Clone)]
pub struct BatchGenerator {
    popularity: Popularity,
    universe: u64,
    query_len: usize,
    zipf: Option<Zipf>,
    rng: StdRng,
    drift: u64,
}

impl BatchGenerator {
    /// Creates a generator over `universe` indices with `query_len` indices
    /// per query, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `universe` is zero or smaller than `query_len`, or if a
    /// `HotCold` model has an out-of-range fraction or empty hot set.
    #[must_use]
    pub fn new(popularity: Popularity, universe: u64, query_len: usize, seed: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        assert!(universe >= query_len as u64, "universe smaller than query length");
        if let Popularity::HotCold { hot_fraction, hot_set } = popularity {
            assert!((0.0..=1.0).contains(&hot_fraction), "hot_fraction out of range");
            assert!(hot_set > 0 && hot_set <= universe, "hot_set out of range");
        }
        let zipf = match popularity {
            Popularity::Zipf { exponent } | Popularity::DriftingZipf { exponent, .. } => {
                Some(Zipf::new(universe, exponent))
            }
            _ => None,
        };
        Self { popularity, universe, query_len, zipf, rng: StdRng::seed_from_u64(seed), drift: 0 }
    }

    /// The number of distinct indices a query holds.
    #[must_use]
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// The index universe size.
    #[must_use]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Draws one index according to the popularity model.
    fn draw(&mut self) -> u64 {
        match self.popularity {
            Popularity::Uniform => self.rng.gen_range(0..self.universe),
            Popularity::Zipf { .. } => {
                self.zipf.as_ref().expect("zipf sampler initialized").sample(&mut self.rng)
            }
            Popularity::DriftingZipf { .. } => {
                let rank =
                    self.zipf.as_ref().expect("zipf sampler initialized").sample(&mut self.rng);
                (rank + self.drift) % self.universe
            }
            Popularity::HotCold { hot_fraction, hot_set } => {
                if self.rng.gen::<f64>() < hot_fraction {
                    self.rng.gen_range(0..hot_set)
                } else {
                    self.rng.gen_range(0..self.universe)
                }
            }
        }
    }

    /// Generates one query of `query_len` distinct indices. After
    /// [`MAX_DUPLICATE_DRAWS`] duplicate draws in a row, the remaining
    /// slots take, in order, the lowest-ranked indices not yet picked: the
    /// hottest first under (drifting) Zipf, the lowest ids otherwise.
    pub fn query(&mut self) -> IndexSet {
        if let Popularity::DriftingZipf { drift_per_query, .. } = self.popularity {
            self.drift = (self.drift + drift_per_query) % self.universe;
        }
        // `drift` is 0 unless the popularity drifts. The constructor checked
        // `query_len <= universe`, so the ranks run out only once full.
        let (universe, drift) = (self.universe, self.drift);
        let ranked = (0..universe).map(move |rank| (rank + drift) % universe);
        let picked = draw_distinct(self.query_len, || self.draw(), ranked);
        picked.into_iter().map(|i| VectorIndex(i as u32)).collect()
    }

    /// Generates a batch of `batch_size` queries.
    pub fn batch(&mut self, batch_size: usize) -> Batch {
        (0..batch_size).map(|_| self.query()).collect()
    }
}

/// `len` distinct values from `draw`, redrawing each duplicate. After
/// [`MAX_DUPLICATE_DRAWS`] duplicates in a row, the remaining slots take,
/// in order, the values of `ranked` (hottest first) not yet picked.
///
/// # Panics
///
/// Panics if the fill needs more values than `ranked` holds, which cannot
/// happen when `ranked` lists at least `len` distinct values.
pub(crate) fn draw_distinct(
    len: usize,
    mut draw: impl FnMut() -> u64,
    mut ranked: impl Iterator<Item = u64>,
) -> Vec<u64> {
    let mut picked: Vec<u64> = Vec::with_capacity(len);
    let mut duplicates = 0;
    while picked.len() < len && duplicates < MAX_DUPLICATE_DRAWS {
        let candidate = draw();
        if picked.contains(&candidate) {
            duplicates += 1;
        } else {
            picked.push(candidate);
            duplicates = 0;
        }
    }
    while picked.len() < len {
        let value = ranked.next().expect("`ranked` holds at least `len` distinct values");
        if !picked.contains(&value) {
            picked.push(value);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_have_distinct_indices_of_requested_length() {
        let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.1 }, 1_000, 16, 1);
        for _ in 0..50 {
            let query = generator.query();
            assert_eq!(query.len(), 16); // IndexSet dedups: length 16 ⇒ distinct
        }
    }

    #[test]
    fn batch_has_requested_size() {
        let mut generator = BatchGenerator::new(Popularity::Uniform, 10_000, 8, 2);
        let batch = generator.batch(32);
        assert_eq!(batch.len(), 32);
        assert_eq!(batch.total_references(), 32 * 8);
    }

    #[test]
    fn zipf_batches_share_more_than_uniform() {
        let mut zipf = BatchGenerator::new(Popularity::Zipf { exponent: 1.2 }, 100_000, 16, 3);
        let mut uniform = BatchGenerator::new(Popularity::Uniform, 100_000, 16, 3);
        let zipf_unique: f64 =
            (0..20).map(|_| zipf.batch(32).unique_fraction()).sum::<f64>() / 20.0;
        let uniform_unique: f64 =
            (0..20).map(|_| uniform.batch(32).unique_fraction()).sum::<f64>() / 20.0;
        assert!(
            zipf_unique < uniform_unique,
            "zipf {zipf_unique} should share more than uniform {uniform_unique}"
        );
        assert!(uniform_unique > 0.99, "uniform over 100k barely collides");
    }

    #[test]
    fn hot_cold_controls_sharing() {
        let mut hot = BatchGenerator::new(
            Popularity::HotCold { hot_fraction: 0.9, hot_set: 32 },
            1_000_000,
            16,
            4,
        );
        let mut cold = BatchGenerator::new(
            Popularity::HotCold { hot_fraction: 0.1, hot_set: 32 },
            1_000_000,
            16,
            4,
        );
        assert!(hot.batch(32).unique_fraction() < cold.batch(32).unique_fraction());
    }

    #[test]
    fn drifting_zipf_moves_the_hot_spot() {
        // Slow drift: 2 indices per query, so a batch's queries still share
        // a hot region while batches hours apart do not.
        let mut generator = BatchGenerator::new(
            Popularity::DriftingZipf { exponent: 1.3, drift_per_query: 2 },
            100_000,
            16,
            11,
        );
        let early = generator.batch(8);
        for _ in 0..100 {
            let _ = generator.batch(8);
        }
        let late = generator.batch(8);
        // Early and late batches barely share indices (the hot spot moved)…
        let shared =
            early.unique_indices().iter().filter(|&i| late.unique_indices().contains(i)).count();
        assert!(shared < 25, "hot spots should have drifted apart: {shared} shared");
        // …while intra-batch sharing (what dedup exploits) persists.
        assert!(late.unique_fraction() < 0.95, "got {}", late.unique_fraction());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = BatchGenerator::new(Popularity::Zipf { exponent: 1.0 }, 1_000, 8, 42);
        let mut b = BatchGenerator::new(Popularity::Zipf { exponent: 1.0 }, 1_000, 8, 42);
        assert_eq!(a.batch(8), b.batch(8));
    }

    #[test]
    fn a_skew_that_only_draws_the_hottest_index_fills_in_rank_order() {
        let query = |popularity| BatchGenerator::new(popularity, 2_000, 16, 1).query();
        let ids = |query: IndexSet| query.iter().map(|i| i.value()).collect::<Vec<_>>();
        assert_eq!(ids(query(Popularity::Zipf { exponent: 1e300 })), (0..16).collect::<Vec<_>>());
        // The hot spot has advanced by one query's drift.
        let drifting = query(Popularity::DriftingZipf { exponent: 1e300, drift_per_query: 1_995 });
        let expected: Vec<u32> = (1_995..2_000).chain(0..11).collect();
        let mut got = ids(drifting);
        got.sort_unstable_by_key(|&i| expected.iter().position(|&e| e == i));
        assert_eq!(got, expected);
        // A query as long as the universe takes every index.
        let mut whole = BatchGenerator::new(Popularity::Zipf { exponent: 8.0 }, 16, 16, 2);
        assert_eq!(whole.batch(4).total_references(), 64);
    }

    #[test]
    #[should_panic(expected = "universe smaller than query length")]
    fn tiny_universe_panics() {
        let _ = BatchGenerator::new(Popularity::Uniform, 4, 8, 0);
    }
}
