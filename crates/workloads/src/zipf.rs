//! Zipf-distributed sampling.
//!
//! Embedding-table accesses in production recommendation systems are highly
//! skewed — a small set of hot entities dominates traffic. The paper's
//! batch-dedup mechanism (Fig. 3) profits exactly from that skew, so the
//! workload generator needs a controllable Zipf source. This implementation
//! uses the rejection-inversion method of Hörmann & Derflinger, which is
//! O(1) per sample for any universe size.
//!
//! ## Table-decided draws
//!
//! A draw maps a uniform `u` in `(h_x1, h_n]` through the inverse hat
//! integral, `x = H⁻¹(u)`, rounds `x` to the rank `k = ⌊x + ½⌋` and accepts
//! `k` when `k − x ≤ s` or `u ≥ H(k + ½) − h(k)`. `H` increases, so in exact
//! arithmetic the rounding and the first test are comparisons of `u` with
//! fixed values too: `k` is the rank with `H(k − ½) ≤ u < H(k + ½)`, and
//! `k − x ≤ s` holds exactly when `u ≥ H(k − s)`. For θ > 0 and at most
//! 16,384 ranks, [`Zipf::new`] tabulates three values per rank — its upper
//! boundary `H(k + ½)`, its tail threshold `H(k − s)` and its acceptance
//! threshold — plus a guide of 4,096 entries that maps `u` to the first
//! rank that can hold it. A draw computes `u` exactly
//! as the direct method does. When `u` lies more than a margin `m` from its
//! rank's two boundaries and from its tail threshold, the table decides;
//! otherwise, and above the cap, `H⁻¹` is evaluated directly. Both return
//! the same index for every uniform, so no seeded draw sequence changes.
//!
//! **The margin.** Measured in `u`, rounding in `h_integral` and
//! `h_integral_inverse` moves a decision by at most a few `ε·S`, where
//! `ε = 2⁻⁵²`, `U = max(|H(½)|, |H(n + ½)|)` bounds every `u` and tabulated
//! value, and `S = U + (1 + ln(n + ½))·(1 + |1 − θ|·U)`. The first term is
//! the error of the tabulated `H` values. The second is that of `H⁻¹`: its
//! result carries a relative error of a few `ε·(1 + |ln x|)`, and
//! `dH = x^(1−θ)·dx/x` with `x^(1−θ) = 1 + (1 − θ)·u` carries that back to
//! `u`. Scanning 256 ulps on both sides of every boundary and tail
//! threshold, for n from 2 to 16,384 and θ from 0.01 to 30, found no wrong
//! side farther than 1.04 `ε·S`. The margin is `m = 2²⁰·ε·S`, six orders of
//! magnitude above that; at Zipf-1.15 over 2,000 ranks it leaves about one
//! draw in 10⁵ to direct evaluation. An exponent so steep that `m` spans
//! the whole `u` range gets no table.

use std::sync::Arc;

use rand::Rng;

/// The largest universe with per-rank tables: three `f64` per rank keep
/// them within 384 KiB (plus an 8 KiB guide). Larger universes draw by
/// direct evaluation.
const TABLE_CAP: u64 = 16_384;

/// Guide entries over the `u` range. Each is a rank index below
/// [`TABLE_CAP`], so it fits a `u16`, which keeps the guide small in cache.
const GUIDE_BUCKETS: usize = 4_096;

/// The margin in units of `ε·S` (see the module docs).
const MARGIN_EPS_S: f64 = (1u64 << 20) as f64;

/// A Zipf(θ) sampler over `{0, 1, …, n−1}` where rank `k` (1-based) has
/// probability proportional to `1 / k^θ`.
///
/// # Examples
///
/// ```
/// use fafnir_workloads::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = Zipf::new(1_000, 1.05);
/// let mut rng = StdRng::seed_from_u64(7);
/// let sample = zipf.sample(&mut rng);
/// assert!(sample < 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    theta: f64,
    // Precomputed constants of the rejection-inversion method.
    h_x1: f64,
    h_n: f64,
    s: f64,
    /// The per-rank tables; `None` for θ = 0, past [`TABLE_CAP`], and when
    /// the margin spans the whole `u` range.
    table: Option<Arc<Table>>,
}

/// What decides a draw without evaluating `H⁻¹` (see the module docs).
#[derive(Debug, PartialEq)]
struct Table {
    /// Rank `k` at index `k − 1`.
    ranks: Box<[Rank]>,
    /// `guide[g]`: the index of the first rank whose upper boundary is
    /// above the start of bucket `g` of the `u` range.
    guide: Box<[u16]>,
    /// The start of the `u` range, `h_x1`.
    u_start: f64,
    /// Buckets per unit of `u`.
    buckets_per_u: f64,
    /// Distance from a boundary or threshold inside which the draw is
    /// evaluated directly.
    margin: f64,
}

/// One rank's thresholds in `u`, each computed with the expression the
/// direct evaluation uses.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rank {
    /// `H(k + ½)`: the rank holds `u` below it (and at or above the
    /// previous rank's).
    upper: f64,
    /// `H(k − s)`: at or above it, `k − x ≤ s` and the draw is accepted.
    tail: f64,
    /// `H(k + ½) − h(k)`: at or above it, the draw is accepted.
    accept: f64,
}

impl Zipf {
    /// Creates a sampler over `n` items with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `theta` is not finite, or `theta < 0`.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "universe must be non-empty");
        assert!(theta.is_finite() && theta >= 0.0, "exponent must be finite and non-negative");
        let h_x1 = Self::h_integral(1.5, theta) - 1.0;
        let h_half = Self::h_integral(0.5, theta);
        let h_n = Self::h_integral(n as f64 + 0.5, theta);
        let s = 2.0
            - Self::h_integral_inverse(Self::h_integral(2.5, theta) - Self::h(2.0, theta), theta);
        let u_bound = h_half.abs().max(h_n.abs());
        let scale = u_bound + (1.0 + (n as f64 + 0.5).ln()) * (1.0 + (1.0 - theta).abs() * u_bound);
        let margin = MARGIN_EPS_S * f64::EPSILON * scale;
        // `margin < h_n − h_x1` is false for a NaN or infinite margin too.
        let table = (theta > 0.0 && n <= TABLE_CAP && margin < h_n - h_x1)
            .then(|| Arc::new(Table::new(n, theta, s, h_x1, h_n, margin)));
        Self { n, theta, h_x1, h_n, s, table }
    }

    /// The universe size.
    #[must_use]
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// The skew exponent.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.theta
    }

    /// The hottest `fraction` of the universe: item ids `0..ceil(n·f)`.
    ///
    /// Under this sampler's rank→id mapping, id 0 is the hottest item and
    /// popularity decays monotonically with id, so the hot set of any
    /// fraction is exactly an id prefix. Cluster serving replicates this
    /// set across shards to spread skewed load. A fraction of 0 yields an
    /// empty set; 1 (or more) yields the whole universe.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite.
    #[must_use]
    pub fn hot_set(&self, fraction: f64) -> Vec<u64> {
        assert!(fraction.is_finite() && fraction >= 0.0, "fraction must be finite and >= 0");
        let count = ((self.n as f64 * fraction).ceil() as u64).min(self.n);
        (0..count).collect()
    }

    /// Draws one sample (0-based item id; id 0 is the hottest).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.theta == 0.0 {
            return rng.gen_range(0..self.n);
        }
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let (k, accepted) = self
                .table
                .as_ref()
                .and_then(|table| table.decide(u))
                .unwrap_or_else(|| self.decide(u));
            if accepted {
                return k - 1;
            }
        }
    }

    /// Direct evaluation: the 1-based rank `u` maps to, and whether the
    /// draw is accepted.
    fn decide(&self, u: f64) -> (u64, bool) {
        let x = Self::h_integral_inverse(u, self.theta);
        let k = ((x + 0.5).floor() as u64).clamp(1, self.n);
        let accepted = (k as f64 - x) <= self.s || u >= Self::upper_and_accept(k, self.theta).1;
        (k, accepted)
    }

    /// Rank `k`'s upper boundary in `u`, `H(k + ½)`, and its acceptance
    /// threshold `H(k + ½) − h(k)`.
    fn upper_and_accept(k: u64, theta: f64) -> (f64, f64) {
        let upper = Self::h_integral(k as f64 + 0.5, theta);
        (upper, upper - Self::h(k as f64, theta))
    }

    /// Integral of the hat function `h(x) = x^-θ`.
    fn h_integral(x: f64, theta: f64) -> f64 {
        let log_x = x.ln();
        Self::helper2((1.0 - theta) * log_x) * log_x
    }

    fn h(x: f64, theta: f64) -> f64 {
        (-theta * x.ln()).exp()
    }

    fn h_integral_inverse(x: f64, theta: f64) -> f64 {
        let mut t = x * (1.0 - theta);
        if t < -1.0 {
            t = -1.0;
        }
        (Self::helper1(t) * x).exp()
    }

    /// `log1p(x)/x`, stable near zero.
    fn helper1(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.ln_1p() / x
        } else {
            1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
        }
    }

    /// `(exp(x)-1)/x`, stable near zero.
    fn helper2(x: f64) -> f64 {
        if x.abs() > 1e-8 {
            x.exp_m1() / x
        } else {
            1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
        }
    }
}

impl Table {
    fn new(n: u64, theta: f64, s: f64, h_x1: f64, h_n: f64, margin: f64) -> Self {
        let ranks: Box<[Rank]> = (1..=n)
            .map(|k| {
                let (upper, accept) = Zipf::upper_and_accept(k, theta);
                Rank { upper, tail: Zipf::h_integral(k as f64 - s, theta), accept }
            })
            .collect();
        let buckets_per_u = GUIDE_BUCKETS as f64 / (h_n - h_x1);
        let mut first = 0;
        let guide = (0..GUIDE_BUCKETS)
            .map(|bucket| {
                let start = h_x1 + bucket as f64 / buckets_per_u;
                while first + 1 < ranks.len() && ranks[first].upper <= start {
                    first += 1;
                }
                first as u16
            })
            .collect();
        Self { ranks, guide, u_start: h_x1, buckets_per_u, margin }
    }

    /// The 1-based rank `u` maps to and whether the draw is accepted, or
    /// `None` when `u` lies within the margin of a boundary or of the tail
    /// threshold, where only direct evaluation decides.
    fn decide(&self, u: f64) -> Option<(u64, bool)> {
        // A `u` at the very end of the range may fall past the last bucket
        // or the last rank's upper boundary, `h_n`; it lies within the
        // margin of `h_n` either way.
        let bucket = ((u - self.u_start) * self.buckets_per_u) as usize;
        let mut index = *self.guide.get(bucket)? as usize;
        while u >= self.ranks.get(index)?.upper {
            index += 1;
        }
        let rank = self.ranks[index];
        let lower = match index {
            0 => f64::NEG_INFINITY,
            _ => self.ranks[index - 1].upper,
        };
        let clear = rank.upper - u > self.margin
            && u - lower > self.margin
            && (u - rank.tail).abs() > self.margin;
        clear.then_some((index as u64 + 1, u >= rank.tail || u >= rank.accept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn histogram(zipf: &Zipf, samples: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; zipf.universe() as usize];
        for _ in 0..samples {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn samples_stay_in_range() {
        let zipf = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn skew_makes_item_zero_hottest() {
        let zipf = Zipf::new(1000, 1.0);
        let counts = histogram(&zipf, 50_000, 2);
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[100]);
        // Roughly 1/k law: count[0]/count[9] ≈ 10 within loose tolerance.
        let ratio = counts[0] as f64 / counts[9].max(1) as f64;
        assert!(ratio > 5.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn theta_zero_is_uniform() {
        let zipf = Zipf::new(16, 0.0);
        let counts = histogram(&zipf, 64_000, 3);
        for &count in &counts {
            let expected = 4000.0;
            assert!((count as f64 - expected).abs() < expected * 0.2, "count {count}");
        }
    }

    #[test]
    fn higher_theta_concentrates_more() {
        let mild = histogram(&Zipf::new(1000, 0.8), 50_000, 4);
        let steep = histogram(&Zipf::new(1000, 1.4), 50_000, 4);
        assert!(steep[0] > mild[0]);
    }

    #[test]
    fn singleton_universe_always_returns_zero() {
        let zipf = Zipf::new(1, 1.1);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }

    /// Every boundary and tail threshold of `zipf`'s table, each with the
    /// 64 floats on either side of it and points just past the margin, and
    /// both ends of the `u` range.
    fn probes(zipf: &Zipf) -> Vec<f64> {
        let table = zipf.table.as_ref().expect("tabulated");
        let mut points = vec![zipf.h_x1, zipf.h_x1.next_up(), zipf.h_n.next_down(), zipf.h_n];
        for rank in table.ranks.iter() {
            for edge in [rank.upper, rank.tail] {
                let (mut below, mut above) = (edge, edge);
                points.push(edge);
                for _ in 0..64 {
                    below = below.next_down();
                    above = above.next_up();
                    points.extend([below, above]);
                }
                for past in [1.0 + 1e-6, 2.0] {
                    points.extend([edge - past * table.margin, edge + past * table.margin]);
                }
            }
        }
        points.retain(|u| (zipf.h_x1..=zipf.h_n).contains(u));
        points
    }

    #[test]
    fn the_table_decides_as_direct_evaluation_does() {
        for (n, theta) in [
            (1, 1.1),
            (2, 0.5),
            (16, 0.99),
            (16, 1.0),
            (300, 8.0),
            (2_000, 1.01),
            (2_000, 1.15),
            (2_000, 2.0),
            (4_096, 0.5),
        ] {
            let zipf = Zipf::new(n, theta);
            let table = zipf.table.as_ref().expect("tabulated");
            let (mut decided, mut guarded) = (0, 0);
            for u in probes(&zipf) {
                match table.decide(u) {
                    Some(decision) => {
                        assert_eq!(decision, zipf.decide(u), "n {n} theta {theta} u {u:e}");
                        decided += 1;
                    }
                    None => guarded += 1,
                }
            }
            assert!(decided > 0 && guarded > 0, "n {n} theta {theta}: {decided} vs {guarded}");
        }
    }

    #[test]
    fn the_table_decides_nearly_every_draw_at_the_serving_skew() {
        let zipf = Zipf::new(2_000, 1.15);
        let table = zipf.table.as_ref().expect("tabulated");
        let mut rng = StdRng::seed_from_u64(8);
        let mut guarded = 0;
        for _ in 0..100_000 {
            let u = zipf.h_n + rng.gen::<f64>() * (zipf.h_x1 - zipf.h_n);
            match table.decide(u) {
                Some(decision) => assert_eq!(decision, zipf.decide(u), "u {u:e}"),
                None => guarded += 1,
            }
        }
        assert!(guarded < 10, "{guarded} of 10^5 draws fell back");
    }

    #[test]
    fn tables_cover_positive_exponents_up_to_the_cap_within_512_kib() {
        assert!(Zipf::new(TABLE_CAP, 1.15).table.is_some());
        assert!(Zipf::new(TABLE_CAP + 1, 1.15).table.is_none());
        assert!(Zipf::new(2_000, 0.0).table.is_none());
        let steep = Zipf::new(2_000, 1e300);
        assert!(steep.table.is_none(), "the margin spans the u range");
        assert_eq!(steep.sample(&mut StdRng::seed_from_u64(9)), 0);
        let table = Zipf::new(TABLE_CAP, 0.5).table.expect("tabulated");
        let bytes = std::mem::size_of_val(&*table.ranks) + std::mem::size_of_val(&*table.guide);
        assert!(bytes <= 512 << 10, "{bytes} B");
    }

    #[test]
    #[should_panic(expected = "universe must be non-empty")]
    fn zero_universe_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn hot_set_is_an_id_prefix_of_the_right_size() {
        let zipf = Zipf::new(1000, 1.2);
        assert_eq!(zipf.hot_set(0.0), Vec::<u64>::new());
        assert_eq!(zipf.hot_set(0.01), (0..10).collect::<Vec<_>>());
        assert_eq!(zipf.hot_set(1.0).len(), 1000);
        assert_eq!(zipf.hot_set(2.0).len(), 1000, "fractions past 1 clamp to the universe");
        // ceil: any positive fraction captures at least the hottest item.
        assert_eq!(zipf.hot_set(1e-9), vec![0]);
    }

    #[test]
    fn hot_set_actually_covers_most_skewed_traffic() {
        let zipf = Zipf::new(1000, 1.2);
        let hot = zipf.hot_set(0.05);
        let counts = histogram(&zipf, 50_000, 6);
        let hot_hits: usize = hot.iter().map(|&id| counts[id as usize]).sum();
        assert!(
            hot_hits * 2 > 50_000,
            "top 5% of a θ=1.2 Zipf should draw over half the traffic, got {hot_hits}/50000"
        );
    }
}
