//! Batch-sharing statistics (paper Figs. 3 and 15).
//!
//! Fig. 3 reports the percentage of unique indices in batches of queries;
//! Fig. 15 reports the resulting memory-access savings (34 % / 43 % / 58 %
//! for batch sizes 8 / 16 / 32 on the paper's traffic). Both are properties
//! of the workload alone, measured here over sampled batches.

use crate::query::BatchGenerator;

/// Summary of unique-index sharing over many sampled batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingStats {
    /// Batch size the samples used.
    pub batch_size: usize,
    /// Mean fraction of references that are unique (Fig. 3's y-axis).
    pub mean_unique_fraction: f64,
    /// Mean access savings `1 − unique/total` (Fig. 15).
    pub mean_savings: f64,
    /// Mean DRAM accesses per leaf input after dedup, normalized by the
    /// reference count per leaf (Fig. 15 shows this stays below the batch
    /// size).
    pub mean_unique_per_query: f64,
    /// Batches sampled.
    pub samples: usize,
}

/// Measures sharing statistics for one batch size by sampling `samples`
/// batches from `generator`.
///
/// # Panics
///
/// Panics if `samples` is zero.
#[must_use]
pub fn measure_sharing(
    generator: &mut BatchGenerator,
    batch_size: usize,
    samples: usize,
) -> SharingStats {
    assert!(samples > 0, "at least one sample required");
    let mut unique_sum = 0.0;
    let mut per_query_sum = 0.0;
    for _ in 0..samples {
        let batch = generator.batch(batch_size);
        unique_sum += batch.unique_fraction();
        per_query_sum += batch.unique_indices().len() as f64 / batch_size as f64;
    }
    let mean_unique_fraction = unique_sum / samples as f64;
    SharingStats {
        batch_size,
        mean_unique_fraction,
        mean_savings: 1.0 - mean_unique_fraction,
        mean_unique_per_query: per_query_sum / samples as f64,
        samples,
    }
}

/// Sweeps batch sizes, producing one [`SharingStats`] row per size —
/// exactly the series of Fig. 3 / Fig. 15.
#[must_use]
pub fn sharing_sweep(
    generator: &mut BatchGenerator,
    batch_sizes: &[usize],
    samples: usize,
) -> Vec<SharingStats> {
    batch_sizes.iter().map(|&size| measure_sharing(generator, size, samples)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Popularity;

    fn paper_traffic() -> BatchGenerator {
        // Calibrated so savings land in the paper's band (~34/43/58 % for
        // B = 8/16/32): a strongly skewed Zipf over a moderate universe.
        BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 7)
    }

    #[test]
    fn savings_grow_with_batch_size() {
        let mut generator = paper_traffic();
        let sweep = sharing_sweep(&mut generator, &[8, 16, 32], 30);
        assert!(sweep[0].mean_savings < sweep[1].mean_savings);
        assert!(sweep[1].mean_savings < sweep[2].mean_savings);
    }

    #[test]
    fn savings_fall_in_the_papers_band() {
        let mut generator = paper_traffic();
        let sweep = sharing_sweep(&mut generator, &[8, 16, 32], 50);
        // Paper: 34 % / 43 % / 58 %. Allow a generous ±12 pp band — the
        // exact value depends on the production trace we do not have.
        for (stats, target) in sweep.iter().zip([0.34, 0.43, 0.58]) {
            assert!(
                (stats.mean_savings - target).abs() < 0.12,
                "B={}: savings {:.2} vs paper {target}",
                stats.batch_size,
                stats.mean_savings
            );
        }
    }

    #[test]
    fn unique_fraction_and_savings_are_complementary() {
        let mut generator = paper_traffic();
        let stats = measure_sharing(&mut generator, 16, 10);
        assert!((stats.mean_unique_fraction + stats.mean_savings - 1.0).abs() < 1e-12);
        assert!(stats.mean_unique_fraction > 0.0 && stats.mean_unique_fraction <= 1.0);
    }

    #[test]
    fn uniform_traffic_saves_almost_nothing() {
        let mut generator = BatchGenerator::new(Popularity::Uniform, 10_000_000, 16, 9);
        let stats = measure_sharing(&mut generator, 32, 10);
        assert!(stats.mean_savings < 0.01, "got {}", stats.mean_savings);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let mut generator = paper_traffic();
        let _ = measure_sharing(&mut generator, 8, 0);
    }
}
