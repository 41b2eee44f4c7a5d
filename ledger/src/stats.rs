//! Order statistics behind every reported number.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values summarized.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median (mean of the two middle values for an even sample).
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values`. The quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (its default exclusive method,
    /// extrapolating for two values), so the quartiles in a record equal
    /// the ones a comparison script computes from the same values.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        if n == 1 {
            return Self { n, q1: median, median, q3: median };
        }
        let quartile = |i: i64| {
            let m = n as i64 + 1;
            let j = (i * m / 4).clamp(1, n as i64 - 1);
            let delta = (i * m - j * 4) as f64;
            let j = j as usize;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Self { n, q1: quartile(1), median, q3: quartile(3) }
    }
}

/// Median of `values` (0 for an empty sample, which a layer the workload
/// never calls produces).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        Summary::of(values).median
    }
}

/// Mean of `values`. The serving workloads average their per-rep latency
/// percentiles with it: a percentile of a deadline-batched run often sits
/// on the same virtual-time value in most reps, so their median can read
/// the same for every seed, while the mean still moves with each rep.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}
