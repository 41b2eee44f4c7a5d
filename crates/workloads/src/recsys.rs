//! End-to-end recommendation-inference model (paper Fig. 12).
//!
//! Fig. 12 decomposes total inference latency into (i) embedding lookup,
//! (ii) fully-connected layers executed at the CPU — fixed at 0.5 ms and
//! independent of the memory system — and (iii) other operations. Only the
//! embedding part is accelerated, so the end-to-end speedup of a memory
//! configuration follows Amdahl's law over the embedding share.

/// Fixed-cost model of the non-embedding parts of inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecSysModel {
    /// FC-layer latency in nanoseconds (0.5 ms in the paper).
    pub fc_ns: f64,
    /// Other operations in nanoseconds.
    pub other_ns: f64,
}

impl RecSysModel {
    /// The paper's Fig. 12 assumptions: FC = 0.5 ms, other = 0.1 ms.
    #[must_use]
    pub fn paper_default() -> Self {
        Self { fc_ns: 500_000.0, other_ns: 100_000.0 }
    }

    /// Builds the full breakdown for a measured embedding latency.
    #[must_use]
    pub fn breakdown(&self, embedding_ns: f64) -> InferenceBreakdown {
        InferenceBreakdown { embedding_ns, fc_ns: self.fc_ns, other_ns: self.other_ns }
    }
}

impl Default for RecSysModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Total inference latency split into the paper's three components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InferenceBreakdown {
    /// Embedding-lookup latency (the accelerated part).
    pub embedding_ns: f64,
    /// Fully-connected layers at the CPU.
    pub fc_ns: f64,
    /// Everything else.
    pub other_ns: f64,
}

impl InferenceBreakdown {
    /// Total inference latency.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.embedding_ns + self.fc_ns + self.other_ns
    }

    /// End-to-end speedup over a baseline breakdown.
    #[must_use]
    pub fn speedup_over(&self, baseline: &InferenceBreakdown) -> f64 {
        baseline.total_ns() / self.total_ns()
    }

    /// The ideal (linear) end-to-end speedup if the embedding part scaled
    /// perfectly by `factor` — Fig. 12's red line.
    #[must_use]
    pub fn ideal_speedup(baseline: &InferenceBreakdown, factor: f64) -> f64 {
        let scaled =
            InferenceBreakdown { embedding_ns: baseline.embedding_ns / factor, ..*baseline };
        baseline.total_ns() / scaled.total_ns()
    }

    /// Embedding share of the total (how much headroom acceleration has).
    #[must_use]
    pub fn embedding_share(&self) -> f64 {
        if self.total_ns() <= 0.0 {
            0.0
        } else {
            self.embedding_ns / self.total_ns()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let model = RecSysModel::paper_default();
        let breakdown = model.breakdown(400_000.0);
        assert!((breakdown.total_ns() - 1_000_000.0).abs() < 1e-9);
        assert!((breakdown.embedding_share() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_amdahl_limited() {
        let model = RecSysModel::paper_default();
        let baseline = model.breakdown(1_000_000.0);
        let accelerated = model.breakdown(10_000.0);
        let speedup = accelerated.speedup_over(&baseline);
        // Embedding was 62.5 % of 1.6 ms; even infinite acceleration caps at
        // 1.6/0.6 ≈ 2.62×.
        assert!(speedup > 2.0 && speedup < 2.63, "got {speedup}");
    }

    #[test]
    fn ideal_speedup_matches_manual_computation() {
        let baseline =
            InferenceBreakdown { embedding_ns: 800_000.0, fc_ns: 500_000.0, other_ns: 100_000.0 };
        let ideal = InferenceBreakdown::ideal_speedup(&baseline, 4.0);
        let expected = 1_400_000.0 / (200_000.0 + 600_000.0);
        assert!((ideal - expected).abs() < 1e-9);
    }

    #[test]
    fn degenerate_zero_total_has_zero_share() {
        let empty = InferenceBreakdown::default();
        assert_eq!(empty.embedding_share(), 0.0);
    }
}
