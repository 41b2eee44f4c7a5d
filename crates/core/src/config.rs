//! FAFNIR accelerator configuration.

use crate::reduce::ReduceOp;
use crate::timing::PeTiming;

/// Configuration of a FAFNIR tree instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FafnirConfig {
    /// Ranks feeding one leaf PE (the paper's 1PE:2R default; 1PE:1R and
    /// 1PE:4R are the other scales mentioned in Sec. IV-B).
    pub ranks_per_leaf: usize,
    /// Elements per embedding vector (128 × f32 = the paper's 512 B).
    pub vector_dim: usize,
    /// Reduction operator.
    pub op: ReduceOp,
    /// PE stage latencies.
    pub pe_timing: PeTiming,
    /// Bytes a tree link moves per NDP cycle (512-bit links by default).
    pub link_bytes_per_cycle: usize,
    /// Hardware batch capacity *B* (`n = m = B` buffer entries and compute
    /// units per PE, Sec. IV-B). Software batches larger than this are
    /// served as several hardware batches.
    pub batch_capacity: usize,
    /// Whether the host deduplicates indices before reading memory
    /// (Sec. IV-C). Turning this off reproduces the non-striped bars of
    /// Fig. 13.
    pub dedup: bool,
    /// Largest query the hardware headers support (*q*; the paper sizes
    /// headers for 16 indices, Sec. IV-B / Table I). Batches with longer
    /// queries are rejected.
    pub max_query_len: usize,
    /// Host-side arrangement (Sec. IV-B): partition oversized software
    /// batches into hardware batches by shared indices
    /// ([`crate::Batch::split_for_sharing`]) instead of arrival order, so
    /// dedup survives the batch boundary. Off by default (arrival order).
    pub arrange_batches: bool,
}

impl FafnirConfig {
    /// The paper's configuration: 1PE:2R, 512 B vectors, sum reduction,
    /// 200 MHz FPGA timing, batch capacity 32, dedup on.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ranks_per_leaf: 2,
            vector_dim: 128,
            op: ReduceOp::Sum,
            pe_timing: PeTiming::fpga_200mhz(),
            link_bytes_per_cycle: 64,
            batch_capacity: 32,
            dedup: true,
            max_query_len: 16,
            arrange_batches: false,
        }
    }

    /// Bytes per embedding vector value (`vector_dim × 4`).
    #[must_use]
    pub fn vector_bytes(&self) -> usize {
        self.vector_dim * std::mem::size_of::<f32>()
    }

    /// Nanoseconds to move one value across a tree link.
    #[must_use]
    pub fn link_transfer_ns(&self) -> f64 {
        let cycles = self.vector_bytes().div_ceil(self.link_bytes_per_cycle) as f64;
        cycles * self.pe_timing.cycle_ns()
    }

    /// Leaf-PE count for a system with `ranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is not a positive multiple of `ranks_per_leaf`.
    #[must_use]
    pub fn leaf_count(&self, ranks: usize) -> usize {
        assert!(
            ranks > 0 && ranks.is_multiple_of(self.ranks_per_leaf),
            "ranks ({ranks}) must be a positive multiple of ranks_per_leaf ({})",
            self.ranks_per_leaf
        );
        (ranks / self.ranks_per_leaf).max(1)
    }

    /// Total PEs in the tree for a system with `ranks` ranks (`2L − 1`, the
    /// paper's `m − 1` for 1PE:1R; 31 for 32 ranks at 1PE:2R).
    #[must_use]
    pub fn pe_count(&self, ranks: usize) -> usize {
        2 * self.leaf_count(ranks) - 1
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), crate::error::FafnirError> {
        use crate::error::FafnirError;
        if self.ranks_per_leaf == 0 || !self.ranks_per_leaf.is_power_of_two() {
            return Err(FafnirError::InvalidConfig(
                "ranks_per_leaf must be a non-zero power of two".into(),
            ));
        }
        if self.vector_dim == 0 {
            return Err(FafnirError::InvalidConfig("vector_dim must be non-zero".into()));
        }
        if self.link_bytes_per_cycle == 0 {
            return Err(FafnirError::InvalidConfig("link_bytes_per_cycle must be non-zero".into()));
        }
        if self.batch_capacity == 0 {
            return Err(FafnirError::InvalidConfig("batch_capacity must be non-zero".into()));
        }
        if self.max_query_len == 0 {
            return Err(FafnirError::InvalidConfig("max_query_len must be non-zero".into()));
        }
        Ok(())
    }
}

impl Default for FafnirConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_paper_numbers() {
        let config = FafnirConfig::paper_default();
        assert_eq!(config.vector_bytes(), 512);
        assert_eq!(config.leaf_count(32), 16);
        assert_eq!(config.pe_count(32), 31); // Sec. IV-B: 32 ranks, 31 PEs
        config.validate().unwrap();
    }

    #[test]
    fn pe_count_scales_with_ratio() {
        let mut config = FafnirConfig::paper_default();
        config.ranks_per_leaf = 1;
        assert_eq!(config.pe_count(32), 63);
        config.ranks_per_leaf = 4;
        assert_eq!(config.pe_count(32), 15);
    }

    #[test]
    fn link_transfer_is_positive_and_scales() {
        let config = FafnirConfig::paper_default();
        let slow = FafnirConfig { link_bytes_per_cycle: 8, ..config };
        assert!(slow.link_transfer_ns() > config.link_transfer_ns());
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let mut config = FafnirConfig::paper_default();
        config.vector_dim = 0;
        assert!(config.validate().is_err());
        let mut config = FafnirConfig::paper_default();
        config.ranks_per_leaf = 3;
        assert!(config.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "multiple of ranks_per_leaf")]
    fn leaf_count_rejects_indivisible_ranks() {
        let _ = FafnirConfig::paper_default().leaf_count(3);
    }
}
