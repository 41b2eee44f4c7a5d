//! Embedding-table sets mapped onto the memory system (paper Fig. 4b).
//!
//! The paper's system holds 32 embedding tables over 32 ranks, one 512 B
//! vector per index, with a vector's rank chosen by index bits so that
//! distinct vectors can be gathered rank-parallel. [`EmbeddingTableSet`]
//! reproduces that layout and doubles as the functional data source: values
//! are deterministic per index so tree outputs can be validated exactly.

use fafnir_core::{EmbeddingSource, VectorIndex};
use fafnir_mem::{Location, Topology};

/// How tables map onto the ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TablePlacement {
    /// The paper's Fig. 4b layout: consecutive indices stripe across all
    /// ranks, so any hot set spreads over the whole system.
    #[default]
    RankStriped,
    /// Each table lives wholly on one rank (`table mod ranks`). Simpler
    /// addressing, but skewed global traffic concentrates on the hot
    /// table's rank — the contrast configuration.
    TableContiguous,
}

/// A set of embedding tables distributed over a memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTableSet {
    topology: Topology,
    tables: u32,
    rows_per_table: u32,
    vector_dim: usize,
    placement: TablePlacement,
}

impl EmbeddingTableSet {
    /// Creates a table set.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the tables do not fit in the
    /// topology's capacity.
    #[must_use]
    pub fn new(topology: Topology, tables: u32, rows_per_table: u32, vector_dim: usize) -> Self {
        assert!(tables > 0 && rows_per_table > 0 && vector_dim > 0, "dimensions must be non-zero");
        let bytes = u64::from(tables) * u64::from(rows_per_table) * (vector_dim as u64) * 4;
        assert!(
            bytes <= topology.capacity_bytes(),
            "tables ({bytes} B) exceed memory capacity ({} B)",
            topology.capacity_bytes()
        );
        Self { topology, tables, rows_per_table, vector_dim, placement: TablePlacement::default() }
    }

    /// Selects the table-to-rank placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: TablePlacement) -> Self {
        self.placement = placement;
        self
    }

    /// The active placement policy.
    #[must_use]
    pub fn placement(&self) -> TablePlacement {
        self.placement
    }

    /// The paper's configuration: 32 tables over the 32-rank system, 512 B
    /// vectors, one million rows per table.
    #[must_use]
    pub fn paper_default(topology: Topology) -> Self {
        Self::new(topology, 32, 1 << 20, 128)
    }

    /// Number of tables.
    #[must_use]
    pub fn tables(&self) -> u32 {
        self.tables
    }

    /// Rows per table.
    #[must_use]
    pub fn rows_per_table(&self) -> u32 {
        self.rows_per_table
    }

    /// Total vectors across all tables.
    #[must_use]
    pub fn total_vectors(&self) -> u64 {
        u64::from(self.tables) * u64::from(self.rows_per_table)
    }

    /// Packs a (table, row) coordinate into a global [`VectorIndex`].
    ///
    /// # Panics
    ///
    /// Panics if `table` or `row` is out of range.
    #[must_use]
    pub fn index_of(&self, table: u32, row: u32) -> VectorIndex {
        assert!(table < self.tables, "table {table} out of range");
        assert!(row < self.rows_per_table, "row {row} out of range");
        VectorIndex::from_table_row(table, row, self.rows_per_table)
    }

    /// Splits a global index back into (table, row).
    #[must_use]
    pub fn coordinates_of(&self, index: VectorIndex) -> (u32, u32) {
        (index.value() / self.rows_per_table, index.value() % self.rows_per_table)
    }

    /// The memory topology this set is laid out over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Bytes per vector.
    #[must_use]
    pub fn vector_bytes(&self) -> usize {
        self.vector_dim * 4
    }
}

impl EmbeddingSource for EmbeddingTableSet {
    fn location_of(&self, index: VectorIndex) -> Location {
        // Fig. 4b: the low index bits select the rank so that consecutive
        // indices stripe across all ranks; the vector occupies consecutive
        // bursts of one row. Under TableContiguous, the table picks the
        // rank and the row index walks within it.
        let ranks = self.topology.total_ranks();
        let (global_rank, slot) = match self.placement {
            TablePlacement::RankStriped => {
                (index.value() as usize % ranks, index.value() as usize / ranks)
            }
            TablePlacement::TableContiguous => {
                let (table, row) = self.coordinates_of(index);
                (table as usize % ranks, row as usize)
            }
        };
        let bursts = self.vector_bytes().div_ceil(self.topology.burst_bytes);
        let vectors_per_row = (self.topology.columns / bursts).max(1);
        let banks = self.topology.banks_per_rank();
        let flat_bank = slot % banks;
        let row = (slot / banks / vectors_per_row) % self.topology.rows;
        let column = (slot / banks % vectors_per_row) * bursts;
        Location {
            channel: global_rank / self.topology.ranks_per_channel(),
            rank: global_rank % self.topology.ranks_per_channel(),
            bank_group: flat_bank / self.topology.banks_per_group,
            bank: flat_bank % self.topology.banks_per_group,
            row,
            column,
        }
    }

    fn value_of(&self, index: VectorIndex) -> Vec<f32> {
        // Deterministic per-index values (splitmix-style), so engine outputs
        // can be checked against a software reference.
        let mut state = (u64::from(index.value()) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (0..self.vector_dim)
            .map(|_| {
                state ^= state >> 30;
                state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                state ^= state >> 27;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn vector_dim(&self) -> usize {
        self.vector_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fafnir_mem::MemoryConfig;

    fn tables() -> EmbeddingTableSet {
        EmbeddingTableSet::paper_default(MemoryConfig::ddr4_2400_4ch().topology)
    }

    #[test]
    fn paper_default_dimensions() {
        let set = tables();
        assert_eq!(set.tables(), 32);
        assert_eq!(set.vector_bytes(), 512);
        assert_eq!(set.total_vectors(), 32 << 20);
    }

    #[test]
    fn index_coordinates_round_trip() {
        let set = tables();
        for (table, row) in [(0, 0), (5, 123_456), (31, (1 << 20) - 1)] {
            let index = set.index_of(table, row);
            assert_eq!(set.coordinates_of(index), (table, row));
        }
    }

    #[test]
    #[should_panic(expected = "table 32 out of range")]
    fn out_of_range_table_panics() {
        let _ = tables().index_of(32, 0);
    }

    #[test]
    fn consecutive_indices_cover_all_ranks() {
        let set = tables();
        let topology = *set.topology();
        let mut ranks: Vec<usize> =
            (0..32).map(|i| set.location_of(VectorIndex(i)).global_rank(&topology)).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn locations_stay_in_bounds_across_tables() {
        let set = tables();
        let topology = *set.topology();
        for table in [0, 15, 31] {
            for row in [0u32, 999_999, 1 << 19] {
                let loc = set.location_of(set.index_of(table, row));
                assert!(loc.in_bounds(&topology));
            }
        }
    }

    #[test]
    fn values_are_stable_and_bounded() {
        let set = tables();
        let v = set.value_of(VectorIndex(1_000_000));
        assert_eq!(v, set.value_of(VectorIndex(1_000_000)));
        assert_eq!(v.len(), 128);
        assert!(v.iter().all(|x| x.abs() <= 0.5));
    }

    #[test]
    fn table_contiguous_puts_a_table_on_one_rank() {
        let set = tables().with_placement(TablePlacement::TableContiguous);
        let topology = *set.topology();
        let rank_of =
            |table: u32, row: u32| set.location_of(set.index_of(table, row)).global_rank(&topology);
        for table in [0u32, 7, 31] {
            let first = rank_of(table, 0);
            assert_eq!(first, table as usize % 32);
            for row in [1u32, 999, 65_000] {
                assert_eq!(rank_of(table, row), first, "table {table} split across ranks");
            }
        }
        // Different tables land on different ranks.
        assert_ne!(rank_of(0, 0), rank_of(1, 0));
    }

    #[test]
    #[should_panic(expected = "exceed memory capacity")]
    fn oversized_tables_panic() {
        let topology = MemoryConfig::ddr4_2400_1ch_1rank().topology;
        // 4 billion 512 B vectors do not fit in one rank.
        let _ = EmbeddingTableSet::new(topology, 4096, u32::MAX, 128);
    }
}
