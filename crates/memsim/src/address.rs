//! Physical-address ↔ device-location mapping.
//!
//! FAFNIR maps each embedding vector contiguously inside one rank so a
//! vector read streams from a single open row (Fig. 4b of the paper), while
//! TensorDIMM stripes a vector across all ranks. Both layouts are expressed
//! here as [`AddressMapping`] schemes plus direct [`Location`] construction.
//!
//! Both memory models turn a request into bursts through one walk,
//! `AddressMapping::for_each_row_run`: it splits the request's consecutive
//! bursts into *row runs*, bursts that stay in one row of one bank
//! ([`AddressMapping::row_run`]), and decodes only the address where a run
//! starts. A read submitted at a [`Location`] starts from it, so a read
//! that fits in its row is never encoded or decoded.

use crate::config::Topology;

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Returns the raw address value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl From<u64> for PhysAddr {
    fn from(value: u64) -> Self {
        Self(value)
    }
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A fully decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank index *within the channel* (flattens DIMM × rank-per-DIMM).
    pub rank: usize,
    /// Bank group within the rank.
    pub bank_group: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Column (64-byte burst index) within the row.
    pub column: usize,
}

impl Location {
    /// Flat bank index within the rank (`bank_group × banks_per_group + bank`).
    #[must_use]
    pub fn flat_bank(&self, topology: &Topology) -> usize {
        self.bank_group * topology.banks_per_group + self.bank
    }

    /// Globally unique rank index across the whole system.
    #[must_use]
    pub fn global_rank(&self, topology: &Topology) -> usize {
        self.channel * topology.ranks_per_channel() + self.rank
    }

    /// The DIMM (within the channel) this location's rank belongs to.
    #[must_use]
    pub fn dimm(&self, topology: &Topology) -> usize {
        self.rank / topology.ranks_per_dimm
    }

    /// Checks all coordinates are inside the topology's bounds.
    #[must_use]
    pub fn in_bounds(&self, topology: &Topology) -> bool {
        self.channel < topology.channels
            && self.rank < topology.ranks_per_channel()
            && self.bank_group < topology.bank_groups
            && self.bank < topology.banks_per_group
            && self.row < topology.rows
            && self.column < topology.columns
    }
}

/// How physical address bits are distributed over device coordinates.
///
/// Bit order is listed from least significant upward; the burst offset
/// (`log2(burst_bytes)` bits) is always the lowest field.
///
/// # Examples
///
/// ```
/// use fafnir_mem::{AddressMapping, MemoryConfig, PhysAddr};
///
/// let topology = MemoryConfig::ddr4_2400_4ch().topology;
/// let mapping = AddressMapping::RowRankBankColumn;
/// let loc = mapping.decode(PhysAddr(0x10040), &topology);
/// assert_eq!(mapping.encode(loc, &topology), PhysAddr(0x10040));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressMapping {
    /// `offset | column | bank | bank_group | rank | channel | row`.
    ///
    /// Consecutive bursts walk columns of one open row — the layout FAFNIR
    /// uses for embedding vectors (a 512 B vector is 8 sequential bursts in
    /// one row of one rank).
    RowRankBankColumn,
    /// `offset | channel | column | bank | bank_group | rank | row`.
    ///
    /// Fine-grained channel interleaving: consecutive bursts round-robin
    /// over channels. Useful as a contrast configuration.
    ChannelInterleaved,
}

impl AddressMapping {
    /// Decodes a physical address into a device location.
    ///
    /// Addresses beyond the topology capacity wrap (the row field is taken
    /// modulo the row count), which keeps synthetic address generators
    /// simple and safe.
    #[must_use]
    pub fn decode(self, addr: PhysAddr, topology: &Topology) -> Location {
        let mut bits = addr.0 >> log2(topology.burst_bytes);
        let mut take = |count: usize| -> usize {
            let mask = (count as u64) - 1;
            let field = (bits & mask) as usize;
            bits >>= log2(count);
            field
        };
        match self {
            AddressMapping::RowRankBankColumn => {
                let column = take(topology.columns);
                let bank = take(topology.banks_per_group);
                let bank_group = take(topology.bank_groups);
                let rank = take(topology.ranks_per_channel());
                let channel = take(topology.channels);
                let row = (bits as usize) % topology.rows;
                Location { channel, rank, bank_group, bank, row, column }
            }
            AddressMapping::ChannelInterleaved => {
                let channel = take(topology.channels);
                let column = take(topology.columns);
                let bank = take(topology.banks_per_group);
                let bank_group = take(topology.bank_groups);
                let rank = take(topology.ranks_per_channel());
                let row = (bits as usize) % topology.rows;
                Location { channel, rank, bank_group, bank, row, column }
            }
        }
    }

    /// Encodes a device location back into a physical address.
    ///
    /// Inverse of [`AddressMapping::decode`] for in-bounds locations.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `location` is out of bounds for
    /// `topology`.
    #[must_use]
    pub fn encode(self, location: Location, topology: &Topology) -> PhysAddr {
        debug_assert!(location.in_bounds(topology), "location out of bounds: {location:?}");
        let mut bits: u64 = location.row as u64;
        let mut push = |field: usize, count: usize| {
            bits = (bits << log2(count)) | field as u64;
        };
        match self {
            AddressMapping::RowRankBankColumn => {
                push(location.channel, topology.channels);
                push(location.rank, topology.ranks_per_channel());
                push(location.bank_group, topology.bank_groups);
                push(location.bank, topology.banks_per_group);
                push(location.column, topology.columns);
            }
            AddressMapping::ChannelInterleaved => {
                push(location.rank, topology.ranks_per_channel());
                push(location.bank_group, topology.bank_groups);
                push(location.bank, topology.banks_per_group);
                push(location.column, topology.columns);
                push(location.channel, topology.channels);
            }
        }
        PhysAddr(bits << log2(topology.burst_bytes))
    }

    /// How many consecutive bursts, starting at `location`, stay in its row
    /// of its bank: the rest of the row under
    /// [`AddressMapping::RowRankBankColumn`], whose column field is the
    /// lowest, and 1 under [`AddressMapping::ChannelInterleaved`], which is
    /// walked burst by burst.
    #[must_use]
    pub fn row_run(self, location: Location, topology: &Topology) -> usize {
        match self {
            AddressMapping::RowRankBankColumn => topology.columns - location.column,
            AddressMapping::ChannelInterleaved => 1,
        }
    }

    /// Walks `bursts` consecutive bursts from `first` as row runs, calling
    /// `run(location of the run's first burst, bursts in the run)` in
    /// address order. Burst `i` lies at the first burst's address plus `i`
    /// bursts, exactly as if each burst were decoded on its own, but only a
    /// run's first burst is decoded; a start given as a [`Location`] is
    /// encoded only if the request leaves its first row.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a [`FirstBurst::At`] location is out of
    /// bounds for `topology`.
    #[inline]
    pub(crate) fn for_each_row_run(
        self,
        first: FirstBurst,
        bursts: usize,
        topology: &Topology,
        mut run: impl FnMut(Location, usize),
    ) {
        let (start, addr) = match first {
            FirstBurst::Addr(addr) => (self.decode(addr, topology), Some(addr)),
            FirstBurst::At(location) => {
                debug_assert!(location.in_bounds(topology), "location out of bounds: {location:?}");
                (location, None)
            }
        };
        let mut done = self.row_run(start, topology).min(bursts);
        run(start, done);
        if done == bursts {
            return;
        }
        let base = addr.unwrap_or_else(|| self.encode(start, topology)).0;
        while done < bursts {
            let location =
                self.decode(PhysAddr(base + (done * topology.burst_bytes) as u64), topology);
            let len = self.row_run(location, topology).min(bursts - done);
            run(location, len);
            done += len;
        }
    }
}

/// Where a request's first burst lies: at an address to decode, or at a
/// location the caller already holds.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FirstBurst {
    /// A physical address, decoded through the mapping.
    Addr(PhysAddr),
    /// A device location, used as is.
    At(Location),
}

/// log2 of a power of two.
fn log2(value: usize) -> u32 {
    debug_assert!(value.is_power_of_two());
    value.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;
    use proptest::prelude::*;

    fn topo() -> Topology {
        MemoryConfig::ddr4_2400_4ch().topology
    }

    #[test]
    fn sequential_bursts_share_a_row() {
        let topology = topo();
        let mapping = AddressMapping::RowRankBankColumn;
        let base = mapping.decode(PhysAddr(0x10000), &topology);
        for burst in 1..8 {
            let loc = mapping.decode(PhysAddr(0x10000 + burst * 64), &topology);
            assert_eq!(loc.row, base.row);
            assert_eq!(loc.rank, base.rank);
            assert_eq!(loc.channel, base.channel);
            assert_eq!(loc.column, base.column + burst as usize);
        }
    }

    #[test]
    fn channel_interleaved_rotates_channels() {
        let topology = topo();
        let mapping = AddressMapping::ChannelInterleaved;
        let channels: Vec<usize> =
            (0..4).map(|burst| mapping.decode(PhysAddr(burst * 64), &topology).channel).collect();
        assert_eq!(channels, vec![0, 1, 2, 3]);
    }

    /// Every burst of every run, in address order.
    fn walked(mapping: AddressMapping, first: FirstBurst, bursts: usize) -> Vec<Location> {
        let topology = topo();
        let mut out = Vec::new();
        mapping.for_each_row_run(first, bursts, &topology, |location, len| {
            assert!(len >= 1 && location.column + len <= topology.columns);
            out.extend((0..len).map(|i| Location { column: location.column + i, ..location }));
        });
        out
    }

    #[test]
    fn row_runs_decode_like_every_burst_on_its_own() {
        let topology = topo();
        let last_column =
            Location { channel: 3, rank: 7, bank_group: 3, bank: 3, row: 9, column: 125 };
        for mapping in [AddressMapping::RowRankBankColumn, AddressMapping::ChannelInterleaved] {
            for (addr, bursts) in
                [(0x10000, 8), (0x10000 + 121 * 64, 8), (0x1234_5677, 200), (0x10_0000_0040, 3)]
            {
                let each: Vec<Location> = (0..bursts)
                    .map(|i| mapping.decode(PhysAddr(addr + i as u64 * 64), &topology))
                    .collect();
                assert_eq!(walked(mapping, FirstBurst::Addr(PhysAddr(addr)), bursts), each);
            }
            // From a location: the read crosses into the next bank and, from
            // the system's last bank, wraps to row 10 of the first.
            let addr = mapping.encode(last_column, &topology).value();
            let each: Vec<Location> =
                (0..300).map(|i| mapping.decode(PhysAddr(addr + i * 64), &topology)).collect();
            assert_eq!(walked(mapping, FirstBurst::At(last_column), 300), each);
        }
        let runs = |mapping: AddressMapping| {
            let mut lens = Vec::new();
            mapping.for_each_row_run(FirstBurst::At(last_column), 8, &topology, |_, len| {
                lens.push(len)
            });
            lens
        };
        assert_eq!(runs(AddressMapping::RowRankBankColumn), [3, 5]);
        assert_eq!(runs(AddressMapping::ChannelInterleaved), [1; 8]);
    }

    #[test]
    fn zero_address_is_origin() {
        let topology = topo();
        for mapping in [AddressMapping::RowRankBankColumn, AddressMapping::ChannelInterleaved] {
            assert_eq!(mapping.decode(PhysAddr(0), &topology), Location::default());
        }
    }

    #[test]
    fn global_rank_and_dimm_are_consistent() {
        let topology = topo();
        let loc = Location { channel: 2, rank: 5, ..Location::default() };
        assert_eq!(loc.global_rank(&topology), 2 * 8 + 5);
        assert_eq!(loc.dimm(&topology), 2); // rank 5 with 2 ranks/DIMM
    }

    proptest! {
        #[test]
        fn encode_decode_round_trips(
            channel in 0usize..4,
            rank in 0usize..8,
            bank_group in 0usize..4,
            bank in 0usize..4,
            row in 0usize..32_768,
            column in 0usize..128,
        ) {
            let topology = topo();
            let loc = Location { channel, rank, bank_group, bank, row, column };
            for mapping in [AddressMapping::RowRankBankColumn, AddressMapping::ChannelInterleaved] {
                let addr = mapping.encode(loc, &topology);
                prop_assert_eq!(mapping.decode(addr, &topology), loc);
            }
        }

        #[test]
        fn decode_encode_round_trips_within_capacity(raw in 0u64..(1u64 << 40)) {
            let topology = topo();
            let capacity = topology.capacity_bytes();
            let addr = PhysAddr((raw % capacity) & !63); // burst aligned
            for mapping in [AddressMapping::RowRankBankColumn, AddressMapping::ChannelInterleaved] {
                let loc = mapping.decode(addr, &topology);
                prop_assert!(loc.in_bounds(&topology));
                prop_assert_eq!(mapping.encode(loc, &topology), addr);
            }
        }
    }
}
