//! Memory requests and completions.

use crate::address::PhysAddr;
use crate::Cycle;

/// Identifier assigned to each submitted [`Request`], unique per
/// [`crate::MemorySystem`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Whether a request reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A DRAM read (RD commands).
    Read,
    /// A DRAM write (WR commands).
    Write,
}

/// A memory access covering one or more 64-byte bursts starting at `addr`.
///
/// Multi-burst requests model whole-embedding-vector reads: a 512 B vector
/// is one request that the controller expands into 8 consecutive column
/// accesses, completing when the final data beat returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Starting physical address.
    pub addr: PhysAddr,
    /// Bytes to transfer. Rounded up to a whole number of bursts; a zero
    /// value still costs one burst (DRAM cannot transfer less).
    pub bytes: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// Earliest cycle at which the controller may start serving the request.
    pub arrival: Cycle,
}

impl Request {
    /// A read of `bytes` starting at `addr`, arriving at cycle 0.
    #[must_use]
    pub fn read(addr: u64, bytes: usize) -> Self {
        Self { addr: PhysAddr(addr), bytes, kind: AccessKind::Read, arrival: 0 }
    }

    /// A write of `bytes` starting at `addr`, arriving at cycle 0.
    #[must_use]
    pub fn write(addr: u64, bytes: usize) -> Self {
        Self { addr: PhysAddr(addr), bytes, kind: AccessKind::Write, arrival: 0 }
    }

    /// Returns the same request arriving at `cycle`.
    #[must_use]
    pub fn at(mut self, cycle: Cycle) -> Self {
        self.arrival = cycle;
        self
    }

    /// The number of 64-byte-class bursts this request occupies given a
    /// burst size.
    #[must_use]
    pub fn bursts(&self, burst_bytes: usize) -> usize {
        bursts(self.bytes, burst_bytes)
    }
}

/// The number of bursts a transfer of `bytes` occupies: rounded up, and at
/// least one.
pub(crate) fn bursts(bytes: usize, burst_bytes: usize) -> usize {
    bytes.div_ceil(burst_bytes).max(1)
}

/// Result of a finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Completion {
    /// The request this completion belongs to.
    pub id: RequestId,
    /// Cycle when the final data beat crossed the channel bus.
    pub finish_cycle: Cycle,
    /// Cycle when the first command for this request was issued.
    pub start_cycle: Cycle,
    /// Bursts that hit an already-open row.
    pub row_hits: u32,
    /// Bursts that required activating a closed row.
    pub row_misses: u32,
    /// Bursts that had to close a different open row first.
    pub row_conflicts: u32,
}

impl Completion {
    /// Total queuing + service latency in cycles, measured from the
    /// request's arrival.
    #[must_use]
    pub fn latency(&self, arrival: Cycle) -> Cycle {
        self.finish_cycle.saturating_sub(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_constructor_sets_fields() {
        let req = Request::read(0x1000, 512);
        assert_eq!(req.addr, PhysAddr(0x1000));
        assert_eq!(req.bytes, 512);
        assert_eq!(req.kind, AccessKind::Read);
        assert_eq!(req.arrival, 0);
    }

    #[test]
    fn at_sets_arrival() {
        let req = Request::write(0, 64).at(100);
        assert_eq!(req.arrival, 100);
        assert_eq!(req.kind, AccessKind::Write);
    }

    #[test]
    fn bursts_round_up_and_floor_at_one() {
        assert_eq!(Request::read(0, 512).bursts(64), 8);
        assert_eq!(Request::read(0, 65).bursts(64), 2);
        assert_eq!(Request::read(0, 16).bursts(64), 1);
        assert_eq!(Request::read(0, 0).bursts(64), 1);
    }

    #[test]
    fn completion_latency_measures_from_arrival() {
        let completion = Completion {
            id: RequestId(0),
            finish_cycle: 120,
            start_cycle: 40,
            row_hits: 7,
            row_misses: 1,
            row_conflicts: 0,
        };
        assert_eq!(completion.latency(20), 100);
        assert_eq!(completion.latency(200), 0);
    }
}
