//! Memory-system configuration: topology, timing, and policies.
//!
//! The defaults model a DDR4-2400 system matching the paper's evaluation
//! platform: 4 channels × 4 DIMMs × 2 ranks = 32 ranks, 64-byte bursts.

use crate::address::AddressMapping;
use crate::model::MemoryModelKind;

/// Physical organization of the memory system.
///
/// The hierarchy is `channels → DIMMs per channel → ranks per DIMM → bank
/// groups → banks per group → rows → columns`. A "column" here is one
/// 64-byte burst worth of data (the usual granularity a controller
/// schedules), so `columns` counts bursts per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Independent memory channels, each with its own command/data bus.
    pub channels: usize,
    /// DIMMs sharing one channel bus.
    pub dimms_per_channel: usize,
    /// Ranks per DIMM (1 or 2 for commodity DDR4).
    pub ranks_per_dimm: usize,
    /// DDR4 bank groups per rank (4 for x8 devices).
    pub bank_groups: usize,
    /// Banks per bank group (4 for DDR4).
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows: usize,
    /// 64-byte bursts per row (row size / 64).
    pub columns: usize,
    /// Bytes transferred by one burst (64 for a 64-bit bus with BL8).
    pub burst_bytes: usize,
}

impl Topology {
    /// Total ranks in the system (`channels × dimms × ranks_per_dimm`).
    #[must_use]
    pub fn total_ranks(&self) -> usize {
        self.channels * self.dimms_per_channel * self.ranks_per_dimm
    }

    /// Ranks attached to one channel.
    #[must_use]
    pub fn ranks_per_channel(&self) -> usize {
        self.dimms_per_channel * self.ranks_per_dimm
    }

    /// Banks per rank (`bank_groups × banks_per_group`).
    #[must_use]
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Bytes stored in one row of one bank.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.columns * self.burst_bytes
    }

    /// Total addressable capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_ranks() as u64
            * self.banks_per_rank() as u64
            * self.rows as u64
            * self.row_bytes() as u64
    }

    /// Checks all fields are non-zero and power-of-two where required by the
    /// address mapping.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("channels", self.channels),
            ("dimms_per_channel", self.dimms_per_channel),
            ("ranks_per_dimm", self.ranks_per_dimm),
            ("bank_groups", self.bank_groups),
            ("banks_per_group", self.banks_per_group),
            ("rows", self.rows),
            ("columns", self.columns),
            ("burst_bytes", self.burst_bytes),
        ];
        for (name, value) in fields {
            if value == 0 {
                return Err(format!("topology field `{name}` must be non-zero"));
            }
            if !value.is_power_of_two() {
                return Err(format!(
                    "topology field `{name}` must be a power of two (got {value})"
                ));
            }
        }
        Ok(())
    }
}

/// DRAM timing parameters in memory-clock cycles.
///
/// Named after the JEDEC DDR4 parameters. Values are for the command clock
/// (half the data rate), e.g. DDR4-2400 runs the command clock at 1200 MHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_snake_case)]
pub struct Timing {
    /// CAS latency: read command to first data beat.
    pub tCL: u64,
    /// RAS-to-CAS delay: ACT to first RD/WR.
    pub tRCD: u64,
    /// Row precharge time: PRE to next ACT on the same bank.
    pub tRP: u64,
    /// Minimum row-open time: ACT to PRE on the same bank.
    pub tRAS: u64,
    /// ACT-to-ACT on the same bank (`tRAS + tRP`).
    pub tRC: u64,
    /// Column-to-column, different bank group.
    pub tCCD_S: u64,
    /// Column-to-column, same bank group.
    pub tCCD_L: u64,
    /// ACT-to-ACT, different bank group, same rank.
    pub tRRD_S: u64,
    /// ACT-to-ACT, same bank group, same rank.
    pub tRRD_L: u64,
    /// Four-activate window per rank.
    pub tFAW: u64,
    /// Data burst duration on the bus (BL8 = 4 command-clock cycles).
    pub tBL: u64,
    /// Write recovery: last write data to PRE.
    pub tWR: u64,
    /// Read-to-precharge.
    pub tRTP: u64,
    /// Write latency (CWL).
    pub tCWL: u64,
    /// Rank-to-rank data-bus switch penalty.
    pub tRTRS: u64,
    /// Average refresh interval (one REF per rank every tREFI).
    pub tREFI: u64,
    /// Refresh cycle time (the rank is blocked for tRFC per REF).
    pub tRFC: u64,
    /// Command-clock frequency in MHz (for cycle↔time conversion).
    pub clock_mhz: u64,
}

impl Timing {
    /// DDR4-2400 (CL16) timing at 1200 MHz command clock.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        Self {
            tCL: 16,
            tRCD: 16,
            tRP: 16,
            tRAS: 39,
            tRC: 55,
            tCCD_S: 4,
            tCCD_L: 6,
            tRRD_S: 4,
            tRRD_L: 6,
            tFAW: 26,
            tBL: 4,
            tWR: 18,
            tRTP: 9,
            tCWL: 12,
            tRTRS: 2,
            tREFI: 9_360, // 7.8 µs
            tRFC: 420,    // 350 ns (8 Gb devices)
            clock_mhz: 1200,
        }
    }

    /// DDR4-3200 (CL22) timing at 1600 MHz command clock.
    #[must_use]
    pub fn ddr4_3200() -> Self {
        Self {
            tCL: 22,
            tRCD: 22,
            tRP: 22,
            tRAS: 52,
            tRC: 74,
            tCCD_S: 4,
            tCCD_L: 8,
            tRRD_S: 4,
            tRRD_L: 8,
            tFAW: 34,
            tBL: 4,
            tWR: 24,
            tRTP: 12,
            tCWL: 16,
            tRTRS: 2,
            tREFI: 12_480,
            tRFC: 560,
            clock_mhz: 1_600,
        }
    }

    /// DDR5-4800 (CL40) timing at 2400 MHz command clock.
    #[must_use]
    pub fn ddr5_4800() -> Self {
        Self {
            tCL: 40,
            tRCD: 39,
            tRP: 39,
            tRAS: 76,
            tRC: 115,
            tCCD_S: 8,
            tCCD_L: 16,
            tRRD_S: 8,
            tRRD_L: 12,
            tFAW: 32,
            tBL: 8, // BL16
            tWR: 72,
            tRTP: 18,
            tCWL: 38,
            tRTRS: 2,
            tREFI: 9_360,
            tRFC: 984,
            clock_mhz: 2_400,
        }
    }

    /// HBM2 pseudo-channel timing at 1000 MHz command clock.
    ///
    /// The paper's future-work integration attaches leaf PEs to HBM pseudo
    /// channels instead of DDR4 ranks (Sec. VIII).
    #[must_use]
    pub fn hbm2() -> Self {
        Self {
            tCL: 14,
            tRCD: 14,
            tRP: 14,
            tRAS: 34,
            tRC: 48,
            tCCD_S: 2,
            tCCD_L: 4,
            tRRD_S: 4,
            tRRD_L: 6,
            tFAW: 16,
            tBL: 2, // BL4 pseudo-channel burst
            tWR: 16,
            tRTP: 5,
            tCWL: 4,
            tRTRS: 0, // one device per pseudo channel
            tREFI: 3_900,
            tRFC: 260,
            clock_mhz: 1_000,
        }
    }

    /// Converts a cycle count at this clock to nanoseconds.
    #[must_use]
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * 1_000.0 / self.clock_mhz as f64
    }

    /// Converts nanoseconds to (rounded-up) cycles at this clock.
    #[must_use]
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.clock_mhz as f64 / 1_000.0).ceil() as u64
    }

    /// Checks internal consistency (e.g. `tRC ≥ tRAS + tRP`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated relationship.
    pub fn validate(&self) -> Result<(), String> {
        if self.tRC < self.tRAS + self.tRP {
            return Err(format!(
                "tRC ({}) must be at least tRAS + tRP ({})",
                self.tRC,
                self.tRAS + self.tRP
            ));
        }
        if self.tCCD_L < self.tCCD_S {
            return Err("tCCD_L must be at least tCCD_S".into());
        }
        if self.tRRD_L < self.tRRD_S {
            return Err("tRRD_L must be at least tRRD_S".into());
        }
        if self.clock_mhz == 0 {
            return Err("clock_mhz must be non-zero".into());
        }
        if self.tREFI <= self.tRFC {
            return Err("tREFI must exceed tRFC".into());
        }
        Ok(())
    }
}

/// Command arbitration policy of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerPolicy {
    /// First-ready, first-come-first-served: row hits bypass older
    /// conflicting requests (the default, and what FAFNIR assumes).
    FrFcfs,
    /// Strictly oldest-first: no row-hit bypass. The contrast configuration
    /// for measuring what FR-FCFS's reordering is worth.
    Fcfs,
}

/// Row-buffer management policy of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Leave rows open after an access (exploits locality; FAFNIR default).
    Open,
    /// Precharge immediately after each access (auto-precharge).
    Closed,
    /// Leave rows open, but close any row idle for `timeout` cycles with no
    /// queued access to it — the common middle ground in real controllers.
    Adaptive {
        /// Idle cycles before a speculative close.
        timeout: u64,
    },
}

/// Complete configuration of a [`crate::MemorySystem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Physical organization.
    pub topology: Topology,
    /// JEDEC timing set.
    pub timing: Timing,
    /// Row-buffer policy.
    pub page_policy: PagePolicy,
    /// Command arbitration policy.
    pub scheduler: SchedulerPolicy,
    /// Physical-address interleaving scheme.
    pub mapping: AddressMapping,
    /// When true, read data flows to rank-attached NDP logic over each
    /// rank's own port instead of the shared channel data bus (how FAFNIR's
    /// leaf PEs and RecNMP's rank PUs gather — only *results* cross the
    /// channel). When false (default), all data serializes on the channel
    /// bus as in a processor-centric system.
    pub ndp_data_path: bool,
    /// Model periodic refresh (one REF per rank every tREFI, blocking the
    /// rank for tRFC). Off by default: the evaluation batches are far
    /// shorter than tREFI, so refresh only matters for long sweeps.
    pub refresh: bool,
    /// Fault injection: one straggler rank, as `(channel, rank-in-channel,
    /// extra cycles per read)`. Models a slow-binned or thermally throttled
    /// device; `None` disables it.
    pub straggler: Option<(usize, usize, u64)>,
    /// Which timing model serves this configuration: the cycle-accurate
    /// reference (default) or the fast-functional analytic model. Selecting
    /// `Fast` changes *timing fidelity only* — functional outputs stay
    /// byte-identical (see [`crate::FastFunctionalMemory`]).
    pub model: MemoryModelKind,
}

impl MemoryConfig {
    /// The paper's evaluation system: DDR4-2400, 4 channels × 4 DIMMs ×
    /// 2 ranks = 32 ranks, 8 KB rows, open-page, row-interleaved mapping.
    #[must_use]
    pub fn ddr4_2400_4ch() -> Self {
        Self {
            topology: Topology {
                channels: 4,
                dimms_per_channel: 4,
                ranks_per_dimm: 2,
                bank_groups: 4,
                banks_per_group: 4,
                rows: 32_768,
                columns: 128,
                burst_bytes: 64,
            },
            timing: Timing::ddr4_2400(),
            page_policy: PagePolicy::Open,
            scheduler: SchedulerPolicy::FrFcfs,
            mapping: AddressMapping::RowRankBankColumn,
            ndp_data_path: false,
            refresh: false,
            straggler: None,
            model: MemoryModelKind::Cycle,
        }
    }

    /// DDR5-4800 with the paper's 32-rank organization (8 bank groups per
    /// rank, 32-byte sub-channel bursts folded into 64-byte transactions).
    #[must_use]
    pub fn ddr5_4800_4ch() -> Self {
        let mut config = Self::ddr4_2400_4ch();
        config.timing = Timing::ddr5_4800();
        config.topology.bank_groups = 8;
        config.topology.banks_per_group = 4;
        config
    }

    /// HBM2 with 32 pseudo channels — the paper's future-work target: leaf
    /// PEs attach to the 32 pseudo channels instead of DDR4 ranks.
    ///
    /// Each pseudo channel is modelled as an independent channel with one
    /// rank, 16 banks, 2 KB rows, and 32-byte bursts.
    #[must_use]
    pub fn hbm2_32pc() -> Self {
        Self {
            topology: Topology {
                channels: 32,
                dimms_per_channel: 1,
                ranks_per_dimm: 1,
                bank_groups: 4,
                banks_per_group: 4,
                rows: 16_384,
                columns: 64,
                burst_bytes: 32,
            },
            timing: Timing::hbm2(),
            page_policy: PagePolicy::Open,
            scheduler: SchedulerPolicy::FrFcfs,
            mapping: AddressMapping::RowRankBankColumn,
            ndp_data_path: true,
            refresh: false,
            straggler: None,
            model: MemoryModelKind::Cycle,
        }
    }

    /// A single-channel, single-DIMM scaled-down system, useful for tests and
    /// for the 1-rank baseline of Fig. 12.
    #[must_use]
    pub fn ddr4_2400_1ch_1rank() -> Self {
        let mut config = Self::ddr4_2400_4ch();
        config.topology.channels = 1;
        config.topology.dimms_per_channel = 1;
        config.topology.ranks_per_dimm = 1;
        config
    }

    /// A system with the given total rank count, keeping 2 ranks/DIMM and up
    /// to 4 DIMMs/channel, mirroring how the paper sweeps 1→32 ranks
    /// (Fig. 12).
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is zero or not a power of two.
    #[must_use]
    pub fn with_total_ranks(ranks: usize) -> Self {
        assert!(ranks > 0 && ranks.is_power_of_two(), "ranks must be a non-zero power of two");
        let mut config = Self::ddr4_2400_4ch();
        // Fill ranks-per-DIMM first (max 2), then DIMMs (max 4), then channels.
        let ranks_per_dimm = ranks.min(2);
        let dimms = (ranks / ranks_per_dimm).clamp(1, 4);
        let channels = (ranks / (ranks_per_dimm * dimms)).max(1);
        config.topology.ranks_per_dimm = ranks_per_dimm;
        config.topology.dimms_per_channel = dimms;
        config.topology.channels = channels;
        debug_assert_eq!(config.topology.total_ranks(), ranks);
        config
    }

    /// Validates topology and timing together.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.topology.validate()?;
        self.timing.validate()
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::ddr4_2400_4ch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_topology_matches_paper() {
        let config = MemoryConfig::ddr4_2400_4ch();
        assert_eq!(config.topology.total_ranks(), 32);
        assert_eq!(config.topology.ranks_per_channel(), 8);
        assert_eq!(config.topology.banks_per_rank(), 16);
        assert_eq!(config.topology.row_bytes(), 8192);
    }

    #[test]
    fn capacity_is_product_of_dimensions() {
        let config = MemoryConfig::ddr4_2400_4ch();
        let t = config.topology;
        assert_eq!(
            t.capacity_bytes(),
            32 * 16 * 32_768 * 8192 // ranks × banks × rows × row bytes
        );
    }

    #[test]
    fn validate_accepts_presets() {
        MemoryConfig::ddr4_2400_4ch().validate().unwrap();
        MemoryConfig::ddr4_2400_1ch_1rank().validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_field() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.topology.channels = 0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_power_of_two() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.topology.rows = 1000;
        assert!(config.validate().is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_trc() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.timing.tRC = 10;
        assert!(config.validate().is_err());
    }

    #[test]
    fn with_total_ranks_round_trips() {
        for ranks in [1, 2, 4, 8, 16, 32] {
            let config = MemoryConfig::with_total_ranks(ranks);
            assert_eq!(config.topology.total_ranks(), ranks, "ranks={ranks}");
            config.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_total_ranks_rejects_non_power_of_two() {
        let _ = MemoryConfig::with_total_ranks(3);
    }

    #[test]
    fn ddr5_preset_is_valid_and_has_more_banks() {
        let config = MemoryConfig::ddr5_4800_4ch();
        config.validate().unwrap();
        assert_eq!(config.topology.banks_per_rank(), 32);
        assert_eq!(config.topology.total_ranks(), 32);
        // DDR5's doubled burst length at doubled clock: same 64 B burst
        // wall time, while absolute CAS latency in ns grows slightly — the
        // real generational trade (bandwidth up, latency flat-to-worse).
        let ddr4 = Timing::ddr4_2400();
        let ddr5 = config.timing;
        assert!((ddr5.cycles_to_ns(ddr5.tBL) - ddr4.cycles_to_ns(ddr4.tBL)).abs() < 1e-9);
        assert!(ddr5.cycles_to_ns(ddr5.tCL) >= ddr4.cycles_to_ns(ddr4.tCL));
    }

    #[test]
    fn ddr4_3200_is_valid_and_faster_in_time() {
        let fast = Timing::ddr4_3200();
        fast.validate().unwrap();
        let slow = Timing::ddr4_2400();
        // More cycles but a faster clock: tRCD in ns improves.
        assert!(fast.cycles_to_ns(fast.tRCD) < slow.cycles_to_ns(slow.tRCD) * 1.05);
    }

    #[test]
    fn hbm_preset_is_valid_and_32_wide() {
        let config = MemoryConfig::hbm2_32pc();
        config.validate().unwrap();
        assert_eq!(config.topology.total_ranks(), 32);
        assert_eq!(config.topology.row_bytes(), 2048);
        assert!(config.ndp_data_path);
    }

    #[test]
    fn refresh_timing_is_consistent() {
        let timing = Timing::ddr4_2400();
        assert!(timing.tREFI > timing.tRFC);
        let mut bad = timing;
        bad.tREFI = bad.tRFC;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn cycle_time_conversion_round_trips() {
        let timing = Timing::ddr4_2400();
        let ns = timing.cycles_to_ns(1200);
        assert!((ns - 1000.0).abs() < 1e-9);
        assert_eq!(timing.ns_to_cycles(1000.0), 1200);
    }
}
