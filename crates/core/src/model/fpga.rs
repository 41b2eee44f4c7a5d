//! XCVU9P FPGA utilization and power model (paper Table V, Fig. 16a).
//!
//! The paper implements FAFNIR on a Xilinx XCVU9P, using up to 5 % LUTs,
//! 0.15 % LUTRAM, 1 % FFs and 13 % BRAM for the four DIMM/rank nodes plus
//! one channel node, at 0.23 W (DIMM/rank node) and 0.18 W (channel node)
//! dynamic power @200 MHz.

/// Available resources of the XCVU9P device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpgaDevice {
    /// Lookup tables.
    pub luts: u64,
    /// LUTs usable as distributed RAM.
    pub lutrams: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// 36 Kb block RAMs.
    pub brams: u64,
}

impl FpgaDevice {
    /// The Xilinx XCVU9P used by the paper.
    #[must_use]
    pub fn xcvu9p() -> Self {
        Self { luts: 1_182_240, lutrams: 591_840, ffs: 2_364_480, brams: 2_160 }
    }
}

/// Resource demand of one FAFNIR node on the FPGA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeUtilization {
    /// LUTs used.
    pub luts: u64,
    /// LUTRAMs used.
    pub lutrams: u64,
    /// FFs used.
    pub ffs: u64,
    /// BRAMs used.
    pub brams: u64,
    /// Dynamic power in watts @200 MHz.
    pub dynamic_power_w: f64,
}

impl NodeUtilization {
    /// A DIMM/rank node (seven PEs): calibrated to the paper's totals.
    #[must_use]
    pub fn dimm_rank_node() -> Self {
        Self { luts: 11_700, lutrams: 178, ffs: 4_730, brams: 56, dynamic_power_w: 0.23 }
    }

    /// A channel node (three PEs).
    #[must_use]
    pub fn channel_node() -> Self {
        Self { luts: 5_100, lutrams: 178, ffs: 2_030, brams: 57, dynamic_power_w: 0.18 }
    }
}

/// A FAFNIR deployment on one FPGA: some DIMM/rank nodes plus channel nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaDeployment {
    /// DIMM/rank node count (4 in the paper's system).
    pub dimm_rank_nodes: usize,
    /// Channel node count (1 in the paper's system).
    pub channel_nodes: usize,
}

impl FpgaDeployment {
    /// The paper's four-channel system: 4 DIMM/rank nodes + 1 channel node.
    #[must_use]
    pub fn paper_system() -> Self {
        Self { dimm_rank_nodes: 4, channel_nodes: 1 }
    }

    /// Total utilization as fractions of the device (LUT, LUTRAM, FF, BRAM).
    #[must_use]
    pub fn utilization(&self, device: &FpgaDevice) -> [f64; 4] {
        let dimm = NodeUtilization::dimm_rank_node();
        let channel = NodeUtilization::channel_node();
        let n = self.dimm_rank_nodes as u64;
        let c = self.channel_nodes as u64;
        [
            (n * dimm.luts + c * channel.luts) as f64 / device.luts as f64,
            (n * dimm.lutrams + c * channel.lutrams) as f64 / device.lutrams as f64,
            (n * dimm.ffs + c * channel.ffs) as f64 / device.ffs as f64,
            (n * dimm.brams + c * channel.brams) as f64 / device.brams as f64,
        ]
    }

    /// Total dynamic power in watts @200 MHz.
    #[must_use]
    pub fn dynamic_power_w(&self) -> f64 {
        self.dimm_rank_nodes as f64 * NodeUtilization::dimm_rank_node().dynamic_power_w
            + self.channel_nodes as f64 * NodeUtilization::channel_node().dynamic_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_fits_in_published_bounds() {
        // Paper: up to 5 % LUTs, 0.15 % LUTRAM, 1 % FFs, 13 % BRAM.
        let [luts, lutrams, ffs, brams] =
            FpgaDeployment::paper_system().utilization(&FpgaDevice::xcvu9p());
        assert!(luts <= 0.05, "LUT {luts}");
        assert!(lutrams <= 0.0016, "LUTRAM {lutrams}");
        assert!(ffs <= 0.01, "FF {ffs}");
        assert!(brams <= 0.131, "BRAM {brams}");
        // And it is not trivially zero.
        assert!(luts > 0.01);
        assert!(brams > 0.1);
    }

    #[test]
    fn node_powers_match_fig16a() {
        assert!((NodeUtilization::dimm_rank_node().dynamic_power_w - 0.23).abs() < 1e-9);
        assert!((NodeUtilization::channel_node().dynamic_power_w - 0.18).abs() < 1e-9);
        let total = FpgaDeployment::paper_system().dynamic_power_w();
        assert!((total - (4.0 * 0.23 + 0.18)).abs() < 1e-9);
    }

    #[test]
    fn utilization_scales_with_node_count() {
        let device = FpgaDevice::xcvu9p();
        let one = FpgaDeployment { dimm_rank_nodes: 1, channel_nodes: 0 }.utilization(&device);
        let four = FpgaDeployment { dimm_rank_nodes: 4, channel_nodes: 0 }.utilization(&device);
        for (a, b) in one.iter().zip(&four) {
            assert!((b / a - 4.0).abs() < 1e-9);
        }
    }
}
