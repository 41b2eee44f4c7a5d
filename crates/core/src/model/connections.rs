//! Connection-count model (paper Sec. III-D / IV-A).
//!
//! Combining model parallelism for embedding tables with data parallelism
//! for the neural networks requires all-to-all links between `m` memory
//! devices and `c` compute devices in the baseline (`c × m` connections).
//! FAFNIR's tree needs only `2m − 2` internal links plus `c` links from the
//! root — fewer, and growing linearly rather than multiplicatively.

/// Connection counts for a system of `m` memory devices and `c` cores.
///
/// # Examples
///
/// ```
/// use fafnir_core::model::connections::ConnectionModel;
///
/// let system = ConnectionModel::new(32, 4);
/// assert_eq!(system.all_to_all(), 128);
/// assert_eq!(system.fafnir_tree(), 66);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnectionModel {
    /// Memory devices (ranks).
    pub memory_devices: usize,
    /// Compute devices (cores).
    pub cores: usize,
}

impl ConnectionModel {
    /// A model over `memory_devices` ranks and `cores` cores.
    #[must_use]
    pub fn new(memory_devices: usize, cores: usize) -> Self {
        Self { memory_devices, cores }
    }

    /// Baseline / TensorDIMM / RecNMP: all-to-all, `c × m`.
    #[must_use]
    pub fn all_to_all(&self) -> usize {
        self.cores * self.memory_devices
    }

    /// FAFNIR: `(2m − 2) + c`.
    #[must_use]
    pub fn fafnir_tree(&self) -> usize {
        (2 * self.memory_devices).saturating_sub(2) + self.cores
    }

    /// Ratio of baseline to FAFNIR connections (> 1 once the system is big
    /// enough).
    #[must_use]
    pub fn savings_factor(&self) -> f64 {
        self.all_to_all() as f64 / self.fafnir_tree() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_counts() {
        // 32 ranks, 4 cores.
        let model = ConnectionModel::new(32, 4);
        assert_eq!(model.all_to_all(), 128);
        assert_eq!(model.fafnir_tree(), 66);
        assert!(model.savings_factor() > 1.9);
    }

    #[test]
    fn tree_wins_grow_with_cores() {
        let small = ConnectionModel::new(32, 2);
        let big = ConnectionModel::new(32, 16);
        assert!(big.savings_factor() > small.savings_factor());
    }

    #[test]
    fn tree_scales_linearly_with_memory() {
        let m32 = ConnectionModel::new(32, 4).fafnir_tree();
        let m64 = ConnectionModel::new(64, 4).fafnir_tree();
        assert_eq!(m64 - m32, 64); // +2 per added rank
    }

    #[test]
    fn degenerate_single_device() {
        let model = ConnectionModel::new(1, 1);
        assert_eq!(model.fafnir_tree(), 1);
        assert_eq!(model.all_to_all(), 1);
    }
}
