//! The host-side cost model the baselines price core work and link
//! transfers with.

use fafnir_core::HOST_LINK_BYTES_PER_NS;

/// Cost model of the host side: the link from memory to cores and the cores'
/// reduction throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreModel {
    /// Element-wise f32 operations the cores sustain per nanosecond
    /// (SIMD reduction over vectors streaming through the cache hierarchy).
    pub elems_per_ns: f64,
    /// Marginal overhead per partial result handed to the cores, in
    /// nanoseconds.
    pub per_partial_overhead_ns: f64,
    /// Fixed software overhead per batch handed to the cores (kernel sync /
    /// scheduling), in nanoseconds.
    pub batch_overhead_ns: f64,
    /// Aggregate memory-to-host link bandwidth in bytes per nanosecond
    /// (≈ GB/s); four DDR4-2400 channels sustain ≈ 76.8 GB/s.
    pub link_bytes_per_ns: f64,
}

impl CoreModel {
    /// A contemporary server CPU: AVX-512-class streaming reduction
    /// (~32 f32 element-ops/ns), 2 ns marginal cost per partial, 1 µs batch
    /// sync overhead, and the host link every engine forwards results over
    /// ([`HOST_LINK_BYTES_PER_NS`]).
    #[must_use]
    pub fn server_cpu() -> Self {
        Self {
            elems_per_ns: 32.0,
            per_partial_overhead_ns: 2.0,
            batch_overhead_ns: 1_000.0,
            link_bytes_per_ns: HOST_LINK_BYTES_PER_NS,
        }
    }

    /// Time for the cores to reduce `partials` partial vectors of `dim`
    /// elements down to their outputs (`max(partials − outputs, 0)` combines).
    #[must_use]
    pub fn reduce_ns(&self, partials: u64, outputs: u64, dim: usize) -> f64 {
        let combines = partials.saturating_sub(outputs);
        self.batch_overhead_ns
            + combines as f64 * dim as f64 / self.elems_per_ns
            + partials as f64 * self.per_partial_overhead_ns
    }

    /// Time to move `bytes` across the host link.
    #[must_use]
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.link_bytes_per_ns
    }
}

impl Default for CoreModel {
    fn default() -> Self {
        Self::server_cpu()
    }
}

/// Validates a result's outputs against the software reference; panics
/// with a descriptive message on mismatch.
#[cfg(test)]
pub(crate) fn assert_outputs_match<S: fafnir_core::EmbeddingSource>(
    result: &fafnir_core::LookupResult,
    batch: &fafnir_core::Batch,
    source: &S,
    op: fafnir_core::ReduceOp,
) {
    let reference = fafnir_core::engine::reference_lookup(batch, source, op);
    assert_eq!(result.outputs.len(), reference.len(), "missing query outputs");
    for ((qa, got), (qb, expected)) in result.outputs.iter().zip(&reference) {
        assert_eq!(qa, qb, "query order mismatch");
        for (pos, (x, y)) in got.iter().zip(expected).enumerate() {
            assert!(
                (x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4),
                "query {qa} element {pos}: {x} vs {y}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_reduce_time_scales_with_work() {
        let core = CoreModel::server_cpu();
        let small = core.reduce_ns(4, 1, 128);
        let large = core.reduce_ns(16, 1, 128);
        assert!(large > small);
        // No combines needed when partials == outputs; only overheads remain.
        let none = core.reduce_ns(2, 2, 128);
        let expected = core.batch_overhead_ns + 2.0 * core.per_partial_overhead_ns;
        assert!((none - expected).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_is_linear() {
        let core = CoreModel::server_cpu();
        assert!((core.transfer_ns(3840) - 100.0).abs() < 1e-9);
    }
}
