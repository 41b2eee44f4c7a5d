//! Shared worker-engine construction.
//!
//! Every serving entry point — the calibration matrix, the CLI `serve`
//! command, benches, and the cluster's shard engine — builds the same
//! pair: a [`FafnirEngine`] under a chosen memory model plus a
//! [`StripedSource`] over the matching topology. Before this module each
//! call site hand-rolled that block; keeping one constructor means a
//! config change (topology, vector dim, error mapping) lands everywhere
//! at once instead of drifting per copy.

use fafnir_core::{FafnirConfig, FafnirEngine, StripedSource};
use fafnir_mem::{MemoryConfig, MemoryModelKind};

use crate::ServeError;

/// Builds a worker engine and its embedding source: `config` on a
/// DDR4-2400 4-channel system under `model`, with a rank-striped source
/// whose vector dimension matches the engine's.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] when the engine rejects the
/// configuration.
pub fn worker_setup(
    config: FafnirConfig,
    model: MemoryModelKind,
) -> Result<(FafnirEngine, StripedSource), ServeError> {
    let mut mem = MemoryConfig::ddr4_2400_4ch();
    mem.model = model;
    let source = StripedSource::new(mem.topology, config.vector_dim);
    let engine =
        FafnirEngine::new(config, mem).map_err(|e| ServeError::InvalidConfig(e.to_string()))?;
    Ok((engine, source))
}

/// [`worker_setup`] with the paper-default engine configuration.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] when the engine rejects the
/// configuration (it never does for paper defaults; the signature matches
/// [`worker_setup`] for uniform call sites).
pub fn paper_setup(model: MemoryModelKind) -> Result<(FafnirEngine, StripedSource), ServeError> {
    worker_setup(FafnirConfig::paper_default(), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fafnir_core::GatherEngine;

    #[test]
    fn paper_setup_builds_under_both_models() {
        for model in [MemoryModelKind::Cycle, MemoryModelKind::Fast] {
            let (engine, source) = paper_setup(model).expect("paper defaults are valid");
            assert_eq!(GatherEngine::name(&engine), "fafnir");
            assert_eq!(fafnir_core::EmbeddingSource::vector_dim(&source), 128);
        }
    }

    #[test]
    fn source_dimension_follows_the_engine_config() {
        let config = FafnirConfig { vector_dim: 64, ..FafnirConfig::paper_default() };
        let (_, source) = worker_setup(config, MemoryModelKind::Fast).expect("valid");
        assert_eq!(fafnir_core::EmbeddingSource::vector_dim(&source), 64);
    }
}
