//! The algorithm registry: one fallible construction path for every
//! trainer.
//!
//! An [`AlgorithmRegistry`] maps [`AlgorithmSpec`] keys to builder
//! functions. `saps-core` registers SAPS-PSGD itself ([`register_saps`],
//! over whichever fabric the registry is for);
//! `saps-baselines::registry()` returns a registry with all eight
//! algorithms. Downstream code never calls a trainer constructor
//! directly — it hands a spec plus a [`BuildCtx`] to the registry and
//! gets a `Box<dyn Trainer>` or a [`ConfigError`].

use crate::{AlgorithmSpec, ConfigError, Direct, Exchange, SapsConfig, SapsPsgd, Trainer};
use rand::rngs::StdRng;
use saps_data::Dataset;
use saps_netsim::BandwidthMatrix;
use saps_nn::Model;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A shared model constructor: builds one replica from a seeded RNG.
/// Called once per worker with identically seeded RNGs so all replicas
/// start from the same parameters.
pub type ModelFactory = Arc<dyn Fn(&mut StdRng) -> Model + Send + Sync>;

/// Everything a builder needs to construct a trainer: the per-worker
/// data partitions, the initial bandwidth matrix, the shared training
/// hyper-parameters and the model factory.
pub struct BuildCtx<'a> {
    /// One dataset per worker (already partitioned).
    pub partitions: Vec<Dataset>,
    /// The bandwidth matrix at construction time (round-0 measurements).
    pub bw: &'a BandwidthMatrix,
    /// Mini-batch size per worker per local step.
    pub batch_size: usize,
    /// Learning rate γ.
    pub lr: f32,
    /// Experiment seed; all randomness derives from it.
    pub seed: u64,
    /// Builds one model replica from a seeded RNG.
    pub factory: ModelFactory,
}

impl std::fmt::Debug for BuildCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildCtx")
            .field("workers", &self.partitions.len())
            .field("batch_size", &self.batch_size)
            .field("lr", &self.lr)
            .field("seed", &self.seed)
            .finish()
    }
}

/// A builder: turns a validated spec plus context into a boxed trainer.
///
/// Shared (`Arc`) rather than a plain `fn` pointer so builders can
/// capture state — the cluster runtime registers a closure carrying its
/// wire-statistics tap, for example. Plain functions still register
/// as-is through [`AlgorithmRegistry::register`].
pub type BuilderFn = Arc<
    dyn Fn(&AlgorithmSpec, BuildCtx<'_>) -> Result<Box<dyn Trainer>, ConfigError> + Send + Sync,
>;

/// Maps [`AlgorithmSpec::key`]s to builder functions.
#[derive(Clone)]
pub struct AlgorithmRegistry {
    builders: BTreeMap<&'static str, BuilderFn>,
}

impl AlgorithmRegistry {
    /// A registry with no algorithms registered.
    pub fn empty() -> Self {
        AlgorithmRegistry {
            builders: BTreeMap::new(),
        }
    }

    /// The registry `saps-core` can populate by itself: SAPS-PSGD only.
    /// Use `saps_baselines::registry()` (or the `saps` facade) for all
    /// eight algorithms.
    pub fn core() -> Self {
        let mut reg = Self::empty();
        register_saps(&mut reg, Direct::new);
        reg
    }

    /// Registers (or replaces) the builder for `key`.
    pub fn register<F>(&mut self, key: &'static str, builder: F)
    where
        F: Fn(&AlgorithmSpec, BuildCtx<'_>) -> Result<Box<dyn Trainer>, ConfigError>
            + Send
            + Sync
            + 'static,
    {
        self.builders.insert(key, Arc::new(builder));
    }

    /// The registered keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.builders.keys().copied()
    }

    /// Validates `spec` and builds its trainer.
    pub fn build(
        &self,
        spec: &AlgorithmSpec,
        ctx: BuildCtx<'_>,
    ) -> Result<Box<dyn Trainer>, ConfigError> {
        spec.validate()?;
        if ctx.partitions.len() < 2 {
            return Err(ConfigError::invalid(
                "BuildCtx",
                "need at least two workers (partitions)",
            ));
        }
        if ctx.bw.len() != ctx.partitions.len() {
            return Err(ConfigError::invalid(
                "BuildCtx",
                format!(
                    "bandwidth matrix covers {} workers but {} partitions were supplied",
                    ctx.bw.len(),
                    ctx.partitions.len()
                ),
            ));
        }
        let builder = self
            .builders
            .get(spec.key())
            .ok_or_else(|| ConfigError::UnknownAlgorithm(spec.key().to_string()))?;
        builder(spec, ctx)
    }
}

impl Default for AlgorithmRegistry {
    fn default() -> Self {
        Self::core()
    }
}

impl std::fmt::Debug for AlgorithmRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgorithmRegistry")
            .field("keys", &self.builders.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Registers SAPS-PSGD under `"saps"`, every trainer built exchanging
/// over its own fabric from `fabric()` — [`Direct::new`] for the
/// in-memory registries, a framed wire fabric for `saps-cluster`'s. The
/// one place a spec becomes a [`SapsConfig`].
pub fn register_saps<X: Exchange + 'static>(
    reg: &mut AlgorithmRegistry,
    fabric: impl Fn() -> X + Send + Sync + 'static,
) {
    reg.register("saps", move |spec, ctx| {
        let AlgorithmSpec::Saps {
            compression,
            tthres,
            bthres,
        } = *spec
        else {
            return Err(ConfigError::UnknownAlgorithm(spec.key().to_string()));
        };
        let cfg = SapsConfig {
            workers: ctx.partitions.len(),
            compression,
            lr: ctx.lr,
            batch_size: ctx.batch_size,
            bthres,
            tthres,
            seed: ctx.seed,
            shard_size: None,
        };
        let factory = ctx.factory.clone();
        let algo = SapsPsgd::over(
            cfg,
            ctx.partitions,
            ctx.bw,
            move |rng| factory(rng),
            fabric(),
        )?;
        Ok(Box::new(algo))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::{partition, SyntheticSpec};
    use saps_nn::zoo;
    use saps_tensor::rng::{derive_seed, streams};

    fn ctx(bw: &BandwidthMatrix, workers: usize) -> BuildCtx<'_> {
        let ds = SyntheticSpec::tiny().samples(400).generate(1);
        BuildCtx {
            partitions: partition::iid(&ds, workers, derive_seed(0, 0, streams::DATA)),
            bw,
            batch_size: 16,
            lr: 0.1,
            seed: 0,
            factory: Arc::new(|rng| zoo::mlp(&[16, 12, 4], rng)),
        }
    }

    #[test]
    fn core_registry_builds_saps() {
        let bw = BandwidthMatrix::constant(4, 1.0);
        let spec = AlgorithmSpec::parse("saps").unwrap().with_compression(4.0);
        let trainer = AlgorithmRegistry::core().build(&spec, ctx(&bw, 4)).unwrap();
        assert_eq!(trainer.name(), "SAPS-PSGD");
        assert_eq!(trainer.worker_count(), 4);
    }

    #[test]
    fn unknown_key_is_an_error() {
        let bw = BandwidthMatrix::constant(4, 1.0);
        match AlgorithmRegistry::core().build(&AlgorithmSpec::Psgd, ctx(&bw, 4)) {
            Err(e) => assert_eq!(e, ConfigError::UnknownAlgorithm("psgd".into())),
            Ok(_) => panic!("psgd must not be in the core registry"),
        }
    }

    #[test]
    fn mismatched_bandwidth_size_is_an_error() {
        let bw = BandwidthMatrix::constant(6, 1.0);
        let spec = AlgorithmSpec::parse("saps").unwrap();
        assert!(AlgorithmRegistry::core().build(&spec, ctx(&bw, 4)).is_err());
    }

    #[test]
    fn invalid_spec_is_rejected_before_building() {
        let bw = BandwidthMatrix::constant(4, 1.0);
        let spec = AlgorithmSpec::parse("saps").unwrap().with_compression(0.1);
        assert!(AlgorithmRegistry::core().build(&spec, ctx(&bw, 4)).is_err());
    }
}
