//! The full eight-algorithm registry.
//!
//! `saps-core` can only register SAPS-PSGD itself (the baselines live
//! above it in the crate graph); this module contributes the seven
//! comparison algorithms and exposes [`registry`] — the registry every
//! binary, example and test hands to [`saps_core::Experiment::run`].
//!
//! [`register_baselines`] is the one place the seven keys are bound to
//! their trainers; it is parameterised by how to make the exchange
//! fabric, so the in-memory registry here and the wire registry of
//! `saps-cluster` cannot cover different algorithms.

use crate::exchange::{Direct, Exchange};
use crate::{
    DPsgd, DcdPsgd, FedAvg, FedAvgConfig, Fleet, PsgdAllReduce, RandomChoose, SFedAvg, TopKPsgd,
};
use saps_core::{AlgorithmRegistry, AlgorithmSpec, BuildCtx, ConfigError, Trainer};

/// The complete registry: SAPS-PSGD plus all seven baselines, exchanging
/// in memory.
pub fn registry() -> AlgorithmRegistry {
    let mut reg = AlgorithmRegistry::core();
    register_baselines(&mut reg, Direct::new);
    reg
}

/// The registry keys of the seven baselines.
const KEYS: [&str; 7] = [
    "psgd", "topk", "fedavg", "sfedavg", "dpsgd", "dcd", "random",
];

/// Adds the seven baseline builders to an existing registry. Every
/// trainer built gets its own fabric from `fabric()` and is told the
/// construction-time bandwidths the way it is told about later changes.
pub fn register_baselines<X: Exchange + 'static>(
    reg: &mut AlgorithmRegistry,
    fabric: impl Fn() -> X + Clone + Send + Sync + 'static,
) {
    for key in KEYS {
        let fabric = fabric.clone();
        reg.register(key, move |spec, ctx| {
            let bw = ctx.bw;
            let mut trainer = build_baseline(spec, ctx, fabric())?;
            trainer.refresh_bandwidth(bw);
            Ok(trainer)
        });
    }
}

/// Builds the baseline `spec` names over fabric `x`; SAPS-PSGD is not
/// one (`saps-core` and `saps-cluster` register it themselves).
fn build_baseline<X: Exchange + 'static>(
    spec: &AlgorithmSpec,
    ctx: BuildCtx<'_>,
    x: X,
) -> Result<Box<dyn Trainer>, ConfigError> {
    let seed = ctx.seed;
    let factory = ctx.factory.clone();
    let fleet = Fleet::with_partitions(
        ctx.partitions,
        move |rng| factory(rng),
        seed,
        ctx.batch_size,
        ctx.lr,
    )?;
    Ok(match *spec {
        AlgorithmSpec::Psgd => Box::new(PsgdAllReduce::over(fleet, x)?),
        AlgorithmSpec::TopK { compression } => Box::new(TopKPsgd::over(fleet, compression, x)?),
        AlgorithmSpec::FedAvg {
            participation,
            local_steps,
        } => {
            let cfg = FedAvgConfig {
                participation,
                local_steps,
            };
            Box::new(FedAvg::over(fleet, cfg, seed, x)?)
        }
        AlgorithmSpec::SFedAvg {
            participation,
            local_steps,
            compression,
        } => Box::new(SFedAvg::over(
            fleet,
            participation,
            local_steps,
            compression,
            seed,
            x,
        )?),
        AlgorithmSpec::DPsgd => Box::new(DPsgd::over(fleet, x)?),
        AlgorithmSpec::DcdPsgd { compression } => Box::new(DcdPsgd::over(fleet, compression, x)?),
        AlgorithmSpec::RandomChoose { compression } => {
            Box::new(RandomChoose::over(fleet, compression, seed, x)?)
        }
        AlgorithmSpec::Saps { .. } => {
            return Err(ConfigError::UnknownAlgorithm(spec.key().to_string()))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::{partition, SyntheticSpec};
    use saps_netsim::BandwidthMatrix;
    use saps_nn::zoo;
    use saps_tensor::rng::{derive_seed, streams};
    use std::sync::Arc;

    fn ctx(bw: &BandwidthMatrix, workers: usize) -> BuildCtx<'_> {
        let ds = SyntheticSpec::tiny().samples(600).generate(1);
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
    fn registry_knows_all_eight_algorithms() {
        let reg = registry();
        let keys: Vec<&str> = reg.keys().collect();
        assert_eq!(
            keys,
            vec!["dcd", "dpsgd", "fedavg", "psgd", "random", "saps", "sfedavg", "topk"]
        );
    }

    #[test]
    fn every_paper_spec_builds_and_reports_its_label() {
        let reg = registry();
        let bw = BandwidthMatrix::constant(4, 1.0);
        for spec in AlgorithmSpec::paper_defaults() {
            let trainer = reg.build(&spec, ctx(&bw, 4)).unwrap();
            assert_eq!(trainer.name(), spec.label());
            assert_eq!(trainer.worker_count(), 4);
            assert!(trainer.model_len() > 0);
        }
    }

    #[test]
    fn builders_reject_mismatched_specs() {
        let bw = BandwidthMatrix::constant(4, 1.0);
        // One builder serves every baseline key from the spec itself, so
        // the only mismatch left is a spec that is not a baseline.
        let saps = AlgorithmSpec::parse("saps").unwrap();
        assert!(build_baseline(&saps, ctx(&bw, 4), Direct::new()).is_err());
        assert!(!KEYS.contains(&saps.key()));
    }
}
