//! SAPS-PSGD on the wire: constructors for [`SapsPsgd`] over a
//! [`Framed`] fabric, and the registry that runs all eight algorithms
//! through serialized frames.

use crate::transport::{LoopbackTransport, Transport, WireTap};
use crate::Framed;
use rand::rngs::StdRng;
use saps_core::{AlgorithmRegistry, ConfigError, SapsConfig, SapsPsgd};
use saps_data::Dataset;
use saps_netsim::BandwidthMatrix;
use saps_nn::Model;

/// Constructor namespace for SAPS-PSGD driven as a message-passing
/// cluster: the one [`SapsPsgd`] trainer with every plan, payload,
/// acknowledgement and control request crossing a [`Transport`] as a
/// `saps-proto` frame (see [`Framed`], and `docs/PROTOCOL.md` for the
/// byte accounting). Stall limit, chunk size and the resync log belong
/// to the fabric: build one with [`Framed::new`] and hand it to
/// [`SapsPsgd::over`] to change them.
#[derive(Debug)]
pub struct ClusterTrainer;

impl ClusterTrainer {
    /// SAPS-PSGD over the default in-process loopback transport,
    /// metering its wire bytes through `tap`.
    pub fn loopback(
        cfg: SapsConfig,
        parts: Vec<Dataset>,
        bw: &BandwidthMatrix,
        factory: impl Fn(&mut StdRng) -> Model,
        tap: WireTap,
    ) -> Result<SapsPsgd<Framed<LoopbackTransport>>, ConfigError> {
        SapsPsgd::over(cfg, parts, bw, factory, Framed::loopback(tap))
    }

    /// SAPS-PSGD over an arbitrary transport. `tap` must be the tap
    /// `transport` reports to — control-plane bytes are billed from it.
    pub fn with_transport<T: Transport>(
        cfg: SapsConfig,
        parts: Vec<Dataset>,
        bw: &BandwidthMatrix,
        factory: impl Fn(&mut StdRng) -> Model,
        transport: T,
        tap: WireTap,
    ) -> Result<SapsPsgd<Framed<T>>, ConfigError> {
        SapsPsgd::over(cfg, parts, bw, factory, Framed::new(transport, tap))
    }
}

/// An [`AlgorithmRegistry`] covering every key the in-memory
/// [`saps_baselines::registry`] covers — the same eight trainers,
/// registered by the same [`saps_core::register_saps`] and
/// [`saps_baselines::register_baselines`] tables, each over its own
/// [`Framed`] loopback fabric metering through `tap`. Hand it to
/// [`saps_core::Experiment::run`] to execute a whole experiment through
/// the wire protocol.
pub fn cluster_registry(tap: WireTap) -> AlgorithmRegistry {
    let mut reg = AlgorithmRegistry::empty();
    let fabric = move || Framed::loopback(tap.clone());
    saps_core::register_saps(&mut reg, fabric.clone());
    saps_baselines::register_baselines(&mut reg, fabric);
    reg
}
