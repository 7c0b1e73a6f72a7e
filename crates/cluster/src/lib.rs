//! The cluster runtime: every algorithm of the workspace over real
//! serialized [`saps_proto`] frames and a pluggable transport.
//!
//! The algorithms live elsewhere, once each — [`saps_core::SapsPsgd`]
//! and the seven [`saps_baselines`] trainers, generic over
//! [`saps_core::Exchange`]. This crate is the wire under them and holds
//! no SGD step, mask or merge of its own:
//!
//! * [`Framed`] — the exchange fabric: maps each fabric call to its
//!   frame(s) (payloads, SAPS-PSGD's `NotifyTrain` / `RoundEnd` / `Join`
//!   / `Leave` / `BandwidthReport` / `FetchModel` / `FinalModel`),
//!   stamps and validates rounds, receives by sender with a stall limit,
//!   attributes undecodable or mis-shaped frames to their sender, bills
//!   the control plane, and runs a joiner's chunked catch-up;
//! * [`Transport`] — the pluggable byte mover, with the deterministic
//!   in-process [`LoopbackTransport`] as the default and a localhost
//!   `tcp::TcpTransport` behind the `tcp` feature;
//! * [`FaultyTransport`] — a seeded fault-injection decorator over any
//!   transport (drop / corrupt / delay / reorder per frame, scoped down
//!   to one sender's payloads) — the adversary used by the workspace
//!   fault-injection tests;
//! * [`ClusterTrainer`] — the constructors of SAPS-PSGD over a
//!   [`Framed`] fabric (`ClusterTrainer::loopback(..)` is
//!   `SapsPsgd::over(.., Framed::loopback(tap))`), and
//!   [`cluster_registry`] — the eight-algorithm registry over the wire,
//!   so the standard [`saps_core::Experiment`] driver (events,
//!   observers, evaluation cadence) runs a cluster experiment end to
//!   end;
//! * [`WireTap`] / [`WireStats`] — per-class on-wire byte metering, the
//!   ground truth rounds are billed from;
//! * [`ChunkManifest`] / [`DownloadScheduler`] — the chunked
//!   model-distribution plane: a joiner catches up by fanning
//!   checksum-verified chunk requests across multiple peers (ranked
//!   from the bandwidth snapshot by [`saps_core::Fleet::resync_joiner`],
//!   above the fabric) instead of pulling one monolithic frame from a
//!   single donor. [`Framed`]'s `resync` is its one
//!   driver.
//!
//! **The headline invariant** (pinned by `tests/cluster_conformance.rs`
//! at the workspace root): a cluster-driven run is bit-identical in
//! training state and per-round loss to the in-memory run of the same
//! spec — by construction, since both are the same trainer — and the
//! bytes framed on the wire reconcile exactly with the
//! `TrafficAccountant`: each payload's values section (`4·nnz` for
//! SAPS-PSGD) on the worker rows, every other byte on the server row.
//! Round timing is priced from the full framed sizes, closing the loop
//! between the `saps-netsim` time models and the wire.
//! `docs/PROTOCOL.md` documents the frame layout and the per-message
//! cost table.
//!
//! # Example
//!
//! ```
//! use saps_cluster::{cluster_registry, WireTap};
//! use saps_core::{AlgorithmSpec, Experiment};
//! use saps_data::SyntheticSpec;
//! use saps_nn::zoo;
//!
//! let ds = SyntheticSpec::tiny().samples(600).generate(1);
//! let (train, val) = ds.split(0.25, 0);
//! let tap = WireTap::new();
//! let hist = Experiment::new(AlgorithmSpec::parse("saps").unwrap().with_compression(4.0))
//!     .train(train)
//!     .validation(val)
//!     .workers(4)
//!     .batch_size(16)
//!     .model(|rng| zoo::mlp(&[16, 16, 4], rng))
//!     .rounds(5)
//!     .eval_every(5)
//!     .eval_samples(100)
//!     .run(&cluster_registry(tap.clone()))
//!     .unwrap();
//! assert_eq!(hist.points.len(), 5);
//! let wire = tap.snapshot();
//! assert!(wire.data_bytes > 0 && wire.control_bytes > 0);
//! ```

#![deny(missing_docs)]

mod chunks;
mod error;
mod faults;
mod framed;
#[cfg(feature = "tcp")]
pub mod tcp;
mod trainer;
mod transport;

pub use chunks::{ChunkManifest, ChunkOutcome, DownloadScheduler, DEFAULT_CHUNK_BYTES};
pub use error::ClusterError;
pub use faults::{FaultPlan, FaultScope, FaultyTransport, PlanHandle};
pub use framed::{Framed, ResyncReport};
pub use trainer::{cluster_registry, ClusterTrainer};
pub use transport::{Addr, LoopbackTransport, Transport, WireStats, WireTap};
