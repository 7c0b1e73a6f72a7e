//! The SAPS-PSGD cluster runtime: Algorithms 1–2 as message-driven
//! coordinator/worker nodes over a pluggable transport.
//!
//! The in-memory [`saps_core::SapsPsgd`] trainer runs the paper's
//! protocol as shared-memory method calls; this crate runs the *same
//! protocol logic* (the same [`saps_core::SapsControl`] planning state,
//! the same [`saps_core::Worker`] arithmetic) through real serialized
//! [`saps_proto`] frames:
//!
//! * [`CoordinatorNode`] / [`WorkerNode`] — the two sides of the
//!   protocol as event-loop state machines (`handle(from, message) →
//!   outgoing messages`), transport-agnostic and individually testable;
//! * [`Transport`] — the pluggable byte mover, with the deterministic
//!   in-process [`LoopbackTransport`] as the default and a localhost
//!   `tcp::TcpTransport` behind the `tcp` feature;
//! * [`FaultyTransport`] — a seeded fault-injection decorator over any
//!   transport (drop / corrupt / delay / reorder per frame, scoped down
//!   to one sender's payloads) — the adversary used by the workspace
//!   fault-injection tests;
//! * [`ClusterTrainer`] — a [`saps_core::Trainer`] that pumps the nodes
//!   through a transport, so the standard [`saps_core::Experiment`]
//!   driver (events, observers, evaluation cadence) runs a cluster
//!   experiment end to end; worker message handling fans out across the
//!   `saps-runtime` round engine;
//! * [`WireTap`] / [`WireStats`] — per-class on-wire byte metering, the
//!   ground truth the driver bills rounds from;
//! * [`ChunkManifest`] / [`DownloadScheduler`] — the chunked
//!   model-distribution plane: checkpoints are published as an
//!   epoch-stamped manifest of fixed-size checksummed chunks, and
//!   joiners catch up by fanning chunk requests across multiple peers
//!   (ranked from the bandwidth snapshot) instead of pulling one
//!   monolithic `FinalModel` frame from a single donor;
//! * [`Framed`] — the exchange fabric that puts the seven comparison
//!   algorithms (PSGD, D-PSGD, DCD-PSGD, TopK-PSGD, FedAvg, S-FedAvg,
//!   RandomChoose) on the same transports. The algorithms themselves
//!   live once, in [`saps_baselines`], generic over
//!   [`saps_baselines::Exchange`]; this crate only carries their
//!   payloads as frames, so [`cluster_registry`] registers the same
//!   seven trainers the in-memory registry does
//!   (`PsgdAllReduce::over(fleet, Framed::loopback(tap))` for one by
//!   hand).
//!
//! **The headline invariant** (pinned by `tests/cluster_conformance.rs`
//! at the workspace root): a cluster-driven run is bit-identical in
//! training state and per-round loss to the in-memory run of the same
//! spec, and the bytes framed on the wire reconcile exactly with the
//! `TrafficAccountant` — each masked payload's values section (`4·nnz`)
//! on the worker rows, every other byte on the server row. Round timing
//! is priced from the full framed sizes, closing the loop between the
//! `saps-netsim` time models and the wire. `docs/PROTOCOL.md` documents
//! the frame layout and the per-message cost table.
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
mod node;
#[cfg(feature = "tcp")]
pub mod tcp;
mod trainer;
mod transport;

pub use chunks::{ChunkManifest, ChunkOutcome, DownloadScheduler, DEFAULT_CHUNK_BYTES};
pub use error::ClusterError;
pub use faults::{FaultPlan, FaultScope, FaultyTransport, PlanHandle};
pub use framed::{Framed, ResyncReport};
pub use node::{CoordinatorNode, DownloadReport, NodeSnapshot, Outbox, RoundMeta, WorkerNode};
pub use trainer::{cluster_registry, ClusterTrainer};
pub use transport::{Addr, LoopbackTransport, Transport, WireStats, WireTap, WireTransfer};
