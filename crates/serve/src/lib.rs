//! The SAPS-PSGD inference plane: serving the consensus model *while it
//! trains*.
//!
//! The paper's decentralized training loop periodically lands a
//! consensus model (the average the workers converge to). This crate
//! turns that artifact into a live service:
//!
//! * [`ReplicaNode`] — a replica loading a consensus checkpoint
//!   (`saps_core::checkpoint`) and answering
//!   [`saps_proto::Message::InferRequest`] frames in micro-batches,
//!   with **hot model swap**: a
//!   [`saps_proto::Message::ModelAnnounce`] checksum-verifies and
//!   shape-checks the incoming checkpoint before any weight moves, so
//!   torn or corrupt announces are counted rejections and the version
//!   tag a replica reports is monotone non-decreasing. Queued requests
//!   survive a swap, and every response carries the `(round, version)`
//!   of the model that produced it.
//! * [`ServeCluster`] — the fleet driver over the pluggable
//!   `saps-cluster` transports (deterministic loopback by default, TCP
//!   behind the `tcp` feature), ticking replicas in lockstep; replica
//!   inference fans out across the `saps-runtime` fork-join executor
//!   and response framing rides `par_map_batches`, so results are
//!   bit-identical at any thread count.
//! * [`ServePlacement`] — maps serving addresses onto the physical
//!   nodes of a `saps-netsim` bandwidth matrix, so serving transfers
//!   are priced by the same `TimeModel`s (fluid or packet) as the
//!   training round they share the fabric with — the mixed-load
//!   scenario of `docs/SERVING.md` and `examples/serving_demo.rs`.
//!
//! The wire protocol is the `saps-proto` frame envelope; serving bytes
//! are metered in their own [`saps_cluster::WireStats::serve_bytes`]
//! class so co-located serving load never perturbs the trainer's
//! control-byte billing (pinned by `tests/cluster_conformance.rs`).
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use saps_core::checkpoint;
//! use saps_nn::zoo;
//! use saps_serve::{ReplicaNode, ServeCluster};
//!
//! // A consensus checkpoint (in production: Trainer::export_checkpoint).
//! let mut rng = StdRng::seed_from_u64(1);
//! let model = zoo::mlp(&[4, 8, 3], &mut rng);
//! let ckpt = checkpoint::encode(&model.flat_params(), 0);
//!
//! // Two replicas on the loopback fabric.
//! let replicas = (0..2)
//!     .map(|id| {
//!         let mut r = StdRng::seed_from_u64(1);
//!         ReplicaNode::new(id, zoo::mlp(&[4, 8, 3], &mut r), &ckpt, 8).unwrap()
//!     })
//!     .collect();
//! let mut fleet = ServeCluster::loopback(replicas).unwrap();
//! let id = fleet.submit(0, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
//! fleet.drain_in_flight(8).unwrap();
//! let done = fleet.take_completed();
//! assert_eq!(done[0].id, id);
//! assert_eq!(done[0].logits.len(), 3);
//! ```

#![deny(missing_docs)]

mod cluster;
mod error;
mod replica;

pub use cluster::{CompletedRequest, ServeCluster, ServePlacement, ServeStats};
pub use error::ServeError;
pub use replica::ReplicaNode;
