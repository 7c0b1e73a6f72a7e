//! # saps — SAPS-PSGD in Rust
//!
//! A full reproduction of *Communication-Efficient Decentralized Learning
//! with Sparsification and Adaptive Peer Selection* (Tang, Shi, Chu —
//! ICDCS 2020, arXiv:2002.09692), including every substrate the paper
//! depends on and all seven comparison algorithms.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | the SAPS-PSGD algorithm ([`core::SapsPsgd`], generic over the [`core::Exchange`] fabric), the [`core::Trainer`] interface, the [`core::AlgorithmSpec`] registry, and the [`core::Experiment`] driver |
//! | [`baselines`] | PSGD, TopK-PSGD, FedAvg, S-FedAvg, D-PSGD, DCD-PSGD, RandomChoose, and [`baselines::registry`] (all eight algorithms) |
//! | [`nn`] | the neural-network substrate and the paper's model zoo |
//! | [`data`] | synthetic MNIST/CIFAR-shaped datasets, IID/non-IID partitioners |
//! | [`netsim`] | bandwidth matrices (incl. the paper's Fig. 1 data), dynamics, traffic/time accounting |
//! | [`graph`] | Edmonds' blossom matching, connectivity, topologies |
//! | [`gossip`] | gossip matrices, spectral ρ, consensus simulation |
//! | [`compress`] | shared-seed random masks, top-k + error feedback, codecs |
//! | [`tensor`] | dense tensors and f64 linear algebra |
//! | [`runtime`] | the deterministic multi-threaded round engine ([`runtime::Executor`], [`runtime::ParallelismPolicy`]) |
//! | [`proto`] | the versioned wire protocol (`docs/PROTOCOL.md`): framed round-lifecycle messages with typed decode errors |
//! | [`cluster`] | the wire under all eight trainers: the [`cluster::Framed`] exchange fabric over loopback + TCP transports, [`cluster::ClusterTrainer`]'s constructors, [`cluster::cluster_registry`] |
//! | [`serve`] | the inference plane ([`serve::ServeCluster`], [`serve::ReplicaNode`]): replicas serving the consensus model with batched forwards and hot checkpoint swaps |
//! | [`telemetry`] | the unified observability plane (`docs/OBSERVABILITY.md`): the lock-cheap [`telemetry::Recorder`] metric registry, structured events, and the crash flight recorder |
//!
//! ## Quickstart
//!
//! Experiments are declarative: pick an [`core::AlgorithmSpec`], describe
//! the run with the [`core::Experiment`] builder, and run it against the
//! eight-algorithm [`baselines::registry`].
//!
//! ```
//! use saps::baselines::registry;
//! use saps::core::{AlgorithmSpec, Experiment, ScenarioEvent};
//! use saps::data::SyntheticSpec;
//! use saps::netsim::BandwidthMatrix;
//! use saps::nn::zoo;
//!
//! // 8 workers on a uniform-bandwidth network, c = 10 sparsification,
//! // with one worker dropping out mid-run and returning later.
//! let ds = SyntheticSpec::tiny().samples(2_000).generate(42);
//! let (train, val) = ds.split(0.2, 0);
//! let spec = AlgorithmSpec::parse("saps").unwrap().with_compression(10.0);
//! let hist = Experiment::new(spec)
//!     .train(train)
//!     .validation(val)
//!     .workers(8)
//!     .batch_size(32)
//!     .lr(0.1)
//!     .bandwidth_matrix(BandwidthMatrix::constant(8, 1.0))
//!     .model(|rng| zoo::mlp(&[16, 24, 4], rng))
//!     .rounds(50)
//!     .eval_every(10)
//!     .eval_samples(400)
//!     .event(20, ScenarioEvent::WorkerLeave { rank: 7 })
//!     .event(35, ScenarioEvent::WorkerJoin { rank: 7 })
//!     .run(&registry())
//!     .unwrap();
//! assert!(hist.final_acc > 0.25); // beats 4-class chance
//! ```

pub use saps_baselines as baselines;
pub use saps_cluster as cluster;
pub use saps_compress as compress;
pub use saps_core as core;
pub use saps_data as data;
pub use saps_gossip as gossip;
pub use saps_graph as graph;
pub use saps_netsim as netsim;
pub use saps_nn as nn;
pub use saps_proto as proto;
pub use saps_runtime as runtime;
pub use saps_serve as serve;
pub use saps_telemetry as telemetry;
pub use saps_tensor as tensor;
