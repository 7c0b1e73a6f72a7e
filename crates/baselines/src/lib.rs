//! The seven comparison algorithms of the paper's evaluation, all behind
//! the shared [`saps_core::Trainer`] interface:
//!
//! | Type | Algorithms |
//! |------|-----------|
//! | centralized, dense | [`PsgdAllReduce`] (all-reduce PSGD), [`FedAvg`] |
//! | centralized, sparse | [`TopKPsgd`], [`SFedAvg`] |
//! | decentralized, dense | [`DPsgd`] (ring) |
//! | decentralized, sparse | [`DcdPsgd`] (ring + difference compression), [`RandomChoose`] (SAPS without bandwidth awareness) |
//!
//! Every implementation charges its real payload bytes to the
//! [`saps_netsim::TrafficAccountant`] and computes round time from the
//! bandwidth matrix, so Figs. 4-6 and Table IV compare like for like.
//!
//! **One implementation, any fabric.** Each trainer is generic over an
//! [`Exchange`] — the small send/receive interface for typed
//! [`Payload`]s that `saps-core` defines (SAPS-PSGD is written against
//! it too) and this crate re-exports — and every value a worker
//! consumes from a peer is the value the fabric delivered to it.
//! [`Direct`] (the default) hands values over in memory;
//! `saps_cluster::Framed` carries the same trainers over real
//! `saps-proto` frames. There is no second, wire-side
//! copy of any algorithm, so a wire run is bit-identical to an
//! in-memory run by construction: `PsgdAllReduce::new(fleet)` and
//! `PsgdAllReduce::over(fleet, Framed::loopback(tap))` are the same
//! code.
//!
//! Construction goes through [`registry`] — the full eight-algorithm
//! [`saps_core::AlgorithmRegistry`] behind the
//! [`saps_core::Experiment`] driver — or, for another fabric,
//! [`register_baselines`]. Worker churn is first-class: every baseline
//! honours [`saps_core::Trainer::set_worker_active`] through the
//! membership mask of the [`Fleet`] — the one worker set of `saps-core`
//! that SAPS-PSGD is built on too, re-exported here.

#![warn(missing_docs)]

pub mod allreduce;
mod common;
mod d_psgd;
mod dcd_psgd;
mod exchange;
mod fedavg;
mod psgd;
mod random_choose;
mod registry;
mod s_fedavg;
mod topk_psgd;

pub use d_psgd::DPsgd;
pub use dcd_psgd::DcdPsgd;
pub use exchange::{Direct, Exchange, Node, Payload, Shape};
pub use fedavg::{FedAvg, FedAvgConfig};
pub use psgd::PsgdAllReduce;
pub use random_choose::RandomChoose;
pub use registry::{register_baselines, registry};
pub use s_fedavg::SFedAvg;
pub use saps_core::{select_ranked_mut, Fleet};
pub use topk_psgd::TopKPsgd;
