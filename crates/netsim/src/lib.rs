//! Network simulation substrate for the SAPS-PSGD reproduction.
//!
//! The paper evaluates communication on *emulated* networks: a 14-worker
//! environment whose pairwise bandwidths come from real speed tests between
//! cloud VMs (Fig. 1), and a 32-worker environment with uniformly random
//! bandwidths in (0, 5] MB/s. This crate provides:
//!
//! * [`BandwidthMatrix`] — pairwise bandwidths with the paper's
//!   `B_ij ← min(B_ij, B_ji)` bottleneck symmetrization and the
//!   `B_thres` filter of Algorithm 1;
//! * [`citydata`] — the 14-city measurement matrix transcribed from
//!   Fig. 1;
//! * [`TrafficAccountant`] — exact per-worker / per-round byte counting
//!   (the source of every traffic number in Table IV and Fig. 4);
//! * [`flows`] + [`des`] — the discrete-event network simulator: one
//!   flow engine ([`flows::simulate`]) with per-link latency and
//!   fair-share bandwidth splitting, priced behind the [`TimeModel`]
//!   switch (the source of every "communication time" number in Table
//!   IV and Fig. 6). `Analytic`, the default, runs the engine at zero
//!   latency — bytes over fair-shared bandwidth; `EventDriven` adds
//!   per-link latency. See `docs/NETWORK_SIM.md`.
//! * [`packet`] — the packet-level link dynamics the same engine can
//!   switch on: per-flow AIMD congestion windows, finite link queues,
//!   seeded random loss and RTT, selected with [`TimeModel::Packet`].
//!   An ideal [`PacketConfig`] (windows and loss off) is the fluid
//!   simulator.
//! * [`workload`] — deterministic request-arrival processes (constant,
//!   Poisson, diurnal) driving the `saps-serve` inference plane's load
//!   in mixed training + serving scenarios.
//!
//! # Example
//!
//! ```
//! use saps_netsim::BandwidthMatrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let b = BandwidthMatrix::uniform_random(32, 5.0, &mut rng);
//! assert_eq!(b.len(), 32);
//! assert!(b.get(0, 1) > 0.0 && b.get(0, 1) <= 5.0);
//! assert_eq!(b.get(0, 1), b.get(1, 0)); // symmetrized
//! ```

#![warn(missing_docs)]

mod bandwidth;
pub mod citydata;
pub mod des;
pub mod dynamics;
pub mod flows;
pub mod packet;
mod timemodel;
mod traffic;
pub mod workload;

pub use bandwidth::BandwidthMatrix;
pub use des::RoundTiming;
pub use packet::PacketConfig;
pub use timemodel::TimeModel;
pub use traffic::{to_mb, RoundTraffic, TrafficAccountant};
