//! SAPS-PSGD: communication-efficient decentralized learning with
//! sparsification and adaptive peer selection (ICDCS 2020).
//!
//! This crate is the paper's primary contribution, built on the substrate
//! crates of the workspace:
//!
//! * [`GossipGenerator`] — Algorithm 3: per-round peer pairing by maximum
//!   matching on the bandwidth-filtered graph, with the recently-connected
//!   (RC) edge window `T_thres` that keeps `E[WᵀW]`'s second eigenvalue
//!   below 1;
//! * [`Coordinator`] — Algorithm 1: the lightweight tracker that
//!   broadcasts `(W_t, t, seed)` and never touches model bytes;
//! * [`Worker`] — Algorithm 2: local SGD plus the shared-seed sparse
//!   model exchange;
//! * [`SapsPsgd`] — the full algorithm wired into the [`Trainer`]
//!   interface shared with every baseline, its one round body generic
//!   over the fabric that carries plans, payloads and acknowledgements;
//! * [`Fleet`] — the worker set under all eight trainers: identically
//!   seeded replicas, the membership mask, the local-SGD fan-out, model
//!   averaging, evaluation, and a joiner's resync with its donor
//!   ranking. SAPS-PSGD and every baseline are `fleet + fabric + rounds
//!   + their own state`;
//! * [`Exchange`] — that fabric: typed [`Payload`]s between workers,
//!   the coordinator's [`Notice`], the "ROUND END" [`Ack`]s and the
//!   between-round control values. [`Direct`] hands them over in memory;
//!   `saps_cluster::Framed` carries them as `saps-proto` frames. SAPS
//!   and the seven baselines (`saps-baselines`) are each written once
//!   against it;
//! * [`AlgorithmSpec`] + [`AlgorithmRegistry`] — the declarative,
//!   fallible construction path every binary/example goes through;
//! * [`Experiment`] — the event-driven driver: dataset + partition
//!   strategy + bandwidth model + [`ScenarioEvent`] schedule + observers,
//!   producing the [`experiment::RunHistory`] curves behind Figs. 3-6 and
//!   Tables III/IV;
//! * [`Executor`] / [`ParallelismPolicy`] (re-exported from
//!   `saps-runtime`) — the deterministic multi-threaded round engine:
//!   every round's per-worker compute phase fans out across threads and
//!   produces bit-identical results at any thread count;
//! * [`complexity`] — Table I's analytic communication-cost formulas.
//!
//! The crate map, actor roles and round lifecycle are documented
//! end-to-end in `docs/ARCHITECTURE.md` at the repository root.
//!
//! # Example
//!
//! ```
//! use saps_core::{AlgorithmRegistry, AlgorithmSpec, Experiment};
//! use saps_data::SyntheticSpec;
//!
//! let ds = SyntheticSpec::tiny().samples(512).generate(1);
//! let (train, val) = ds.split(0.25, 0);
//! let spec = AlgorithmSpec::parse("saps").unwrap().with_compression(4.0);
//! let hist = Experiment::new(spec)
//!     .train(train)
//!     .validation(val)
//!     .workers(4)
//!     .batch_size(16)
//!     .model(|rng| saps_nn::zoo::mlp(&[16, 16, 4], rng))
//!     .rounds(5)
//!     .run(&AlgorithmRegistry::core())
//!     .unwrap();
//! assert!(hist.points.iter().all(|p| p.train_loss.is_finite()));
//! ```

#![deny(missing_docs)]

pub mod checkpoint;
pub mod complexity;
mod coordinator;
mod error;
mod exchange;
pub mod experiment;
mod fleet;
mod gossipgen;
mod registry;
mod scenario;
mod spec;
mod trainer;
mod worker;

pub use coordinator::{Coordinator, RoundPlan, SapsControl};
pub use error::ConfigError;
pub use exchange::{Ack, Direct, Exchange, Node, Notice, Payload, Shape};
pub use experiment::{
    CsvSink, Experiment, HistoryPoint, PartitionStrategy, RoundObserver, RunHistory,
};
pub use fleet::{round_report, select_ranked_mut, Fleet};
pub use gossipgen::{GossipGenerator, PeerStrategy};
pub use registry::{register_saps, AlgorithmRegistry, BuildCtx, BuilderFn, ModelFactory};
pub use saps_netsim::{RoundTiming, TimeModel};
pub use saps_runtime::{Executor, ParallelismPolicy};
pub use saps_telemetry::{Recorder, Value as TelemetryValue};
pub use scenario::{zoo, BandwidthModel, ScenarioEvent, ScheduledEvent};
pub use spec::AlgorithmSpec;
pub use trainer::{RoundCtx, RoundReport, Trainer};
pub use worker::{Worker, WorkerState};

mod saps;
pub use saps::{SapsConfig, SapsPsgd};
