//! The common interface every distributed training algorithm implements.
//!
//! SAPS-PSGD and all seven comparison algorithms expose the same
//! round-based surface so the simulator, benches and examples can treat
//! them interchangeably. A round is driven through a [`RoundCtx`] — the
//! round index, the current bandwidth view, the traffic accountant and a
//! per-round RNG — so the experiment driver can vary the network and the
//! membership between rounds without each algorithm growing its own side
//! channel.

use crate::ConfigError;
use rand::rngs::StdRng;
use saps_data::Dataset;
use saps_netsim::{BandwidthMatrix, RoundTiming, TimeModel, TrafficAccountant};
use saps_runtime::Executor;
use saps_telemetry::Recorder;
use saps_tensor::rng::{rng_for, streams};

/// Everything one communication round is allowed to see and charge.
///
/// Built by the experiment driver (or by [`RoundCtx::new`] in tests);
/// the bandwidth view reflects any [`crate::ScenarioEvent`]s applied
/// before this round.
pub struct RoundCtx<'a> {
    round: usize,
    /// Link speeds in effect for this round's time model.
    pub bw: &'a BandwidthMatrix,
    /// Where every byte moved this round must be charged.
    pub traffic: &'a mut TrafficAccountant,
    /// Per-round randomness, derived deterministically from the
    /// experiment seed and the round index. Algorithms with their own
    /// internal RNG streams may ignore it.
    pub rng: StdRng,
    /// The execution lane for the round's per-worker compute phase.
    /// Parallel and sequential executors produce bit-identical rounds
    /// (see [`saps_runtime`]); [`RoundCtx::new`] defaults to sequential
    /// so hand-driven stepping stays single-threaded, and the
    /// [`crate::Experiment`] driver installs the configured executor via
    /// [`RoundCtx::with_executor`].
    pub exec: Executor,
    /// How this round's transfer set is priced into communication time
    /// ([`TimeModel::Analytic`] by default). Algorithms never read this
    /// directly — they call [`RoundCtx::price_p2p`] and friends, so the
    /// driver can swap the model without touching trainer code.
    pub time: TimeModel,
    /// Per-rank compute-finish times in seconds (straggler modeling);
    /// empty means all workers finish at 0. Installed by the driver via
    /// [`RoundCtx::with_compute_starts`].
    compute_starts: Vec<f64>,
    /// Telemetry handle for this round. Disabled by default (every call
    /// is a no-op); the [`crate::Experiment`] driver installs the
    /// configured recorder via [`RoundCtx::with_telemetry`]. Trainers
    /// may clone it to keep emitting events outside the step path —
    /// observing through it never perturbs training (pinned by the
    /// telemetry conformance suite).
    pub telemetry: Recorder,
}

impl<'a> RoundCtx<'a> {
    /// Builds the context for round `round`. `seed` is the experiment
    /// seed the per-round RNG derives from. The compute executor
    /// defaults to [`Executor::sequential`].
    pub fn new(
        round: usize,
        bw: &'a BandwidthMatrix,
        traffic: &'a mut TrafficAccountant,
        seed: u64,
    ) -> Self {
        RoundCtx {
            round,
            bw,
            traffic,
            rng: rng_for(seed, round as u64, streams::ROUND),
            exec: Executor::sequential(),
            time: TimeModel::Analytic,
            compute_starts: Vec::new(),
            telemetry: Recorder::disabled(),
        }
    }

    /// Replaces the compute executor (builder style).
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Replaces the transfer-time model (builder style).
    pub fn with_time_model(mut self, time: TimeModel) -> Self {
        self.time = time;
        self
    }

    /// Installs per-rank compute-finish times (builder style). The
    /// driver derives them from its compute-time base and any
    /// [`crate::ScenarioEvent::Straggler`] slowdowns in effect.
    pub fn with_compute_starts(mut self, starts: Vec<f64>) -> Self {
        self.compute_starts = starts;
        self
    }

    /// Installs the telemetry recorder (builder style).
    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The 0-based communication round index.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Prices one round of concurrent pairwise transfers
    /// `(src, dst, bytes)` under this round's time model and compute
    /// schedule (the SAPS-PSGD / D-PSGD / DCD-PSGD / RandomChoose
    /// pattern).
    pub fn price_p2p(&self, transfers: &[(usize, usize, u64)]) -> RoundTiming {
        let t = self
            .time
            .price_p2p(self.bw, transfers, &self.compute_starts);
        self.note_net_stats(&t);
        t
    }

    /// Prices one parameter-server round: each `(worker, up, down)`
    /// client moves its bytes over the worker↔server link (the FedAvg /
    /// S-FedAvg pattern).
    pub fn price_ps(&self, server: usize, clients: &[(usize, u64, u64)]) -> RoundTiming {
        let t = self
            .time
            .price_ps(self.bw, server, clients, &self.compute_starts);
        self.note_net_stats(&t);
        t
    }

    /// Prices a ring all-reduce over `ranks` moving `bytes_per_worker`
    /// through every worker (the PSGD pattern).
    pub fn price_allreduce(&self, ranks: &[usize], bytes_per_worker: u64) -> RoundTiming {
        let t = self
            .time
            .price_allreduce(self.bw, ranks, bytes_per_worker, &self.compute_starts);
        self.note_net_stats(&t);
        t
    }

    /// Prices a sparse allgather over `ranks`, every worker delivering
    /// `bytes` to each of the others (the TopK-PSGD pattern).
    pub fn price_allgather(&self, ranks: &[usize], bytes: u64) -> RoundTiming {
        let t = self
            .time
            .price_allgather(self.bw, ranks, bytes, &self.compute_starts);
        self.note_net_stats(&t);
        t
    }

    /// Feeds a priced round's network statistics into the recorder —
    /// the DES instrumentation point. Under [`TimeModel::Packet`] the
    /// timing carries retransmission and queue-depth stats; under the
    /// fluid/analytic models they are zero and nothing is recorded.
    fn note_net_stats(&self, t: &RoundTiming) {
        if !self.telemetry.is_enabled() {
            return;
        }
        if t.retransmit_segments > 0 {
            self.telemetry
                .add("net.retransmit_segments", t.retransmit_segments);
        }
        if t.peak_queue_bytes > 0.0 {
            self.telemetry
                .max_gauge("net.peak_queue_bytes", t.peak_queue_bytes);
        }
    }
}

impl std::fmt::Debug for RoundCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundCtx")
            .field("round", &self.round)
            .field("workers", &self.bw.len())
            .finish()
    }
}

/// What one communication round produced.
///
/// `#[non_exhaustive]` so future metric fields are not breaking changes;
/// construct via [`RoundReport::new`] and assign the fields you measure.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct RoundReport {
    /// Mean training loss over the workers' local batches this round.
    pub mean_loss: f32,
    /// Mean training accuracy over the workers' local batches.
    pub mean_acc: f32,
    /// Wall-clock communication time of this round in seconds, under the
    /// bandwidth matrix and [`TimeModel`] of the [`RoundCtx`] — the
    /// transfer segment of the round's critical path
    /// ([`RoundTiming::transfer_s`]).
    pub comm_time_s: f64,
    /// Compute segment of the round's critical path: when the last
    /// active worker finished its local steps
    /// ([`RoundTiming::compute_s`]; 0 unless the experiment models
    /// compute time).
    pub compute_time_s: f64,
    /// Mean per-worker idle time within the round
    /// ([`RoundTiming::idle_s`]).
    pub idle_time_s: f64,
    /// Full wall-clock length of the round
    /// (`compute_time_s + comm_time_s`, [`RoundTiming::total_s`]).
    pub round_time_s: f64,
    /// Fraction of one epoch advanced this round (worker-side samples
    /// processed / local dataset size).
    pub epochs_advanced: f64,
    /// Mean bandwidth (MB/s) of the worker-to-worker links used this
    /// round. 0 when no peer links were used (PS-based algorithms).
    pub mean_link_bandwidth: f64,
    /// Bottleneck (minimum) bandwidth of the links used this round — the
    /// effective bandwidth of a synchronous iteration, and the quantity
    /// whose ordering Fig. 5 shows (the ring's slowest link gates
    /// D-PSGD even though its *mean* link can be fast).
    pub min_link_bandwidth: f64,
}

impl RoundReport {
    /// An all-zero report; assign the fields the round measured.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a [`RoundTiming`] breakdown into the report's four timing
    /// fields.
    pub fn set_timing(&mut self, t: &RoundTiming) {
        self.comm_time_s = t.transfer_s;
        self.compute_time_s = t.compute_s;
        self.idle_time_s = t.idle_s;
        self.round_time_s = t.total_s;
    }
}

/// A distributed training algorithm driven round by round.
pub trait Trainer {
    /// Algorithm name as the paper spells it (e.g. `"SAPS-PSGD"`).
    fn name(&self) -> &'static str;

    /// Runs one communication round: local computation plus the
    /// algorithm's exchange pattern. Byte movement must be charged to
    /// `ctx.traffic`; `ctx.bw` supplies the link speeds for the time
    /// model.
    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport;

    /// [`Trainer::step`] that hands a failed round back as an error
    /// instead of panicking — a dead peer is the caller's to handle
    /// ([`crate::Experiment::run`] ends the run with it). The default
    /// wraps `step`; [`crate::Rounds`] overrides it.
    fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, ConfigError> {
        Ok(self.step(ctx))
    }

    /// Validation accuracy of the algorithm's current *consensus* model
    /// (the average of worker models for decentralized algorithms, the
    /// server model for PS algorithms).
    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32;

    /// Model size `N` (scalar parameters).
    fn model_len(&self) -> usize;

    /// Number of workers `n` (the fleet size; inactive workers count).
    fn worker_count(&self) -> usize;

    /// Convenience wrapper for driving single rounds without an
    /// [`crate::Experiment`]: builds a [`RoundCtx`] whose round index is
    /// the accountant's closed-round count and calls [`Trainer::step`].
    fn round(&mut self, traffic: &mut TrafficAccountant, bw: &BandwidthMatrix) -> RoundReport {
        let round = traffic.rounds().len();
        let mut ctx = RoundCtx::new(round, bw, traffic, 0);
        self.step(&mut ctx)
    }

    /// Marks a worker active/inactive (join/leave churn). The experiment
    /// driver calls this for [`crate::ScenarioEvent::WorkerLeave`] /
    /// [`crate::ScenarioEvent::WorkerJoin`].
    fn set_worker_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError>;

    /// Tells the algorithm the measured bandwidths changed (the paper's
    /// "regularly reported" speed measurements). Algorithms that plan
    /// topology from bandwidth (SAPS-PSGD) rebuild their selection
    /// state; most baselines read `ctx.bw` directly each round.
    fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix);

    /// Exports the current *consensus* model as a
    /// [`crate::checkpoint`]-encoded blob stamped with the number of
    /// completed rounds — the hand-off the `saps-serve` inference plane
    /// announces to its replicas between training rounds.
    fn export_checkpoint(&mut self) -> Result<Vec<u8>, ConfigError>;
}
