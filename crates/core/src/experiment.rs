//! The experiment driver: declarative spec → registry → event-driven run.
//!
//! [`Experiment`] is the one supported way to run an algorithm (the old
//! free `sim::run` + `RunOptions` pair is gone after its deprecation
//! window). It owns the whole recipe of one run — dataset and partition strategy,
//! bandwidth model, algorithm spec, event schedule, evaluation cadence,
//! early stop — builds the trainer through an
//! [`crate::AlgorithmRegistry`], and drives it round by round through
//! [`crate::RoundCtx`], applying [`ScenarioEvent`]s uniformly to every
//! algorithm. Observers ([`RoundObserver`], [`CsvSink`]) watch the run
//! without owning it, so figure binaries shrink to spec + formatting.
//!
//! ```
//! use saps_core::{AlgorithmRegistry, AlgorithmSpec, Experiment};
//! use saps_data::SyntheticSpec;
//! use saps_nn::zoo;
//!
//! let ds = SyntheticSpec::tiny().samples(600).generate(1);
//! let (train, val) = ds.split(0.25, 0);
//! let hist = Experiment::new(AlgorithmSpec::parse("saps").unwrap().with_compression(4.0))
//!     .train(train)
//!     .validation(val)
//!     .workers(4)
//!     .batch_size(16)
//!     .lr(0.1)
//!     .model(|rng| zoo::mlp(&[16, 16, 4], rng))
//!     .rounds(10)
//!     .eval_every(5)
//!     .run(&AlgorithmRegistry::core())
//!     .unwrap();
//! assert_eq!(hist.points.len(), 10);
//! ```

use crate::scenario::BandwidthState;
use crate::{
    AlgorithmRegistry, AlgorithmSpec, BandwidthModel, BuildCtx, ConfigError, ModelFactory,
    RoundCtx, ScenarioEvent, ScheduledEvent, Trainer,
};
use rand::rngs::StdRng;
use saps_data::{partition, Dataset};
use saps_netsim::{to_mb, BandwidthMatrix, TimeModel, TrafficAccountant};
use saps_nn::Model;
use saps_runtime::{Executor, ParallelismPolicy};
use saps_telemetry::Recorder;
use saps_tensor::rng::{derive_seed, streams};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One sampled point of a training run.
///
/// `#[non_exhaustive]` so future metric fields are not breaking changes;
/// construct via [`HistoryPoint::new`] (the driver fills every field).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct HistoryPoint {
    /// Communication round index (0-based, recorded *after* the round).
    pub round: usize,
    /// Epochs of local data processed so far.
    pub epoch: f64,
    /// Top-1 validation accuracy of the consensus model, in `[0, 1]`.
    /// Between evaluations this repeats the last measured value (so
    /// curves stay dense without paying evaluation cost each round);
    /// check [`HistoryPoint::evaluated`] before treating it as fresh.
    pub val_acc: f32,
    /// Whether `val_acc` was measured *at this round* (true) or carried
    /// forward from the last evaluation (false).
    pub evaluated: bool,
    /// Mean training loss at this round.
    pub train_loss: f32,
    /// Busiest worker's cumulative traffic so far (MB) — Fig. 4's x-axis.
    pub worker_traffic_mb: f64,
    /// Cumulative communication time so far (seconds) — Fig. 6's x-axis.
    pub comm_time_s: f64,
    /// Cumulative compute-phase time so far (seconds); 0 unless the
    /// experiment models compute time ([`Experiment::compute_time`]).
    pub compute_time_s: f64,
    /// Cumulative mean per-worker idle time so far (seconds) — the
    /// "waiting on stragglers / slow links" share of the critical path.
    pub idle_time_s: f64,
    /// Cumulative full round time so far: the sum of every round's
    /// [`crate::RoundReport::round_time_s`] critical path
    /// (`compute_time_s + comm_time_s` up to float rounding).
    pub total_time_s: f64,
    /// Mean bandwidth of this round's peer links (MB/s).
    pub link_bandwidth: f64,
    /// Bottleneck bandwidth of this round's peer links (MB/s) — the
    /// effective iteration bandwidth Fig. 5 ranks algorithms by.
    pub bottleneck_bandwidth: f64,
}

impl HistoryPoint {
    /// An all-zero point; the driver assigns every field.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A completed run: the algorithm name plus its sampled trajectory.
#[derive(Debug, Clone)]
pub struct RunHistory {
    /// Algorithm name (paper spelling).
    pub algorithm: String,
    /// Sampled points, in round order.
    pub points: Vec<HistoryPoint>,
    /// Final consensus-model validation accuracy.
    pub final_acc: f32,
    /// Total traffic on the busiest worker (MB).
    pub total_worker_traffic_mb: f64,
    /// Total server traffic (MB); 0 for serverless algorithms.
    pub total_server_traffic_mb: f64,
    /// Total communication time (seconds).
    pub total_comm_time_s: f64,
    /// Total compute-phase time (seconds); 0 unless compute is modeled.
    pub total_compute_time_s: f64,
    /// Total mean per-worker idle time (seconds).
    pub total_idle_time_s: f64,
    /// Wall-clock time the driver spent stepping and evaluating
    /// (seconds). Unlike every other field it is *not* deterministic,
    /// so comparisons of run equality should skip it.
    pub wall_time_s: f64,
}

impl RunHistory {
    /// The first *freshly evaluated* point at which validation accuracy
    /// reached `target`, if ever — the paper's "at reaching target
    /// accuracy" rows (Table IV).
    ///
    /// Only points with [`HistoryPoint::evaluated`] set are considered:
    /// points between evaluations reuse the last measured accuracy, so
    /// matching them would attribute the crossing up to `eval_every − 1`
    /// rounds early.
    pub fn first_reaching(&self, target: f32) -> Option<&HistoryPoint> {
        self.points
            .iter()
            .find(|p| p.evaluated && p.val_acc >= target)
    }

    /// Mean link bandwidth across all sampled rounds (Fig. 5 summary).
    pub fn mean_link_bandwidth(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.link_bandwidth).sum::<f64>() / self.points.len() as f64
    }
}

/// How the training set is split across workers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PartitionStrategy {
    /// Uniform random split (the paper's default).
    Iid,
    /// Dirichlet(α) label-skewed split (non-IID federated setting).
    Dirichlet {
        /// Concentration parameter; smaller = more skew.
        alpha: f64,
    },
    /// Sort-by-label shards, `per_worker` shards each (pathological
    /// non-IID).
    Shards {
        /// Shards per worker.
        per_worker: usize,
    },
}

impl PartitionStrategy {
    /// Splits `train` into one dataset per worker, exactly as
    /// [`Experiment::run`] does for experiment seed `seed`.
    pub fn apply(&self, train: &Dataset, workers: usize, seed: u64) -> Vec<Dataset> {
        let pseed = derive_seed(seed, 0, streams::DATA);
        match *self {
            PartitionStrategy::Iid => partition::iid(train, workers, pseed),
            PartitionStrategy::Dirichlet { alpha } => {
                partition::dirichlet(train, workers, alpha, pseed)
            }
            PartitionStrategy::Shards { per_worker } => {
                partition::shards(train, workers, per_worker, pseed)
            }
        }
    }
}

/// Watches a run without owning it: called after every round and once at
/// the end.
pub trait RoundObserver {
    /// Called after each round with the freshly recorded point.
    fn on_point(&mut self, point: &HistoryPoint);

    /// Called once when the run finishes.
    fn on_complete(&mut self, history: &RunHistory) {
        let _ = history;
    }
}

impl<F: FnMut(&HistoryPoint)> RoundObserver for F {
    fn on_point(&mut self, point: &HistoryPoint) {
        self(point)
    }
}

/// An observer that streams each point as a CSV row (header first) to any
/// writer — the downstream-user path from `run_experiment` to a plot.
pub struct CsvSink<W: Write> {
    out: W,
    wrote_header: bool,
}

impl<W: Write> CsvSink<W> {
    /// Wraps a writer. The header row is emitted before the first point.
    pub fn new(out: W) -> Self {
        CsvSink {
            out,
            wrote_header: false,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RoundObserver for CsvSink<W> {
    fn on_point(&mut self, p: &HistoryPoint) {
        if !self.wrote_header {
            let _ = writeln!(
                self.out,
                "round,epoch,val_acc,evaluated,train_loss,worker_traffic_mb,comm_time_s,link_bw,bottleneck_bw,compute_s,idle_s,total_s"
            );
            self.wrote_header = true;
        }
        let _ = writeln!(
            self.out,
            "{},{:.4},{:.4},{},{:.5},{:.6},{:.6},{:.4},{:.4},{:.6},{:.6},{:.6}",
            p.round + 1,
            p.epoch,
            p.val_acc,
            u8::from(p.evaluated),
            p.train_loss,
            p.worker_traffic_mb,
            p.comm_time_s,
            p.link_bandwidth,
            p.bottleneck_bandwidth,
            p.compute_time_s,
            p.idle_time_s,
            p.total_time_s,
        );
    }

    fn on_complete(&mut self, _history: &RunHistory) {
        let _ = self.out.flush();
    }
}

/// A declarative experiment: algorithm spec + data + network + schedule.
///
/// Build it with chained setters, then call [`Experiment::run`] with a
/// registry that knows the algorithm. Defaults: IID partition, 8
/// workers, batch 32, lr 0.1, seed 0, constant 1 MB/s bandwidth, 100
/// rounds, evaluation every 10 rounds on up to 1000 samples, no epoch
/// cap, no early stop.
pub struct Experiment {
    spec: AlgorithmSpec,
    train: Option<Dataset>,
    val: Option<Dataset>,
    partition: PartitionStrategy,
    workers: usize,
    batch_size: usize,
    lr: f32,
    seed: u64,
    bandwidth: Option<BandwidthModel>,
    rounds: usize,
    eval_every: usize,
    eval_samples: usize,
    max_epochs: f64,
    target_acc: Option<f32>,
    events: Vec<ScheduledEvent>,
    factory: Option<ModelFactory>,
    observers: Vec<Box<dyn RoundObserver>>,
    after_round: Option<AfterRoundHook>,
    parallelism: ParallelismPolicy,
    time_model: TimeModel,
    compute_time: f64,
    pipeline: bool,
    telemetry: Recorder,
}

/// A per-round hook with mutable trainer access — unlike a
/// [`RoundObserver`] it may *act* on the trainer (export a checkpoint,
/// announce it to a serving plane) between rounds.
type AfterRoundHook = Box<dyn FnMut(&mut dyn Trainer, &HistoryPoint)>;

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("spec", &self.spec)
            .field("workers", &self.workers)
            .field("rounds", &self.rounds)
            .field("events", &self.events.len())
            .finish()
    }
}

impl Experiment {
    /// Starts an experiment for `spec` with the defaults listed on the
    /// type.
    pub fn new(spec: AlgorithmSpec) -> Self {
        Experiment {
            spec,
            train: None,
            val: None,
            partition: PartitionStrategy::Iid,
            workers: 8,
            batch_size: 32,
            lr: 0.1,
            seed: 0,
            bandwidth: None,
            rounds: 100,
            eval_every: 10,
            eval_samples: 1_000,
            max_epochs: f64::INFINITY,
            target_acc: None,
            events: Vec::new(),
            factory: None,
            observers: Vec::new(),
            after_round: None,
            parallelism: ParallelismPolicy::Auto,
            time_model: TimeModel::Analytic,
            compute_time: 0.0,
            pipeline: false,
            telemetry: Recorder::disabled(),
        }
    }

    /// The training set (required); partitioned across workers by the
    /// [`PartitionStrategy`].
    pub fn train(mut self, ds: Dataset) -> Self {
        self.train = Some(ds);
        self
    }

    /// The validation set (required); consensus accuracy is measured on
    /// it.
    pub fn validation(mut self, ds: Dataset) -> Self {
        self.val = Some(ds);
        self
    }

    /// How the training set is split across workers (default IID).
    pub fn partition(mut self, strategy: PartitionStrategy) -> Self {
        self.partition = strategy;
        self
    }

    /// Fleet size `n` (default 8).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Mini-batch size per worker per local step (default 32).
    pub fn batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }

    /// Learning rate γ (default 0.1).
    pub fn lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Experiment seed; all randomness (partitioning, initialization,
    /// masks, per-round RNGs) derives from it (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The bandwidth model (default: constant 1 MB/s between all pairs).
    pub fn bandwidth(mut self, model: BandwidthModel) -> Self {
        self.bandwidth = Some(model);
        self
    }

    /// Shorthand for a static bandwidth matrix.
    pub fn bandwidth_matrix(self, bw: BandwidthMatrix) -> Self {
        self.bandwidth(BandwidthModel::Static(bw))
    }

    /// The model constructor (required): builds one replica from a
    /// seeded RNG; called with identically seeded RNGs so all replicas
    /// start equal.
    pub fn model(mut self, factory: impl Fn(&mut StdRng) -> Model + Send + Sync + 'static) -> Self {
        self.factory = Some(Arc::new(factory));
        self
    }

    /// Total communication rounds to run (default 100).
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Evaluate validation accuracy every `n` rounds (default 10).
    pub fn eval_every(mut self, n: usize) -> Self {
        self.eval_every = n;
        self
    }

    /// Cap on validation examples per evaluation (default 1000).
    pub fn eval_samples(mut self, n: usize) -> Self {
        self.eval_samples = n;
        self
    }

    /// Stop once this many epochs of local data have been processed
    /// (whichever of rounds / epochs hits first). The paper's Fig. 3
    /// compares algorithms at equal *epochs*.
    pub fn max_epochs(mut self, epochs: f64) -> Self {
        self.max_epochs = epochs;
        self
    }

    /// Stop early at the first fresh evaluation reaching `acc` (the
    /// paper's "at reaching target accuracy" protocol, Table IV).
    pub fn target_accuracy(mut self, acc: f32) -> Self {
        self.target_acc = Some(acc);
        self
    }

    /// Schedules one [`ScenarioEvent`] before round `round`.
    pub fn event(mut self, round: usize, event: ScenarioEvent) -> Self {
        self.events.push(ScheduledEvent { round, event });
        self
    }

    /// Schedules many events at once.
    pub fn events(mut self, events: impl IntoIterator<Item = ScheduledEvent>) -> Self {
        self.events.extend(events);
        self
    }

    /// Attaches an observer (e.g. a [`CsvSink`]).
    pub fn observer(mut self, obs: Box<dyn RoundObserver>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Attaches a per-round callback.
    pub fn on_round(self, f: impl FnMut(&HistoryPoint) + 'static) -> Self {
        self.observer(Box::new(f))
    }

    /// Installs a hook called after every round *with mutable trainer
    /// access*, once the round's observers have seen the point. This is
    /// the train-and-serve seam: a `saps-serve` plane exports the
    /// trainer's consensus checkpoint here
    /// ([`Trainer::export_checkpoint`]) and announces it to its replicas
    /// while requests keep flowing. Only one hook can be installed; a
    /// second call replaces the first.
    pub fn after_round(mut self, f: impl FnMut(&mut dyn Trainer, &HistoryPoint) + 'static) -> Self {
        self.after_round = Some(Box::new(f));
        self
    }

    /// How many threads the per-worker compute phase of each round may
    /// use (default [`ParallelismPolicy::Auto`]: all cores). Every
    /// policy produces the bit-identical [`RunHistory`] — switch to
    /// [`ParallelismPolicy::Sequential`] only to debug or profile a
    /// single lane.
    pub fn parallelism(mut self, policy: ParallelismPolicy) -> Self {
        self.parallelism = policy;
        self
    }

    /// How each round's transfer set is priced into communication time
    /// (default [`TimeModel::Analytic`], the paper's closed-form
    /// accounting). Switching to [`TimeModel::EventDriven`] changes
    /// *only* time and idle accounting — losses, models and traffic are
    /// bit-identical under every model (pinned by
    /// `tests/trainer_conformance.rs`).
    pub fn time_model(mut self, model: TimeModel) -> Self {
        self.time_model = model;
        self
    }

    /// Seconds of local compute per round at nominal speed (default 0:
    /// compute is not modeled). With a non-zero base, scheduled
    /// [`ScenarioEvent::Straggler`] slowdowns stagger when each
    /// worker's transfers can start, and the per-round critical-path
    /// breakdown (compute vs transfer vs idle) becomes non-trivial.
    ///
    /// Compute is modeled *fleet-wide*: every active worker is assumed
    /// to spend the base × slowdown seconds each round, including
    /// parameter-server clients that happen not to be sampled that
    /// round — the driver does not see algorithm-internal sampling.
    /// Departed workers ([`ScenarioEvent::WorkerLeave`]) do no compute
    /// and are excluded from the idle accounting.
    pub fn compute_time(mut self, seconds_per_round: f64) -> Self {
        self.compute_time = seconds_per_round;
        self
    }

    /// Overlap each round's compute phase with the previous round's
    /// payload drain (default off). With pipelining on, a worker begins
    /// round `t+1`'s local steps while round `t`'s transfers are still
    /// in flight, so the DES gates round `t+1`'s flow releases on only
    /// the compute that *outlasts* the drain:
    /// `max(0, compute × slowdown − prev_round_comm_time)`.
    ///
    /// Pipelining changes the time model only — the exchange arithmetic
    /// and its rank-ordered reductions are untouched, so a pipelined
    /// run is bit-identical in training state (params, loss, traffic)
    /// to the sequential run, and no round can take *longer* (the
    /// compute gates only ever shrink). A no-op unless
    /// [`Experiment::compute_time`] is non-zero.
    pub fn pipeline(mut self, on: bool) -> Self {
        self.pipeline = on;
        self
    }

    /// Attaches a telemetry [`Recorder`] (default: disabled). The
    /// driver stamps the recorder's virtual clock with the cumulative
    /// simulated round time, emits per-round metrics
    /// (`train.*`, `round.*` histograms) and span-style `phase` events
    /// (plan → compute → comm → drain), and hands the recorder to every
    /// [`RoundCtx`] so trainers and the pricing layer feed the same
    /// registry. Telemetry observes without perturbing: a run with the
    /// recorder enabled is bit-identical to the same run with it off
    /// (pinned by `tests/telemetry.rs`).
    pub fn telemetry(mut self, recorder: Recorder) -> Self {
        self.telemetry = recorder;
        self
    }

    /// Builds the trainer through `registry` and drives the full run.
    /// A scenario event the trainer refuses, or a round that fails
    /// ([`Trainer::try_step`] — a dead peer, say), ends the run as an
    /// error, after the observers have seen the partial history and a
    /// `run.failed` event has closed the telemetry trail.
    pub fn run(mut self, registry: &AlgorithmRegistry) -> Result<RunHistory, ConfigError> {
        self.spec.validate()?;
        let train = self
            .train
            .take()
            .ok_or_else(|| ConfigError::invalid("Experiment", "no training set (call .train())"))?;
        let val = self.val.take().ok_or_else(|| {
            ConfigError::invalid("Experiment", "no validation set (call .validation())")
        })?;
        let factory = self.factory.take().ok_or_else(|| {
            ConfigError::invalid("Experiment", "no model factory (call .model())")
        })?;
        if self.workers < 2 {
            return Err(ConfigError::invalid(
                "Experiment",
                "need at least 2 workers",
            ));
        }
        if self.rounds == 0 {
            return Err(ConfigError::invalid("Experiment", "need at least 1 round"));
        }
        if self.eval_every == 0 {
            return Err(ConfigError::invalid(
                "Experiment",
                "eval_every must be >= 1",
            ));
        }
        let bandwidth = self.bandwidth.take().unwrap_or_else(|| {
            BandwidthModel::Static(BandwidthMatrix::constant(self.workers, 1.0))
        });
        bandwidth.validate()?;
        if bandwidth.len() != self.workers {
            return Err(ConfigError::invalid(
                "Experiment",
                format!(
                    "bandwidth model covers {} workers, experiment has {}",
                    bandwidth.len(),
                    self.workers
                ),
            ));
        }
        for ev in &self.events {
            ev.validate(self.workers)?;
        }
        if !(self.compute_time.is_finite() && self.compute_time >= 0.0) {
            return Err(ConfigError::invalid(
                "Experiment",
                "compute_time must be finite and >= 0",
            ));
        }

        let partitions = self.partition.apply(&train, self.workers, self.seed);
        let mut bw_state = BandwidthState::new(bandwidth);
        let initial_bw = bw_state.current();
        let mut trainer = registry.build(
            &self.spec,
            BuildCtx {
                partitions,
                bw: &initial_bw,
                batch_size: self.batch_size,
                lr: self.lr,
                seed: self.seed,
                factory,
            },
        )?;

        // Events sorted by round; stable so same-round events keep their
        // scheduling order.
        let mut events = std::mem::take(&mut self.events);
        events.sort_by_key(|e| e.round);
        let mut next_event = 0usize;

        let exec = Executor::new(self.parallelism);
        let started = Instant::now();
        let mut traffic = TrafficAccountant::new(self.workers);
        let mut points = Vec::with_capacity(self.rounds);
        let mut epoch = 0.0f64;
        let mut time_s = 0.0f64;
        let mut compute_s = 0.0f64;
        let mut idle_s = 0.0f64;
        let mut total_s = 0.0f64;
        let mut last_acc = trainer.evaluate(&val, self.eval_samples);
        let refresh_every = bw_state.refresh_every();
        // Straggler / membership state for the compute schedule: only
        // active workers contribute compute time to the round's
        // critical path.
        let mut slowdowns = vec![1.0f64; self.workers];
        let mut active = vec![true; self.workers];
        // Pipelining carry: seconds the previous round's payload kept
        // draining — compute that fits inside it is hidden.
        let mut prev_comm = 0.0f64;

        let mut failed = None;
        'rounds: for round in 0..self.rounds {
            // Discrete events scheduled before this round. A failing
            // event (e.g. churn below an algorithm's minimum fleet) ends
            // the run as an error — but only after flushing observers, so
            // a streaming CSV sink is not truncated mid-row.
            let mut bw_changed = false;
            while next_event < events.len() && events[next_event].round <= round {
                let ev = &events[next_event].event;
                let applied = match ev {
                    ScenarioEvent::WorkerLeave { rank } => {
                        let applied = trainer.set_worker_active(*rank, false);
                        if applied.is_ok() {
                            active[*rank] = false;
                        }
                        applied
                    }
                    ScenarioEvent::WorkerJoin { rank } => {
                        let applied = trainer.set_worker_active(*rank, true);
                        if applied.is_ok() {
                            active[*rank] = true;
                        }
                        applied
                    }
                    ScenarioEvent::Straggler { rank, slowdown } => {
                        slowdowns[*rank] = *slowdown;
                        Ok(())
                    }
                    _ => {
                        bw_changed |= bw_state.apply(ev);
                        Ok(())
                    }
                };
                if applied.is_ok() && self.telemetry.is_enabled() {
                    // Scenario churn lands in the event trail so a
                    // flight dump shows what the fleet looked like
                    // before a failure.
                    self.telemetry.event(
                        "scenario",
                        Some(round as u64),
                        vec![("detail", format!("{ev:?}").into())],
                    );
                }
                if let Err(e) = applied {
                    failed = Some(ConfigError::invalid(
                        "Experiment",
                        format!("event at round {round} failed: {e} ({ev:?})"),
                    ));
                    break 'rounds;
                }
                next_event += 1;
            }
            // Continuous drift, then refresh the trainer's planning view
            // when events changed the matrix or the report cadence hit.
            let current = bw_state.advance();
            if bw_changed
                || (refresh_every != usize::MAX && round % refresh_every == 0 && round > 0)
            {
                trainer.refresh_bandwidth(&current);
            }

            // Compute schedule for this round: active workers finish
            // their local steps at base × slowdown; departed workers
            // are marked NaN so the pricing layer neither gates flow
            // releases on them nor bills them idle time. All-zero
            // schedules skip the allocation.
            let overlap = if self.pipeline { prev_comm } else { 0.0 };
            let starts: Vec<f64> = if self.compute_time > 0.0 {
                (0..self.workers)
                    .map(|r| {
                        if active[r] {
                            (self.compute_time * slowdowns[r] - overlap).max(0.0)
                        } else {
                            f64::NAN
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let mut ctx = RoundCtx::new(round, &current, &mut traffic, self.seed)
                .with_executor(exec)
                .with_time_model(self.time_model)
                .with_compute_starts(starts)
                .with_telemetry(self.telemetry.clone());
            let rep = match trainer.try_step(&mut ctx) {
                Ok(rep) => rep,
                Err(e) => {
                    let why = format!("round {round} failed: {e}");
                    failed = Some(ConfigError::invalid("Experiment", why));
                    break 'rounds;
                }
            };
            epoch += rep.epochs_advanced;
            prev_comm = rep.comm_time_s;
            time_s += rep.comm_time_s;
            compute_s += rep.compute_time_s;
            idle_s += rep.idle_time_s;
            total_s += rep.round_time_s;
            let done = round + 1 == self.rounds || epoch >= self.max_epochs;
            let evaluated = (round + 1) % self.eval_every == 0 || done;
            if evaluated {
                last_acc = trainer.evaluate(&val, self.eval_samples);
            }
            let mut point = HistoryPoint::new();
            point.round = round;
            point.epoch = epoch;
            point.val_acc = last_acc;
            point.evaluated = evaluated;
            point.train_loss = rep.mean_loss;
            point.worker_traffic_mb = to_mb(traffic.max_worker_total());
            point.comm_time_s = time_s;
            point.compute_time_s = compute_s;
            point.idle_time_s = idle_s;
            point.total_time_s = total_s;
            point.link_bandwidth = rep.mean_link_bandwidth;
            point.bottleneck_bandwidth = rep.min_link_bandwidth;
            if self.telemetry.is_enabled() {
                // Stamp the recorder clock with cumulative *virtual*
                // round time (never wall clock) and lay down the
                // round's metrics and phase spans.
                let t_end = total_s;
                let t0 = t_end - rep.round_time_s;
                self.telemetry.set_vtime(t_end);
                self.telemetry.add("train.rounds", 1);
                self.telemetry
                    .set_gauge("train.loss", f64::from(rep.mean_loss));
                self.telemetry.set_gauge("train.epoch", epoch);
                if evaluated {
                    self.telemetry
                        .set_gauge("train.val_acc", f64::from(last_acc));
                }
                self.telemetry.observe("round.total_s", rep.round_time_s);
                self.telemetry
                    .observe("round.compute_s", rep.compute_time_s);
                self.telemetry.observe("round.comm_s", rep.comm_time_s);
                self.telemetry.event(
                    "round",
                    Some(round as u64),
                    vec![
                        ("loss", f64::from(rep.mean_loss).into()),
                        ("val_acc", f64::from(last_acc).into()),
                        ("evaluated", evaluated.into()),
                        ("epoch", epoch.into()),
                    ],
                );
                // Span-style phase trail in virtual time. `plan` is
                // zero-width (planning is not priced by the time
                // model); `drain` is zero-width except that it carries
                // the round's mean idle seconds — under pipelining the
                // next round's compute overlaps this span.
                let spans = [
                    ("plan", t0, t0, 0.0),
                    ("compute", t0, t0 + rep.compute_time_s, 0.0),
                    (
                        "comm",
                        t0 + rep.compute_time_s,
                        t0 + rep.compute_time_s + rep.comm_time_s,
                        0.0,
                    ),
                    ("drain", t_end, t_end, rep.idle_time_s),
                ];
                for (name, start_s, end_s, span_idle) in spans {
                    let mut fields = vec![
                        ("name", name.into()),
                        ("start_s", start_s.into()),
                        ("end_s", end_s.into()),
                    ];
                    if span_idle > 0.0 {
                        fields.push(("idle_s", span_idle.into()));
                    }
                    self.telemetry.event("phase", Some(round as u64), fields);
                }
            }
            for obs in &mut self.observers {
                obs.on_point(&point);
            }
            if let Some(hook) = self.after_round.as_mut() {
                hook(&mut *trainer, &point);
            }
            points.push(point);
            if evaluated && self.target_acc.is_some_and(|t| last_acc >= t) {
                break;
            }
            if epoch >= self.max_epochs {
                break;
            }
        }

        if let Some(e) = &failed {
            // The failed exit closes the trail, at the first round
            // without a point.
            let round = Some(points.len() as u64);
            self.telemetry
                .event("run.failed", round, vec![("detail", e.to_string().into())]);
        }
        let history = RunHistory {
            algorithm: trainer.name().to_string(),
            final_acc: last_acc,
            total_worker_traffic_mb: to_mb(traffic.max_worker_total()),
            total_server_traffic_mb: to_mb(traffic.server_total()),
            total_comm_time_s: time_s,
            total_compute_time_s: compute_s,
            total_idle_time_s: idle_s,
            wall_time_s: started.elapsed().as_secs_f64(),
            points,
        };
        for obs in &mut self.observers {
            obs.on_complete(&history);
        }
        failed.map_or(Ok(history), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::SyntheticSpec;
    use saps_nn::zoo;

    fn base() -> Experiment {
        let ds = SyntheticSpec::tiny().samples(800).generate(1);
        let (train, val) = ds.split(0.25, 0);
        Experiment::new(AlgorithmSpec::Saps {
            compression: 4.0,
            tthres: 4,
            bthres: None,
        })
        .train(train)
        .validation(val)
        .workers(4)
        .batch_size(16)
        .lr(0.1)
        .model(|rng| zoo::mlp(&[16, 16, 4], rng))
    }

    #[test]
    fn run_produces_monotone_axes() {
        let hist = base()
            .rounds(30)
            .eval_every(5)
            .eval_samples(200)
            .run(&AlgorithmRegistry::core())
            .unwrap();
        assert_eq!(hist.points.len(), 30);
        for w in hist.points.windows(2) {
            assert!(w[1].epoch > w[0].epoch);
            assert!(w[1].worker_traffic_mb >= w[0].worker_traffic_mb);
            assert!(w[1].comm_time_s >= w[0].comm_time_s);
        }
        assert_eq!(hist.algorithm, "SAPS-PSGD");
        assert_eq!(hist.total_server_traffic_mb, 0.0);
        assert!(hist.total_worker_traffic_mb > 0.0);
    }

    #[test]
    fn eval_cadence_marks_fresh_points() {
        let hist = base()
            .rounds(20)
            .eval_every(5)
            .eval_samples(100)
            .run(&AlgorithmRegistry::core())
            .unwrap();
        for p in &hist.points {
            assert_eq!(p.evaluated, (p.round + 1) % 5 == 0, "round {}", p.round);
        }
    }

    #[test]
    fn first_reaching_skips_stale_points() {
        let mk = |round: usize, acc: f32, evaluated: bool| {
            let mut p = HistoryPoint::new();
            p.round = round;
            p.val_acc = acc;
            p.evaluated = evaluated;
            p
        };
        // Accuracy measured 0.9 at round 4; rounds 0-3 carry a stale 0.9
        // from nowhere (simulating the old bug's shape): only round 4 may
        // match.
        let h = RunHistory {
            algorithm: "x".into(),
            points: vec![
                mk(0, 0.9, false),
                mk(1, 0.9, false),
                mk(2, 0.9, false),
                mk(3, 0.9, false),
                mk(4, 0.9, true),
            ],
            final_acc: 0.9,
            total_worker_traffic_mb: 0.0,
            total_server_traffic_mb: 0.0,
            total_comm_time_s: 0.0,
            total_compute_time_s: 0.0,
            total_idle_time_s: 0.0,
            wall_time_s: 0.0,
        };
        assert_eq!(h.first_reaching(0.5).unwrap().round, 4);
        assert!(h.first_reaching(0.99).is_none());
    }

    #[test]
    fn target_accuracy_stops_early() {
        let hist = base()
            .rounds(300)
            .eval_every(5)
            .eval_samples(300)
            .target_accuracy(0.5)
            .run(&AlgorithmRegistry::core())
            .unwrap();
        assert!(hist.final_acc >= 0.5);
        assert!(
            hist.points.len() < 300,
            "early stop did not trigger ({} rounds)",
            hist.points.len()
        );
        let last = hist.points.last().unwrap();
        assert!(last.evaluated && last.val_acc >= 0.5);
    }

    #[test]
    fn churn_events_drive_saps_membership() {
        let ds = SyntheticSpec::tiny().samples(1_200).generate(2);
        let (train, val) = ds.split(0.25, 0);
        let hist = Experiment::new(AlgorithmSpec::Saps {
            compression: 4.0,
            tthres: 4,
            bthres: None,
        })
        .train(train)
        .validation(val)
        .workers(6)
        .batch_size(16)
        .model(|rng| zoo::mlp(&[16, 16, 4], rng))
        .rounds(30)
        .eval_every(10)
        .eval_samples(200)
        .event(10, ScenarioEvent::WorkerLeave { rank: 5 })
        .event(20, ScenarioEvent::WorkerJoin { rank: 5 })
        .run(&AlgorithmRegistry::core())
        .unwrap();
        assert_eq!(hist.points.len(), 30);
        assert!(hist.points.iter().all(|p| p.train_loss.is_finite()));
    }

    #[test]
    fn bandwidth_shift_slows_rounds() {
        let run = |events: Vec<ScheduledEvent>| {
            base()
                .rounds(10)
                .eval_every(10)
                .eval_samples(100)
                .events(events)
                .run(&AlgorithmRegistry::core())
                .unwrap()
        };
        let normal = run(vec![]);
        let congested = run(vec![ScheduledEvent {
            round: 0,
            event: ScenarioEvent::BandwidthShift { scale: 0.25 },
        }]);
        assert!(
            congested.total_comm_time_s > normal.total_comm_time_s * 3.0,
            "shift {} !>> {}",
            congested.total_comm_time_s,
            normal.total_comm_time_s
        );
    }

    #[test]
    fn event_driven_pricing_changes_time_but_not_learning() {
        let run = |model: TimeModel| {
            base()
                .rounds(8)
                .eval_every(4)
                .eval_samples(150)
                .time_model(model)
                .run(&AlgorithmRegistry::core())
                .unwrap()
        };
        let analytic = run(TimeModel::Analytic);
        let des = run(TimeModel::event_driven(0.05));
        for (a, d) in analytic.points.iter().zip(&des.points) {
            assert_eq!(a.train_loss, d.train_loss);
            assert_eq!(a.val_acc, d.val_acc);
            assert_eq!(a.worker_traffic_mb, d.worker_traffic_mb);
        }
        assert_eq!(analytic.final_acc, des.final_acc);
        // 50 ms of per-link latency must make the DES run strictly
        // slower than the closed-form accounting.
        assert!(des.total_comm_time_s > analytic.total_comm_time_s);
    }

    #[test]
    fn stragglers_stretch_the_critical_path() {
        let run = |events: Vec<ScheduledEvent>| {
            base()
                .rounds(10)
                .eval_every(10)
                .eval_samples(100)
                .compute_time(0.5)
                .time_model(TimeModel::event_driven(0.0))
                .events(events)
                .run(&AlgorithmRegistry::core())
                .unwrap()
        };
        let nominal = run(vec![]);
        let straggled = run(vec![ScheduledEvent {
            round: 0,
            event: ScenarioEvent::Straggler {
                rank: 1,
                slowdown: 6.0,
            },
        }]);
        // Learning dynamics identical; only the clock moves.
        for (a, b) in nominal.points.iter().zip(&straggled.points) {
            assert_eq!(a.train_loss, b.train_loss);
        }
        // Compute critical path: 0.5 s/round nominal vs 3 s/round with
        // the straggler gating every round.
        assert!((nominal.total_compute_time_s - 5.0).abs() < 1e-9);
        assert!((straggled.total_compute_time_s - 30.0).abs() < 1e-9);
        assert!(straggled.total_idle_time_s > nominal.total_idle_time_s);
        for p in &straggled.points {
            assert!((p.total_time_s - (p.compute_time_s + p.comm_time_s)).abs() < 1e-9);
        }
    }

    #[test]
    fn departed_workers_are_not_billed_idle() {
        // 4 equal workers computing 1 s/round: nobody waits at the
        // barrier, so idle must be 0 — and must stay 0 after a worker
        // leaves (a departed worker is not "waiting", under either
        // time model).
        for model in [TimeModel::Analytic, TimeModel::event_driven(0.0)] {
            let run = |events: Vec<ScheduledEvent>| {
                base()
                    .rounds(6)
                    .eval_every(6)
                    .eval_samples(100)
                    .compute_time(1.0)
                    .time_model(model)
                    .events(events)
                    .run(&AlgorithmRegistry::core())
                    .unwrap()
            };
            let full = run(vec![]);
            let churned = run(vec![ScheduledEvent {
                round: 1,
                event: ScenarioEvent::WorkerLeave { rank: 3 },
            }]);
            assert!((full.total_compute_time_s - 6.0).abs() < 1e-9, "{model:?}");
            assert!(
                (churned.total_compute_time_s - 6.0).abs() < 1e-9,
                "{model:?}"
            );
            if matches!(model, TimeModel::Analytic) {
                assert_eq!(full.total_idle_time_s, 0.0, "{model:?}");
                assert_eq!(
                    churned.total_idle_time_s, 0.0,
                    "{model:?} billed a departed worker as idle"
                );
            } else {
                // DES idle includes the (tiny, millisecond-scale)
                // transfer waits; the old bug billed the departed
                // worker the full 1 s compute barrier every round
                // (≥ 1.25 s over 5 churned rounds at the 1/4 mean).
                assert!(
                    churned.total_idle_time_s < 0.5,
                    "{model:?}: departed worker billed idle ({} s)",
                    churned.total_idle_time_s
                );
            }
        }
    }

    #[test]
    fn compute_time_must_be_finite() {
        let err = base()
            .compute_time(f64::NAN)
            .run(&AlgorithmRegistry::core());
        assert!(err.is_err());
    }

    #[test]
    fn csv_sink_writes_header_and_rows() {
        let buf: Vec<u8> = Vec::new();
        let mut sink = CsvSink::new(buf);
        let mut p = HistoryPoint::new();
        p.round = 0;
        p.evaluated = true;
        sink.on_point(&p);
        p.round = 1;
        p.evaluated = false;
        sink.on_point(&p);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("round,epoch,val_acc,evaluated"));
        assert!(lines[1].starts_with("1,"));
        assert!(lines[2].starts_with("2,"));
    }

    #[test]
    fn missing_pieces_are_config_errors() {
        let spec = AlgorithmSpec::parse("saps").unwrap();
        let reg = AlgorithmRegistry::core();
        assert!(Experiment::new(spec).run(&reg).is_err());
        let ds = SyntheticSpec::tiny().samples(200).generate(1);
        let (train, val) = ds.split(0.25, 0);
        // Event rank out of range.
        let err = Experiment::new(spec)
            .train(train)
            .validation(val)
            .workers(4)
            .model(|rng| zoo::mlp(&[16, 8, 4], rng))
            .event(0, ScenarioEvent::WorkerLeave { rank: 9 })
            .run(&reg)
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidParameter { .. }));
    }

    #[test]
    fn failing_mid_run_event_flushes_observers_before_erroring() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen = Rc::new(RefCell::new((0usize, false)));
        let seen_obs = Rc::clone(&seen);
        struct Probe(Rc<RefCell<(usize, bool)>>);
        impl RoundObserver for Probe {
            fn on_point(&mut self, _p: &HistoryPoint) {
                self.0.borrow_mut().0 += 1;
            }
            fn on_complete(&mut self, h: &RunHistory) {
                let mut s = self.0.borrow_mut();
                assert_eq!(s.0, h.points.len());
                s.1 = true;
            }
        }
        // SAPS keeps >= 2 active: the third leave must fail at round 3,
        // after 3 recorded rounds.
        let err = base()
            .rounds(10)
            .eval_every(5)
            .eval_samples(100)
            .event(1, ScenarioEvent::WorkerLeave { rank: 0 })
            .event(2, ScenarioEvent::WorkerLeave { rank: 1 })
            .event(3, ScenarioEvent::WorkerLeave { rank: 2 })
            .observer(Box::new(Probe(seen_obs)))
            .run(&AlgorithmRegistry::core())
            .unwrap_err();
        assert!(err.to_string().contains("round 3"), "{err}");
        let s = seen.borrow();
        assert_eq!(s.0, 3, "three rounds should have streamed");
        assert!(s.1, "on_complete must flush the partial history");
    }

    #[test]
    fn parallel_policy_is_bit_identical_to_sequential() {
        let run = |p: ParallelismPolicy| {
            base()
                .rounds(10)
                .eval_every(5)
                .eval_samples(150)
                .parallelism(p)
                .run(&AlgorithmRegistry::core())
                .unwrap()
        };
        let seq = run(ParallelismPolicy::Sequential);
        let par = run(ParallelismPolicy::Threads(3));
        assert_eq!(seq.points, par.points);
        assert_eq!(seq.final_acc, par.final_acc);
        assert_eq!(seq.total_comm_time_s, par.total_comm_time_s);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            base()
                .rounds(15)
                .eval_every(5)
                .eval_samples(200)
                .run(&AlgorithmRegistry::core())
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_acc, b.final_acc);
        assert_eq!(a.points, b.points);
    }
}
