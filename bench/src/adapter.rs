//! Every call into the repository lives in this file, so a refactor of the
//! workspace sees in one place what the benchmark needs to stay callable
//! (`bench/README.md` lists the surface).
//!
//! Timed paths use only: `AlgorithmSpec`, `AlgorithmRegistry::build` +
//! `BuildCtx`, the `Trainer` trait (`step`, `evaluate`, `set_worker_active`,
//! `export_checkpoint`, `model_len`), `RoundCtx::new(..).with_time_model(..)`,
//! `saps::baselines::registry()`, `saps::cluster::cluster_registry(tap)`,
//! `ClusterTrainer::{loopback, with_transport}` + `SapsConfig`,
//! `WireTap::snapshot`, `TrafficAccountant`, `BandwidthMatrix`,
//! `SyntheticSpec`, `partition::iid`, `zoo::mlp`, `ReplicaNode` and
//! `ServeCluster`. Verification and the layer probes reach further (they are
//! marked below); neither is part of an end-to-end timing.

use crate::stats::{median, mix, Digest};
use crate::trace::Tracer;
use crate::workloads::{Fabric, WorkloadSpec};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use saps::cluster::{
    cluster_registry, Addr, ClusterError, ClusterTrainer, LoopbackTransport, Transport, WireTap,
};
use saps::core::{
    AlgorithmRegistry, BuildCtx, ConfigError, Executor, ModelFactory, ParallelismPolicy, Recorder,
    RoundCtx, RoundReport, SapsConfig, TimeModel, Trainer,
};
use saps::data::{partition, Dataset, SyntheticSpec};
use saps::netsim::{BandwidthMatrix, TrafficAccountant};
use saps::nn::{zoo, Model};
use saps::serve::{ReplicaNode, ServeCluster};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub use saps::core::AlgorithmSpec;
pub use saps::serve::CompletedRequest;

/// Per-link latency of the event-driven time model every round is priced
/// with.
const DES_LATENCY_S: f64 = 0.005;
/// Rows of the pre-generated request-feature pool.
const FEATURE_POOL: usize = 4_096;
/// Length of the pre-generated per-tick arrival cycle.
const ARRIVAL_CYCLE: usize = 1_024;
/// Pre-generated churn waves (leave / rejoin orders), cycled.
const CHURN_CYCLE: usize = 16;

// ---------------------------------------------------------------- inputs

/// Everything a workload feeds the program, generated from `--seed` alone.
pub struct Inputs {
    pub seed: u64,
    pub val: Dataset,
    pub parts: Vec<Dataset>,
    pub bw: BandwidthMatrix,
    /// The bandwidths among the first `churn_workers` ranks.
    churn_bw: BandwidthMatrix,
    /// Poisson request counts per tick, cycled by the serve phase.
    pub arrivals: Vec<u32>,
    /// Request feature rows, cycled by the serve phase.
    pub features: Vec<Vec<f32>>,
    /// Per wave, the order in which the churn ranks leave and rejoin.
    pub churn: Vec<Vec<usize>>,
    pub generate_s: f64,
    pub partition_s: f64,
}

impl Inputs {
    pub fn generate(spec: &WorkloadSpec, seed: u64) -> Inputs {
        let (noise, class_separation, mixing_taps) = spec.data;
        let synth = SyntheticSpec {
            feature_dim: spec.dims[0],
            num_classes: *spec.dims.last().expect("dims are non-empty"),
            num_samples: spec.samples,
            noise,
            class_separation,
            mixing_taps,
        };
        let t = Instant::now();
        let (train, val) = synth.generate(mix(seed, 0)).split(1.0 / 6.0, mix(seed, 1));
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let parts = partition::iid(&train, spec.workers, mix(seed, 2));
        let partition_s = t.elapsed().as_secs_f64();

        let (lo, hi) = spec.bandwidth;
        let mut rng = StdRng::seed_from_u64(mix(seed, 3));
        let spread = BandwidthMatrix::uniform_random(spec.workers, hi - lo, &mut rng);
        let raw: Vec<f64> = spread
            .as_slice()
            .iter()
            .map(|&v| if v > 0.0 { lo + v } else { 0.0 })
            .collect();
        let bw = BandwidthMatrix::from_raw(spec.workers, &raw);
        let k = spec.churn_workers;
        let sub: Vec<f64> = (0..k * k).map(|i| bw.get(i / k, i % k)).collect();
        let churn_bw = BandwidthMatrix::from_raw(k, &sub);

        let mut rng = StdRng::seed_from_u64(mix(seed, 4));
        let arrivals = (0..ARRIVAL_CYCLE)
            .map(|_| poisson(spec.serve.mean_per_tick, &mut rng))
            .collect();
        let features = (0..FEATURE_POOL)
            .map(|i| val.features_of(i % val.len()).to_vec())
            .collect();
        let mut rng = StdRng::seed_from_u64(mix(seed, 5));
        let churn = (0..CHURN_CYCLE)
            .map(|_| {
                let mut order: Vec<usize> = spec.churn_ranks.clone().collect();
                order.shuffle(&mut rng);
                order
            })
            .collect();
        Inputs {
            seed,
            val,
            parts,
            bw,
            churn_bw,
            arrivals,
            features,
            churn,
            generate_s,
            partition_s,
        }
    }

    /// The whole fleet: every partition over the full bandwidth matrix.
    pub fn fleet(&self) -> FleetView<'_> {
        FleetView {
            seed: self.seed,
            parts: &self.parts,
            bw: &self.bw,
        }
    }

    /// The leading ranks the churn phase's P-SGD fleet is made of.
    pub fn churn_fleet(&self) -> FleetView<'_> {
        FleetView {
            seed: self.seed,
            parts: &self.parts[..self.churn_bw.len()],
            bw: &self.churn_bw,
        }
    }

    /// FNV-1a over every generated input: equal for equal seeds, and for
    /// two workloads that share one generator.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for part in &self.parts {
            d.u64(part.len() as u64);
            for i in 0..part.len() {
                d.f32s(part.features_of(i));
                d.u64(part.label_of(i) as u64);
            }
        }
        for i in 0..self.val.len() {
            d.f32s(self.val.features_of(i));
            d.u64(self.val.label_of(i) as u64);
        }
        d.f64s(self.bw.as_slice());
        for &a in &self.arrivals {
            d.u64(u64::from(a));
        }
        for wave in &self.churn {
            for &r in wave {
                d.u64(r as u64);
            }
        }
        d.finish()
    }
}

/// The workers a trainer is built over: their partitions and links.
#[derive(Clone, Copy)]
pub struct FleetView<'a> {
    seed: u64,
    parts: &'a [Dataset],
    bw: &'a BandwidthMatrix,
}

/// Knuth's Poisson sampler (the means used here are small).
fn poisson(mean: f64, rng: &mut StdRng) -> u32 {
    let limit = (-mean).exp();
    let (mut k, mut p) = (0u32, 1.0f64);
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

fn factory(spec: &WorkloadSpec) -> ModelFactory {
    let dims = spec.dims;
    Arc::new(move |rng| zoo::mlp(dims, rng))
}

// ------------------------------------------------------------ train legs

/// What one `Trainer::step` produced, as plain numbers.
#[derive(Debug, Clone, Copy)]
pub struct StepOut {
    /// Wall time of the `step` call alone.
    pub wall_s: f64,
    pub loss: f32,
    /// DES virtual communication time of the round.
    pub comm_s: f64,
    /// Bytes the round moved: framed bytes on the wire, the accountant's
    /// worker-sent plus server bytes in memory.
    pub bytes: u64,
    /// Frames the round put on the wire (0 in memory).
    pub frames: u64,
}

/// Cumulative wire counters of one leg (all zero in memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wire {
    pub frames: u64,
    pub total: u64,
    pub data: u64,
    pub control: u64,
    pub model: u64,
    pub serve: u64,
}

/// One trainer with the round context it is stepped through.
pub struct Leg {
    pub key: &'static str,
    trainer: Box<dyn Trainer>,
    traffic: TrafficAccountant,
    bw: BandwidthMatrix,
    seed: u64,
    round: usize,
    tap: Option<WireTap>,
    tracer: Option<Tracer>,
    /// Compute threads for the round executor (1 = sequential).
    pub threads: usize,
    /// A live telemetry recorder handed to every round when set.
    pub recorder: Option<Recorder>,
}

/// Builds `algo` for `spec` on `fabric` from `inputs`. With a tracer the
/// trainer is wrapped in [`TimedTrainer`], and a SAPS wire trainer is built
/// over a [`TimedTransport`].
pub fn build_leg(
    spec: &WorkloadSpec,
    inputs: &FleetView<'_>,
    fabric: Fabric,
    algo: &AlgorithmSpec,
    tracer: Option<&Tracer>,
) -> Result<Leg, String> {
    let ctx = BuildCtx {
        partitions: inputs.parts.to_vec(),
        bw: inputs.bw,
        batch_size: spec.batch,
        lr: spec.lr,
        seed: inputs.seed,
        factory: factory(spec),
    };
    let saps_cfg = match *algo {
        AlgorithmSpec::Saps {
            compression,
            tthres,
            bthres,
        } => Some(SapsConfig {
            workers: inputs.parts.len(),
            compression,
            lr: spec.lr,
            batch_size: spec.batch,
            bthres,
            tthres,
            seed: inputs.seed,
            shard_size: spec.shard_size,
        }),
        _ => None,
    };
    let make = factory(spec);
    let (trainer, tap): (Box<dyn Trainer>, Option<WireTap>) = match (fabric, saps_cfg) {
        (Fabric::Wire, Some(cfg)) if tracer.is_some() || cfg.shard_size.is_some() => {
            let tap = WireTap::new();
            let parts = inputs.parts.to_vec();
            let model = move |rng: &mut StdRng| make(rng);
            let boxed: Box<dyn Trainer> = match tracer {
                Some(t) => {
                    let transport = TimedTransport::new(tap.clone(), t.clone());
                    Box::new(
                        ClusterTrainer::with_transport(
                            cfg,
                            parts,
                            inputs.bw,
                            model,
                            transport,
                            tap.clone(),
                        )
                        .map_err(err)?,
                    )
                }
                None => Box::new(
                    ClusterTrainer::loopback(cfg, parts, inputs.bw, model, tap.clone())
                        .map_err(err)?,
                ),
            };
            (boxed, Some(tap))
        }
        (Fabric::Wire, _) => {
            let tap = WireTap::new();
            let reg: AlgorithmRegistry = cluster_registry(tap.clone());
            (reg.build(algo, ctx).map_err(err)?, Some(tap))
        }
        // Verification only: the registry's SAPS builder has no shard size,
        // so the in-memory twin of a sharded wire leg is built directly.
        (Fabric::Memory, Some(cfg)) if cfg.shard_size.is_some() => {
            let twin = saps::core::SapsPsgd::with_partitions(
                cfg,
                inputs.parts.to_vec(),
                inputs.bw,
                move |rng| make(rng),
            )
            .map_err(err)?;
            (Box::new(twin), None)
        }
        (Fabric::Memory, _) => (
            saps::baselines::registry().build(algo, ctx).map_err(err)?,
            None,
        ),
    };
    let trainer = match tracer {
        Some(t) => Box::new(TimedTrainer {
            inner: trainer,
            tracer: t.clone(),
        }),
        None => trainer,
    };
    Ok(Leg {
        key: algo.key(),
        trainer,
        traffic: TrafficAccountant::new(inputs.parts.len()),
        bw: inputs.bw.clone(),
        seed: inputs.seed,
        round: 0,
        tap,
        tracer: tracer.cloned(),
        threads: 1,
        recorder: None,
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Leg {
    pub fn step(&mut self) -> StepOut {
        let before = self.wire();
        if let Some(t) = &self.tracer {
            t.set_round(self.round as u64);
        }
        let mut ctx = RoundCtx::new(self.round, &self.bw, &mut self.traffic, self.seed)
            .with_time_model(TimeModel::event_driven(DES_LATENCY_S));
        if self.threads > 1 {
            ctx = ctx.with_executor(Executor::new(ParallelismPolicy::Threads(self.threads)));
        }
        if let Some(rec) = &self.recorder {
            ctx = ctx.with_telemetry(rec.clone());
        }
        let t = Instant::now();
        let report: RoundReport = self.trainer.step(&mut ctx);
        let wall_s = t.elapsed().as_secs_f64();
        self.round += 1;
        let after = self.wire();
        let bytes = match self.tap {
            Some(_) => after.total - before.total,
            None => {
                let r = self.traffic.rounds().last().copied().unwrap_or_default();
                r.total_sent + r.server_bytes
            }
        };
        StepOut {
            wall_s,
            loss: report.mean_loss,
            comm_s: report.comm_time_s,
            bytes,
            frames: after.frames - before.frames,
        }
    }

    /// Marks `rank` active or not; returns the call's wall time.
    pub fn set_active(&mut self, rank: usize, active: bool) -> Result<f64, String> {
        let t = Instant::now();
        self.trainer.set_worker_active(rank, active).map_err(err)?;
        Ok(t.elapsed().as_secs_f64())
    }

    pub fn export_checkpoint(&mut self) -> Result<Vec<u8>, String> {
        self.trainer.export_checkpoint().map_err(err)
    }

    /// Validation accuracy of the consensus model and the call's wall time.
    pub fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> (f32, f64) {
        let t = Instant::now();
        let acc = self.trainer.evaluate(val, max_samples);
        (acc, t.elapsed().as_secs_f64())
    }

    pub fn model_len(&self) -> usize {
        self.trainer.model_len()
    }

    pub fn is_wire(&self) -> bool {
        self.tap.is_some()
    }

    pub fn wire(&self) -> Wire {
        self.tap.as_ref().map_or_else(Wire::default, |tap| {
            let s = tap.snapshot();
            Wire {
                frames: s.frames,
                total: s.total_bytes,
                data: s.data_bytes,
                control: s.control_bytes,
                model: s.model_bytes,
                serve: s.serve_bytes,
            }
        })
    }

    /// Bytes the accountant charged to worker rows (sent side).
    pub fn worker_rows_sent(&self) -> u64 {
        self.traffic.grand_total_sent()
    }
}

// ------------------------------------------------- traced-run wrappers

/// Spans `step`, `evaluate`, `set_worker_active` and `export_checkpoint` of
/// the wrapped trainer; everything else passes through.
struct TimedTrainer {
    inner: Box<dyn Trainer>,
    tracer: Tracer,
}

impl Trainer for TimedTrainer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        let id = self.tracer.enter("step");
        let out = self.inner.step(ctx);
        self.tracer.exit(id);
        out
    }
    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        let id = self.tracer.enter("evaluate");
        let out = self.inner.evaluate(val, max_samples);
        self.tracer.exit(id);
        out
    }
    fn model_len(&self) -> usize {
        self.inner.model_len()
    }
    fn worker_count(&self) -> usize {
        self.inner.worker_count()
    }
    fn set_worker_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError> {
        let id = self.tracer.enter("set_worker_active");
        let out = self.inner.set_worker_active(rank, active);
        self.tracer.exit(id);
        out
    }
    fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        self.inner.refresh_bandwidth(bw);
    }
    fn export_checkpoint(&mut self) -> Result<Vec<u8>, ConfigError> {
        let id = self.tracer.enter("export_checkpoint");
        let out = self.inner.export_checkpoint();
        self.tracer.exit(id);
        out
    }
}

/// A loopback transport whose `send` / `recv` are spans under whatever call
/// is open on the tracer (the enclosing `step`, join or tick).
pub struct TimedTransport {
    inner: LoopbackTransport,
    tracer: Tracer,
}

impl TimedTransport {
    fn new(tap: WireTap, tracer: Tracer) -> Self {
        TimedTransport {
            inner: LoopbackTransport::new(tap),
            tracer,
        }
    }
}

impl Transport for TimedTransport {
    fn send(&mut self, from: Addr, to: Addr, frame: Bytes) -> Result<(), ClusterError> {
        let id = self.tracer.enter("send");
        let out = self.inner.send(from, to, frame);
        self.tracer.exit(id);
        out
    }
    fn recv(&mut self, at: Addr) -> Result<Option<(Addr, Bytes)>, ClusterError> {
        let id = self.tracer.enter("recv");
        let out = self.inner.recv(at);
        self.tracer.exit(id);
        out
    }
}

// ------------------------------------------------------------- serving

enum FleetKind {
    Plain(ServeCluster<LoopbackTransport>),
    Timed(ServeCluster<TimedTransport>),
}

/// Dispatches one expression over both fleet kinds.
macro_rules! fleet {
    ($self:expr, $f:ident => $body:expr) => {
        match &mut $self.kind {
            FleetKind::Plain($f) => $body,
            FleetKind::Timed($f) => $body,
        }
    };
}

/// The serving replicas behind a loopback transport, one thread.
pub struct Fleet {
    kind: FleetKind,
}

/// Counters summed over the replicas.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaTotals {
    pub batches: u64,
    pub batched_rows: u64,
    pub rejected_requests: u64,
    pub rejected_announces: u64,
    pub min_version: u64,
}

pub fn build_fleet(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    boot: &[u8],
    tracer: Option<&Tracer>,
) -> Result<Fleet, String> {
    let replicas = (0..spec.serve.replicas as u32)
        .map(|id| {
            let mut rng = StdRng::seed_from_u64(mix(inputs.seed, 6));
            ReplicaNode::new(
                id,
                zoo::mlp(spec.dims, &mut rng),
                boot,
                spec.serve.max_batch,
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let kind = match tracer {
        None => FleetKind::Plain(
            ServeCluster::loopback(replicas)
                .map_err(err)?
                .with_executor(Executor::sequential()),
        ),
        Some(t) => {
            let tap = WireTap::new();
            let transport = TimedTransport::new(tap.clone(), t.clone());
            FleetKind::Timed(
                ServeCluster::with_transport(transport, tap, replicas)
                    .map_err(err)?
                    .with_executor(Executor::sequential()),
            )
        }
    };
    Ok(Fleet { kind })
}

impl Fleet {
    pub fn submit(&mut self, client: u32, features: Vec<f32>) -> Result<u64, String> {
        fleet!(self, f => f.submit(client, features)).map_err(err)
    }
    pub fn announce(&mut self, checkpoint: Vec<u8>) -> Result<u64, String> {
        fleet!(self, f => f.announce(checkpoint)).map_err(err)
    }
    pub fn tick(&mut self) -> Result<usize, String> {
        fleet!(self, f => f.tick()).map_err(err)
    }
    pub fn take_completed(&mut self) -> Vec<CompletedRequest> {
        fleet!(self, f => {
            // The transfer log only feeds DES pricing of mixed load; drop it
            // so an open-ended serve phase does not grow without bound.
            f.take_transfers();
            f.take_completed()
        })
    }
    pub fn replica_totals(&mut self) -> ReplicaTotals {
        fleet!(self, f => {
            let mut t = ReplicaTotals {
                min_version: u64::MAX,
                ..ReplicaTotals::default()
            };
            for r in f.replicas() {
                t.batches += r.batches();
                t.batched_rows += r.batched_rows();
                t.rejected_requests += r.rejected_requests();
                t.rejected_announces += r.rejected_announces();
                t.min_version = t.min_version.min(r.model_version());
            }
            t
        })
    }
}

/// Verification only: the forward pass of a checkpoint, computed locally.
pub struct LocalModel {
    model: Model,
}

impl LocalModel {
    pub fn from_checkpoint(spec: &WorkloadSpec, checkpoint: &[u8]) -> Result<Self, String> {
        let (params, _) =
            saps::core::checkpoint::decode(Bytes::from(checkpoint.to_vec())).map_err(err)?;
        let mut model = zoo::mlp(spec.dims, &mut StdRng::seed_from_u64(0));
        if params.len() != model.num_params() {
            return Err(format!(
                "checkpoint has {} parameters, model {}",
                params.len(),
                model.num_params()
            ));
        }
        model.set_flat_params(&params);
        Ok(LocalModel { model })
    }

    pub fn logits(&mut self, features: &[f32]) -> Vec<f32> {
        self.model.forward(features, 1, false).into_vec()
    }
}

// -------------------------------------------------------- layer probes
//
// Each probe replays one of the workload's own shapes (model length, nnz,
// bandwidth matrix, transfer list, matching size) through a public function
// of one crate and reports the median time of a call. None of this runs in
// an end-to-end measurement.

/// Median seconds of one call of `f` over `iters` calls.
fn time_median(iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Repeats until ~`budget_s` is spent (at least 3, at most `cap` calls).
fn time_budgeted(budget_s: f64, cap: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let first = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_s / first) as usize).clamp(3, cap);
    time_median(iters, f)
}

/// The focus leg's compression ratio, SAPS window and `B_thres`, with the
/// dense algorithms read as `c = 1`.
fn focus_shape(spec: &WorkloadSpec) -> (f64, u32, Option<f64>) {
    match spec.legs[spec.focus].algo {
        AlgorithmSpec::Saps {
            compression,
            tthres,
            bthres,
        } => (compression, tthres, bthres),
        other => (other.compression().unwrap_or(1.0), 8, None),
    }
}

/// Per-layer probe results by metric name.
pub fn layer_probes(spec: &WorkloadSpec, inputs: &Inputs) -> BTreeMap<&'static str, f64> {
    use saps::compress::mask::RandomMask;
    use saps::compress::topk::top_k_indices;
    use saps::core::{checkpoint, SapsControl, Worker};
    use saps::graph::{matching, Graph};
    use saps::proto::{frame, Message};
    use saps::tensor::Tensor;

    let mut out = BTreeMap::new();
    let n = spec.workers;
    let len = spec.model_len();
    let (c, tthres, bthres) = focus_shape(spec);
    let seed = inputs.seed;
    let b = 0.15; // seconds per probe

    // nn / tensor: one local SGD step and the serving forward passes.
    let mut rng = StdRng::seed_from_u64(mix(seed, 7));
    let mut worker = Worker::new(
        0,
        zoo::mlp(spec.dims, &mut rng),
        inputs.parts[0].clone(),
        seed,
    );
    let (batch, lr) = (spec.batch, spec.lr);
    out.insert(
        "nn.sgd_step_us",
        1e6 * time_budgeted(b, 2_000, || {
            black_box(worker.sgd_step(batch, lr));
        }),
    );
    let mut model = zoo::mlp(spec.dims, &mut rng);
    for (name, rows) in [("nn.forward_us_b1", 1usize), ("nn.forward_us_b8", 8)] {
        let x: Vec<f32> = (0..rows).flat_map(|r| inputs.features[r].clone()).collect();
        out.insert(
            name,
            1e6 * time_budgeted(b, 20_000, || {
                black_box(model.forward(black_box(&x), rows, false));
            }),
        );
    }
    // The widest layer's forward product at the training batch.
    let (k, m) = spec
        .dims
        .windows(2)
        .map(|w| (w[0], w[1]))
        .max_by_key(|&(k, m)| k * m)
        .expect("an MLP has a layer");
    let a = Tensor::uniform(&[batch, k], 1.0, &mut rng);
    let w = Tensor::uniform(&[k, m], 1.0, &mut rng);
    let s = time_budgeted(b, 20_000, || {
        black_box(black_box(&a).matmul(black_box(&w)));
    });
    out.insert(
        "tensor.matmul_gflops",
        2.0 * (batch * k * m) as f64 / s / 1e9,
    );

    // core: Algorithm 1/3 planning over the workload's bandwidth matrix.
    // The auto `B_thres` search (what `bthres: None` costs at set-up).
    let t = Instant::now();
    black_box(inputs.bw.max_connecting_threshold());
    out.insert("netsim.auto_threshold_ms", 1e3 * t.elapsed().as_secs_f64());
    let t = Instant::now();
    let mut control = SapsControl::new(&inputs.bw, bthres, tthres, seed);
    control.set_shard_size(spec.shard_size);
    out.insert("core.control_setup_s", t.elapsed().as_secs_f64());
    // Planning is periodic: every `tthres`-th round pays for the bridge
    // pass (55 ms against 5 ms at 1 000 workers), and the first window is
    // slower still, so the probe skips one window and reports the mean.
    let mut pairs = Vec::new();
    for _ in 0..tthres {
        control.begin_round();
    }
    let plan_rounds = if n > 256 { 2 } else { 10 } * tthres as usize;
    let t = Instant::now();
    for _ in 0..plan_rounds {
        let plan = control.begin_round();
        pairs = control.global_pairs(&plan.matching);
    }
    out.insert(
        "core.plan_ms",
        1e3 * t.elapsed().as_secs_f64() / plan_rounds as f64,
    );
    out.insert("core.plan_pairs_per_round", pairs.len() as f64);

    let params: Vec<f32> = (0..len).map(|i| (i % 97) as f32 * 0.01).collect();
    let mut blob = checkpoint::encode(&params, 1);
    out.insert(
        "core.checkpoint_encode_ms",
        1e3 * time_budgeted(b, 2_000, || {
            blob = checkpoint::encode(black_box(&params), 1)
        }),
    );
    out.insert(
        "core.checkpoint_decode_ms",
        1e3 * time_budgeted(b, 2_000, || {
            black_box(checkpoint::decode(blob.clone()).expect("own checkpoint decodes"));
        }),
    );

    // graph: matching on the workload's B* graph.
    let bstar = Graph::from_threshold(n, inputs.bw.as_slice(), control.bandwidth_threshold());
    let shard = spec.shard_size.unwrap_or(n);
    out.insert(
        "graph.sharded_match_ms",
        1e3 * time_budgeted(b, 200, || {
            black_box(matching::sharded_max_match(&bstar, shard, &mut rng));
        }),
    );
    out.insert(
        "graph.max_match_ms",
        1e3 * time_budgeted(b, 200, || {
            black_box(matching::maximum_matching(&bstar));
        }),
    );

    // compress: the shared-seed mask at the workload's model length and c.
    let mut mask = RandomMask::generate(len, c, seed, 0);
    let mut round = 0u64;
    out.insert(
        "compress.mask_regenerate_us",
        1e6 * time_budgeted(b, 5_000, || {
            round += 1;
            mask.regenerate(len, c, seed, round);
        }),
    );
    let nnz = mask.nnz();
    let mut values = Vec::with_capacity(nnz);
    out.insert(
        "compress.mask_apply_us",
        1e6 * time_budgeted(b, 5_000, || {
            mask.apply_into(black_box(&params), &mut values)
        }),
    );
    let mut x = params.clone();
    out.insert(
        "compress.mask_average_us",
        1e6 * time_budgeted(b, 5_000, || mask.average_into(&mut x, black_box(&values))),
    );
    let topk = (len as f64 / c).ceil().max(1.0) as usize;
    out.insert(
        "compress.topk_select_us",
        1e6 * time_budgeted(b, 2_000, || {
            black_box(top_k_indices(black_box(&params), topk));
        }),
    );

    // proto: a MaskedPayload at the workload's nnz, and a 500-pair notify.
    let payload = Message::MaskedPayload {
        round: 1,
        values: values.clone(),
    };
    let mut framed = frame::encode(&payload);
    let mb = framed.len() as f64 / 1e6;
    out.insert(
        "proto.encode_mb_per_s",
        mb / time_budgeted(b, 5_000, || framed = frame::encode(black_box(&payload))),
    );
    out.insert(
        "proto.decode_mb_per_s",
        mb / time_budgeted(b, 5_000, || {
            black_box(frame::decode(black_box(&framed)).expect("own frame decodes"));
        }),
    );
    out.insert(
        "proto.checksum_mb_per_s",
        mb / time_budgeted(b, 5_000, || {
            black_box(frame::checksum(black_box(&framed)));
        }),
    );
    let notify = Message::NotifyTrain {
        round: 1,
        mask_seed: seed,
        matching: (0..500).map(|i| (2 * i, 2 * i + 1)).collect(),
    };
    out.insert(
        "proto.notify_encode_us",
        1e6 * time_budgeted(b, 5_000, || {
            black_box(frame::encode(black_box(&notify)));
        }),
    );

    // netsim: DES pricing of the round's transfer list and the collectives.
    let time = TimeModel::event_driven(DES_LATENCY_S);
    let frame_bytes = framed.len() as u64;
    let transfers: Vec<(usize, usize, u64)> = pairs
        .iter()
        .flat_map(|&(i, j)| [(i, j, frame_bytes), (j, i, frame_bytes)])
        .collect();
    let price_cap = if n > 256 { 10 } else { 200 };
    out.insert(
        "netsim.price_p2p_ms",
        1e3 * time_budgeted(b, price_cap, || {
            black_box(time.price_p2p(&inputs.bw, &transfers, &[]));
        }),
    );
    let ranks: Vec<usize> = (0..n).collect();
    let dense = 4 * len as u64;
    out.insert(
        "netsim.price_allreduce_ms",
        1e3 * time_budgeted(b, price_cap, || {
            black_box(time.price_allreduce(&inputs.bw, &ranks, dense, &[]));
        }),
    );
    let server = inputs.bw.best_server();
    let clients: Vec<(usize, u64, u64)> = (0..n)
        .filter(|&r| r != server)
        .step_by(2)
        .map(|r| (r, dense, dense))
        .collect();
    out.insert(
        "netsim.price_ps_ms",
        1e3 * time_budgeted(b, price_cap, || {
            black_box(time.price_ps(&inputs.bw, server, &clients, &[]));
        }),
    );
    out
}

/// A live (enabled) telemetry recorder for the overhead comparison.
pub fn live_recorder() -> Recorder {
    Recorder::new()
}
