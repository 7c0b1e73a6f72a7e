//! The cluster driver: a [`Trainer`] whose rounds run through real
//! serialized messages.

use crate::node::{CoordinatorNode, NodeSnapshot, Outbox, RoundMeta, WorkerNode};
use crate::transport::{Addr, LoopbackTransport, Transport, WireTap};
use crate::ClusterError;
use bytes::Bytes;
use rand::rngs::StdRng;
use saps_core::{
    build_replicas, checkpoint, saps_round_report, AlgorithmRegistry, AlgorithmSpec, ConfigError,
    Recorder, RoundCtx, RoundReport, SapsConfig, Trainer,
};
use saps_data::Dataset;
use saps_netsim::BandwidthMatrix;
use saps_nn::Model;
use saps_proto::{frame, Message};
use saps_runtime::Executor;
use std::collections::{BTreeMap, BTreeSet};

/// Sweeps of an empty transport tolerated before a round is declared
/// stalled (each idle sweep sleeps 1 ms, so this is a ~5 s timeout for
/// stream transports; the loopback transport either completes or stalls
/// on the first idle sweep).
const STALL_SWEEP_LIMIT: u32 = 5_000;

/// The typed stall message — matched by the catch-up driver to tell
/// "the wire went idle with chunk requests unanswered" (recoverable by
/// re-requesting) apart from genuine protocol violations.
const STALL_MSG: &str = "transport quiescent but the awaited protocol state never arrived";

/// SAPS-PSGD driven as a message-passing cluster: a
/// [`CoordinatorNode`] and `n` [`WorkerNode`]s exchanging
/// `saps-proto` frames over a pluggable [`Transport`].
///
/// `ClusterTrainer` implements [`Trainer`], so the standard
/// [`saps_core::Experiment`] driver runs a cluster experiment end to end
/// — events, observers, evaluation cadence and all — with every round
/// flowing through encode → transport → decode. The training state it
/// produces is **bit-identical** to the in-memory
/// [`saps_core::SapsPsgd`] under the same spec and seed (pinned by
/// `tests/cluster_conformance.rs`): both paths share the same
/// [`saps_core::SapsControl`] planning state, [`saps_core::Worker`]
/// arithmetic and reduction order.
///
/// Accounting follows Table I exactly: each masked payload bills its
/// values section (`4·nnz` bytes) to the sender/receiver worker rows,
/// and all control-plane bytes — control frames plus every
/// training-frame envelope — are billed to the server row
/// ([`saps_netsim::TrafficAccountant::record_control`]). Round *timing*
/// is priced from the full framed transfer sizes, so the bytes the
/// `saps-netsim` time model simulates are the bytes actually put on the
/// wire. Evaluation-time model collection (`FetchModel`/`FinalModel`)
/// is instrumentation, not protocol traffic: metered by the
/// [`WireTap`]'s model-plane counter, never billed to the accountant.
///
/// **Byzantine tolerance**: a worker whose traffic is provably invalid
/// — a frame that fails to decode, or a payload violating the round's
/// shared-mask contract — is quarantined. The attempt is aborted, every
/// worker rolls back to the round's start, the offender is expelled
/// through the normal churn path and the round replays without it.
/// Because peer selection rebuilds as a pure function of the active
/// set, honest workers end bit-identical to a run where the offender
/// left gracefully (pinned by `tests/fault_injection.rs`).
///
/// Other protocol violations (a corrupted coordinator frame, a stalled
/// round) are driver bugs, not recoverable conditions —
/// [`Trainer::step`] panics with the underlying [`ClusterError`];
/// [`ClusterTrainer::try_step`] surfaces it as a value instead.
pub struct ClusterTrainer<T: Transport> {
    coordinator: CoordinatorNode,
    workers: Vec<WorkerNode>,
    transport: T,
    tap: WireTap,
    eval_model: Model,
    n_params: usize,
    batch_size: usize,
    /// Control-plane bytes already billed to the accountant's server
    /// row; the difference to the tap's cumulative counter is billed at
    /// each round close, so between-round control frames (churn,
    /// bandwidth reports) are charged exactly once.
    billed_control: u64,
    /// Ranks expelled by byzantine recovery: their frames are dropped on
    /// receipt and they take no part in any later round.
    quarantined: BTreeSet<u32>,
    /// Idle sweeps tolerated before a round is declared stalled — see
    /// [`ClusterTrainer::with_stall_limit`].
    stall_limit: u32,
    /// Telemetry handle. Captured from each round's [`RoundCtx`] (the
    /// `Experiment` driver installs it there) or set directly with
    /// [`ClusterTrainer::with_telemetry`], so failure paths that run
    /// outside a round context — churn, catch-up — can still dump the
    /// flight recorder.
    telemetry: Recorder,
}

impl<T: Transport> std::fmt::Debug for ClusterTrainer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterTrainer")
            .field("workers", &self.workers.len())
            .field("n_params", &self.n_params)
            .finish()
    }
}

impl ClusterTrainer<LoopbackTransport> {
    /// Builds a cluster over the default in-process loopback transport,
    /// metering its wire bytes through `tap`.
    pub fn loopback(
        cfg: SapsConfig,
        parts: Vec<Dataset>,
        bw: &BandwidthMatrix,
        factory: impl Fn(&mut StdRng) -> Model,
        tap: WireTap,
    ) -> Result<Self, ConfigError> {
        let transport = LoopbackTransport::new(tap.clone());
        Self::with_transport(cfg, parts, bw, factory, transport, tap)
    }
}

impl<T: Transport> ClusterTrainer<T> {
    /// Builds a cluster over an arbitrary transport. `tap` must be the
    /// tap `transport` reports to — the driver reads its per-round
    /// transfer log to bill and price rounds.
    ///
    /// Construction mirrors [`saps_core::SapsPsgd::with_partitions`]
    /// exactly (same validation, same replica seeding), so both paths
    /// start from the same state.
    pub fn with_transport(
        cfg: SapsConfig,
        parts: Vec<Dataset>,
        bw: &BandwidthMatrix,
        factory: impl Fn(&mut StdRng) -> Model,
        transport: T,
        tap: WireTap,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if parts.len() != cfg.workers {
            return Err(ConfigError::invalid(
                "ClusterTrainer",
                format!(
                    "{} partitions for {} workers (need one each)",
                    parts.len(),
                    cfg.workers
                ),
            ));
        }
        if bw.len() != cfg.workers {
            return Err(ConfigError::invalid(
                "ClusterTrainer",
                format!(
                    "bandwidth matrix covers {} workers, config has {}",
                    bw.len(),
                    cfg.workers
                ),
            ));
        }
        let (workers, eval_model) = build_replicas(parts, cfg.seed, factory);
        let n_params = eval_model.num_params();
        let nodes = workers
            .into_iter()
            .map(|w| WorkerNode::new(w, cfg.batch_size, cfg.lr, cfg.compression))
            .collect();
        // The tap may be shared across experiments (cluster_registry
        // clones one handle into every trainer it builds): bill only
        // control bytes framed from this trainer's start, not whatever a
        // previous run already accumulated.
        let billed_control = tap.snapshot().control_bytes;
        let mut coordinator = CoordinatorNode::new(bw, cfg.bthres, cfg.tthres, cfg.seed);
        coordinator.set_shard_size(cfg.shard_size);
        Ok(ClusterTrainer {
            coordinator,
            workers: nodes,
            transport,
            tap,
            eval_model,
            n_params,
            batch_size: cfg.batch_size,
            billed_control,
            quarantined: BTreeSet::new(),
            stall_limit: STALL_SWEEP_LIMIT,
            telemetry: Recorder::disabled(),
        })
    }

    /// Replaces the idle-sweep stall limit (default ~5 s of quiescence).
    /// Fault-injection tests lower it so a transport that silently drops
    /// frames surfaces its typed stall error in milliseconds.
    pub fn with_stall_limit(mut self, sweeps: u32) -> Self {
        self.stall_limit = sweeps;
        self
    }

    /// Attaches a telemetry recorder for drivers that step the cluster
    /// directly (the `Experiment` driver instead hands its recorder to
    /// every [`RoundCtx`], which this trainer captures per round).
    /// Telemetry never perturbs training — pinned by
    /// `tests/telemetry.rs`.
    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Ranks expelled by byzantine recovery, ascending.
    pub fn quarantined(&self) -> Vec<u32> {
        self.quarantined.iter().copied().collect()
    }

    /// The wire tap this cluster meters through.
    pub fn tap(&self) -> &WireTap {
        &self.tap
    }

    /// Direct access to a worker node (tests, conformance checks).
    pub fn worker(&self, rank: usize) -> &WorkerNode {
        &self.workers[rank]
    }

    /// Ranks of currently active workers.
    pub fn active_ranks(&self) -> Vec<usize> {
        self.coordinator.active_ranks()
    }

    /// Collects one worker's model through real
    /// [`Message::FetchModel`]/[`Message::FinalModel`] frames, returning
    /// the decoded checkpoint `(params, rounds_done)`.
    pub fn fetch_model(&mut self, rank: usize) -> Result<(Vec<f32>, u64), ClusterError> {
        let mut out = Outbox::new();
        self.coordinator.request_models(&[rank], &mut out);
        self.dispatch(Addr::Coordinator, out)?;
        self.pump_until(Executor::sequential(), |c, _| c.models_complete())?;
        let blob = self
            .coordinator
            .take_models()
            .remove(&(rank as u32))
            .ok_or_else(|| ClusterError::Protocol(format!("no model collected for {rank}")))?;
        checkpoint::decode(Bytes::from(blob))
            .map_err(|e| ClusterError::Protocol(format!("final model checkpoint: {e}")))
    }

    /// The consensus (average) model over active workers, collected
    /// through the wire — the same rank-ascending f32 reduction
    /// [`saps_core::SapsPsgd::average_model`] performs, so the result is
    /// bit-identical to the in-memory consensus.
    pub fn consensus_model(&mut self) -> Result<Vec<f32>, ClusterError> {
        let ranks = self.coordinator.active_ranks();
        let mut out = Outbox::new();
        self.coordinator.request_models(&ranks, &mut out);
        self.dispatch(Addr::Coordinator, out)?;
        self.pump_until(Executor::sequential(), |c, _| c.models_complete())?;
        let models = self.coordinator.take_models();
        let mut acc = vec![0.0f32; self.n_params];
        for (rank, blob) in models {
            let (params, _) = checkpoint::decode(Bytes::from(blob))
                .map_err(|e| ClusterError::Protocol(format!("model from rank {rank}: {e}")))?;
            if params.len() != self.n_params {
                return Err(ClusterError::Protocol(format!(
                    "model from rank {rank} has {} params, expected {}",
                    params.len(),
                    self.n_params
                )));
            }
            for (a, v) in acc.iter_mut().zip(&params) {
                *a += v;
            }
        }
        let inv = 1.0 / ranks.len() as f32;
        for a in &mut acc {
            *a *= inv;
        }
        Ok(acc)
    }

    /// The coordinator node (tests, churn-race observability — e.g.
    /// [`CoordinatorNode::late_models`]).
    pub fn coordinator(&self) -> &CoordinatorNode {
        &self.coordinator
    }

    /// Publishes the current model as a chunked checkpoint epoch: pulls
    /// one worker's checkpoint blob over the wire, has the coordinator
    /// build and broadcast the chunk manifest
    /// ([`Message::ManifestAnnounce`]), and waits until every active
    /// worker has heard it. Workers whose state matches the blob become
    /// chunk sources; joiners catch up from them with
    /// [`ClusterTrainer::catch_up_worker`].
    pub fn publish_epoch_checkpoint(&mut self, chunk_size: u32) -> Result<(), ClusterError> {
        let ranks = self.coordinator.active_ranks();
        let donor = *ranks.first().ok_or_else(|| {
            ClusterError::Protocol("no active workers to publish a checkpoint from".into())
        })?;
        let mut out = Outbox::new();
        self.coordinator.request_models(&[donor], &mut out);
        self.dispatch(Addr::Coordinator, out)?;
        self.pump_until(Executor::sequential(), |c, _| c.models_complete())?;
        // The raw blob, never re-encoded: the manifest's checksums must
        // match the donor's bytes bit-exactly so the donor (and every
        // in-sync replica) can prove it serves the published epoch.
        let blob = self
            .coordinator
            .take_models()
            .remove(&(donor as u32))
            .ok_or_else(|| {
                ClusterError::Protocol(format!("no checkpoint collected from donor {donor}"))
            })?;
        let mut out = Outbox::new();
        let epoch = self
            .coordinator
            .publish_manifest(&blob, chunk_size, self.coordinator.rounds_done(), &mut out)
            .epoch;
        self.dispatch(Addr::Coordinator, out)?;
        self.pump_until(Executor::sequential(), move |_, ws| {
            ranks
                .iter()
                .all(|&r| ws[r].heard_manifest().is_some_and(|m| m.epoch == epoch))
        })
    }

    /// Catches `rank` up to the published checkpoint epoch by chunked
    /// download: re-announces the manifest to the joiner (it may have
    /// joined after the broadcast), then fans its chunk requests across
    /// every other active worker, fastest first in the coordinator's
    /// bandwidth snapshot ([`CoordinatorNode::rank_peers`]). Lost or
    /// corrupt chunks are re-sourced from the next ranked peer; if the
    /// wire goes quiescent with requests unanswered, the outstanding
    /// chunks are re-requested. Exhausting every source surfaces
    /// [`ClusterError::ResyncFailed`].
    pub fn catch_up_worker(&mut self, rank: usize) -> Result<(), ClusterError> {
        let manifest = self.coordinator.manifest().cloned().ok_or_else(|| {
            ClusterError::Protocol("catch-up before any checkpoint epoch was published".into())
        })?;
        let epoch = manifest.epoch;
        self.transport.send(
            Addr::Coordinator,
            Addr::Worker(rank as u32),
            frame::try_encode(&manifest.announce())?,
        )?;
        self.pump_until(Executor::sequential(), |_, ws| {
            ws[rank].heard_manifest().is_some_and(|m| m.epoch == epoch)
        })?;
        let peers = self.coordinator.rank_peers(rank);
        let donor = peers.first().copied().unwrap_or(rank as u32);
        let mut out = Outbox::new();
        self.workers[rank].begin_catch_up(peers, &mut out)?;
        self.dispatch(Addr::Worker(rank as u32), out)?;
        // Bound the idle-requeue loop: each pass re-requests every
        // outstanding chunk, so a wire that keeps eating frames runs the
        // per-chunk attempt budget dry long before this trips.
        const REQUEUE_LIMIT: u32 = 64;
        let mut requeues = 0u32;
        loop {
            if let Some(chunk) = self.workers[rank].download_failed() {
                self.telemetry.add("cluster.resync_failures", 1);
                self.telemetry.event(
                    "resync.failed",
                    None,
                    vec![
                        ("rank", rank.into()),
                        ("donor", donor.into()),
                        ("chunk", chunk.into()),
                    ],
                );
                self.telemetry.crash_dump("resync failed");
                return Err(ClusterError::ResyncFailed {
                    donor,
                    rank: rank as u32,
                    detail: format!("chunk {chunk} exhausted every serving peer"),
                });
            }
            if !self.workers[rank].catching_up() {
                self.telemetry.add("cluster.catchups", 1);
                let mut fields = vec![
                    ("rank", rank.into()),
                    ("donor", donor.into()),
                    ("requeues", requeues.into()),
                ];
                if let Some(dl) = self.workers[rank].last_download() {
                    fields.push(("retries", dl.retries.into()));
                    fields.push(("sources", dl.sources.into()));
                }
                self.telemetry.event("chunk.catchup", None, fields);
                return Ok(());
            }
            match self.pump_until(Executor::sequential(), |_, ws| {
                !ws[rank].catching_up() || ws[rank].download_failed().is_some()
            }) {
                Ok(()) => continue,
                // Quiescent with chunks outstanding: requests or replies
                // were dropped on the wire. Re-request and keep going.
                Err(ClusterError::Protocol(msg))
                    if msg == STALL_MSG && requeues < REQUEUE_LIMIT =>
                {
                    requeues += 1;
                    let mut out = Outbox::new();
                    self.workers[rank].requeue_download(&mut out);
                    self.dispatch(Addr::Worker(rank as u32), out)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends [`Message::Shutdown`] to every worker and waits until all
    /// have processed it (an orderly end of the experiment).
    pub fn shutdown(&mut self) -> Result<(), ClusterError> {
        let n = self.workers.len();
        for rank in 0..n {
            self.transport.send(
                Addr::Coordinator,
                Addr::Worker(rank as u32),
                frame::encode(&Message::Shutdown),
            )?;
        }
        self.pump_until(Executor::sequential(), |_, workers| {
            workers.iter().all(WorkerNode::is_shut_down)
        })
    }

    /// Encodes and sends every message in `out`, as `from`. Uses the
    /// fallible encoder: a body past the protocol ceiling surfaces as a
    /// typed [`saps_proto::ProtoError::Oversized`] instead of a silently
    /// wrapped length prefix.
    fn dispatch(&mut self, from: Addr, out: Outbox) -> Result<(), ClusterError> {
        for (to, msg) in out {
            self.transport.send(from, to, frame::try_encode(&msg)?)?;
        }
        Ok(())
    }

    /// Delivers queued frames to their nodes — worker inboxes fanned out
    /// across `exec` (the `saps-runtime` round engine), coordinator
    /// frames in arrival order — until `done` reports the awaited
    /// protocol state. Sweeps with no delivered frame count toward a
    /// stall limit (stream transports may have bytes in flight; the
    /// loopback transport never does).
    fn pump_until(
        &mut self,
        exec: Executor,
        done: impl Fn(&CoordinatorNode, &[WorkerNode]) -> bool,
    ) -> Result<(), ClusterError> {
        let mut idle_sweeps = 0u32;
        loop {
            if done(&self.coordinator, &self.workers) {
                return Ok(());
            }
            let mut progressed = false;

            // Worker-bound frames, decoded on this thread, handled in
            // parallel (results re-serialized in rank order so dispatch
            // order — and therefore every queue — is deterministic).
            let mut inboxes: BTreeMap<usize, Vec<(Addr, Message)>> = BTreeMap::new();
            for rank in 0..self.workers.len() {
                let at = Addr::Worker(rank as u32);
                while let Some((from, bytes)) = self.transport.recv(at)? {
                    if self.silenced(from) {
                        progressed = true;
                        continue;
                    }
                    inboxes
                        .entry(rank)
                        .or_default()
                        .push((from, decode_from(from, &bytes)?));
                }
            }
            if !inboxes.is_empty() {
                progressed = true;
                let items: Vec<(&mut WorkerNode, Vec<(Addr, Message)>)> = self
                    .workers
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(r, w)| inboxes.remove(&r).map(|inbox| (w, inbox)))
                    .collect();
                let results = exec.par_map(items, |_, (node, inbox)| {
                    let mut out = Outbox::new();
                    for (from, msg) in inbox {
                        node.handle(from, msg, &mut out)?;
                    }
                    Ok::<(Addr, Outbox), ClusterError>((Addr::Worker(node.rank()), out))
                });
                for result in results {
                    let (from, out) = result?;
                    self.dispatch(from, out)?;
                }
            }

            // Coordinator-bound frames, in arrival order (the node's
            // own bookkeeping is rank-ordered, so arrival order never
            // leaks into results).
            while let Some((from, bytes)) = self.transport.recv(Addr::Coordinator)? {
                progressed = true;
                if self.silenced(from) {
                    continue;
                }
                let msg = decode_from(from, &bytes)?;
                let mut out = Outbox::new();
                self.coordinator.handle(from, msg, &mut out)?;
                self.dispatch(Addr::Coordinator, out)?;
            }

            if progressed {
                idle_sweeps = 0;
            } else {
                idle_sweeps += 1;
                if idle_sweeps > self.stall_limit {
                    return Err(ClusterError::Protocol(STALL_MSG.into()));
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    /// Runs one round like [`Trainer::step`], but surfaces failures as a
    /// typed [`ClusterError`] instead of panicking — including the fatal
    /// [`ClusterError::Byzantine`] when quarantine is impossible (the
    /// fleet would drop below the control plane's minimum).
    pub fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, ClusterError> {
        self.run_round(ctx)
    }

    /// Whether frames from `from` are dropped on receipt: a quarantined
    /// worker no longer gets a say, whatever it keeps sending.
    fn silenced(&self, from: Addr) -> bool {
        matches!(from, Addr::Worker(r) if self.quarantined.contains(&r))
    }

    /// Runs one full protocol round, replaying it with the offender
    /// expelled whenever an attempt dies on byzantine traffic. Each
    /// recovery shrinks the active fleet by one, so the loop terminates:
    /// eventually the control plane refuses the leave and the fault
    /// surfaces as fatal.
    fn run_round(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, ClusterError> {
        if ctx.telemetry.is_enabled() {
            // Keep a handle so failure paths outside a round context
            // (churn-time resync, catch-up) reach the same recorder.
            self.telemetry = ctx.telemetry.clone();
        }
        loop {
            let snaps: Vec<NodeSnapshot> = self.workers.iter().map(WorkerNode::snapshot).collect();
            match self.round_attempt(ctx) {
                Ok(report) => return Ok(report),
                Err(ClusterError::Byzantine { rank, detail }) => {
                    // Flight-recorder contract: the quarantine event
                    // names the offender, then the dump freezes it
                    // together with the trail of preceding rounds.
                    self.telemetry.add("cluster.quarantines", 1);
                    self.telemetry.event(
                        "byzantine.quarantine",
                        Some(ctx.round() as u64),
                        vec![("rank", rank.into()), ("detail", detail.clone().into())],
                    );
                    self.telemetry.crash_dump("byzantine quarantine");
                    self.recover(rank, &detail, &snaps)?;
                }
                Err(e) => {
                    if matches!(&e, ClusterError::Protocol(msg) if msg == STALL_MSG) {
                        self.telemetry.add("cluster.stalls", 1);
                        self.telemetry.event(
                            "stall",
                            Some(ctx.round() as u64),
                            vec![("round", ctx.round().into()), ("detail", STALL_MSG.into())],
                        );
                        self.telemetry.crash_dump("stall");
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Byzantine recovery: roll every worker back to the round's start,
    /// abort the coordinator's half-open round, flush the aborted
    /// attempt's in-flight frames, and expel the offender through the
    /// normal churn path — so the rebuilt peer-selection state is
    /// exactly the one a graceful leave produces, and the replay is
    /// bit-identical to a run that never matched the offender.
    fn recover(
        &mut self,
        rank: u32,
        detail: &str,
        snaps: &[NodeSnapshot],
    ) -> Result<(), ClusterError> {
        for (node, snap) in self.workers.iter_mut().zip(snaps) {
            node.restore(snap);
        }
        self.coordinator.abort_round();
        self.drain_transport()?;
        let epoch = self.coordinator.control_epoch();
        self.transport.send(
            Addr::Worker(rank),
            Addr::Coordinator,
            frame::encode(&Message::Leave { rank }),
        )?;
        match self.pump_until(Executor::sequential(), |c, _| c.control_epoch() > epoch) {
            Ok(()) => {}
            // The control plane refused the leave (fleet at the
            // minimum): recovery is impossible, the fault is fatal.
            Err(ClusterError::Config(e)) => {
                return Err(ClusterError::Byzantine {
                    rank,
                    detail: format!("{detail}; quarantine refused: {e}"),
                })
            }
            Err(e) => return Err(e),
        }
        self.quarantined.insert(rank);
        Ok(())
    }

    /// Discards everything in flight — the aborted attempt's frames must
    /// not leak into the replay, where their stale round numbers would
    /// poison worker stashes. Stream transports may still have bytes on
    /// the wire, so a few idle sweeps must pass before the drain is
    /// trusted.
    fn drain_transport(&mut self) -> Result<(), ClusterError> {
        const DRAIN_IDLE_SWEEPS: u32 = 25;
        let mut idle = 0u32;
        while idle < DRAIN_IDLE_SWEEPS {
            let mut got = false;
            for rank in 0..self.workers.len() {
                while self.transport.recv(Addr::Worker(rank as u32))?.is_some() {
                    got = true;
                }
            }
            while self.transport.recv(Addr::Coordinator)?.is_some() {
                got = true;
            }
            if got {
                idle = 0;
            } else {
                idle += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        Ok(())
    }

    /// One attempt at a protocol round, reconciling the wire
    /// observations into the round context's accounting.
    fn round_attempt(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, ClusterError> {
        let mut out = Outbox::new();
        let meta: RoundMeta = self.coordinator.start_round(&mut out)?;
        // Discard transfers logged outside rounds (there are none — only
        // MaskedPayload frames are logged — but stay safe).
        self.tap.take_transfers();
        self.dispatch(Addr::Coordinator, out)?;
        self.pump_until(ctx.exec, |c, _| c.round_complete())?;
        let stats = self.coordinator.finish_round()?;
        let after = self.tap.snapshot();

        // Bill exactly what was framed. Worker rows get each payload's
        // values section (4·nnz — Table I's worker cost and bit-equal to
        // the in-memory accounting); the server row gets every other
        // byte this round put on the wire (control frames + envelopes).
        let by_dir: BTreeMap<(u32, u32), (u64, u64)> = self
            .tap
            .take_transfers()
            .into_iter()
            .map(|(s, d, frame_bytes, value_bytes)| ((s, d), (frame_bytes, value_bytes)))
            .collect();
        let mut priced = Vec::with_capacity(2 * meta.pairs.len());
        for &(ri, rj) in &meta.pairs {
            for (s, d) in [(ri, rj), (rj, ri)] {
                let &(frame_bytes, value_bytes) =
                    by_dir.get(&(s as u32, d as u32)).ok_or_else(|| {
                        ClusterError::Protocol(format!(
                            "no payload framed for matched direction {s} → {d}"
                        ))
                    })?;
                ctx.traffic.record_p2p(s, d, value_bytes);
                // Time is priced on the full frame: what the DES
                // simulates is what the wire carried.
                priced.push((s, d, frame_bytes));
            }
        }
        ctx.traffic
            .record_control(after.control_bytes - self.billed_control);
        self.billed_control = after.control_bytes;
        ctx.traffic.end_round();

        let timing = ctx.price_p2p(&priced);
        if ctx.telemetry.is_enabled() {
            // Unify the WireTap's per-plane byte counters into the
            // registry (cumulative across the tap's lifetime, same
            // invariant: total = data + control + model + serve).
            let tel = &ctx.telemetry;
            tel.add("cluster.rounds", 1);
            tel.set_gauge("wire.data_bytes", after.data_bytes as f64);
            tel.set_gauge("wire.control_bytes", after.control_bytes as f64);
            tel.set_gauge("wire.model_bytes", after.model_bytes as f64);
            tel.set_gauge("wire.serve_bytes", after.serve_bytes as f64);
            tel.set_gauge("wire.total_bytes", after.total_bytes as f64);
            tel.set_gauge("wire.frames", after.frames as f64);
            tel.event(
                "cluster.round",
                Some(ctx.round() as u64),
                vec![
                    ("pairs", meta.pairs.len().into()),
                    ("active", meta.ranks.len().into()),
                ],
            );
        }
        let mean_part = meta
            .ranks
            .iter()
            .map(|&r| self.workers[r].data_len())
            .sum::<usize>() as f64
            / meta.ranks.len().max(1) as f64;
        Ok(saps_round_report(
            &stats,
            &meta.pairs,
            ctx.bw,
            &timing,
            self.batch_size,
            mean_part,
        ))
    }
}

impl<T: Transport> Trainer for ClusterTrainer<T> {
    fn name(&self) -> &'static str {
        // The algorithm is SAPS-PSGD either way; in-memory and cluster
        // runs of the same spec produce directly comparable histories
        // (benchmark records key on the driver separately).
        "SAPS-PSGD"
    }

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        self.run_round(ctx)
            .unwrap_or_else(|e| panic!("cluster round failed: {e}"))
    }

    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        let avg = self
            .consensus_model()
            .unwrap_or_else(|e| panic!("model collection failed: {e}"));
        self.eval_model.set_flat_params(&avg);
        self.eval_model.evaluate(val, max_samples)
    }

    fn model_len(&self) -> usize {
        self.n_params
    }

    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn set_worker_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError> {
        if rank >= self.workers.len() {
            return Err(ConfigError::invalid(
                "ClusterTrainer",
                format!("worker rank {rank} out of range ({})", self.workers.len()),
            ));
        }
        let msg = if active {
            Message::Join { rank: rank as u32 }
        } else {
            Message::Leave { rank: rank as u32 }
        };
        let epoch = self.coordinator.control_epoch();
        self.transport
            .send(
                Addr::Worker(rank as u32),
                Addr::Coordinator,
                frame::encode(&msg),
            )
            .map_err(into_config)?;
        self.pump_until(Executor::sequential(), |c, _| c.control_epoch() > epoch)
            .map_err(into_config)
    }

    fn export_checkpoint(&mut self) -> Result<Vec<u8>, ConfigError> {
        // The consensus crosses the wire as real FetchModel/FinalModel
        // frames, then is re-encoded with the coordinator's round stamp.
        let params = self.consensus_model().map_err(into_config)?;
        Ok(checkpoint::encode(&params, self.coordinator.rounds_done()).to_vec())
    }

    fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        assert_eq!(bw.len(), self.workers.len());
        let msg = Message::BandwidthReport {
            n: bw.len() as u32,
            mbps: bw.as_slice().to_vec(),
        };
        let epoch = self.coordinator.control_epoch();
        // The report originates at the coordinator's own measurement
        // service; it still crosses the wire as a real frame.
        self.transport
            .send(Addr::Coordinator, Addr::Coordinator, frame::encode(&msg))
            .unwrap_or_else(|e| panic!("bandwidth report failed: {e}"));
        self.pump_until(Executor::sequential(), |c, _| c.control_epoch() > epoch)
            .unwrap_or_else(|e| panic!("bandwidth refresh failed: {e}"));
    }
}

/// Decodes a frame, attributing an undecodable frame from a worker to
/// that worker as byzantine traffic. The coordinator is part of the
/// driver and trusted, so its decode failures stay plain wire errors.
fn decode_from(from: Addr, bytes: &[u8]) -> Result<Message, ClusterError> {
    frame::decode(bytes).map_err(|e| match from {
        Addr::Worker(rank) => ClusterError::Byzantine {
            rank,
            detail: format!("undecodable frame: {e}"),
        },
        // The coordinator is trusted driver state, and serving-plane
        // addresses never reach the training pump.
        Addr::Coordinator | Addr::Replica(_) | Addr::Client(_) => ClusterError::Proto(e),
    })
}

/// Maps a cluster error back to the [`ConfigError`] the in-memory
/// trainer would have surfaced (churn below the minimum fleet, etc.).
fn into_config(e: ClusterError) -> ConfigError {
    match e {
        ClusterError::Config(c) => c,
        other => ConfigError::invalid("ClusterTrainer", other.to_string()),
    }
}

/// An [`AlgorithmRegistry`] covering every key the in-memory
/// [`saps_baselines::registry`] covers, each running over the loopback
/// transport metering through `tap`: `"saps"` as a [`ClusterTrainer`],
/// the seven baselines as the [`saps_baselines`] trainers over a
/// [`crate::Framed`] fabric (registered by the same
/// [`saps_baselines::register_baselines`] table). Hand it to
/// [`saps_core::Experiment::run`] to execute a whole experiment through
/// the wire protocol.
pub fn cluster_registry(tap: WireTap) -> AlgorithmRegistry {
    let mut reg = AlgorithmRegistry::empty();
    let fabric_tap = tap.clone();
    saps_baselines::register_baselines(&mut reg, move || {
        crate::Framed::loopback(fabric_tap.clone())
    });
    reg.register(
        "saps",
        move |spec: &AlgorithmSpec, ctx: saps_core::BuildCtx<'_>| {
            let AlgorithmSpec::Saps {
                compression,
                tthres,
                bthres,
            } = *spec
            else {
                return Err(ConfigError::UnknownAlgorithm(spec.key().to_string()));
            };
            let cfg = SapsConfig {
                workers: ctx.partitions.len(),
                compression,
                lr: ctx.lr,
                batch_size: ctx.batch_size,
                bthres,
                tthres,
                seed: ctx.seed,
                shard_size: None,
            };
            let factory = ctx.factory.clone();
            let trainer = ClusterTrainer::loopback(
                cfg,
                ctx.partitions,
                ctx.bw,
                move |rng| factory(rng),
                tap.clone(),
            )?;
            Ok(Box::new(trainer) as Box<dyn Trainer>)
        },
    );
    reg
}
