//! The framed exchange fabric: all eight algorithms on the wire.
//!
//! [`saps_core::SapsPsgd`] and the seven [`saps_baselines`] trainers are
//! each implemented once, generic over an [`Exchange`]. [`Framed`] is
//! the fabric that carries what they exchange as real serialized
//! [`saps_proto`] frames over a [`Transport`], metered by the
//! [`WireTap`]:
//!
//! | fabric call | frame(s) | used by |
//! |-------------|----------|---------|
//! | `send` / `recv` of [`Payload::Dense`] | [`Message::DensePayload`] | PSGD ring chunks, D-PSGD models, FedAvg / S-FedAvg downloads, FedAvg uploads |
//! | … of [`Payload::Sparse`] | [`Message::SparsePayload`] | TopK-PSGD allgather, DCD-PSGD diffs, S-FedAvg uploads |
//! | … of [`Payload::Masked`] | [`Message::MaskedPayload`] | SAPS-PSGD and RandomChoose pair exchange |
//! | … of [`Payload::Stats`] | [`Message::ClientStats`] (control) | the baselines' per-worker `f64` loss/accuracy sums |
//! | `announce` | [`Message::NotifyTrain`], one per active worker | SAPS-PSGD: Algorithm 1's round plan |
//! | `acknowledge` | [`Message::RoundEnd`], one per active worker | SAPS-PSGD: "ROUND END" with the `f32` batch statistics |
//! | `membership` | [`Message::Join`] / [`Message::Leave`], worker → coordinator | SAPS-PSGD churn (and quarantine expulsion) |
//! | `report_bandwidth` | [`Message::BandwidthReport`] | SAPS-PSGD's refreshed link speeds |
//! | `collect_model` | [`Message::FetchModel`] then [`Message::FinalModel`] (model plane) | SAPS-PSGD's consensus average: `evaluate`, `export_checkpoint` |
//! | `resync` | [`Message::ChunkRequest`] / [`Message::ChunkData`] (model plane) | a joiner's catch-up: PSGD, TopK-PSGD, `SapsPsgd::catch_up` |
//!
//! Nothing here knows which algorithm is running, and nothing here
//! computes: no SGD step, no mask, no merge. The fabric encodes, sends,
//! receives (stall-limited — the typed [`ClusterError::Stalled`], never
//! a hang), decodes, and rejects what the receiver did not ask for: a
//! frame for another round or of another kind is a
//! [`ClusterError::Protocol`]; a frame from a worker that fails to
//! decode, or a payload of a shape the trainer could not index, is that
//! worker's fault — [`ClusterError::Byzantine`], which
//! [`Exchange::blamed`] reads back so SAPS-PSGD can quarantine the
//! sender and replay. A receiver names the sender it wants; frames from
//! other senders (stream transports interleave them) wait in the
//! fabric. `send` returns the framed length, so the DES prices
//! envelopes too; every byte that is not payload values (control frames
//! plus all envelopes) is billed to the accountant's server row. A
//! rejoining worker catches up over the chunk plane
//! ([`crate::DownloadScheduler`]): verified chunk downloads fanned
//! across the in-sync peers it is offered, in the order it is offered
//! them — who may serve, and who is preferred, is decided above the
//! fabric ([`saps_core::Fleet::resync_joiner`]: reachable in the latest
//! bandwidth snapshot, fastest first).

use crate::chunks::{ChunkManifest, ChunkOutcome, DownloadScheduler, DEFAULT_CHUNK_BYTES};
use crate::error::ClusterError;
use crate::transport::{Addr, LoopbackTransport, Transport, WireTap};
use saps_core::{
    checkpoint, Ack, ConfigError, Exchange, Node, Notice, Payload, Recorder, RoundCtx, RoundReport,
    Shape,
};
use saps_netsim::BandwidthMatrix;
use saps_proto::{frame, Message};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Idle receive sweeps tolerated before a stall error (1 ms each).
const STALL_SWEEP_LIMIT: u32 = 5_000;

/// Idle sweeps (1 ms each) after which [`Exchange::discard_in_flight`]
/// trusts that nothing more is coming — stream transports may still
/// have an aborted attempt's bytes on the wire.
const DRAIN_IDLE_SWEEPS: u32 = 25;

/// What one joiner catch-up put on the wire — appended to
/// [`Framed::resync_log`] per resync.
#[derive(Debug, Clone)]
pub struct ResyncReport {
    /// The worker that caught up.
    pub rank: u32,
    /// The preferred donor (first of the peers offered; the peer whose
    /// checkpoint defined the manifest).
    pub donor: u32,
    /// Total framed bytes the resync moved (requests + replies,
    /// envelopes included).
    pub wire_bytes: u64,
    /// The checkpoint blob's size (the irreducible payload).
    pub blob_bytes: u64,
    /// Chunks fetched.
    pub chunks: u32,
    /// Distinct peers that served accepted data, ascending.
    pub sources: Vec<u32>,
    /// Chunk re-requests (rejections, drops, corruption).
    pub retries: u64,
}

/// An [`Exchange`] over a [`Transport`]: see the module docs.
pub struct Framed<T: Transport> {
    transport: T,
    tap: WireTap,
    stall_limit: u32,
    billed_control: u64,
    /// The round in progress; stamped on every frame sent and required
    /// of every frame received.
    round: u64,
    /// Decoded frames that reached `at` ahead of the sender being
    /// awaited there: `(at, from, message)`, in arrival order.
    early: Vec<(Addr, Addr, Message)>,
    /// Chunk size for joiner catch-up.
    chunk_size: u32,
    /// Monotone manifest epoch across resyncs.
    resync_epoch: u64,
    /// One report per completed resync, in order.
    resync_log: Vec<ResyncReport>,
    /// How many [`Self::resync_log`] entries have already been emitted
    /// as `"resync"` telemetry events — resyncs happen between rounds,
    /// so the next round's close drains the tail.
    resync_emitted: usize,
    /// Resync transfers `(src, dst, framed_bytes)` not yet priced into a
    /// round's timing — drained by the next round's close so the DES
    /// charges catch-up traffic like any other transfer.
    pending_resync: Vec<(usize, usize, u64)>,
    /// Telemetry recorder: disabled until a round's [`RoundCtx`]
    /// carries one, then kept so catch-ups between rounds report too.
    /// Recording never changes the arithmetic — bit-identity is pinned
    /// by `tests/telemetry.rs`.
    telemetry: Recorder,
    /// `FinalModel` frames dropped because no collection was waiting
    /// for them — see [`Framed::late_models`].
    late_models: u64,
}

impl Framed<LoopbackTransport> {
    /// A fabric over the in-process loopback transport.
    pub fn loopback(tap: WireTap) -> Self {
        Self::new(LoopbackTransport::new(tap.clone()), tap)
    }
}

impl<T: Transport> Framed<T> {
    /// A fabric over an arbitrary transport. `tap` must be the same tap
    /// the transport meters into — it is the ground truth control-plane
    /// bytes are billed from.
    pub fn new(transport: T, tap: WireTap) -> Self {
        let billed_control = tap.snapshot().control_bytes;
        Framed {
            transport,
            tap,
            stall_limit: STALL_SWEEP_LIMIT,
            billed_control,
            round: 0,
            early: Vec::new(),
            chunk_size: DEFAULT_CHUNK_BYTES,
            resync_epoch: 0,
            resync_log: Vec::new(),
            resync_emitted: 0,
            pending_resync: Vec::new(),
            telemetry: Recorder::disabled(),
            late_models: 0,
        }
    }

    /// Replaces the chunk size for joiner catch-up (default
    /// [`DEFAULT_CHUNK_BYTES`]). Tests shrink it so small models still
    /// split into enough chunks to fan across peers.
    pub fn with_chunk_size(mut self, bytes: u32) -> Self {
        assert!(bytes > 0, "chunk size must be positive");
        self.chunk_size = bytes;
        self
    }

    /// Lowers the stall tolerance (in 1 ms receive sweeps) — test hook.
    pub fn with_stall_limit(mut self, sweeps: u32) -> Self {
        self.stall_limit = sweeps;
        self
    }

    /// One report per completed joiner catch-up, in completion order.
    pub fn resync_log(&self) -> &[ResyncReport] {
        &self.resync_log
    }

    /// `FinalModel` frames that arrived with no collection waiting for
    /// them (a duplicate, or a reply racing its sender's own `Leave`).
    /// They are dropped and counted here — a typed warning, never an
    /// error that kills the run.
    pub fn late_models(&self) -> u64 {
        self.late_models
    }

    /// Sends [`Message::Shutdown`] to each of the `workers` and confirms
    /// every one of them received it — an orderly end of the experiment.
    pub fn shutdown(&mut self, workers: usize) -> Result<(), ClusterError> {
        for rank in 0..workers {
            self.send_frame(Addr::Coordinator, worker(rank), &Message::Shutdown)?;
        }
        for rank in 0..workers {
            match self.next_from(worker(rank), Addr::Coordinator)? {
                Message::Shutdown => {}
                other => return Err(unexpected("Shutdown", Addr::Coordinator, other.label())),
            }
        }
        Ok(())
    }

    /// Encodes `msg` (a body past the protocol ceiling is the typed
    /// [`saps_proto::ProtoError::Oversized`]), hands it to the
    /// transport (which records it on the tap), and returns the framed
    /// byte count.
    fn send_frame(&mut self, from: Addr, to: Addr, msg: &Message) -> Result<u64, ClusterError> {
        let bytes = frame::try_encode(msg)?;
        let framed = bytes.len() as u64;
        self.transport.send(from, to, bytes)?;
        Ok(framed)
    }

    /// Receives and decodes one frame at `at`, stalling out (typed
    /// error, never a hang) after `stall_limit` idle 1 ms sweeps. A
    /// frame from a worker that does not decode is that worker's fault;
    /// the coordinator is trusted, so its decode failures stay plain
    /// wire errors.
    fn recv_frame(&mut self, at: Addr) -> Result<(Addr, Message), ClusterError> {
        let mut idle = 0u32;
        loop {
            if let Some((from, bytes)) = self.transport.recv(at)? {
                let msg = frame::decode(&bytes).map_err(|e| match from {
                    Addr::Worker(rank) => ClusterError::Byzantine {
                        rank,
                        detail: format!("undecodable frame: {e}"),
                    },
                    _ => ClusterError::Proto(e),
                })?;
                return Ok((from, msg));
            }
            idle += 1;
            if idle > self.stall_limit {
                return Err(ClusterError::Stalled {
                    at,
                    round: self.round,
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The next frame `from` sent to `at`. Frames from other senders
    /// that arrive first wait for their own receive, so a receiver
    /// names its order and the arrival order cannot change it.
    fn take_from(&mut self, at: Addr, from: Addr) -> Result<Message, ClusterError> {
        let waiting = self
            .early
            .iter()
            .position(|(a, f, _)| (*a, *f) == (at, from));
        if let Some(pos) = waiting {
            return Ok(self.early.remove(pos).2);
        }
        loop {
            let (src, msg) = self.recv_frame(at)?;
            if src == from {
                return Ok(msg);
            }
            self.early.push((at, src, msg));
        }
    }

    /// [`Self::take_from`] for everything but a model collection: a
    /// `FinalModel` nobody is waiting for is dropped and counted.
    fn next_from(&mut self, at: Addr, from: Addr) -> Result<Message, ClusterError> {
        loop {
            match self.take_from(at, from)? {
                Message::FinalModel { .. } => self.late_models += 1,
                msg => return Ok(msg),
            }
        }
    }

    /// `Ok` when a received frame is stamped with the round in
    /// progress.
    fn in_round(&self, label: &str, from: Addr, round: u64) -> Result<(), ClusterError> {
        if round == self.round {
            return Ok(());
        }
        Err(ClusterError::Protocol(format!(
            "{label} from {from} for round {round} during round {}",
            self.round
        )))
    }

    /// The chunked catch-up: publish the preferred donor's (`peers[0]`)
    /// checkpoint as a manifest and fan the joiner's verified chunk
    /// downloads across every in-sync peer of `peers`, in the order
    /// given. Lost and corrupt frames are tolerated — the scheduler
    /// re-sources each failed chunk from the next peer until its attempt
    /// budget runs dry, at which point the typed
    /// [`ClusterError::ResyncFailed`] surfaces.
    fn download(
        &mut self,
        round: u64,
        rank: usize,
        peers: &[usize],
        flat_of: &dyn Fn(usize) -> Vec<f32>,
    ) -> Result<Vec<f32>, ClusterError> {
        let donor = *peers.first().ok_or_else(|| ClusterError::ResyncFailed {
            donor: rank as u32,
            rank: rank as u32,
            detail: "no peer was offered to resync from".into(),
        })?;
        let blob = checkpoint::encode(&flat_of(donor), round);
        let blob_bytes = blob.len() as u64;
        self.resync_epoch += 1;
        let manifest = ChunkManifest::build(self.resync_epoch, round, &blob, self.chunk_size);
        // Each peer proves it can serve by re-encoding its own state and
        // checking it against the manifest — computed lazily, once per
        // peer, on the first chunk request it sees.
        let mut peer_blobs: BTreeMap<usize, Option<Vec<u8>>> = BTreeMap::new();
        let mut dl =
            DownloadScheduler::new(manifest.clone(), peers.iter().map(|&p| p as u32).collect());
        let mut wire_bytes = 0u64;
        while !dl.is_complete() {
            if let Some(chunk) = dl.failed_chunk() {
                return Err(ClusterError::ResyncFailed {
                    donor: donor as u32,
                    rank: rank as u32,
                    detail: format!("chunk {chunk} exhausted every serving peer"),
                });
            }
            // Fan every requestable chunk onto the wire.
            let mut asked = Vec::new();
            while let Some((peer, req)) = dl.next_request() {
                let framed = self.send_frame(worker(rank), worker(peer as usize), &req)?;
                wire_bytes += framed;
                self.pending_resync.push((rank, peer as usize, framed));
                asked.push(peer as usize);
            }
            // Serve each asked peer's inbox: requests that decode are
            // answered (verified slice, or a NACK when the peer's state
            // diverged from the manifest); corrupted ones count as lost.
            for peer in asked {
                while let Some((_, bytes)) = self.transport.recv(worker(peer))? {
                    let Ok(Message::ChunkRequest { epoch, index }) = frame::decode(&bytes) else {
                        continue;
                    };
                    let served = peer_blobs.entry(peer).or_insert_with(|| {
                        let own = checkpoint::encode(&flat_of(peer), round);
                        manifest.matches(&own).then(|| own.to_vec())
                    });
                    let reply = served
                        .as_ref()
                        .filter(|_| epoch == manifest.epoch)
                        .and_then(|blob| manifest.chunk_reply(blob, index))
                        .unwrap_or(Message::ChunkData {
                            epoch,
                            index,
                            checksum: 0,
                            data: Vec::new(),
                        });
                    let framed = self.send_frame(worker(peer), worker(rank), &reply)?;
                    wire_bytes += framed;
                    self.pending_resync.push((peer, rank, framed));
                }
            }
            // Drain the joiner's inbox into the scheduler. Frames the
            // transport corrupted fail to decode and count as lost.
            let mut progressed = false;
            while let Some((from, bytes)) = self.transport.recv(worker(rank))? {
                let Ok(Message::ChunkData {
                    epoch,
                    index,
                    checksum,
                    data,
                }) = frame::decode(&bytes)
                else {
                    continue;
                };
                let Addr::Worker(from) = from else {
                    continue;
                };
                if dl.on_chunk(from, epoch, index, checksum, &data) != ChunkOutcome::Duplicate {
                    progressed = true;
                }
            }
            if !progressed {
                // Requests or replies vanished on the wire: re-request
                // everything outstanding (each retry rotates peers).
                dl.requeue_outstanding();
            }
        }
        let assembled = dl.assemble().expect("complete download assembles");
        debug_assert_eq!(assembled, blob.to_vec());
        let (flat, _) = checkpoint::decode(bytes::Bytes::from(assembled)).map_err(|e| {
            ClusterError::Protocol(format!("assembled resync checkpoint for {rank}: {e}"))
        })?;
        self.resync_log.push(ResyncReport {
            rank: rank as u32,
            donor: donor as u32,
            wire_bytes,
            blob_bytes,
            chunks: manifest.chunk_count(),
            sources: dl.sources().into_iter().collect(),
            retries: dl.retries(),
        });
        Ok(flat)
    }
}

fn worker(rank: usize) -> Addr {
    Addr::Worker(rank as u32)
}

fn addr(node: Node) -> Addr {
    match node {
        Node::Coordinator => Addr::Coordinator,
        Node::Worker(rank) => worker(rank),
    }
}

/// The protocol violation of receiving `got` from `from` where a
/// `want` frame was due.
fn unexpected(want: &str, from: Addr, got: &str) -> ClusterError {
    ClusterError::Protocol(format!("expected {want} from {from}, got {got}"))
}

/// The [`Payload`] ↔ [`Message`] mapping, sending side.
fn seal(round: u64, from: usize, payload: Payload) -> Message {
    match payload {
        Payload::Dense(values) => Message::DensePayload { round, values },
        Payload::Sparse { indices, values } => Message::SparsePayload {
            round,
            indices,
            values,
        },
        Payload::Masked(values) => Message::MaskedPayload { round, values },
        Payload::Stats { loss, acc } => Message::ClientStats {
            round,
            rank: from as u32,
            loss,
            acc,
        },
    }
}

/// The [`Payload`] ↔ [`Message`] mapping, receiving side: the frame's
/// round and payload, or `None` for a frame the baselines never
/// exchange (or a stats frame reporting for someone else).
fn open(msg: Message, from: Addr) -> Option<(u64, Payload)> {
    Some(match msg {
        Message::DensePayload { round, values } => (round, Payload::Dense(values)),
        Message::SparsePayload {
            round,
            indices,
            values,
        } => (round, Payload::Sparse { indices, values }),
        Message::MaskedPayload { round, values } => (round, Payload::Masked(values)),
        Message::ClientStats {
            round,
            rank,
            loss,
            acc,
        } if Addr::Worker(rank) == from => (round, Payload::Stats { loss, acc }),
        _ => return None,
    })
}

impl<T: Transport> Exchange for Framed<T> {
    type Error = ClusterError;

    fn begin_round(&mut self, round: u64, ctx: &RoundCtx<'_>) {
        if ctx.telemetry.is_enabled() {
            self.telemetry = ctx.telemetry.clone();
        }
        self.round = round;
        self.early.clear();
    }

    fn send(&mut self, from: usize, to: Node, payload: Payload) -> Result<u64, ClusterError> {
        let msg = seal(self.round, from, payload);
        self.send_frame(Addr::Worker(from as u32), addr(to), &msg)
    }

    fn recv(&mut self, at: Node, from: usize, want: Shape) -> Result<Payload, ClusterError> {
        let (at, sender) = (addr(at), worker(from));
        let msg = self.next_from(at, sender)?;
        let label = msg.label();
        let (round, payload) =
            open(msg, sender).ok_or_else(|| unexpected("an exchange payload", sender, label))?;
        self.in_round(label, sender, round)?;
        // The checksum passed, so this is what the sender framed: a
        // shape the receiver cannot index is provably its fault.
        want.check(&payload)
            .map_err(|why| ClusterError::Byzantine {
                rank: from as u32,
                detail: format!("{label} for round {round} at {at}: {why}"),
            })?;
        Ok(payload)
    }

    fn end_round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        stepped: Result<RoundReport, ClusterError>,
    ) -> Result<RoundReport, ClusterError> {
        let tel = self.telemetry.clone();
        let round = ctx.round() as u64;
        let mut rep = match stepped {
            Ok(rep) => rep,
            Err(e) => {
                if matches!(e, ClusterError::Stalled { .. }) {
                    tel.add("cluster.stalls", 1);
                    tel.event(
                        "stall",
                        Some(round),
                        vec![("round", round.into()), ("detail", e.to_string().into())],
                    );
                    tel.crash_dump("stall");
                }
                return Err(e);
            }
        };
        // Every not-yet-billed control-plane byte (control frames plus
        // all payload envelopes) goes to the server row.
        let control = self.tap.snapshot().control_bytes;
        ctx.traffic
            .record_control(control.saturating_sub(self.billed_control));
        self.billed_control = control;
        // Catch-up traffic since the last round is priced like any other
        // transfer: the DES charges the framed resync bytes over the
        // same links the round's payloads contend on.
        if !self.pending_resync.is_empty() {
            let resync = std::mem::take(&mut self.pending_resync);
            let t = ctx.price_p2p(&resync);
            rep.comm_time_s += t.transfer_s;
            rep.round_time_s += t.transfer_s;
        }
        if tel.is_enabled() {
            tel.add("cluster.rounds", 1);
            let w = self.tap.snapshot();
            tel.set_gauge("wire.data_bytes", w.data_bytes as f64);
            tel.set_gauge("wire.control_bytes", w.control_bytes as f64);
            tel.set_gauge("wire.model_bytes", w.model_bytes as f64);
            tel.set_gauge("wire.serve_bytes", w.serve_bytes as f64);
            tel.set_gauge("wire.total_bytes", w.total_bytes as f64);
            tel.set_gauge("wire.frames", w.frames as f64);
            tel.event(
                "cluster.round",
                Some(round),
                vec![
                    ("data_bytes", w.data_bytes.into()),
                    ("control_bytes", w.control_bytes.into()),
                    ("model_bytes", w.model_bytes.into()),
                ],
            );
            // Resyncs ran between rounds; surface the log's tail now
            // that their bytes are priced into this round's timing.
            for r in &self.resync_log[self.resync_emitted..] {
                tel.add("cluster.resyncs", 1);
                tel.event(
                    "resync",
                    Some(round),
                    vec![
                        ("rank", u64::from(r.rank).into()),
                        ("donor", u64::from(r.donor).into()),
                        ("wire_bytes", r.wire_bytes.into()),
                        ("blob_bytes", r.blob_bytes.into()),
                        ("chunks", u64::from(r.chunks).into()),
                        ("sources", (r.sources.len() as u64).into()),
                        ("retries", r.retries.into()),
                    ],
                );
            }
            self.resync_emitted = self.resync_log.len();
        }
        Ok(rep)
    }

    fn resync(
        &mut self,
        round: u64,
        joiner: usize,
        peers: &[usize],
        flat_of: &dyn Fn(usize) -> Vec<f32>,
    ) -> Result<Vec<f32>, ClusterError> {
        let res = self.download(round, joiner, peers, flat_of);
        if let (Err(e), true) = (&res, self.telemetry.is_enabled()) {
            self.telemetry.add("cluster.resync_failures", 1);
            let donor = match e {
                ClusterError::ResyncFailed { donor, .. } => u64::from(*donor),
                _ => joiner as u64,
            };
            self.telemetry.event(
                "resync.failed",
                Some(round),
                vec![
                    ("rank", (joiner as u64).into()),
                    ("donor", donor.into()),
                    ("detail", format!("{e}").into()),
                ],
            );
            self.telemetry.crash_dump("resync failed");
        }
        res
    }

    fn announce(
        &mut self,
        to: &[usize],
        notice: &Arc<Notice>,
    ) -> Result<Vec<Arc<Notice>>, ClusterError> {
        // One `NotifyTrain` per worker, the same for all: encoded once.
        let frame = frame::try_encode(&Message::NotifyTrain {
            round: notice.round,
            mask_seed: notice.mask_seed,
            matching: notice.pairs.clone(),
        })?;
        for &rank in to {
            self.transport
                .send(Addr::Coordinator, worker(rank), frame.clone())?;
        }
        to.iter()
            .map(
                |&rank| match self.next_from(worker(rank), Addr::Coordinator)? {
                    Message::NotifyTrain {
                        round,
                        mask_seed,
                        matching,
                    } => {
                        self.in_round("NotifyTrain", Addr::Coordinator, round)?;
                        Ok(Arc::new(Notice {
                            round,
                            mask_seed,
                            pairs: matching,
                        }))
                    }
                    other => Err(unexpected("NotifyTrain", Addr::Coordinator, other.label())),
                },
            )
            .collect()
    }

    fn acknowledge(&mut self, acks: Vec<Ack>) -> Result<Vec<Ack>, ClusterError> {
        for &(rank, (loss, acc)) in &acks {
            let msg = Message::RoundEnd {
                round: self.round,
                rank: rank as u32,
                loss,
                acc,
            };
            self.send_frame(worker(rank), Addr::Coordinator, &msg)?;
        }
        acks.iter()
            .map(|&(sender, _)| {
                let from = worker(sender);
                match self.next_from(Addr::Coordinator, from)? {
                    Message::RoundEnd {
                        round,
                        rank,
                        loss,
                        acc,
                    } if Addr::Worker(rank) == from => {
                        self.in_round("RoundEnd", from, round)?;
                        Ok((sender, (loss, acc)))
                    }
                    other => Err(unexpected("its RoundEnd", from, other.label())),
                }
            })
            .collect()
    }

    fn membership(&mut self, rank: usize, active: bool) -> Result<(usize, bool), ClusterError> {
        let from = worker(rank);
        let rank = rank as u32;
        let request = if active {
            Message::Join { rank }
        } else {
            Message::Leave { rank }
        };
        self.send_frame(from, Addr::Coordinator, &request)?;
        match self.next_from(Addr::Coordinator, from)? {
            Message::Join { rank } => Ok((rank as usize, true)),
            Message::Leave { rank } => Ok((rank as usize, false)),
            other => Err(unexpected("Join or Leave", from, other.label())),
        }
    }

    fn report_bandwidth<'a>(
        &mut self,
        bw: &'a BandwidthMatrix,
    ) -> Result<Cow<'a, BandwidthMatrix>, ClusterError> {
        // The report originates at the coordinator's own measurement
        // service; it still crosses the wire as a real frame.
        let report = Message::BandwidthReport {
            n: bw.len() as u32,
            mbps: bw.as_slice().to_vec(),
        };
        self.send_frame(Addr::Coordinator, Addr::Coordinator, &report)?;
        match self.next_from(Addr::Coordinator, Addr::Coordinator)? {
            Message::BandwidthReport { n, mbps } if n as usize == bw.len() => {
                Ok(Cow::Owned(BandwidthMatrix::from_raw(n as usize, &mbps)))
            }
            Message::BandwidthReport { n, .. } => Err(ClusterError::Protocol(format!(
                "bandwidth report covers {n} workers, fleet has {}",
                bw.len()
            ))),
            other => Err(unexpected(
                "BandwidthReport",
                Addr::Coordinator,
                other.label(),
            )),
        }
    }

    fn collect_model(
        &mut self,
        rank: usize,
        round: u64,
        flat: Vec<f32>,
    ) -> Result<Vec<f32>, ClusterError> {
        let holder = worker(rank);
        let rank = rank as u32;
        self.send_frame(Addr::Coordinator, holder, &Message::FetchModel { rank })?;
        match self.next_from(holder, Addr::Coordinator)? {
            Message::FetchModel { rank: asked } if asked == rank => {}
            other => {
                return Err(unexpected(
                    "its FetchModel",
                    Addr::Coordinator,
                    other.label(),
                ))
            }
        }
        // The reply nests the `core::checkpoint` format unchanged: a
        // collected model is byte for byte a valid checkpoint file.
        let reply = Message::FinalModel {
            rank,
            checkpoint: checkpoint::encode(&flat, round).to_vec(),
        };
        self.send_frame(holder, Addr::Coordinator, &reply)?;
        match self.take_from(Addr::Coordinator, holder)? {
            Message::FinalModel {
                rank: sender,
                checkpoint,
            } if sender == rank => checkpoint::decode(bytes::Bytes::from(checkpoint))
                .map(|(params, _)| params)
                .map_err(|e| ClusterError::Protocol(format!("model from rank {rank}: {e}"))),
            other => Err(unexpected("its FinalModel", holder, other.label())),
        }
    }

    fn blamed(&self, err: &ClusterError) -> Option<usize> {
        match err {
            ClusterError::Byzantine { rank, .. } => Some(*rank as usize),
            _ => None,
        }
    }

    fn discard_in_flight(&mut self, workers: usize) -> Result<(), ClusterError> {
        self.early.clear();
        let inboxes: Vec<Addr> = (0..workers)
            .map(worker)
            .chain([Addr::Coordinator])
            .collect();
        let mut idle = 0u32;
        while idle < DRAIN_IDLE_SWEEPS {
            let mut drained = false;
            for &at in &inboxes {
                while self.transport.recv(at)?.is_some() {
                    drained = true;
                }
            }
            if drained {
                idle = 0;
            } else {
                idle += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }

    fn refused(&self, err: ClusterError, why: &ConfigError) -> ClusterError {
        match err {
            ClusterError::Byzantine { rank, detail } => ClusterError::Byzantine {
                rank,
                detail: format!("{detail}; quarantine refused: {why}"),
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_netsim::TrafficAccountant;

    fn fabric() -> (Framed<LoopbackTransport>, WireTap) {
        let tap = WireTap::new();
        (Framed::loopback(tap.clone()), tap)
    }

    #[test]
    fn payloads_round_trip_and_send_reports_the_framed_length() {
        let (mut x, tap) = fabric();
        let sparse = Payload::Sparse {
            indices: vec![0, 5],
            values: vec![1.5, -2.5],
        };
        let sent = [
            (Payload::Dense(vec![0.25; 3]), Shape::Dense(3)),
            (sparse, Shape::Sparse { dim: 6 }),
            (Payload::Masked(vec![f32::MIN_POSITIVE]), Shape::Masked(1)),
        ];
        let mut framed = 0;
        for (payload, _) in &sent {
            let bytes = x.send(1, Node::Worker(2), payload.clone()).unwrap();
            assert!(bytes > payload.value_bytes(), "the envelope is on the link");
            framed += bytes;
        }
        let stats = Payload::Stats {
            loss: 0.1,
            acc: 0.9,
        };
        framed += x.send(1, Node::Coordinator, stats.clone()).unwrap();
        assert_eq!(tap.snapshot().total_bytes, framed);
        for (payload, shape) in sent {
            assert_eq!(x.recv(Node::Worker(2), 1, shape).unwrap(), payload);
        }
        assert_eq!(x.recv(Node::Coordinator, 1, Shape::Stats).unwrap(), stats);
    }

    #[test]
    fn a_receiver_names_its_sender_whatever_arrived_first() {
        let (mut x, _) = fabric();
        for from in [3, 1, 2] {
            x.send(from, Node::Worker(0), Payload::Dense(vec![from as f32]))
                .unwrap();
        }
        for from in [1, 2, 3] {
            let got = x.recv_dense(Node::Worker(0), from, 1).unwrap();
            assert_eq!(got, vec![from as f32]);
        }
    }

    #[test]
    fn unrequested_frames_are_typed_protocol_errors() {
        let (mut x, _) = fabric();
        let protocol = |r: Result<Payload, ClusterError>| match r {
            Err(ClusterError::Protocol(msg)) => msg,
            other => panic!("expected a protocol error, got {other:?}"),
        };
        // A well-formed frame of the wrong shape is its sender's fault.
        let blamed_on_1 = |r: Result<Payload, ClusterError>| match r {
            Err(ClusterError::Byzantine { rank: 1, detail }) => detail,
            other => panic!("expected worker 1 to be blamed, got {other:?}"),
        };
        // Wrong shape: two values where three were expected.
        x.send(1, Node::Worker(0), Payload::Dense(vec![0.0; 2]))
            .unwrap();
        let msg = blamed_on_1(x.recv(Node::Worker(0), 1, Shape::Dense(3)));
        assert!(msg.contains("expected Dense(3)"), "{msg}");
        // An index the receiver could not address.
        let wild = Payload::Sparse {
            indices: vec![9],
            values: vec![1.0],
        };
        x.send(1, Node::Worker(0), wild).unwrap();
        let msg = blamed_on_1(x.recv(Node::Worker(0), 1, Shape::Sparse { dim: 4 }));
        assert!(msg.contains("strictly ascending selection of 4"), "{msg}");
        // A frame stamped with another round.
        let stale = frame::encode(&Message::DensePayload {
            round: 7,
            values: vec![0.0],
        });
        x.transport
            .send(Addr::Worker(1), Addr::Worker(0), stale)
            .unwrap();
        let msg = protocol(x.recv(Node::Worker(0), 1, Shape::Dense(1)));
        assert!(msg.contains("for round 7 during round 0"), "{msg}");
        // A frame no trainer receives as a payload.
        let join = frame::encode(&Message::Join { rank: 1 });
        x.transport
            .send(Addr::Worker(1), Addr::Worker(0), join)
            .unwrap();
        let msg = protocol(x.recv(Node::Worker(0), 1, Shape::Dense(1)));
        assert!(msg.contains("got Join"), "{msg}");
    }

    #[test]
    fn closing_a_round_bills_exactly_the_unbilled_control_bytes() {
        let (mut x, tap) = fabric();
        let bw = BandwidthMatrix::constant(2, 1.0);
        let mut traffic = TrafficAccountant::new(2);
        for round in 0..2u64 {
            let mut ctx = RoundCtx::new(round as usize, &bw, &mut traffic, 0);
            x.begin_round(round, &ctx);
            x.send(0, Node::Worker(1), Payload::Dense(vec![0.0; 4]))
                .unwrap();
            x.recv_dense(Node::Worker(1), 0, 4).unwrap();
            x.end_round(&mut ctx, Ok(RoundReport::new())).unwrap();
            ctx.traffic.end_round();
        }
        let wire = tap.snapshot();
        assert_eq!(wire.data_bytes, 2 * 16);
        assert_eq!(traffic.server_total(), wire.control_bytes);
        assert_eq!(
            traffic.rounds()[0].server_bytes,
            traffic.rounds()[1].server_bytes
        );
    }

    #[test]
    fn final_model_racing_a_leave_is_dropped_not_fatal() {
        let (mut x, _) = fabric();
        // Rank 2's model reply lands at the coordinator with no
        // collection waiting for it (it raced the sender's own Leave):
        // the next thing the coordinator awaits from rank 2 still
        // arrives, and the stray is dropped with the typed counter, not
        // an error that kills the run.
        let stray = frame::encode(&Message::FinalModel {
            rank: 2,
            checkpoint: vec![1, 2, 3],
        });
        x.transport
            .send(Addr::Worker(2), Addr::Coordinator, stray)
            .unwrap();
        assert_eq!(x.membership(2, false).unwrap(), (2, false));
        assert_eq!(x.late_models(), 1);
    }

    #[test]
    fn solicited_final_model_is_still_collected() {
        let (mut x, tap) = fabric();
        let flat = vec![0.5f32, -1.25, f32::MIN_POSITIVE];
        for rank in [0usize, 1] {
            assert_eq!(x.collect_model(rank, 9, flat.clone()).unwrap(), flat);
        }
        assert_eq!(x.late_models(), 0);
        // Two FetchModel + two FinalModel frames, all on the model plane.
        let wire = tap.snapshot();
        assert_eq!(wire.frames, 4);
        assert_eq!(wire.model_bytes, wire.total_bytes);
    }

    #[test]
    fn saps_control_values_arrive_as_sent_in_todays_frames() {
        let (mut x, tap) = fabric();
        let notice = Arc::new(Notice {
            round: 0,
            mask_seed: 0xDEAD_BEEF,
            pairs: vec![(0, 3), (1, 2)],
        });
        let heard = x.announce(&[0, 1, 2, 3], &notice).unwrap();
        assert!(heard.iter().all(|h| **h == *notice));
        let acks = vec![(0, (0.25f32, 1.0f32)), (3, (f32::MIN_POSITIVE, 0.0))];
        assert_eq!(x.acknowledge(acks.clone()).unwrap(), acks);
        assert_eq!(x.membership(3, true).unwrap(), (3, true));
        let mut bw = BandwidthMatrix::constant(4, 10.0);
        bw.set(1, 2, 0.1 + 0.2);
        let reported = x.report_bandwidth(&bw).unwrap();
        assert_eq!(reported.as_slice(), bw.as_slice());
        // 4 NotifyTrain + 2 RoundEnd + 1 Join + 1 BandwidthReport, all
        // control plane.
        let wire = tap.snapshot();
        assert_eq!(wire.frames, 8);
        assert_eq!(wire.control_bytes, wire.total_bytes);
        let notify = frame::encoded_len(&Message::NotifyTrain {
            round: 0,
            mask_seed: 0,
            matching: vec![(0, 0); 2],
        });
        let round_end = frame::encoded_len(&Message::RoundEnd {
            round: 0,
            rank: 0,
            loss: 0.0,
            acc: 0.0,
        });
        let join = frame::encoded_len(&Message::Join { rank: 3 });
        let report = frame::encoded_len(&Message::BandwidthReport {
            n: 4,
            mbps: vec![0.0; 16],
        });
        assert_eq!(
            wire.total_bytes as usize,
            4 * notify + 2 * round_end + join + report
        );
        // An acknowledgement stamped with another round is a protocol
        // error, whoever is blamed for nothing.
        let stale = frame::encode(&Message::RoundEnd {
            round: 5,
            rank: 1,
            loss: 0.0,
            acc: 0.0,
        });
        x.transport
            .send(Addr::Worker(1), Addr::Coordinator, stale)
            .unwrap();
        let err = x.acknowledge(vec![(1, (0.0, 0.0))]).unwrap_err();
        assert!(err.to_string().contains("for round 5 during round 0"));
        assert_eq!(x.blamed(&err), None);
    }

    #[test]
    fn resync_serves_from_the_peers_offered_in_the_order_offered() {
        let mut x = fabric().0.with_chunk_size(8);
        // Every peer holds the same model, so all of them serve; the
        // first one offered — not the lowest rank — defines the manifest.
        let flat: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let got = x.resync(4, 0, &[2, 3, 1], &|_| flat.clone()).unwrap();
        assert_eq!(got, flat);
        let rep = x.resync_log().last().unwrap();
        assert_eq!((rep.rank, rep.donor), (0, 2));
        assert_eq!(rep.sources, vec![1, 2, 3]);
        // Nobody offered: a typed failure, not an index panic.
        let err = x
            .resync(4, 0, &[], &|_| flat.clone())
            .expect_err("no peer was offered");
        assert!(matches!(err, ClusterError::ResyncFailed { rank: 0, .. }));
    }
}
