//! The round-lifecycle message set.

use crate::ProtoError;
use bytes::{Buf, BufMut, BytesMut};

/// Which Table I row a message's bytes are billed to.
///
/// The paper's accounting splits traffic into the worker row (model
/// payload bytes moved between peers) and the server row (everything the
/// lightweight coordinator touches). Evaluation-time model collection is
/// kept in a class of its own so instrumentation reads don't pollute
/// either row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Peer-to-peer model payload — the worker-row cost (`4·nnz` per
    /// values-only payload).
    DataPlane,
    /// Coordinator control traffic (round plans, round-end notices,
    /// churn, bandwidth reports) plus all framing overhead — the
    /// server-row cost.
    ControlPlane,
    /// Model distribution: full-model collection (`FetchModel` /
    /// `FinalModel`) — Table I's one-final-model server cost and the
    /// evaluation instrumentation path — plus the chunked catch-up
    /// frames (`ChunkRequest` / `ChunkData`).
    ModelPlane,
    /// Inference traffic (`InferRequest` / `InferResponse`) — the
    /// serving plane added by `saps-serve`. Kept out of the control row
    /// so the trainer's per-round control billing is unaffected by
    /// co-located serving load.
    ServePlane,
}

/// One protocol message: the whole SAPS-PSGD round lifecycle.
///
/// The variants mirror the paper's Algorithms 1–2 line by line:
/// [`Message::NotifyTrain`] is Algorithm 1's
/// `NotifyWorkerToTrain(W_t, t, s)` broadcast, [`Message::MaskedPayload`]
/// the masked-value exchange of Algorithm 2 lines 7–9,
/// [`Message::RoundEnd`] the "ROUND END" notification, and
/// [`Message::FetchModel`] / [`Message::FinalModel`] the final model
/// collection (Algorithm 1 line 8) carrying a `saps_core::checkpoint`
/// blob. [`Message::Join`] / [`Message::Leave`] /
/// [`Message::BandwidthReport`] are the control frames behind worker
/// churn and the "regularly reported" bandwidth measurements.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Coordinator → every active worker: start round `round`.
    NotifyTrain {
        /// The round counter `t`.
        round: u64,
        /// The shared seed `s` every worker derives the mask from.
        mask_seed: u64,
        /// The matching `W_t` as global-rank pairs; a worker not present
        /// in any pair trains but does not exchange this round.
        matching: Vec<(u32, u32)>,
    },
    /// Worker → matched peer: the values-only sparse payload
    /// `x̃ = x ∘ m_t` (indices are implied by the shared mask seed).
    MaskedPayload {
        /// The round the payload belongs to.
        round: u64,
        /// The model's values at the mask's surviving indices, in index
        /// order. On the wire this section is exactly `4·nnz` bytes —
        /// the Table I worker-row cost.
        values: Vec<f32>,
    },
    /// Worker → coordinator: "ROUND END", with the round's local
    /// training statistics piggy-backed so the coordinator can assemble
    /// the round report.
    RoundEnd {
        /// The round being acknowledged.
        round: u64,
        /// The sender's global rank.
        rank: u32,
        /// Training loss on this round's local batch.
        loss: f32,
        /// Training accuracy on this round's local batch.
        acc: f32,
    },
    /// Coordinator → worker: send back your full model.
    FetchModel {
        /// Global rank of the addressed worker.
        rank: u32,
    },
    /// Worker → coordinator: the full model as a
    /// `saps_core::checkpoint`-encoded blob (magic, version, round,
    /// params, checksum — the existing checkpoint wire format, nested
    /// intact inside this frame).
    FinalModel {
        /// The sender's global rank.
        rank: u32,
        /// The checkpoint-encoded model.
        checkpoint: Vec<u8>,
    },
    /// Control: worker `rank` (re-)joins the fleet
    /// (`ScenarioEvent::WorkerJoin`).
    Join {
        /// Global rank of the joining worker.
        rank: u32,
    },
    /// Control: worker `rank` leaves the fleet
    /// (`ScenarioEvent::WorkerLeave`).
    Leave {
        /// Global rank of the leaving worker.
        rank: u32,
    },
    /// Control: refreshed pairwise bandwidth measurements (row-major
    /// `n × n` MB/s), the paper's "regularly reported" speeds.
    BandwidthReport {
        /// Fleet size `n`.
        n: u32,
        /// Row-major `n²` link speeds in MB/s.
        mbps: Vec<f64>,
    },
    /// Control: orderly end of the experiment.
    Shutdown,
    /// Client → replica: run the model forward on one feature row.
    InferRequest {
        /// Client-chosen correlation id echoed back in the response.
        id: u64,
        /// The flattened input features (row-major, model input shape).
        features: Vec<f32>,
    },
    /// Replica → client: the model's output for [`Message::InferRequest`]
    /// `id`, tagged with the exact model the forward pass used.
    InferResponse {
        /// The correlation id from the request.
        id: u64,
        /// Training round the serving model's checkpoint was exported at.
        model_round: u64,
        /// The replica's monotone swap counter: bumped once per
        /// successfully installed [`Message::ModelAnnounce`]. Per replica
        /// these tags are non-decreasing across responses — the hot-swap
        /// contract (`docs/SERVING.md`).
        model_version: u64,
        /// The model's output logits for the request's features.
        logits: Vec<f32>,
    },
    /// Trainer → every replica: a fresh consensus checkpoint landed.
    ///
    /// The body nests a `saps_core::checkpoint` blob intact (magic,
    /// version, round, params, checksum), so a replica validates the
    /// checkpoint's own checksum *before* swapping — a torn or corrupted
    /// announce leaves the old model serving.
    ModelAnnounce {
        /// Training round the checkpoint was exported at.
        round: u64,
        /// The announce sequence number; replicas adopt it as their
        /// `model_version` on a successful swap.
        version: u64,
        /// The checkpoint-encoded consensus model.
        checkpoint: Vec<u8>,
    },
    /// A dense model (or model chunk) payload — the data frame of the
    /// dense baselines: D-PSGD ring broadcasts, PSGD ring all-reduce
    /// chunks, and FedAvg-style server↔client model shipping. On the
    /// wire the values section is exactly `4·len` bytes, matching
    /// `saps_compress::codec::dense_bytes`.
    DensePayload {
        /// The round the payload belongs to.
        round: u64,
        /// The dense parameter (or gradient-chunk) values.
        values: Vec<f32>,
    },
    /// An explicit `(index, value)` sparse payload — the data frame of
    /// the sparse baselines that do *not* share a mask seed (TopK-PSGD
    /// allgather, DCD-PSGD difference broadcasts, S-FedAvg uploads). On
    /// the wire the data section is exactly `8·nnz` bytes (4 per index +
    /// 4 per value), matching
    /// `saps_compress::codec::sparse_iv_bytes`.
    SparsePayload {
        /// The round the payload belongs to.
        round: u64,
        /// The surviving coordinate indices, ascending.
        indices: Vec<u32>,
        /// The values at `indices`, in the same order.
        values: Vec<f32>,
    },
    /// Worker → coordinator: one participant's per-round training
    /// statistics as *f64 sums* (FedAvg-style multi-step locals sum
    /// several f32 step losses in f64 — the wire must carry those sums
    /// bit-exactly for cluster ≡ in-memory conformance).
    ClientStats {
        /// The round being reported.
        round: u64,
        /// The sender's global rank.
        rank: u32,
        /// Summed training loss over the round's local steps.
        loss: f64,
        /// Summed training accuracy over the round's local steps.
        acc: f64,
    },
    /// Joiner → peer: send me chunk `index` of checkpoint epoch `epoch`.
    ///
    /// Part of the chunked model-distribution plane: instead of one
    /// monolithic [`Message::FinalModel`] frame, a catching-up joiner
    /// fans fixed-size chunk requests across several peers at once (see
    /// `docs/PROTOCOL.md` § chunked distribution).
    ChunkRequest {
        /// The checkpoint epoch being fetched (from the manifest).
        epoch: u64,
        /// Zero-based chunk index into the manifest's chunk table.
        index: u32,
    },
    /// Peer → joiner: one verified slice of the epoch checkpoint.
    ///
    /// An empty `data` with `checksum == 0` is a NACK — the peer cannot
    /// serve that epoch (it has no matching blob cached); the requester's
    /// scheduler re-sources the chunk from another peer.
    ChunkData {
        /// The checkpoint epoch the chunk belongs to.
        epoch: u64,
        /// Zero-based chunk index.
        index: u32,
        /// FNV-1a 64 of `data` — must match the manifest's entry for
        /// `index`; a mismatch means corruption (or a lying peer) and the
        /// chunk is re-fetched elsewhere.
        checksum: u64,
        /// The raw checkpoint bytes of this chunk. Every chunk is exactly
        /// `chunk_size` bytes except the last, which carries the
        /// remainder.
        data: Vec<u8>,
    },
}

pub(crate) const TAG_NOTIFY_TRAIN: u8 = 1;
pub(crate) const TAG_MASKED_PAYLOAD: u8 = 2;
pub(crate) const TAG_ROUND_END: u8 = 3;
pub(crate) const TAG_FETCH_MODEL: u8 = 4;
pub(crate) const TAG_FINAL_MODEL: u8 = 5;
pub(crate) const TAG_JOIN: u8 = 6;
pub(crate) const TAG_LEAVE: u8 = 7;
pub(crate) const TAG_BANDWIDTH_REPORT: u8 = 8;
pub(crate) const TAG_SHUTDOWN: u8 = 9;
pub(crate) const TAG_INFER_REQUEST: u8 = 10;
pub(crate) const TAG_INFER_RESPONSE: u8 = 11;
pub(crate) const TAG_MODEL_ANNOUNCE: u8 = 12;
pub(crate) const TAG_DENSE_PAYLOAD: u8 = 13;
pub(crate) const TAG_SPARSE_PAYLOAD: u8 = 14;
pub(crate) const TAG_CLIENT_STATS: u8 = 15;
pub(crate) const TAG_CHUNK_REQUEST: u8 = 16;
pub(crate) const TAG_CHUNK_DATA: u8 = 17;
// Tag 18 is retired (it was `ManifestAnnounce`, the chunk-manifest
// broadcast) and must never be reused: it decodes to
// `ProtoError::UnknownTag` like any other unassigned tag.

/// Every data-plane payload frame ([`Message::MaskedPayload`],
/// [`Message::DensePayload`], [`Message::SparsePayload`]) starts its
/// body with the same 12-byte header — round (`u64`) + element count
/// (`u32`) — followed by nothing but the data section. Transports meter
/// the worker-row bytes of any data frame as `body_len −
/// DATA_HEADER_BYTES` without decoding the body (see
/// [`Message::data_section_of`]).
pub const DATA_HEADER_BYTES: usize = 12;

impl Message {
    /// The one-byte wire tag identifying this message type.
    pub fn tag(&self) -> u8 {
        match self {
            Message::NotifyTrain { .. } => TAG_NOTIFY_TRAIN,
            Message::MaskedPayload { .. } => TAG_MASKED_PAYLOAD,
            Message::RoundEnd { .. } => TAG_ROUND_END,
            Message::FetchModel { .. } => TAG_FETCH_MODEL,
            Message::FinalModel { .. } => TAG_FINAL_MODEL,
            Message::Join { .. } => TAG_JOIN,
            Message::Leave { .. } => TAG_LEAVE,
            Message::BandwidthReport { .. } => TAG_BANDWIDTH_REPORT,
            Message::Shutdown => TAG_SHUTDOWN,
            Message::InferRequest { .. } => TAG_INFER_REQUEST,
            Message::InferResponse { .. } => TAG_INFER_RESPONSE,
            Message::ModelAnnounce { .. } => TAG_MODEL_ANNOUNCE,
            Message::DensePayload { .. } => TAG_DENSE_PAYLOAD,
            Message::SparsePayload { .. } => TAG_SPARSE_PAYLOAD,
            Message::ClientStats { .. } => TAG_CLIENT_STATS,
            Message::ChunkRequest { .. } => TAG_CHUNK_REQUEST,
            Message::ChunkData { .. } => TAG_CHUNK_DATA,
        }
    }

    /// A short human-readable name (logging, protocol docs).
    pub fn label(&self) -> &'static str {
        match self {
            Message::NotifyTrain { .. } => "NotifyTrain",
            Message::MaskedPayload { .. } => "MaskedPayload",
            Message::RoundEnd { .. } => "RoundEnd",
            Message::FetchModel { .. } => "FetchModel",
            Message::FinalModel { .. } => "FinalModel",
            Message::Join { .. } => "Join",
            Message::Leave { .. } => "Leave",
            Message::BandwidthReport { .. } => "BandwidthReport",
            Message::Shutdown => "Shutdown",
            Message::InferRequest { .. } => "InferRequest",
            Message::InferResponse { .. } => "InferResponse",
            Message::ModelAnnounce { .. } => "ModelAnnounce",
            Message::DensePayload { .. } => "DensePayload",
            Message::SparsePayload { .. } => "SparsePayload",
            Message::ClientStats { .. } => "ClientStats",
            Message::ChunkRequest { .. } => "ChunkRequest",
            Message::ChunkData { .. } => "ChunkData",
        }
    }

    /// Which Table I row a message type is billed to, keyed by wire tag
    /// (`None` for an unknown tag), for transports that meter frames
    /// without fully decoding them.
    pub fn traffic_class_of(tag: u8) -> Option<TrafficClass> {
        match tag {
            TAG_MASKED_PAYLOAD | TAG_DENSE_PAYLOAD | TAG_SPARSE_PAYLOAD => {
                Some(TrafficClass::DataPlane)
            }
            TAG_FETCH_MODEL | TAG_FINAL_MODEL | TAG_MODEL_ANNOUNCE | TAG_CHUNK_REQUEST
            | TAG_CHUNK_DATA => Some(TrafficClass::ModelPlane),
            TAG_NOTIFY_TRAIN | TAG_ROUND_END | TAG_JOIN | TAG_LEAVE | TAG_BANDWIDTH_REPORT
            | TAG_SHUTDOWN | TAG_CLIENT_STATS => Some(TrafficClass::ControlPlane),
            TAG_INFER_REQUEST | TAG_INFER_RESPONSE => Some(TrafficClass::ServePlane),
            _ => None,
        }
    }

    /// The data-plane (worker-row) bytes of this message: `4·nnz` for a
    /// [`Message::MaskedPayload`] (values only — exactly
    /// `saps_compress::codec::sparse_shared_mask_bytes(nnz)`), `4·len`
    /// for a [`Message::DensePayload`], `8·nnz` for a
    /// [`Message::SparsePayload`] (index + value), and 0 for everything
    /// else. The rest of the frame (envelope, round header, whole
    /// control messages) is control plane.
    pub fn data_bytes(&self) -> u64 {
        match self {
            Message::MaskedPayload { values, .. } | Message::DensePayload { values, .. } => {
                4 * values.len() as u64
            }
            Message::SparsePayload {
                indices, values, ..
            } => 4 * (indices.len() + values.len()) as u64,
            _ => 0,
        }
    }

    /// [`Message::data_bytes`] keyed by wire tag and body length, for
    /// transports that meter frames without decoding them. Every
    /// data-plane frame's body is a [`DATA_HEADER_BYTES`] header (round
    /// plus element count) followed by nothing but the data section, so
    /// the data-plane bytes of any payload frame are `body_len − 12`;
    /// frames of any other class have no data section.
    pub fn data_section_of(tag: u8, body_len: usize) -> u64 {
        match Self::traffic_class_of(tag) {
            Some(TrafficClass::DataPlane) => body_len.saturating_sub(DATA_HEADER_BYTES) as u64,
            _ => 0,
        }
    }

    /// The body length in bytes (excluding the frame envelope).
    pub(crate) fn body_len(&self) -> usize {
        match self {
            Message::NotifyTrain { matching, .. } => 8 + 8 + 4 + 8 * matching.len(),
            Message::MaskedPayload { values, .. } => 8 + 4 + 4 * values.len(),
            Message::RoundEnd { .. } => 8 + 4 + 4 + 4,
            Message::FetchModel { .. } => 4,
            Message::FinalModel { checkpoint, .. } => 4 + 4 + checkpoint.len(),
            Message::Join { .. } | Message::Leave { .. } => 4,
            Message::BandwidthReport { mbps, .. } => 4 + 8 * mbps.len(),
            Message::Shutdown => 0,
            Message::InferRequest { features, .. } => 8 + 4 + 4 * features.len(),
            Message::InferResponse { logits, .. } => 8 + 8 + 8 + 4 + 4 * logits.len(),
            Message::ModelAnnounce { checkpoint, .. } => 8 + 8 + 4 + checkpoint.len(),
            Message::DensePayload { values, .. } => 8 + 4 + 4 * values.len(),
            Message::SparsePayload {
                indices, values, ..
            } => 8 + 4 + 4 * indices.len() + 4 * values.len(),
            Message::ClientStats { .. } => 8 + 4 + 8 + 8,
            Message::ChunkRequest { .. } => 8 + 4,
            Message::ChunkData { data, .. } => 8 + 4 + 8 + 4 + data.len(),
        }
    }

    /// Appends the body encoding to `buf`.
    pub(crate) fn encode_body(&self, buf: &mut BytesMut) {
        match self {
            Message::NotifyTrain {
                round,
                mask_seed,
                matching,
            } => {
                buf.put_u64_le(*round);
                buf.put_u64_le(*mask_seed);
                buf.put_u32_le(matching.len() as u32);
                for &(a, b) in matching {
                    buf.put_u32_le(a);
                    buf.put_u32_le(b);
                }
            }
            Message::MaskedPayload { round, values } => {
                buf.put_u64_le(*round);
                buf.put_u32_le(values.len() as u32);
                for &v in values {
                    buf.put_f32_le(v);
                }
            }
            Message::RoundEnd {
                round,
                rank,
                loss,
                acc,
            } => {
                buf.put_u64_le(*round);
                buf.put_u32_le(*rank);
                buf.put_f32_le(*loss);
                buf.put_f32_le(*acc);
            }
            Message::FetchModel { rank } => buf.put_u32_le(*rank),
            Message::FinalModel { rank, checkpoint } => {
                buf.put_u32_le(*rank);
                buf.put_u32_le(checkpoint.len() as u32);
                buf.put_slice(checkpoint);
            }
            Message::Join { rank } | Message::Leave { rank } => buf.put_u32_le(*rank),
            Message::BandwidthReport { n, mbps } => {
                buf.put_u32_le(*n);
                for &v in mbps {
                    buf.put_f64_le(v);
                }
            }
            Message::Shutdown => {}
            Message::InferRequest { id, features } => {
                buf.put_u64_le(*id);
                buf.put_u32_le(features.len() as u32);
                for &v in features {
                    buf.put_f32_le(v);
                }
            }
            Message::InferResponse {
                id,
                model_round,
                model_version,
                logits,
            } => {
                buf.put_u64_le(*id);
                buf.put_u64_le(*model_round);
                buf.put_u64_le(*model_version);
                buf.put_u32_le(logits.len() as u32);
                for &v in logits {
                    buf.put_f32_le(v);
                }
            }
            Message::ModelAnnounce {
                round,
                version,
                checkpoint,
            } => {
                buf.put_u64_le(*round);
                buf.put_u64_le(*version);
                buf.put_u32_le(checkpoint.len() as u32);
                buf.put_slice(checkpoint);
            }
            Message::DensePayload { round, values } => {
                buf.put_u64_le(*round);
                buf.put_u32_le(values.len() as u32);
                for &v in values {
                    buf.put_f32_le(v);
                }
            }
            Message::SparsePayload {
                round,
                indices,
                values,
            } => {
                buf.put_u64_le(*round);
                buf.put_u32_le(indices.len() as u32);
                for &i in indices {
                    buf.put_u32_le(i);
                }
                for &v in values {
                    buf.put_f32_le(v);
                }
            }
            Message::ClientStats {
                round,
                rank,
                loss,
                acc,
            } => {
                buf.put_u64_le(*round);
                buf.put_u32_le(*rank);
                buf.put_f64_le(*loss);
                buf.put_f64_le(*acc);
            }
            Message::ChunkRequest { epoch, index } => {
                buf.put_u64_le(*epoch);
                buf.put_u32_le(*index);
            }
            Message::ChunkData {
                epoch,
                index,
                checksum,
                data,
            } => {
                buf.put_u64_le(*epoch);
                buf.put_u32_le(*index);
                buf.put_u64_le(*checksum);
                buf.put_u32_le(data.len() as u32);
                buf.put_slice(data);
            }
        }
    }

    /// Decodes a body of exactly `body.len()` bytes for `tag`. All
    /// element counts are validated against the body length *before* any
    /// allocation, so a hostile count can't trigger an over-allocation.
    pub(crate) fn decode_body(tag: u8, mut body: &[u8]) -> Result<Message, ProtoError> {
        let buf = &mut body;
        let msg = match tag {
            TAG_NOTIFY_TRAIN => {
                let (round, mask_seed) = (need_u64(buf)?, need_u64(buf)?);
                let count = need_u32(buf)? as usize;
                if buf.len() != 8 * count {
                    return Err(ProtoError::Malformed("matching count vs body length"));
                }
                let mut matching = Vec::with_capacity(count);
                for _ in 0..count {
                    matching.push((buf.get_u32_le(), buf.get_u32_le()));
                }
                Message::NotifyTrain {
                    round,
                    mask_seed,
                    matching,
                }
            }
            TAG_MASKED_PAYLOAD => {
                let round = need_u64(buf)?;
                let count = need_u32(buf)? as usize;
                if buf.len() != 4 * count {
                    return Err(ProtoError::Malformed("value count vs body length"));
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(buf.get_f32_le());
                }
                Message::MaskedPayload { round, values }
            }
            TAG_ROUND_END => Message::RoundEnd {
                round: need_u64(buf)?,
                rank: need_u32(buf)?,
                loss: need_f32(buf)?,
                acc: need_f32(buf)?,
            },
            TAG_FETCH_MODEL => Message::FetchModel {
                rank: need_u32(buf)?,
            },
            TAG_FINAL_MODEL => {
                let rank = need_u32(buf)?;
                let len = need_u32(buf)? as usize;
                if buf.len() != len {
                    return Err(ProtoError::Malformed("checkpoint length vs body length"));
                }
                let checkpoint = buf.to_vec();
                buf.advance(len);
                Message::FinalModel { rank, checkpoint }
            }
            TAG_JOIN => Message::Join {
                rank: need_u32(buf)?,
            },
            TAG_LEAVE => Message::Leave {
                rank: need_u32(buf)?,
            },
            TAG_BANDWIDTH_REPORT => {
                let n = need_u32(buf)?;
                let cells = (n as u64)
                    .checked_mul(n as u64)
                    .and_then(|c| c.checked_mul(8));
                if cells != Some(buf.len() as u64) {
                    return Err(ProtoError::Malformed("matrix size vs body length"));
                }
                let mut mbps = Vec::with_capacity((n as usize) * (n as usize));
                for _ in 0..(n as usize) * (n as usize) {
                    mbps.push(buf.get_f64_le());
                }
                Message::BandwidthReport { n, mbps }
            }
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_INFER_REQUEST => {
                let id = need_u64(buf)?;
                let count = need_u32(buf)? as usize;
                if buf.len() != 4 * count {
                    return Err(ProtoError::Malformed("feature count vs body length"));
                }
                let mut features = Vec::with_capacity(count);
                for _ in 0..count {
                    features.push(buf.get_f32_le());
                }
                Message::InferRequest { id, features }
            }
            TAG_INFER_RESPONSE => {
                let (id, model_round, model_version) =
                    (need_u64(buf)?, need_u64(buf)?, need_u64(buf)?);
                let count = need_u32(buf)? as usize;
                if buf.len() != 4 * count {
                    return Err(ProtoError::Malformed("logit count vs body length"));
                }
                let mut logits = Vec::with_capacity(count);
                for _ in 0..count {
                    logits.push(buf.get_f32_le());
                }
                Message::InferResponse {
                    id,
                    model_round,
                    model_version,
                    logits,
                }
            }
            TAG_MODEL_ANNOUNCE => {
                let (round, version) = (need_u64(buf)?, need_u64(buf)?);
                let len = need_u32(buf)? as usize;
                if buf.len() != len {
                    return Err(ProtoError::Malformed("checkpoint length vs body length"));
                }
                let checkpoint = buf.to_vec();
                buf.advance(len);
                Message::ModelAnnounce {
                    round,
                    version,
                    checkpoint,
                }
            }
            TAG_DENSE_PAYLOAD => {
                let round = need_u64(buf)?;
                let count = need_u32(buf)? as usize;
                if buf.len() != 4 * count {
                    return Err(ProtoError::Malformed("value count vs body length"));
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(buf.get_f32_le());
                }
                Message::DensePayload { round, values }
            }
            TAG_SPARSE_PAYLOAD => {
                let round = need_u64(buf)?;
                let count = need_u32(buf)? as usize;
                if buf.len() != 8 * count {
                    return Err(ProtoError::Malformed("nnz count vs body length"));
                }
                let mut indices = Vec::with_capacity(count);
                for _ in 0..count {
                    indices.push(buf.get_u32_le());
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(buf.get_f32_le());
                }
                Message::SparsePayload {
                    round,
                    indices,
                    values,
                }
            }
            TAG_CLIENT_STATS => Message::ClientStats {
                round: need_u64(buf)?,
                rank: need_u32(buf)?,
                loss: need_f64(buf)?,
                acc: need_f64(buf)?,
            },
            TAG_CHUNK_REQUEST => Message::ChunkRequest {
                epoch: need_u64(buf)?,
                index: need_u32(buf)?,
            },
            TAG_CHUNK_DATA => {
                let epoch = need_u64(buf)?;
                let index = need_u32(buf)?;
                let checksum = need_u64(buf)?;
                let len = need_u32(buf)? as usize;
                if buf.len() != len {
                    return Err(ProtoError::Malformed("chunk length vs body length"));
                }
                let data = buf.to_vec();
                buf.advance(len);
                Message::ChunkData {
                    epoch,
                    index,
                    checksum,
                    data,
                }
            }
            other => return Err(ProtoError::UnknownTag(other)),
        };
        if !buf.is_empty() {
            return Err(ProtoError::Malformed("trailing bytes after body"));
        }
        Ok(msg)
    }
}

fn need_u64(buf: &mut &[u8]) -> Result<u64, ProtoError> {
    if buf.len() < 8 {
        return Err(ProtoError::Malformed("body too short for u64 field"));
    }
    Ok(buf.get_u64_le())
}

fn need_u32(buf: &mut &[u8]) -> Result<u32, ProtoError> {
    if buf.len() < 4 {
        return Err(ProtoError::Malformed("body too short for u32 field"));
    }
    Ok(buf.get_u32_le())
}

fn need_f32(buf: &mut &[u8]) -> Result<f32, ProtoError> {
    Ok(f32::from_bits(need_u32(buf)?))
}

fn need_f64(buf: &mut &[u8]) -> Result<f64, ProtoError> {
    Ok(f64::from_bits(need_u64(buf)?))
}
