//! The pluggable transport layer and its wire-statistics tap.

use crate::ClusterError;
use bytes::Bytes;
use saps_proto::{frame, Message, TrafficClass};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// A node address: a training-plane node (coordinator or worker) or a
/// serving-plane node (`saps-serve` replica or client).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Addr {
    /// The (single) coordinator.
    Coordinator,
    /// Worker `rank`.
    Worker(u32),
    /// Serving replica `id` (the `saps-serve` inference plane).
    Replica(u32),
    /// Serving client `id` — a request source, never a frame target of
    /// the training plane.
    Client(u32),
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Coordinator => write!(f, "coordinator"),
            Addr::Worker(r) => write!(f, "worker {r}"),
            Addr::Replica(r) => write!(f, "replica {r}"),
            Addr::Client(c) => write!(f, "client {c}"),
        }
    }
}

/// Moves encoded frames between nodes.
///
/// The contract is datagram-like: one [`Transport::send`] delivers one
/// complete frame to `to`'s inbox, and [`Transport::recv`] pops frames
/// in an order that is FIFO *per sender* (stream transports may
/// interleave senders arbitrarily; the fabric receives by sender, so
/// no trainer sees that). Transports are lossless and unordered-across-senders — see
/// `docs/PROTOCOL.md` for the full contract.
pub trait Transport {
    /// Queues `frame` from `from` to `to`.
    fn send(&mut self, from: Addr, to: Addr, frame: Bytes) -> Result<(), ClusterError>;

    /// Pops the next frame addressed to `at`, with its sender. `None`
    /// means nothing is available *right now* (a stream transport may
    /// still have bytes in flight).
    fn recv(&mut self, at: Addr) -> Result<Option<(Addr, Bytes)>, ClusterError>;
}

/// Cumulative on-wire byte counters, split by [`TrafficClass`].
///
/// `data_bytes` counts only the values sections of
/// [`Message::MaskedPayload`] frames — the `4·nnz` Table I worker-row
/// cost; the payload frames' envelopes (header, round field, value
/// count, checksum) are counted in `control_bytes` together with whole
/// control frames. `model_bytes` counts the model-distribution plane —
/// `FetchModel`/`FinalModel`/`ModelAnnounce` plus the chunked catch-up
/// frames (`ChunkRequest`/`ChunkData`) — and
/// `serve_bytes` the `InferRequest`/`InferResponse` inference traffic —
/// kept out of `control_bytes` so the trainer's per-round control
/// billing is unchanged by co-located serving load. Invariant:
/// `total_bytes = data_bytes + control_bytes + model_bytes + serve_bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames sent.
    pub frames: u64,
    /// All bytes framed on the wire.
    pub total_bytes: u64,
    /// Masked-value payload bytes (worker rows, `4·nnz` per payload).
    pub data_bytes: u64,
    /// Control frames plus all framing overhead (server row).
    pub control_bytes: u64,
    /// Model-distribution frames: `FetchModel`/`FinalModel`/
    /// `ModelAnnounce` and the chunked catch-up plane
    /// (`ChunkRequest`/`ChunkData`).
    pub model_bytes: u64,
    /// Inference frames (`InferRequest`/`InferResponse`).
    pub serve_bytes: u64,
}

/// A shared tap every transport reports sent frames to: cumulative
/// [`WireStats`] (what control-plane billing reads).
///
/// Cloning shares the underlying counters (it's an `Arc`), so a caller
/// can keep one handle while the transport inside a running experiment
/// holds another.
#[derive(Debug, Clone, Default)]
pub struct WireTap(Arc<Mutex<WireStats>>);

impl WireTap {
    /// A fresh tap with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the cumulative counters.
    pub fn snapshot(&self) -> WireStats {
        *self.0.lock().expect("wire tap lock")
    }

    /// Meters one sent frame. Transports call this from
    /// [`Transport::send`]; the tag is peeked from the header, the body
    /// is never decoded.
    pub fn record(&self, frame_bytes: &[u8]) {
        let mut stats = self.0.lock().expect("wire tap lock");
        stats.frames += 1;
        stats.total_bytes += frame_bytes.len() as u64;
        let Ok(Some(info)) = frame::peek(frame_bytes) else {
            // A frame we cannot classify still counts as control chatter.
            stats.control_bytes += frame_bytes.len() as u64;
            return;
        };
        match Message::traffic_class_of(info.tag) {
            Some(TrafficClass::DataPlane) => {
                // Every data-plane body = round (8) + count (4) + data
                // section; `data_section_of` strips the shared header so
                // Masked/Dense/Sparse payloads all meter their values.
                let values = Message::data_section_of(info.tag, info.body_len);
                let envelope = frame_bytes.len() as u64 - values;
                stats.data_bytes += values;
                stats.control_bytes += envelope;
            }
            Some(TrafficClass::ModelPlane) => stats.model_bytes += frame_bytes.len() as u64,
            Some(TrafficClass::ServePlane) => stats.serve_bytes += frame_bytes.len() as u64,
            Some(TrafficClass::ControlPlane) | None => {
                stats.control_bytes += frame_bytes.len() as u64
            }
        }
    }
}

/// The default in-process transport: per-destination FIFO queues,
/// deterministic, no sockets. Frames are still fully encoded and decoded
/// — loopback exercises the real wire format, it only skips the kernel.
#[derive(Debug, Default)]
pub struct LoopbackTransport {
    queues: BTreeMap<Addr, VecDeque<(Addr, Bytes)>>,
    tap: WireTap,
}

impl LoopbackTransport {
    /// A loopback transport reporting to `tap`.
    pub fn new(tap: WireTap) -> Self {
        LoopbackTransport {
            queues: BTreeMap::new(),
            tap,
        }
    }

    /// Total frames currently queued, over all destinations.
    pub fn queued(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, from: Addr, to: Addr, frame: Bytes) -> Result<(), ClusterError> {
        self.tap.record(&frame);
        self.queues.entry(to).or_default().push_back((from, frame));
        Ok(())
    }

    fn recv(&mut self, at: Addr) -> Result<Option<(Addr, Bytes)>, ClusterError> {
        Ok(self.queues.get_mut(&at).and_then(VecDeque::pop_front))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_is_fifo_per_destination() {
        let mut t = LoopbackTransport::new(WireTap::new());
        let f1 = frame::encode(&Message::Join { rank: 1 });
        let f2 = frame::encode(&Message::Leave { rank: 1 });
        t.send(Addr::Worker(1), Addr::Coordinator, f1.clone())
            .unwrap();
        t.send(Addr::Worker(2), Addr::Coordinator, f2.clone())
            .unwrap();
        assert_eq!(t.queued(), 2);
        let (from, got) = t.recv(Addr::Coordinator).unwrap().unwrap();
        assert_eq!((from, got), (Addr::Worker(1), f1));
        let (from, got) = t.recv(Addr::Coordinator).unwrap().unwrap();
        assert_eq!((from, got), (Addr::Worker(2), f2));
        assert!(t.recv(Addr::Coordinator).unwrap().is_none());
        assert!(t.recv(Addr::Worker(5)).unwrap().is_none());
    }

    #[test]
    fn tap_splits_classes_and_balances_totals() {
        let tap = WireTap::new();
        let mut t = LoopbackTransport::new(tap.clone());
        let payload = Message::MaskedPayload {
            round: 0,
            values: vec![1.0; 5],
        };
        let control = Message::RoundEnd {
            round: 0,
            rank: 0,
            loss: 0.0,
            acc: 0.0,
        };
        let model = Message::FetchModel { rank: 0 };
        let infer = Message::InferRequest {
            id: 1,
            features: vec![0.5; 3],
        };
        for (to, msg) in [
            (Addr::Worker(1), &payload),
            (Addr::Coordinator, &control),
            (Addr::Worker(0), &model),
        ] {
            t.send(Addr::Worker(0), to, frame::encode(msg)).unwrap();
        }
        t.send(Addr::Client(0), Addr::Replica(1), frame::encode(&infer))
            .unwrap();
        let s = tap.snapshot();
        assert_eq!(s.frames, 4);
        assert_eq!(s.data_bytes, 20, "values-only section is 4·nnz");
        assert_eq!(s.model_bytes, frame::encoded_len(&model) as u64);
        assert_eq!(s.serve_bytes, frame::encoded_len(&infer) as u64);
        assert_eq!(
            s.total_bytes,
            s.data_bytes + s.control_bytes + s.model_bytes + s.serve_bytes
        );
    }
}
