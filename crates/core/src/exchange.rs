//! The exchange fabric every trainer is generic over.
//!
//! A training round is local computation plus a pattern of sends and
//! receives between workers and one coordinator. SAPS-PSGD (this crate)
//! and the seven baselines (`saps-baselines`) express that pattern
//! once, against [`Exchange`]; what carries the values is the fabric's
//! business:
//!
//! * [`Direct`] — the in-memory fabric: a sent [`Payload`] is moved into
//!   the receiver's inbox and handed back on `recv`, with no framing
//!   and no copy through a byte buffer; plans, acknowledgements and
//!   control values are handed back as they are, and a joiner copies
//!   the parameters of the first peer it is offered;
//! * `saps_cluster::Framed` — encodes everything as a `saps-proto`
//!   frame, pushes it through a `Transport`, and decodes and validates
//!   it on the other side.
//!
//! **The contract every fabric keeps** — and the reason a run is
//! bit-identical whichever fabric carries it: every value a worker (or
//! the coordinator) consumes is the value the fabric delivered to
//! *it*, and trainers fold delivered values in a pinned order (the
//! ring's chunk-rotated fold for PSGD, ascending rank elsewhere,
//! sampled client order for S-FedAvg, plan order for SAPS-PSGD's
//! pairs). `f32`/`f64` values survive a little-endian byte round-trip
//! exactly, so a fabric that delivers what was sent cannot change a bit
//! of the run.
//!
//! **A fabric carries; it does not decide.** Who is in the fleet, who
//! is matched with whom and which peers may serve a joiner — and in what
//! order — are decided above it ([`crate::Fleet`], [`crate::SapsControl`])
//! and arrive as arguments, so the same decision reaches whichever
//! fabric carries the run.
//!
//! Only a fabric fed from outside the process can fail, so the three
//! fault hooks ([`Exchange::blamed`], [`Exchange::discard_in_flight`],
//! [`Exchange::refused`]) have defaults [`Direct`] never overrides.

use crate::{ConfigError, RoundCtx, RoundReport};
use saps_compress::codec;
use saps_netsim::BandwidthMatrix;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::Arc;

/// An endpoint of the exchange: a worker's inbox, or the coordinator's
/// (the only payload it ever receives is [`Payload::Stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The (single) coordinator.
    Coordinator,
    /// Worker `rank`. A parameter server is the worker it is pinned at.
    Worker(usize),
}

/// What workers send each other (and, for `Stats`, the coordinator).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Dense `f32` values: a ring chunk, a full model, a server model.
    Dense(Vec<f32>),
    /// Explicit `(index, value)` pairs; indices strictly ascending.
    Sparse {
        /// Coordinates the values belong to.
        indices: Vec<u32>,
        /// One value per index.
        values: Vec<f32>,
    },
    /// Values at the coordinates of a mask both sides derive from a
    /// shared seed — only the values travel.
    Masked(Vec<f32>),
    /// One worker's local `(Σ loss, Σ accuracy)` for the round.
    Stats {
        /// Sum of the worker's per-step training losses.
        loss: f64,
        /// Sum of the worker's per-step training accuracies.
        acc: f64,
    },
}

impl Payload {
    /// The bytes of values this payload carries — what the Table I
    /// worker rows are charged and what an envelope-free link moves:
    /// `4·len` dense, `8·nnz` index+value, `4·nnz` shared-mask, nothing
    /// for the control-plane stats.
    pub fn value_bytes(&self) -> u64 {
        match self {
            Payload::Dense(values) => codec::dense_bytes(values.len()),
            Payload::Sparse { indices, .. } => codec::sparse_iv_bytes(indices.len()),
            Payload::Masked(values) => codec::sparse_shared_mask_bytes(values.len()),
            Payload::Stats { .. } => 0,
        }
    }

    fn label(&self) -> String {
        match self {
            Payload::Dense(v) => format!("Dense({})", v.len()),
            Payload::Sparse { indices, .. } => format!("Sparse({})", indices.len()),
            Payload::Masked(v) => format!("Masked({})", v.len()),
            Payload::Stats { .. } => "Stats".to_string(),
        }
    }
}

/// What a receiver is prepared to consume. A fabric fed from outside
/// the process rejects anything else, so trainers can index by what
/// they receive without re-checking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Exactly this many dense values.
    Dense(usize),
    /// Index+value pairs into a `dim`-coordinate vector: as many values
    /// as indices, indices strictly ascending and below `dim`.
    Sparse {
        /// Length of the vector the indices address.
        dim: usize,
    },
    /// Exactly this many shared-mask values.
    Masked(usize),
    /// A loss/accuracy report.
    Stats,
}

impl Shape {
    /// `Ok` when `payload` is what this shape admits, else why not.
    pub fn check(&self, payload: &Payload) -> Result<(), String> {
        match (*self, payload) {
            (Shape::Dense(len), Payload::Dense(values)) if values.len() == len => Ok(()),
            (Shape::Masked(nnz), Payload::Masked(values)) if values.len() == nnz => Ok(()),
            (Shape::Stats, Payload::Stats { .. }) => Ok(()),
            (Shape::Masked(nnz), Payload::Masked(values)) => Err(format!(
                "payload has {} values, the shared mask keeps {nnz}",
                values.len()
            )),
            (Shape::Sparse { dim }, Payload::Sparse { indices, values }) => {
                let ascending = indices.windows(2).all(|w| w[0] < w[1]);
                let in_range = indices.last().is_none_or(|&i| (i as usize) < dim);
                if values.len() == indices.len() && ascending && in_range {
                    Ok(())
                } else {
                    Err(format!(
                        "sparse payload of {} indices / {} values is not a strictly ascending \
                         selection of {dim} coordinates",
                        indices.len(),
                        values.len()
                    ))
                }
            }
            (want, got) => Err(format!("expected {want:?}, got {}", got.label())),
        }
    }
}

/// What the SAPS-PSGD coordinator tells every active worker at the
/// start of a round (Algorithm 1 line 6, `NotifyWorkerToTrain(W_t, t,
/// s)`): the round counter, the shared mask seed, and the matching as
/// global-rank pairs in plan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notice {
    /// The round counter `t`.
    pub round: u64,
    /// The shared seed `s` every worker derives the mask `m_t` from.
    pub mask_seed: u64,
    /// The matching `W_t`; a worker in no pair trains without
    /// exchanging this round.
    pub pairs: Vec<(u32, u32)>,
}

impl Notice {
    /// The peer this notice matches worker `rank` with, if any.
    pub fn mate_of(&self, rank: usize) -> Option<usize> {
        let rank = rank as u32;
        self.pairs.iter().find_map(|&(a, b)| {
            if a == rank {
                Some(b as usize)
            } else if b == rank {
                Some(a as usize)
            } else {
                None
            }
        })
    }
}

/// One worker's "ROUND END": `(rank, (loss, accuracy))` on the round's
/// local batch, as the `f32`s the worker computed.
pub type Ack = (usize, (f32, f32));

/// Carries the trainers' values between workers and the coordinator.
/// See the module docs for the contract.
pub trait Exchange {
    /// How an exchange fails. [`Direct`] cannot; a wire can.
    type Error: std::fmt::Display + 'static;

    /// Opens round `round`; called before the round's first send.
    fn begin_round(&mut self, round: u64, ctx: &RoundCtx<'_>) {
        let _ = (round, ctx);
    }

    /// Ships `payload` from worker `from` to `to` and returns the bytes
    /// the message occupies on the link — what the DES prices.
    fn send(&mut self, from: usize, to: Node, payload: Payload) -> Result<u64, Self::Error>;

    /// The next payload worker `from` sent to `at`, which must match
    /// `want`. Payloads from other senders that arrive first wait for
    /// their own `recv`, so a receiver names its fold order and the
    /// arrival order cannot change it.
    fn recv(&mut self, at: Node, from: usize, want: Shape) -> Result<Payload, Self::Error>;

    /// Closes the round, after the trainer charged its worker rows and
    /// priced the round and before the accountant's round is closed: a
    /// fabric with overhead of its own bills it to `ctx.traffic` and
    /// adds what it moved between rounds (joiner catch-up) to the
    /// report's timing here. `stepped` is passed through so a fabric
    /// can observe failures.
    fn end_round(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        stepped: Result<RoundReport, Self::Error>,
    ) -> Result<RoundReport, Self::Error> {
        let _ = ctx;
        stepped
    }

    /// Fetches the flat parameters a rejoining worker installs to catch
    /// up with its fleet (PSGD and TopK-PSGD, whose replicas are
    /// identical, on every rejoin; SAPS-PSGD on request). `peers` are
    /// the workers that may serve, **in preference order** (never
    /// empty) — [`crate::Fleet::resync_joiner`] decides it, above the
    /// fabric, from the one bandwidth snapshot — and `flat_of(peer)`
    /// reads one's parameters; `round` is the number of completed
    /// rounds. The result is `peers[0]`'s parameters exactly; a fabric
    /// that moves bytes may fetch pieces of them from the later peers
    /// whose state is identical, trying them in the order given.
    fn resync(
        &mut self,
        round: u64,
        joiner: usize,
        peers: &[usize],
        flat_of: &dyn Fn(usize) -> Vec<f32>,
    ) -> Result<Vec<f32>, Self::Error>;

    /// The coordinator announces `notice` to each worker in `to`;
    /// returns what each heard, in the order of `to`.
    fn announce(
        &mut self,
        to: &[usize],
        notice: &Arc<Notice>,
    ) -> Result<Vec<Arc<Notice>>, Self::Error> {
        Ok(vec![Arc::clone(notice); to.len()])
    }

    /// Every listed worker reports "ROUND END" to the coordinator;
    /// returns what the coordinator received, in the order of `acks`.
    fn acknowledge(&mut self, acks: Vec<Ack>) -> Result<Vec<Ack>, Self::Error> {
        Ok(acks)
    }

    /// Worker `rank` asks the coordinator to join (`active`) or leave
    /// the fleet; returns the request the coordinator received.
    fn membership(&mut self, rank: usize, active: bool) -> Result<(usize, bool), Self::Error> {
        Ok((rank, active))
    }

    /// The measurement service reports fresh link speeds to the
    /// coordinator; returns the matrix the coordinator received.
    fn report_bandwidth<'a>(
        &mut self,
        bw: &'a BandwidthMatrix,
    ) -> Result<Cow<'a, BandwidthMatrix>, Self::Error> {
        Ok(Cow::Borrowed(bw))
    }

    /// The coordinator collects worker `rank`'s model `flat` (stamped
    /// `round`) for a consensus average; returns what it received.
    fn collect_model(
        &mut self,
        rank: usize,
        round: u64,
        flat: Vec<f32>,
    ) -> Result<Vec<f32>, Self::Error> {
        let _ = (rank, round);
        Ok(flat)
    }

    /// The worker `err` proves misbehaved — it sent a frame that does
    /// not decode, or a payload of the wrong shape — if the error
    /// blames one. The trainer may expel that worker and replay.
    fn blamed(&self, err: &Self::Error) -> Option<usize> {
        let _ = err;
        None
    }

    /// Discards everything in flight toward the coordinator and the
    /// `workers` workers, so an aborted round attempt's values cannot
    /// reach its replay.
    fn discard_in_flight(&mut self, workers: usize) -> Result<(), Self::Error> {
        let _ = workers;
        Ok(())
    }

    /// The error a round dies with when `err` blamed a worker and the
    /// fleet refused (`why`) to expel it.
    fn refused(&self, err: Self::Error, why: &ConfigError) -> Self::Error {
        let _ = why;
        err
    }

    /// [`Exchange::recv`] for `len` dense values.
    fn recv_dense(&mut self, at: Node, from: usize, len: usize) -> Result<Vec<f32>, Self::Error> {
        match self.recv(at, from, Shape::Dense(len))? {
            Payload::Dense(values) => Ok(values),
            _ => unreachable!("recv returns the requested shape"),
        }
    }

    /// [`Exchange::recv`] for index+value pairs into `dim` coordinates.
    fn recv_sparse(
        &mut self,
        at: Node,
        from: usize,
        dim: usize,
    ) -> Result<(Vec<u32>, Vec<f32>), Self::Error> {
        match self.recv(at, from, Shape::Sparse { dim })? {
            Payload::Sparse { indices, values } => Ok((indices, values)),
            _ => unreachable!("recv returns the requested shape"),
        }
    }

    /// [`Exchange::recv`] for `nnz` shared-mask values.
    fn recv_masked(&mut self, at: Node, from: usize, nnz: usize) -> Result<Vec<f32>, Self::Error> {
        match self.recv(at, from, Shape::Masked(nnz))? {
            Payload::Masked(values) => Ok(values),
            _ => unreachable!("recv returns the requested shape"),
        }
    }
}

/// The in-memory fabric: per-destination FIFO inboxes of [`Payload`]
/// values. `send` moves the payload in and reports its value bytes (an
/// in-memory link has no envelope); nothing is billed to the server
/// row, and a joiner copies the first offered peer's parameters.
#[derive(Debug, Default)]
pub struct Direct {
    /// Inbox 0 is the coordinator's, inbox `1 + r` worker `r`'s.
    inboxes: Vec<VecDeque<(usize, Payload)>>,
}

impl Direct {
    /// An empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(node: Node) -> usize {
        match node {
            Node::Coordinator => 0,
            Node::Worker(rank) => 1 + rank,
        }
    }
}

impl Exchange for Direct {
    type Error = Infallible;

    fn send(&mut self, from: usize, to: Node, payload: Payload) -> Result<u64, Infallible> {
        let slot = Self::slot(to);
        if self.inboxes.len() <= slot {
            self.inboxes.resize_with(slot + 1, VecDeque::new);
        }
        let bytes = payload.value_bytes();
        self.inboxes[slot].push_back((from, payload));
        Ok(bytes)
    }

    fn recv(&mut self, at: Node, from: usize, want: Shape) -> Result<Payload, Infallible> {
        // An empty inbox here is a trainer that receives what it never
        // sent — a bug in that trainer, not a condition of the run.
        let (_, payload) = self
            .inboxes
            .get_mut(Self::slot(at))
            .and_then(|inbox| {
                let pos = inbox.iter().position(|(sender, _)| *sender == from)?;
                inbox.remove(pos)
            })
            .unwrap_or_else(|| panic!("nothing from worker {from} is waiting at {at:?}"));
        debug_assert_eq!(want.check(&payload), Ok(()));
        Ok(payload)
    }

    fn resync(
        &mut self,
        _round: u64,
        _joiner: usize,
        peers: &[usize],
        flat_of: &dyn Fn(usize) -> Vec<f32>,
    ) -> Result<Vec<f32>, Infallible> {
        Ok(flat_of(peers[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_delivers_by_sender_and_reports_value_bytes() {
        let mut x = Direct::new();
        let sparse = Payload::Sparse {
            indices: vec![1, 4],
            values: vec![0.5, -0.5],
        };
        assert_eq!(
            x.send(2, Node::Worker(0), Payload::Dense(vec![1.0; 3])),
            Ok(12)
        );
        assert_eq!(x.send(1, Node::Worker(0), sparse.clone()), Ok(16));
        assert_eq!(
            x.send(1, Node::Worker(0), Payload::Masked(vec![2.0])),
            Ok(4)
        );
        // The receiver names the sender; per sender the order is FIFO.
        assert_eq!(x.recv_sparse(Node::Worker(0), 1, 8).unwrap().0, vec![1, 4]);
        assert_eq!(x.recv_dense(Node::Worker(0), 2, 3).unwrap(), vec![1.0; 3]);
        assert_eq!(x.recv_masked(Node::Worker(0), 1, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn shapes_reject_what_a_trainer_could_not_index() {
        let sparse = |indices: Vec<u32>, n: usize| Payload::Sparse {
            indices,
            values: vec![0.0; n],
        };
        let shape = Shape::Sparse { dim: 4 };
        assert!(shape.check(&sparse(vec![0, 3], 2)).is_ok());
        assert!(shape.check(&sparse(vec![], 0)).is_ok());
        assert!(shape.check(&sparse(vec![0, 4], 2)).is_err(), "out of range");
        assert!(shape.check(&sparse(vec![2, 2], 2)).is_err(), "duplicate");
        assert!(shape.check(&sparse(vec![3, 1], 2)).is_err(), "descending");
        assert!(shape.check(&sparse(vec![0, 1], 1)).is_err(), "ragged");
        assert!(Shape::Dense(2).check(&Payload::Dense(vec![0.0])).is_err());
        assert!(Shape::Masked(1).check(&Payload::Dense(vec![0.0])).is_err());
        assert!(Shape::Stats.check(&Payload::Masked(vec![])).is_err());
    }
}
