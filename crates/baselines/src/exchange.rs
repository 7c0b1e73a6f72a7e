//! The exchange fabric the seven baseline trainers are generic over.
//!
//! A baseline round is local computation plus a pattern of sends and
//! receives between workers (and one coordinator that collects the
//! per-worker loss/accuracy sums). The trainers in this crate express
//! that pattern once, against [`Exchange`]; what carries the values is
//! the fabric's business:
//!
//! * [`Direct`] — the in-memory fabric: a sent [`Payload`] is moved into
//!   the receiver's inbox and handed back on `recv`, with no framing
//!   and no copy through a byte buffer;
//! * `saps_cluster::Framed` — encodes each payload as a `saps-proto`
//!   frame, pushes it through a `Transport`, and decodes and validates
//!   it on the other side.
//!
//! **The contract every fabric keeps** — and the reason a run is
//! bit-identical whichever fabric carries it: every value a worker
//! consumes from a peer is the value `recv` delivered to *that worker*,
//! and trainers fold delivered values in a pinned order (the ring's
//! chunk-rotated fold for PSGD, ascending rank elsewhere, sampled
//! client order for S-FedAvg). `f32`/`f64` values survive a
//! little-endian byte round-trip exactly, so a fabric that delivers
//! what was sent cannot change a bit of the run.

use saps_compress::codec;
use saps_core::{RoundCtx, RoundReport};
use saps_netsim::BandwidthMatrix;
use std::collections::VecDeque;
use std::convert::Infallible;

/// An endpoint of the exchange: a worker's inbox, or the coordinator's
/// (which only ever receives [`Payload::Stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The (single) coordinator.
    Coordinator,
    /// Worker `rank`. A parameter server is the worker it is pinned at.
    Worker(usize),
}

/// What the baselines send each other.
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

/// Carries the baselines' payloads between workers. See the module
/// docs for the contract.
pub trait Exchange {
    /// How an exchange fails. [`Direct`] cannot; a wire can.
    type Error: std::fmt::Display;

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

    /// Fetches the flat parameters a rejoining worker must install to
    /// match its replica-identical fleet (PSGD, TopK-PSGD). `peers` are
    /// the in-sync workers in ascending rank order (never empty) and
    /// `flat_of(peer)` reads one's parameters; `round` is the number of
    /// completed rounds.
    fn resync(
        &mut self,
        round: u64,
        joiner: usize,
        peers: &[usize],
        flat_of: &dyn Fn(usize) -> Vec<f32>,
    ) -> Result<Vec<f32>, Self::Error>;

    /// The measured bandwidths changed. A fabric that chooses peers by
    /// link speed (catch-up sources) re-reads them here.
    fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        let _ = bw;
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

/// One worker's `(rank, (Σ loss, Σ accuracy))` over its local steps of
/// a round — kept per rank so the sums can cross the fabric before they
/// are reduced to a mean.
pub(crate) type WorkerStats = (usize, (f64, f64));

/// Runs `body` as round `*rounds` between the fabric's round hooks and
/// closes the accountant's round — the one round lifecycle all seven
/// trainers share. A failed round leaves `*rounds` and the accountant
/// untouched.
pub(crate) fn run_round<X: Exchange>(
    x: &mut X,
    rounds: &mut u64,
    ctx: &mut RoundCtx<'_>,
    body: impl FnOnce(&mut X, u64, &mut RoundCtx<'_>) -> Result<RoundReport, X::Error>,
) -> Result<RoundReport, X::Error> {
    x.begin_round(*rounds, ctx);
    let stepped = body(x, *rounds, ctx);
    let rep = x.end_round(ctx, stepped)?;
    ctx.traffic.end_round();
    *rounds += 1;
    Ok(rep)
}

/// Every reporting worker ships its `(Σ loss, Σ acc)` to the
/// coordinator, which folds what it received in the order of
/// `per_worker` (ascending rank at every call site). Returns the sums.
pub(crate) fn reduce_stats<X: Exchange>(
    x: &mut X,
    per_worker: &[WorkerStats],
) -> Result<(f64, f64), X::Error> {
    for &(rank, (loss, acc)) in per_worker {
        x.send(rank, Node::Coordinator, Payload::Stats { loss, acc })?;
    }
    let mut sums = (0.0, 0.0);
    for &(rank, _) in per_worker {
        match x.recv(Node::Coordinator, rank, Shape::Stats)? {
            Payload::Stats { loss, acc } => sums = (sums.0 + loss, sums.1 + acc),
            _ => unreachable!("recv returns the requested shape"),
        }
    }
    Ok(sums)
}

/// [`reduce_stats`] over one report per active worker, reduced to the
/// round's mean `(loss, accuracy)`.
pub(crate) fn mean_stats<X: Exchange>(
    x: &mut X,
    per_worker: &[WorkerStats],
) -> Result<(f32, f32), X::Error> {
    let (loss, acc) = reduce_stats(x, per_worker)?;
    let n = per_worker.len().max(1) as f64;
    Ok(((loss / n) as f32, (acc / n) as f32))
}

/// The in-memory fabric: per-destination FIFO inboxes of [`Payload`]
/// values. `send` moves the payload in and reports its value bytes (an
/// in-memory link has no envelope); nothing is billed to the server
/// row, and a joiner copies a live replica's parameters.
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
        // sent — a bug in this crate, not a condition of the run.
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
    fn stats_fold_in_the_listed_order_and_cost_nothing() {
        let mut x = Direct::new();
        let per_worker = [(0, (1.0, 0.5)), (3, (2.0, 0.25))];
        assert_eq!(reduce_stats(&mut x, &per_worker), Ok((3.0, 0.75)));
        assert_eq!(
            Payload::Stats {
                loss: 1.0,
                acc: 0.5
            }
            .value_bytes(),
            0
        );
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
