//! PSGD with ring all-reduce — the classical dense baseline.

use crate::allreduce::{allgather_chunk, chunk_range, reduce_scatter_chunk, ring_send_bytes};
use crate::common::ring_link_stats;
use crate::exchange::{mean_stats, run_round, Direct, Exchange, Node, Payload};
use crate::Fleet;
use saps_core::{round_report, ConfigError, RoundCtx, RoundReport, Trainer};
use saps_data::Dataset;
use saps_netsim::BandwidthMatrix;

/// Synchronous parallel SGD: every round the active workers' gradients
/// are globally averaged by a ring all-reduce and each replica applies
/// the same update (Eq. 1), so replicas stay bit-identical.
///
/// The all-reduce really runs hop by hop over the fabric `X`: each
/// reduce-scatter and all-gather step sends the chunk a position
/// forwards to its ring successor, which folds what it *received* in
/// the chunk-rotated order [`crate::allreduce`] pins
/// ([`crate::allreduce::ring_reduce_mean`] is the closed form the unit
/// tests compare against). Traffic: `2·(n−1)/n · N` parameters through
/// each worker per round, ≈ the `2N` of Table I. A worker that re-joins
/// after churn is resynced from a live replica, preserving the
/// bit-identical invariant.
pub struct PsgdAllReduce<X: Exchange = Direct> {
    fleet: Fleet,
    x: X,
    rounds: u64,
    /// The bandwidths the trainer was last told — what a joiner's donors
    /// are ranked from (`None`: by ascending rank).
    bw: Option<BandwidthMatrix>,
}

impl PsgdAllReduce {
    /// Wraps a fleet; exchanges stay in memory.
    pub fn new(fleet: Fleet) -> Result<Self, ConfigError> {
        Self::over(fleet, Direct::new())
    }
}

impl<X: Exchange> PsgdAllReduce<X> {
    /// Wraps a fleet exchanging over `fabric`.
    pub fn over(fleet: Fleet, fabric: X) -> Result<Self, ConfigError> {
        Ok(PsgdAllReduce {
            fleet,
            x: fabric,
            rounds: 0,
            bw: None,
        })
    }

    /// The worker fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The fabric the exchanges run over.
    pub fn fabric(&self) -> &X {
        &self.x
    }

    /// Runs one round, surfacing fabric faults as typed errors.
    pub fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, X::Error> {
        let fleet = &mut self.fleet;
        run_round(&mut self.x, &mut self.rounds, ctx, |x, _, ctx| {
            let ranks = fleet.active_ranks();
            let m = ranks.len();
            let n = fleet.n_params();
            let per_worker = fleet.accumulate_grads_all_on(&ctx.exec);
            let stats = mean_stats(x, &per_worker)?;

            // One buffer per ring position (= ascending active rank). It
            // starts as the position's gradient; the reduce-scatter reads
            // each of its chunks exactly once, and the all-gather then
            // assembles the mean into it in place.
            let mut bufs: Vec<Vec<f32>> = ranks
                .iter()
                .map(|&r| fleet.worker(r).model().flat_grads())
                .collect();
            let succ = |i: usize| (i + 1) % m;
            // `carry[i]` is the chunk position i forwards next, `sent[i]`
            // the bytes it has put on its successor link.
            let mut sent = vec![0u64; m];
            let mut forward = |x: &mut X, carry: &mut [Vec<f32>]| {
                for i in 0..m {
                    let chunk = Payload::Dense(std::mem::take(&mut carry[i]));
                    sent[i] += x.send(ranks[i], Node::Worker(ranks[succ(i)]), chunk)?;
                }
                Ok(())
            };

            // Reduce-scatter: m−1 hops. Position i forwards its running
            // partial of chunk `reduce_scatter_chunk(m, i, s)`; the
            // successor folds received + own (the pinned fold order) and
            // forwards the result on the next hop.
            let mut carry: Vec<Vec<f32>> = (0..m)
                .map(|i| bufs[i][chunk_range(n, m, reduce_scatter_chunk(m, i, 0))].to_vec())
                .collect();
            for s in 0..m - 1 {
                forward(x, &mut carry)?;
                for i in 0..m {
                    let dst = succ(i);
                    let range = chunk_range(n, m, reduce_scatter_chunk(m, i, s));
                    let mut partial =
                        x.recv_dense(Node::Worker(ranks[dst]), ranks[i], range.len())?;
                    for (p, own) in partial.iter_mut().zip(&bufs[dst][range]) {
                        *p += own;
                    }
                    carry[dst] = partial;
                }
            }
            // Each chunk completed at its owner — position i now carries
            // chunk (i+1) mod m; scale to the mean there.
            let inv = 1.0 / m as f32;
            for (i, chunk) in carry.iter_mut().enumerate() {
                chunk.iter_mut().for_each(|v| *v *= inv);
                bufs[i][chunk_range(n, m, succ(i))].copy_from_slice(chunk);
            }
            // All-gather: m−1 hops forwarding the scaled chunks around
            // the ring until every position holds the full mean.
            for s in 0..m - 1 {
                forward(x, &mut carry)?;
                for i in 0..m {
                    let dst = succ(i);
                    let range = chunk_range(n, m, allgather_chunk(m, i, s));
                    let chunk = x.recv_dense(Node::Worker(ranks[dst]), ranks[i], range.len())?;
                    bufs[dst][range].copy_from_slice(&chunk);
                    carry[dst] = chunk;
                }
            }
            // Identical update on every active replica, each lane
            // applying the (bit-identical) mean it assembled itself.
            let lr = fleet.lr;
            let means = &bufs;
            let items = fleet.workers_mut_at(&ranks);
            ctx.exec.par_map(items, |i, (_, w)| {
                w.add_scaled(-lr, &means[i]);
                w.model_mut().zero_grads();
            });

            // Worker rows: position i forwards 2(m−1) chunks to its ring
            // successor (chunk sizes vary by at most one element when
            // m ∤ N).
            for i in 0..m {
                let bytes = ring_send_bytes(n, m, i);
                ctx.traffic.record_p2p(ranks[i], ranks[succ(i)], bytes);
            }
            // The bytes through the busiest position over the slowest
            // active ring link gate every all-reduce step.
            let busiest = sent.iter().copied().max().unwrap_or(0);
            let timing = ctx.price_allreduce(&ranks, busiest);
            let links = ring_link_stats(ctx.bw, &ranks);
            Ok(round_report(
                stats,
                &timing,
                fleet.epochs_per_round(),
                links,
            ))
        })
    }
}

impl<X: Exchange> Trainer for PsgdAllReduce<X> {
    fn name(&self) -> &'static str {
        "PSGD"
    }

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        self.try_step(ctx)
            .unwrap_or_else(|e| panic!("PSGD round failed: {e}"))
    }

    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        // Active replicas are identical; evaluate the first one.
        let first = self.fleet.active_ranks()[0];
        let flat = self.fleet.worker(first).flat();
        self.fleet.evaluate_flat(&flat, val, max_samples)
    }

    fn export_checkpoint(&mut self) -> Result<Vec<u8>, ConfigError> {
        let first = self.fleet.active_ranks()[0];
        let flat = self.fleet.worker(first).flat();
        Ok(saps_core::checkpoint::encode(&flat, self.rounds).to_vec())
    }

    fn model_len(&self) -> usize {
        self.fleet.n_params()
    }

    fn worker_count(&self) -> usize {
        self.fleet.len()
    }

    fn set_worker_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError> {
        self.fleet.set_active(rank, active, 2)?;
        if active {
            // Resync the joiner so replicas stay bit-identical.
            self.fleet
                .resync_joiner(&mut self.x, self.rounds, rank, self.bw.as_ref())?;
        }
        Ok(())
    }

    fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        self.bw = Some(bw.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::SyntheticSpec;
    use saps_netsim::{BandwidthMatrix, TrafficAccountant};
    use saps_nn::zoo;

    fn setup(n: usize) -> (PsgdAllReduce, Dataset, BandwidthMatrix) {
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, val) = ds.split(0.25, 0);
        let fleet = Fleet::new(n, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        (
            PsgdAllReduce::new(fleet).unwrap(),
            val,
            BandwidthMatrix::constant(n, 1.0),
        )
    }

    #[test]
    fn replicas_stay_identical() {
        let (mut algo, _, bw) = setup(4);
        let mut t = TrafficAccountant::new(4);
        for _ in 0..5 {
            algo.round(&mut t, &bw);
        }
        let base = algo.fleet.worker(0).flat();
        for r in 1..4 {
            assert_eq!(base, algo.fleet.worker(r).flat());
        }
    }

    /// The hop-by-hop exchange lands every replica on the update the
    /// closed-form [`ring_reduce_mean`] reference predicts, bit for bit —
    /// with a ring size that does not divide the model.
    #[test]
    fn hop_by_hop_mean_matches_the_closed_form_reference() {
        use crate::allreduce::ring_reduce_mean;
        let (mut algo, _, bw) = setup(5);
        let (mut reference, _, _) = setup(5);
        assert_ne!(algo.model_len() % 5, 0);
        algo.round(&mut TrafficAccountant::new(5), &bw);

        let fleet = &mut reference.fleet;
        fleet.accumulate_grads_all_on(&saps_core::Executor::sequential());
        let grads: Vec<Vec<f32>> = (0..5)
            .map(|r| fleet.worker(r).model().flat_grads())
            .collect();
        let mut mean = vec![0.0f32; fleet.n_params()];
        ring_reduce_mean(&grads, &mut mean);
        let lr = fleet.lr;
        for r in 0..5 {
            fleet.worker_mut(r).add_scaled(-lr, &mean);
            assert_eq!(fleet.worker(r).flat(), algo.fleet.worker(r).flat());
        }
    }

    #[test]
    fn converges_fast() {
        let (mut algo, val, bw) = setup(4);
        let mut t = TrafficAccountant::new(4);
        for _ in 0..120 {
            algo.round(&mut t, &bw);
        }
        let acc = algo.evaluate(&val, 300);
        assert!(acc > 0.55, "accuracy {acc}");
    }

    #[test]
    fn traffic_matches_allreduce_formula() {
        let (mut algo, _, bw) = setup(4);
        let mut t = TrafficAccountant::new(4);
        algo.round(&mut t, &bw);
        let n_params = algo.model_len() as u64;
        let expect = 2 * 3 * (n_params * 4 / 4); // 2(n-1) chunks of N/n * 4 bytes
        assert_eq!(t.worker_sent(0), expect);
        assert_eq!(t.server_total(), 0);
    }

    #[test]
    fn round_time_positive() {
        let (mut algo, _, bw) = setup(4);
        let mut t = TrafficAccountant::new(4);
        let rep = algo.round(&mut t, &bw);
        assert!(rep.comm_time_s > 0.0);
    }

    #[test]
    fn rejoining_worker_is_resynced() {
        let (mut algo, _, bw) = setup(4);
        let mut t = TrafficAccountant::new(4);
        algo.round(&mut t, &bw);
        algo.set_worker_active(3, false).unwrap();
        for _ in 0..3 {
            algo.round(&mut t, &bw);
        }
        // The frozen replica is stale now.
        assert_ne!(algo.fleet.worker(3).flat(), algo.fleet.worker(0).flat());
        algo.set_worker_active(3, true).unwrap();
        assert_eq!(algo.fleet.worker(3).flat(), algo.fleet.worker(0).flat());
        algo.round(&mut t, &bw);
        // Identical again after the next synchronous round.
        assert_eq!(algo.fleet.worker(3).flat(), algo.fleet.worker(0).flat());
    }
}
