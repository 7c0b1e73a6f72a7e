//! D-PSGD: decentralized parallel SGD on a fixed ring \[25\].

use crate::common::ring_link_stats;
use crate::exchange::{mean_stats, Direct, Exchange, Node, Payload};
use crate::Fleet;
use saps_compress::codec;
use saps_core::{round_report, Algorithm, RoundCtx, RoundReport, Rounds};

/// D-PSGD on the fixed ring `0 → 1 → … → n−1 → 0` (the paper's Section
/// IV-D setup) — the [`RingGossip`] algorithm run by [`Rounds`].
pub type DPsgd<X = Direct> = Rounds<RingGossip, X>;

/// [`DPsgd`]'s round: every worker runs one SGD step, sends its **full
/// dense model** to both ring neighbours, and replaces its model with
/// the three-way average `x_i ← (x_{i−1} + x_i + x_{i+1})/3` of its own
/// model and the two it received.
///
/// Per-worker traffic is `4·N` parameters per round (2 sends + 2
/// receives) — the communication-hungry baseline of Fig. 4. Under churn
/// the ring closes over the surviving active ranks in rank order.
#[derive(Debug, Default)]
pub struct RingGossip;

impl Algorithm for RingGossip {
    const NAME: &'static str = "D-PSGD";
    const MIN_LIVE: usize = 3;

    fn round<X: Exchange>(
        &mut self,
        fleet: &mut Fleet,
        x: &mut X,
        _: u64,
        ctx: &mut RoundCtx<'_>,
    ) -> Result<RoundReport, X::Error> {
        let ranks = fleet.active_ranks();
        let m = ranks.len();
        let n = fleet.n_params();
        let per_worker = fleet.sgd_step_all_on(&ctx.exec);
        let stats = mean_stats(x, &per_worker)?;

        // Every active worker sends its dense post-step model to
        // both ring neighbours…
        let (next, prev) = (
            |i: usize| ranks[(i + 1) % m],
            |i: usize| ranks[(i + m - 1) % m],
        );
        let mut transfers = Vec::with_capacity(2 * m);
        for (i, &rank) in ranks.iter().enumerate() {
            let model = fleet.worker(rank).flat();
            for (peer, values) in [(next(i), model.clone()), (prev(i), model)] {
                let sent = x.send(rank, Node::Worker(peer), Payload::Dense(values))?;
                ctx.traffic.record_p2p(rank, peer, codec::dense_bytes(n));
                transfers.push((rank, peer, sent));
            }
        }
        // …and mixes with the two it received. Every worker's mixed
        // model depends only on delivered snapshots, so the mixing
        // fans out (each lane rewrites its own worker in place).
        let mut inbox = Vec::with_capacity(m);
        for (i, &rank) in ranks.iter().enumerate() {
            let at = Node::Worker(rank);
            inbox.push((x.recv_dense(at, prev(i), n)?, x.recv_dense(at, next(i), n)?));
        }
        let inbox = &inbox;
        let items = fleet.workers_mut_at(&ranks);
        ctx.exec.par_map(items, |i, (_, w)| {
            let (prev, next) = &inbox[i];
            w.update_flat(|flat| {
                for k in 0..flat.len() {
                    flat[k] = (prev[k] + flat[k] + next[k]) / 3.0;
                }
            });
        });
        let timing = ctx.price_p2p(&transfers);

        let links = ring_link_stats(ctx.bw, &ranks);
        Ok(round_report(
            stats,
            &timing,
            fleet.epochs_per_round(),
            links,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_core::Trainer;
    use saps_data::{Dataset, SyntheticSpec};
    use saps_netsim::{BandwidthMatrix, TrafficAccountant};
    use saps_nn::zoo;

    /// D-PSGD over `n` workers, the fleet first adjusted by `tweak`.
    fn setup_with(n: usize, tweak: impl FnOnce(&mut Fleet)) -> (DPsgd, Dataset, BandwidthMatrix) {
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, val) = ds.split(0.25, 0);
        let mut fleet =
            Fleet::new(n, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        tweak(&mut fleet);
        (
            Rounds::of(RingGossip, fleet, Direct::new()).unwrap(),
            val,
            BandwidthMatrix::constant(n, 1.0),
        )
    }

    fn setup(n: usize) -> (DPsgd, Dataset, BandwidthMatrix) {
        setup_with(n, |_| {})
    }

    #[test]
    fn traffic_is_4n_dense_per_round() {
        let (mut algo, _, bw) = setup(4);
        let mut t = TrafficAccountant::new(4);
        algo.round(&mut t, &bw);
        let dense = 4 * algo.model_len() as u64;
        assert_eq!(t.worker_sent(0), 2 * dense);
        assert_eq!(t.worker_recv(0), 2 * dense);
        assert_eq!(t.server_total(), 0);
    }

    #[test]
    fn mixing_preserves_global_average() {
        // After SGD the models differ; check the mixing invariant across
        // a round with lr = 0.
        let (mut algo, _, bw) = setup_with(4, |f| f.lr = 0.0);
        let mut t = TrafficAccountant::new(4);
        let before = algo.fleet().average_model();
        algo.round(&mut t, &bw);
        let after = algo.fleet().average_model();
        for (a, b) in after.iter().zip(&before) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn converges() {
        let (mut algo, val, bw) = setup(4);
        let mut t = TrafficAccountant::new(4);
        for _ in 0..120 {
            algo.round(&mut t, &bw);
        }
        let acc = algo.evaluate(&val, 300);
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn churn_closes_the_ring_over_survivors() {
        let (mut algo, _, bw) = setup(5);
        let mut t = TrafficAccountant::new(5);
        algo.set_worker_active(2, false).unwrap();
        let frozen = algo.fleet().worker(2).flat();
        for _ in 0..5 {
            let rep = algo.round(&mut t, &bw);
            assert!(rep.mean_loss.is_finite());
        }
        assert_eq!(algo.fleet().worker(2).flat(), frozen);
        assert_eq!(t.worker_total(2), 0, "inactive worker exchanged");
        // Survivors each still send 2 dense models per round.
        let dense = 4 * algo.model_len() as u64;
        assert_eq!(t.worker_sent(0), 5 * 2 * dense);
        // Dropping below 3 active is refused.
        algo.set_worker_active(0, false).unwrap();
        assert!(algo.set_worker_active(1, false).is_err());
    }

    #[test]
    fn ring_consensus_spreads_information() {
        // With lr = 0 and distinct initial models, repeated mixing must
        // shrink the consensus distance.
        let (mut algo, _, bw) = setup_with(6, |fleet| {
            fleet.lr = 0.0;
            // Perturb worker 0 to create disagreement.
            let mut f = fleet.worker(0).flat();
            for v in &mut f {
                *v += 1.0;
            }
            fleet.worker_mut(0).set_flat(&f);
        });
        let dist = |fleet: &Fleet| {
            let avg = fleet.average_model();
            (0..fleet.len())
                .map(|r| {
                    fleet
                        .worker(r)
                        .flat()
                        .iter()
                        .zip(&avg)
                        .map(|(a, b)| ((a - b) as f64).powi(2))
                        .sum::<f64>()
                })
                .sum::<f64>()
        };
        let d0 = dist(algo.fleet());
        let mut t = TrafficAccountant::new(6);
        for _ in 0..20 {
            algo.round(&mut t, &bw);
        }
        let d1 = dist(algo.fleet());
        assert!(d1 < d0 * 0.05, "consensus {d0} -> {d1}");
    }
}
