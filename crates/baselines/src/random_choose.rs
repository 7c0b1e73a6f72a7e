//! RandomChoose: SAPS-PSGD's exchange with uniformly random peers.
//!
//! The Fig. 5 ablation — identical sparsified single-peer exchange, but
//! the matching is a *uniformly random* perfect matching instead of the
//! bandwidth-aware Algorithm 3. Convergence behaviour is essentially the
//! same (random matchings mix well); what it loses is bandwidth: the
//! expected bottleneck of a random matching is far below what maximum
//! matching on `B*` achieves.

use crate::common::check_compression;
use crate::exchange::{mean_stats, run_round, Direct, Exchange, Node, Payload};
use crate::Fleet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use saps_compress::codec;
use saps_compress::mask::RandomMask;
use saps_core::{round_report, ConfigError, RoundCtx, RoundReport, Trainer};
use saps_data::Dataset;
use saps_graph::topology::random_perfect_matching;
use saps_tensor::rng::{derive_seed, streams};

/// SAPS-PSGD's sparse single-peer exchange with uniformly random peer
/// selection: matched workers swap their values at a shared-seed mask
/// (indices implied — 4 bytes/coordinate, like SAPS) and each merges
/// what it received. With an odd number of active workers one randomly
/// chosen worker idles each round (as in SAPS-PSGD's own odd-fleet
/// behaviour).
pub struct RandomChoose<X: Exchange = Direct> {
    fleet: Fleet,
    compression: f64,
    rng: StdRng,
    /// The per-round mask, regenerated in place to reuse its buffer.
    mask: RandomMask,
    x: X,
    rounds: u64,
}

impl RandomChoose {
    /// Wraps a fleet with compression ratio `c`; exchanges stay in
    /// memory.
    pub fn new(fleet: Fleet, compression: f64, seed: u64) -> Result<Self, ConfigError> {
        Self::over(fleet, compression, seed, Direct::new())
    }
}

impl<X: Exchange> RandomChoose<X> {
    /// Wraps a fleet with compression ratio `c`, exchanging over
    /// `fabric`.
    pub fn over(fleet: Fleet, compression: f64, seed: u64, fabric: X) -> Result<Self, ConfigError> {
        check_compression("RandomChoose", compression)?;
        let mask = RandomMask::from_indices(fleet.n_params(), Vec::new());
        Ok(RandomChoose {
            fleet,
            compression,
            rng: StdRng::seed_from_u64(derive_seed(seed, 2, streams::MATCHING)),
            mask,
            x: fabric,
            rounds: 0,
        })
    }

    /// This round's random pairs over the active ranks (global rank
    /// space). With an odd active count one random worker sits out.
    fn random_pairs(fleet: &Fleet, rng: &mut StdRng) -> Vec<(usize, usize)> {
        let mut ranks = fleet.active_ranks();
        let m = ranks.len();
        if m < 2 {
            return Vec::new();
        }
        if m.is_multiple_of(2) {
            // Even: exactly the historical uniformly-random perfect
            // matching over active-subset positions.
            let matching = random_perfect_matching(m, rng);
            matching
                .pairs()
                .iter()
                .map(|&(i, j)| (ranks[i], ranks[j]))
                .collect()
        } else {
            // Odd: shuffle and pair consecutively, leaving one out.
            ranks.shuffle(rng);
            ranks.chunks_exact(2).map(|c| (c[0], c[1])).collect()
        }
    }

    /// Runs one round, surfacing fabric faults as typed errors.
    pub fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, X::Error> {
        let (fleet, rng, mask) = (&mut self.fleet, &mut self.rng, &mut self.mask);
        let compression = self.compression;
        run_round(&mut self.x, &mut self.rounds, ctx, |x, round, ctx| {
            let n = fleet.n_params();
            let per_worker = fleet.sgd_step_all_on(&ctx.exec);
            let stats = mean_stats(x, &per_worker)?;

            let pairs = Self::random_pairs(fleet, rng);
            mask.regenerate(n, compression, rng.gen(), round);
            let nnz = mask.nnz();
            let payload_bytes = codec::sparse_shared_mask_bytes(nnz);

            let mut transfers = Vec::with_capacity(2 * pairs.len());
            let mut link_sum = 0.0f64;
            let mut link_min = f64::INFINITY;
            for &(i, j) in &pairs {
                for (src, dst) in [(i, j), (j, i)] {
                    let values = Payload::Masked(fleet.worker(src).sparse_payload(mask));
                    transfers.push((src, dst, x.send(src, Node::Worker(dst), values)?));
                    ctx.traffic.record_p2p(src, dst, payload_bytes);
                }
                let at_j = x.recv_masked(Node::Worker(j), i, nnz)?;
                let at_i = x.recv_masked(Node::Worker(i), j, nnz)?;
                fleet.worker_mut(i).merge_sparse(mask, &at_i);
                fleet.worker_mut(j).merge_sparse(mask, &at_j);
                link_sum += ctx.bw.get(i, j);
                link_min = link_min.min(ctx.bw.get(i, j));
            }
            let timing = ctx.price_p2p(&transfers);
            let links = if pairs.is_empty() {
                (0.0, 0.0)
            } else {
                (link_sum / pairs.len() as f64, link_min)
            };
            Ok(round_report(
                stats,
                &timing,
                fleet.epochs_per_round(),
                links,
            ))
        })
    }
}

impl<X: Exchange> Trainer for RandomChoose<X> {
    fn name(&self) -> &'static str {
        "RandomChoose"
    }

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        self.try_step(ctx)
            .unwrap_or_else(|e| panic!("RandomChoose round failed: {e}"))
    }

    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        self.fleet.evaluate_average(val, max_samples)
    }

    fn model_len(&self) -> usize {
        self.fleet.n_params()
    }

    fn worker_count(&self) -> usize {
        self.fleet.len()
    }

    fn set_worker_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError> {
        self.fleet.set_active(rank, active, 2)
    }

    fn export_checkpoint(&mut self) -> Result<Vec<u8>, ConfigError> {
        let avg = self.fleet.average_model();
        Ok(saps_core::checkpoint::encode(&avg, self.rounds).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::SyntheticSpec;
    use saps_netsim::{BandwidthMatrix, TrafficAccountant};
    use saps_nn::zoo;

    fn setup(n: usize, c: f64) -> (RandomChoose, Dataset, BandwidthMatrix) {
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, val) = ds.split(0.25, 0);
        let fleet = Fleet::new(n, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        (
            RandomChoose::new(fleet, c, 7).unwrap(),
            val,
            BandwidthMatrix::constant(n, 1.0),
        )
    }

    #[test]
    fn every_worker_exchanges_once() {
        let (mut algo, _, bw) = setup(6, 4.0);
        let mut t = TrafficAccountant::new(6);
        algo.round(&mut t, &bw);
        let sent0 = t.worker_sent(0);
        assert!(sent0 > 0);
        for r in 1..6 {
            assert_eq!(t.worker_sent(r), sent0);
        }
    }

    #[test]
    fn odd_active_count_idles_one_worker_per_round() {
        let (mut algo, _, bw) = setup(6, 4.0);
        algo.set_worker_active(5, false).unwrap();
        let mut t = TrafficAccountant::new(6);
        for _ in 0..20 {
            let rep = algo.round(&mut t, &bw);
            assert!(rep.mean_loss.is_finite());
            // 5 active -> 2 pairs per round.
            assert_eq!(t.rounds().last().unwrap().total_sent % 4, 0);
        }
        assert_eq!(t.worker_total(5), 0, "inactive worker exchanged");
        // Over 20 rounds every active worker got matched at least once.
        for r in 0..5 {
            assert!(t.worker_sent(r) > 0, "worker {r} never exchanged");
        }
    }

    #[test]
    fn converges_like_saps() {
        let (mut algo, val, bw) = setup(4, 4.0);
        let mut t = TrafficAccountant::new(4);
        for _ in 0..120 {
            algo.round(&mut t, &bw);
        }
        let acc = algo.evaluate(&val, 300);
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn same_traffic_as_saps_per_round() {
        use saps_core::{SapsConfig, SapsPsgd};
        let ds = SyntheticSpec::tiny().samples(800).generate(1);
        let (train, _) = ds.split(0.25, 0);
        let bw = BandwidthMatrix::constant(4, 1.0);
        let fleet = Fleet::new(4, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        let mut rc = RandomChoose::new(fleet, 4.0, 7).unwrap();
        let cfg = SapsConfig {
            workers: 4,
            compression: 4.0,
            lr: 0.1,
            batch_size: 16,
            seed: 3,
            ..SapsConfig::default()
        };
        let mut saps = SapsPsgd::new(cfg, &train, &bw, |rng| zoo::mlp(&[16, 24, 4], rng)).unwrap();
        let mut t1 = TrafficAccountant::new(4);
        let mut t2 = TrafficAccountant::new(4);
        for _ in 0..20 {
            rc.round(&mut t1, &bw);
            saps.round(&mut t2, &bw);
        }
        // Same payload scheme: totals agree within mask sampling noise.
        let ratio = t1.worker_total(0) as f64 / t2.worker_total(0) as f64;
        assert!((ratio - 1.0).abs() < 0.15, "ratio {ratio}");
    }
}
