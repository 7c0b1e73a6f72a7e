//! DCD-PSGD: difference-compressed decentralized SGD on a ring \[26\].

use crate::common::{check_compression, check_ring, ring_link_stats};
use crate::exchange::{mean_stats, run_round, Direct, Exchange, Node, Payload};
use crate::Fleet;
use saps_compress::codec;
use saps_compress::topk::{densify, top_k_indices};
use saps_core::{round_report, ConfigError, RoundCtx, RoundReport, Trainer};
use saps_data::Dataset;

/// DCD-PSGD on the fixed ring: each worker maintains a **replica** of
/// each neighbour's model (the memory cost the paper criticizes) and
/// broadcasts only the top `N/c` coordinates of the *difference* between
/// its current model and what its neighbours last saw. Neighbours patch
/// their replicas with the sparse difference they received, then every
/// worker mixes with the replica average.
///
/// The paper finds DCD-PSGD tolerates only mild compression (`c = 4`);
/// larger `c` diverges — our convergence tests confirm `c = 4` trains
/// while traffic stays `4·np·N/c` per Table I. Under churn the ring
/// closes over the surviving active ranks; per-rank broadcast replicas
/// are kept, so a returning worker resumes from its last broadcast
/// state.
pub struct DcdPsgd<X: Exchange = Direct> {
    fleet: Fleet,
    compression: f64,
    /// `broadcast[r]` = the model state of worker `r` as known by its
    /// neighbours (all neighbours see the same broadcast stream, so one
    /// copy stands for both; it is patched from the diff delivered to
    /// `r`'s ring successor).
    broadcast: Vec<Vec<f32>>,
    x: X,
    rounds: u64,
}

impl DcdPsgd {
    /// Wraps a fleet with compression ratio `c` (the paper uses 4);
    /// exchanges stay in memory.
    pub fn new(fleet: Fleet, compression: f64) -> Result<Self, ConfigError> {
        Self::over(fleet, compression, Direct::new())
    }
}

impl<X: Exchange> DcdPsgd<X> {
    /// Wraps a fleet (≥ 3 workers) with compression ratio `c`,
    /// exchanging over `fabric`.
    pub fn over(fleet: Fleet, compression: f64, fabric: X) -> Result<Self, ConfigError> {
        check_ring("DcdPsgd", &fleet)?;
        check_compression("DcdPsgd", compression)?;
        let broadcast = (0..fleet.len()).map(|r| fleet.worker(r).flat()).collect();
        Ok(DcdPsgd {
            fleet,
            compression,
            broadcast,
            x: fabric,
            rounds: 0,
        })
    }

    /// The compression ratio in use.
    pub fn compression(&self) -> f64 {
        self.compression
    }

    /// Runs one round, surfacing fabric faults as typed errors.
    pub fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, X::Error> {
        let fleet = &mut self.fleet;
        let broadcast = &mut self.broadcast;
        let compression = self.compression;
        run_round(&mut self.x, &mut self.rounds, ctx, |x, _, ctx| {
            let ranks = fleet.active_ranks();
            let m = ranks.len();
            let n = fleet.n_params();
            let k = ((n as f64 / compression).round() as usize).max(1);
            let per_worker = fleet.sgd_step_all_on(&ctx.exec);
            let stats = mean_stats(x, &per_worker)?;

            // Each active worker compresses its drift against its
            // broadcast state (read only — the patch is applied from the
            // delivered diffs below). Per-worker work, so the diff +
            // top-k fans out with the compute phase.
            let diffs: Vec<(Vec<u32>, Vec<f32>)> = {
                let (fleet, broadcast) = (&*fleet, &*broadcast);
                ctx.exec.par_map(ranks.clone(), |_, r| {
                    let x = fleet.worker(r).flat();
                    let diff: Vec<f32> = x.iter().zip(&broadcast[r]).map(|(a, b)| a - b).collect();
                    let idx = top_k_indices(&diff, k);
                    let vals: Vec<f32> = idx.iter().map(|&i| diff[i as usize]).collect();
                    (idx, vals)
                })
            };
            // Worker rows charge what the trainers always charged: the
            // last active worker's payload size on every link (all
            // diffs keep the same k coordinates).
            let payload_bytes = diffs
                .last()
                .map_or(0, |(idx, _)| codec::sparse_iv_bytes(idx.len()));
            let (next, prev) = (
                |i: usize| ranks[(i + 1) % m],
                |i: usize| ranks[(i + m - 1) % m],
            );
            let mut transfers = Vec::with_capacity(2 * m);
            for (i, (indices, values)) in diffs.into_iter().enumerate() {
                let copy = (indices.clone(), values.clone());
                for (peer, (indices, values)) in [(next(i), copy), (prev(i), (indices, values))] {
                    let diff = Payload::Sparse { indices, values };
                    let sent = x.send(ranks[i], Node::Worker(peer), diff)?;
                    ctx.traffic.record_p2p(ranks[i], peer, payload_bytes);
                    transfers.push((ranks[i], peer, sent));
                }
            }
            // Every worker receives both neighbours' diffs. The one from
            // its predecessor patches that predecessor's broadcast
            // replica — densified first, so untouched coordinates see
            // the `+= 0.0` they always did; the successor's copy is the
            // same stream, already applied by *its* successor.
            for i in 0..m {
                let at = Node::Worker(ranks[i]);
                let (indices, values) = x.recv_sparse(at, prev(i), n)?;
                let patch = densify(n, &indices, &values);
                for (b, p) in broadcast[prev(i)].iter_mut().zip(&patch) {
                    *b += p;
                }
                x.recv_sparse(at, next(i), n)?;
            }

            // Mixing with replica averages over the active ring:
            // x_i ← (x̂_{i−1} + x_i + x̂_{i+1})/3. Reads only the (now
            // settled) broadcast replicas, writes only worker i —
            // parallel per lane.
            let broadcast = &*broadcast;
            let items = fleet.workers_mut_at(&ranks);
            ctx.exec.par_map(items, |i, (_, w)| {
                let (prev, next) = (&broadcast[prev(i)], &broadcast[next(i)]);
                w.update_flat(|flat| {
                    for p in 0..flat.len() {
                        flat[p] = (prev[p] + flat[p] + next[p]) / 3.0;
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
        })
    }
}

impl<X: Exchange> Trainer for DcdPsgd<X> {
    fn name(&self) -> &'static str {
        "DCD-PSGD"
    }

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        self.try_step(ctx)
            .unwrap_or_else(|e| panic!("DCD-PSGD round failed: {e}"))
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
        self.fleet.set_active(rank, active, 3)?;
        if active {
            // A returning worker's neighbours resume from its broadcast
            // state; re-anchor the broadcast to its actual (frozen) model
            // so the first diff after rejoin is small and honest.
            self.broadcast[rank] = self.fleet.worker(rank).flat();
        }
        Ok(())
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

    fn setup(n: usize, c: f64) -> (DcdPsgd, Dataset, BandwidthMatrix) {
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, val) = ds.split(0.25, 0);
        let fleet = Fleet::new(n, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        (
            DcdPsgd::new(fleet, c).unwrap(),
            val,
            BandwidthMatrix::constant(n, 1.0),
        )
    }

    #[test]
    fn traffic_is_compressed() {
        let (mut algo, _, bw) = setup(4, 4.0);
        let mut t = TrafficAccountant::new(4);
        algo.round(&mut t, &bw);
        let k = (algo.model_len() as f64 / 4.0).round() as usize;
        assert_eq!(t.worker_sent(0), 2 * codec::sparse_iv_bytes(k));
    }

    #[test]
    fn converges_with_c4() {
        let (mut algo, val, bw) = setup(4, 4.0);
        let mut t = TrafficAccountant::new(4);
        for _ in 0..150 {
            algo.round(&mut t, &bw);
        }
        let acc = algo.evaluate(&val, 300);
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn broadcast_replicas_track_models() {
        // The replica error ‖x_i − broadcast_i‖ must stay bounded: each
        // round's top-k patch removes the largest discrepancies.
        let (mut algo, _, bw) = setup(4, 4.0);
        let mut t = TrafficAccountant::new(4);
        for _ in 0..30 {
            algo.round(&mut t, &bw);
        }
        for r in 0..4 {
            let x = algo.fleet.worker(r).flat();
            let err: f32 = x
                .iter()
                .zip(&algo.broadcast[r])
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(err < 1.0, "replica error {err} at worker {r}");
        }
    }

    #[test]
    fn churn_survivors_keep_training() {
        let (mut algo, val, bw) = setup(5, 4.0);
        let mut t = TrafficAccountant::new(5);
        for _ in 0..20 {
            algo.round(&mut t, &bw);
        }
        algo.set_worker_active(4, false).unwrap();
        for _ in 0..40 {
            let rep = algo.round(&mut t, &bw);
            assert!(rep.mean_loss.is_finite());
        }
        algo.set_worker_active(4, true).unwrap();
        for _ in 0..40 {
            algo.round(&mut t, &bw);
        }
        let acc = algo.evaluate(&val, 300);
        assert!(acc > 0.4, "post-churn accuracy {acc}");
    }

    #[test]
    fn cheaper_than_dpsgd() {
        use crate::DPsgd;
        let (mut dcd, _, bw) = setup(4, 4.0);
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, _) = ds.split(0.25, 0);
        let fleet = Fleet::new(4, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        let mut dp = DPsgd::new(fleet).unwrap();
        let mut t1 = TrafficAccountant::new(4);
        let mut t2 = TrafficAccountant::new(4);
        dcd.round(&mut t1, &bw);
        dp.round(&mut t2, &bw);
        assert!(t1.worker_total(0) < t2.worker_total(0));
    }
}
