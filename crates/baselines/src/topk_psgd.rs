//! TopK-PSGD: dense-convergence sparsified gradients with error feedback.

use crate::common::check_compression;
use crate::exchange::{mean_stats, run_round, Direct, Exchange, Node, Payload};
use crate::Fleet;
use saps_compress::codec;
use saps_compress::topk::ErrorFeedbackTopK;
use saps_core::{round_report, ConfigError, RoundCtx, RoundReport, Trainer};
use saps_data::Dataset;
use saps_netsim::BandwidthMatrix;

/// TopK-PSGD \[20\], \[34\]: each worker sends the top `N/c` coordinates of
/// its error-compensated gradient to **all** other active workers (sparse
/// allgather), then every replica applies the same averaged sparse
/// update — folded, at each worker, from the payloads *it* received in
/// ascending rank order (its own slotting in where a real allgather
/// keeps it).
///
/// Per-worker traffic is `2·n·(N/c)` parameters per round (Table I) —
/// local sparsification does not remove the linear-in-`n` factor, which
/// is exactly the weakness SAPS-PSGD attacks.
pub struct TopKPsgd<X: Exchange = Direct> {
    fleet: Fleet,
    compressors: Vec<ErrorFeedbackTopK>,
    compression: f64,
    x: X,
    rounds: u64,
    /// The bandwidths the trainer was last told — what a joiner's donors
    /// are ranked from (`None`: by ascending rank).
    bw: Option<BandwidthMatrix>,
}

impl TopKPsgd {
    /// Wraps a fleet with compression ratio `c` (the paper uses 1000);
    /// exchanges stay in memory.
    pub fn new(fleet: Fleet, compression: f64) -> Result<Self, ConfigError> {
        Self::over(fleet, compression, Direct::new())
    }
}

impl<X: Exchange> TopKPsgd<X> {
    /// Wraps a fleet with compression ratio `c`, exchanging over
    /// `fabric`.
    pub fn over(fleet: Fleet, compression: f64, fabric: X) -> Result<Self, ConfigError> {
        check_compression("TopKPsgd", compression)?;
        let n_params = fleet.n_params();
        let compressors = (0..fleet.len())
            .map(|_| ErrorFeedbackTopK::with_ratio(n_params, compression))
            .collect();
        Ok(TopKPsgd {
            fleet,
            compressors,
            compression,
            x: fabric,
            rounds: 0,
            bw: None,
        })
    }

    /// The compression ratio in use.
    pub fn compression(&self) -> f64 {
        self.compression
    }

    /// Runs one round, surfacing fabric faults as typed errors.
    pub fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, X::Error> {
        let fleet = &mut self.fleet;
        let compressors = &mut self.compressors;
        run_round(&mut self.x, &mut self.rounds, ctx, |x, _, ctx| {
            let ranks = fleet.active_ranks();
            let m = ranks.len();
            let n = fleet.n_params();
            let per_worker = fleet.accumulate_grads_all_on(&ctx.exec);
            let stats = mean_stats(x, &per_worker)?;

            // Compress every active worker's gradient with its private
            // residual — per-worker state, so the top-k selection fans
            // out with the compute phase.
            let payloads = {
                let fleet = &*fleet;
                let comp_items = crate::select_ranked_mut(compressors, &ranks);
                ctx.exec.par_map(comp_items, |_, (r, comp)| {
                    comp.compress(&fleet.worker(r).model().flat_grads())
                })
            };
            // Allgather: every worker ships its payload to each of the
            // others.
            let mut largest = 0u64;
            for (i, (indices, values)) in payloads.iter().enumerate() {
                for (j, &dst) in ranks.iter().enumerate() {
                    if j != i {
                        let payload = Payload::Sparse {
                            indices: indices.clone(),
                            values: values.clone(),
                        };
                        largest = largest.max(x.send(ranks[i], Node::Worker(dst), payload)?);
                        ctx.traffic.record_p2p(
                            ranks[i],
                            dst,
                            codec::sparse_iv_bytes(indices.len()),
                        );
                    }
                }
            }
            // Each worker folds the m payloads it holds into the mean
            // gradient, ascending rank. Adding `(index, value)` pairs
            // into a zeroed vector is bit-identical to densifying each
            // payload first: the skipped terms are `+ 0.0`, and no
            // partial sum here can be `-0.0`.
            let inv = 1.0 / m as f32;
            let mut means: Vec<Vec<f32>> = Vec::with_capacity(m);
            for i in 0..m {
                let mut mean = vec![0.0f32; n];
                let mut fold = |indices: &[u32], values: &[f32]| {
                    for (&k, &v) in indices.iter().zip(values) {
                        mean[k as usize] += inv * v;
                    }
                };
                for (pos, &src) in ranks.iter().enumerate() {
                    if pos == i {
                        fold(&payloads[i].0, &payloads[i].1);
                    } else {
                        let (indices, values) = x.recv_sparse(Node::Worker(ranks[i]), src, n)?;
                        fold(&indices, &values);
                    }
                }
                means.push(mean);
            }
            let lr = fleet.lr;
            let means = &means;
            let items = fleet.workers_mut_at(&ranks);
            ctx.exec.par_map(items, |i, (_, w)| {
                w.add_scaled(-lr, &means[i]);
                w.model_mut().zero_grads();
            });

            // (m-1) sequential payloads over the slowest active link
            // gate the allgather.
            let timing = ctx.price_allgather(&ranks, largest);
            let mut min_link = f64::INFINITY;
            let mut sum_link = 0.0f64;
            let mut links = 0usize;
            for i in 0..m {
                for j in 0..m {
                    if i != j {
                        let l = ctx.bw.get(ranks[i], ranks[j]);
                        min_link = min_link.min(l);
                        sum_link += l;
                        links += 1;
                    }
                }
            }
            let links = (sum_link / links.max(1) as f64, min_link);
            Ok(round_report(
                stats,
                &timing,
                fleet.epochs_per_round(),
                links,
            ))
        })
    }
}

impl<X: Exchange> Trainer for TopKPsgd<X> {
    fn name(&self) -> &'static str {
        "TopK-PSGD"
    }

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        self.try_step(ctx)
            .unwrap_or_else(|e| panic!("TopK-PSGD round failed: {e}"))
    }

    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        let first = self.fleet.active_ranks()[0];
        let flat = self.fleet.worker(first).flat();
        self.fleet.evaluate_flat(&flat, val, max_samples)
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
            // Resync the joiner so replicas stay bit-identical; its stale
            // error-feedback residual is cleared with the model.
            self.fleet
                .resync_joiner(&mut self.x, self.rounds, rank, self.bw.as_ref())?;
            self.compressors[rank] =
                ErrorFeedbackTopK::with_ratio(self.fleet.n_params(), self.compression);
        }
        Ok(())
    }

    fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        self.bw = Some(bw.clone());
    }

    fn export_checkpoint(&mut self) -> Result<Vec<u8>, ConfigError> {
        let first = self.fleet.active_ranks()[0];
        let flat = self.fleet.worker(first).flat();
        Ok(saps_core::checkpoint::encode(&flat, self.rounds).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::SyntheticSpec;
    use saps_netsim::{BandwidthMatrix, TrafficAccountant};
    use saps_nn::zoo;

    fn setup(n: usize, c: f64) -> (TopKPsgd, Dataset, BandwidthMatrix) {
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, val) = ds.split(0.25, 0);
        let fleet = Fleet::new(n, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        (
            TopKPsgd::new(fleet, c).unwrap(),
            val,
            BandwidthMatrix::constant(n, 1.0),
        )
    }

    #[test]
    fn replicas_stay_identical() {
        let (mut algo, _, bw) = setup(4, 10.0);
        let mut t = TrafficAccountant::new(4);
        for _ in 0..5 {
            algo.round(&mut t, &bw);
        }
        let base = algo.fleet.worker(0).flat();
        for r in 1..4 {
            assert_eq!(base, algo.fleet.worker(r).flat());
        }
    }

    #[test]
    fn converges_despite_heavy_sparsification() {
        let (mut algo, val, bw) = setup(4, 20.0);
        let mut t = TrafficAccountant::new(4);
        for _ in 0..200 {
            algo.round(&mut t, &bw);
        }
        let acc = algo.evaluate(&val, 300);
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn traffic_linear_in_worker_count() {
        let (mut a4, _, bw4) = setup(4, 10.0);
        let (mut a8, _, bw8) = setup(8, 10.0);
        let mut t4 = TrafficAccountant::new(4);
        let mut t8 = TrafficAccountant::new(8);
        a4.round(&mut t4, &bw4);
        a8.round(&mut t8, &bw8);
        let ratio = t8.worker_sent(0) as f64 / t4.worker_sent(0) as f64;
        // (8-1)/(4-1) ≈ 2.33 — the allgather's linear-in-n cost.
        assert!((ratio - 7.0 / 3.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn payload_respects_compression_ratio() {
        let (mut algo, _, bw) = setup(4, 10.0);
        let mut t = TrafficAccountant::new(4);
        algo.round(&mut t, &bw);
        let k = (algo.model_len() as f64 / 10.0).round() as usize;
        let expect_per_peer = codec::sparse_iv_bytes(k);
        assert_eq!(t.worker_sent(0), expect_per_peer * 3);
    }

    #[test]
    fn invalid_compression_is_rejected() {
        let ds = SyntheticSpec::tiny().samples(400).generate(1);
        let fleet = Fleet::new(4, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 3, 16, 0.1).unwrap();
        assert!(TopKPsgd::new(fleet, 0.0).is_err());
    }

    #[test]
    fn churn_keeps_survivors_identical() {
        let (mut algo, _, bw) = setup(4, 10.0);
        let mut t = TrafficAccountant::new(4);
        algo.round(&mut t, &bw);
        algo.set_worker_active(1, false).unwrap();
        for _ in 0..3 {
            algo.round(&mut t, &bw);
        }
        let ranks = algo.fleet.active_ranks();
        let base = algo.fleet.worker(ranks[0]).flat();
        for &r in &ranks[1..] {
            assert_eq!(base, algo.fleet.worker(r).flat());
        }
        algo.set_worker_active(1, true).unwrap();
        assert_eq!(algo.fleet.worker(1).flat(), base);
    }
}
