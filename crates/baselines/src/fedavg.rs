//! FedAvg: the canonical parameter-server federated-learning baseline.

use crate::common::{check_sampling, ps_client_phase, ClientPhase};
use crate::exchange::{run_round, Direct, Exchange, Node, Payload};
use crate::Fleet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use saps_compress::codec;
use saps_core::{round_report, ConfigError, RoundCtx, RoundReport, Trainer};
use saps_data::Dataset;
use saps_tensor::rng::{derive_seed, streams};

/// FedAvg hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedAvgConfig {
    /// Fraction of workers selected per round (the paper uses 0.5).
    pub participation: f64,
    /// Local SGD steps each selected worker runs before uploading.
    pub local_steps: usize,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        FedAvgConfig {
            participation: 0.5,
            local_steps: 5,
        }
    }
}

/// FedAvg \[35\]: each round the server samples a fraction of the *active*
/// workers, ships them the global model, lets them run several local SGD
/// steps from the copy they received, and averages the models they
/// upload, in ascending client order.
///
/// The server is placed at the best-connected node
/// ([`saps_netsim::BandwidthMatrix::best_server`]) exactly as the paper's
/// Section IV-D does when charging FedAvg's communication time. Placement
/// is decided once, from the first round's measurements, and then pinned:
/// under drifting bandwidths a per-round re-placement would teleport the
/// server model between nodes at zero cost, undercharging FedAvg in
/// exactly the dynamic-network comparisons. Churn is trivial for a PS
/// algorithm: inactive workers simply drop out of the sampling pool (the
/// server model is the source of truth).
pub struct FedAvg<X: Exchange = Direct> {
    fleet: Fleet,
    cfg: FedAvgConfig,
    server_model: Vec<f32>,
    /// Pinned server placement (decided on the first round).
    server: Option<usize>,
    rng: StdRng,
    x: X,
    rounds: u64,
}

impl FedAvg {
    /// Wraps a fleet; exchanges stay in memory. `seed` drives client
    /// sampling.
    pub fn new(fleet: Fleet, cfg: FedAvgConfig, seed: u64) -> Result<Self, ConfigError> {
        Self::over(fleet, cfg, seed, Direct::new())
    }
}

impl<X: Exchange> FedAvg<X> {
    /// Wraps a fleet exchanging over `fabric`. `seed` drives client
    /// sampling.
    pub fn over(
        fleet: Fleet,
        cfg: FedAvgConfig,
        seed: u64,
        fabric: X,
    ) -> Result<Self, ConfigError> {
        check_sampling("FedAvgConfig", cfg.participation, cfg.local_steps)?;
        let server_model = fleet.worker(0).flat();
        Ok(FedAvg {
            fleet,
            cfg,
            server_model,
            server: None,
            rng: StdRng::seed_from_u64(derive_seed(seed, 0, streams::CLIENT_SAMPLE)),
            x: fabric,
            rounds: 0,
        })
    }

    /// The hyper-parameters in use.
    pub fn config(&self) -> FedAvgConfig {
        self.cfg
    }

    /// Samples this round's client set from the active workers.
    fn sample_clients(&mut self) -> Vec<usize> {
        let mut ranks = self.fleet.active_ranks();
        let m = ranks.len();
        let k = ((m as f64 * self.cfg.participation).round() as usize).clamp(1, m);
        ranks.shuffle(&mut self.rng);
        ranks.truncate(k);
        ranks.sort_unstable();
        ranks
    }

    /// Runs one round, surfacing fabric faults as typed errors.
    pub fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, X::Error> {
        let clients = self.sample_clients();
        let server = *self.server.get_or_insert_with(|| ctx.bw.best_server());
        let (fleet, server_model, cfg) = (&mut self.fleet, &mut self.server_model, self.cfg);
        run_round(&mut self.x, &mut self.rounds, ctx, |x, _, ctx| {
            let n = fleet.n_params();
            let ClientPhase { loss, acc, down } = ps_client_phase(
                fleet,
                x,
                ctx,
                server,
                &clients,
                server_model,
                cfg.local_steps,
            )?;
            let steps = (clients.len() * cfg.local_steps) as f64;

            // Dense uploads, averaged at the server from the copies it
            // received.
            let mut transfers = Vec::with_capacity(clients.len());
            for &r in &clients {
                let model = Payload::Dense(fleet.worker(r).flat());
                transfers.push((r, x.send(r, Node::Worker(server), model)?, down[&r]));
                ctx.traffic.record_upload(r, codec::dense_bytes(n));
            }
            let mut accum = vec![0.0f32; n];
            for &r in &clients {
                let flat = x.recv_dense(Node::Worker(server), r, n)?;
                for (a, v) in accum.iter_mut().zip(&flat) {
                    *a += v;
                }
            }
            let inv = 1.0 / clients.len() as f32;
            for a in &mut accum {
                *a *= inv;
            }
            *server_model = accum;
            let timing = ctx.price_ps(server, &transfers);
            let stats = ((loss / steps) as f32, (acc / steps) as f32);
            let epochs = fleet.epochs_per_round() * cfg.local_steps as f64 * cfg.participation;
            Ok(round_report(stats, &timing, epochs, (0.0, 0.0)))
        })
    }
}

impl<X: Exchange> Trainer for FedAvg<X> {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        self.try_step(ctx)
            .unwrap_or_else(|e| panic!("FedAvg round failed: {e}"))
    }

    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        let server = self.server_model.clone();
        self.fleet.evaluate_flat(&server, val, max_samples)
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
        Ok(saps_core::checkpoint::encode(&self.server_model, self.rounds).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::SyntheticSpec;
    use saps_netsim::{BandwidthMatrix, TrafficAccountant};
    use saps_nn::zoo;

    fn setup(n: usize) -> (FedAvg, Dataset, BandwidthMatrix) {
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, val) = ds.split(0.25, 0);
        let fleet = Fleet::new(n, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        (
            FedAvg::new(fleet, FedAvgConfig::default(), 5).unwrap(),
            val,
            BandwidthMatrix::constant(n, 1.0),
        )
    }

    #[test]
    fn half_participation_selects_half() {
        let (mut algo, _, _) = setup(8);
        let c = algo.sample_clients();
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ds = SyntheticSpec::tiny().samples(400).generate(1);
        let mk = || Fleet::new(4, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 3, 16, 0.1).unwrap();
        let cfg = FedAvgConfig {
            participation: 0.0,
            local_steps: 5,
        };
        assert!(FedAvg::new(mk(), cfg, 5).is_err());
        let cfg = FedAvgConfig {
            participation: 0.5,
            local_steps: 0,
        };
        assert!(FedAvg::new(mk(), cfg, 5).is_err());
    }

    #[test]
    fn server_traffic_is_2nk_per_round() {
        let (mut algo, _, bw) = setup(8);
        let mut t = TrafficAccountant::new(8);
        algo.round(&mut t, &bw);
        let n_params = algo.model_len() as u64;
        // 4 clients × (download N + upload N) × 4 bytes.
        assert_eq!(t.server_total(), 4 * 2 * 4 * n_params);
    }

    #[test]
    fn converges() {
        let (mut algo, val, bw) = setup(8);
        let mut t = TrafficAccountant::new(8);
        for _ in 0..60 {
            algo.round(&mut t, &bw);
        }
        let acc = algo.evaluate(&val, 300);
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn inactive_workers_leave_the_sampling_pool() {
        let (mut algo, _, bw) = setup(8);
        algo.set_worker_active(0, false).unwrap();
        algo.set_worker_active(1, false).unwrap();
        for _ in 0..20 {
            let c = algo.sample_clients();
            assert_eq!(c.len(), 3); // round(6 * 0.5)
            assert!(c.iter().all(|&r| r >= 2), "sampled inactive worker: {c:?}");
        }
        let mut t = TrafficAccountant::new(8);
        let rep = algo.round(&mut t, &bw);
        assert!(rep.mean_loss.is_finite());
        assert_eq!(t.worker_total(0), 0);
    }

    #[test]
    fn round_time_counts_slowest_client() {
        let (mut algo, _, mut bw) = setup(4);
        // Make one worker slow to *everyone*, so whichever node hosts the
        // server, that client's link is the bottleneck when selected.
        let victim = 1;
        for other in 0..4 {
            if other != victim {
                bw.set(victim, other, 0.001);
            }
        }
        let mut t = TrafficAccountant::new(4);
        // Run several rounds: whenever the victim is selected the round
        // time must reflect the slow link.
        let mut saw_slow = false;
        for _ in 0..10 {
            let rep = algo.round(&mut t, &bw);
            if rep.comm_time_s > 1.0 {
                saw_slow = true;
            }
        }
        assert!(saw_slow, "slow client never gated a round");
    }
}
