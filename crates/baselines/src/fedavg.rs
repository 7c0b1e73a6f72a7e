//! FedAvg: the canonical parameter-server federated-learning baseline.

use crate::common::{check_sampling, ps_client_phase, sample_clients, ClientPhase};
use crate::exchange::{Direct, Exchange, Node, Payload};
use crate::Fleet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_compress::codec;
use saps_core::{round_report, Algorithm, ConfigError, RoundCtx, RoundReport, Rounds};
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

/// FedAvg \[35\] — the [`ParameterServer`] algorithm run by [`Rounds`].
pub type FedAvg<X = Direct> = Rounds<ParameterServer, X>;

/// [`FedAvg`]'s round: the server samples a fraction of the *active*
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
/// server model is the source of truth, and the consensus).
#[derive(Debug)]
pub struct ParameterServer {
    cfg: FedAvgConfig,
    server_model: Vec<f32>,
    /// Pinned server placement (decided on the first round).
    server: Option<usize>,
    rng: StdRng,
}

impl ParameterServer {
    /// Starts from `fleet`'s initial model; `seed` drives client
    /// sampling.
    pub fn new(fleet: &Fleet, cfg: FedAvgConfig, seed: u64) -> Result<Self, ConfigError> {
        check_sampling("FedAvgConfig", cfg.participation, cfg.local_steps)?;
        Ok(ParameterServer {
            cfg,
            server_model: fleet.worker(0).flat(),
            server: None,
            rng: StdRng::seed_from_u64(derive_seed(seed, 0, streams::CLIENT_SAMPLE)),
        })
    }
}

impl Algorithm for ParameterServer {
    const NAME: &'static str = "FedAvg";

    fn round<X: Exchange>(
        &mut self,
        fleet: &mut Fleet,
        x: &mut X,
        _: u64,
        ctx: &mut RoundCtx<'_>,
    ) -> Result<RoundReport, X::Error> {
        let mut clients = sample_clients(fleet, self.cfg.participation, &mut self.rng);
        clients.sort_unstable();
        let server = *self.server.get_or_insert_with(|| ctx.bw.best_server());
        let (server_model, cfg) = (&mut self.server_model, self.cfg);
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
    }

    fn consensus<X: Exchange>(&self, _: &Fleet, _: &mut X, _: u64) -> Result<Vec<f32>, X::Error> {
        Ok(self.server_model.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_core::Trainer;
    use saps_data::{Dataset, SyntheticSpec};
    use saps_netsim::{BandwidthMatrix, TrafficAccountant};
    use saps_nn::zoo;

    fn fleet_and_val(n: usize) -> (Fleet, Dataset) {
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, val) = ds.split(0.25, 0);
        let fleet = Fleet::new(n, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        (fleet, val)
    }

    fn setup(n: usize) -> (FedAvg, Dataset, BandwidthMatrix) {
        let (fleet, val) = fleet_and_val(n);
        let algo = ParameterServer::new(&fleet, FedAvgConfig::default(), 5).unwrap();
        (
            Rounds::of(algo, fleet, Direct::new()).unwrap(),
            val,
            BandwidthMatrix::constant(n, 1.0),
        )
    }

    #[test]
    fn half_participation_selects_half() {
        let (fleet, _) = fleet_and_val(8);
        let mut algo = ParameterServer::new(&fleet, FedAvgConfig::default(), 5).unwrap();
        assert_eq!(sample_clients(&fleet, 0.5, &mut algo.rng).len(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ds = SyntheticSpec::tiny().samples(400).generate(1);
        let mk = || Fleet::new(4, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 3, 16, 0.1).unwrap();
        let cfg = FedAvgConfig {
            participation: 0.0,
            local_steps: 5,
        };
        assert!(ParameterServer::new(&mk(), cfg, 5).is_err());
        let cfg = FedAvgConfig {
            participation: 0.5,
            local_steps: 0,
        };
        assert!(ParameterServer::new(&mk(), cfg, 5).is_err());
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
        let (mut fleet, _) = fleet_and_val(8);
        fleet.set_active(0, false, 2).unwrap();
        fleet.set_active(1, false, 2).unwrap();
        let mut server = ParameterServer::new(&fleet, FedAvgConfig::default(), 5).unwrap();
        for _ in 0..20 {
            let c = sample_clients(&fleet, 0.5, &mut server.rng);
            assert_eq!(c.len(), 3); // round(6 * 0.5)
            assert!(c.iter().all(|&r| r >= 2), "sampled inactive worker: {c:?}");
        }
        let mut algo = Rounds::of(server, fleet, Direct::new()).unwrap();
        let bw = BandwidthMatrix::constant(8, 1.0);
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
