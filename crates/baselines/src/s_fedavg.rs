//! S-FedAvg: FedAvg with random-mask sparsified uploads \[5\].

use crate::common::{
    check_compression, check_sampling, ps_client_phase, sample_clients, ClientPhase,
};
use crate::exchange::{Direct, Exchange, Node, Payload};
use crate::Fleet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saps_compress::codec;
use saps_compress::mask::RandomMask;
use saps_core::{round_report, Algorithm, ConfigError, RoundCtx, RoundReport, Rounds};
use saps_tensor::rng::{derive_seed, streams};

/// Sparse FedAvg (Konečný et al.'s "random mask" structured update) —
/// the [`SparseParameterServer`] algorithm run by [`Rounds`].
pub type SFedAvg<X = Direct> = Rounds<SparseParameterServer, X>;

/// [`SFedAvg`]'s round: downloads stay dense, but each selected client
/// uploads only the coordinates of a per-round random mask (compression
/// ratio `c`); the server averages the masked coordinates and keeps its
/// own values for the rest.
///
/// Per Table I the worker cost is `(N + 2N/c)·T`: the dense down-link is
/// untouched — the asymmetry SAPS-PSGD's shared-seed trick removes.
/// Like [`crate::FedAvg`], server placement is pinned from the first
/// round's measurements so drifting bandwidths can't migrate the server
/// for free.
#[derive(Debug)]
pub struct SparseParameterServer {
    participation: f64,
    local_steps: usize,
    compression: f64,
    server_model: Vec<f32>,
    /// Pinned server placement (decided on the first round).
    server: Option<usize>,
    rng: StdRng,
    /// The per-client upload mask, regenerated in place per client to
    /// reuse its buffer.
    mask: RandomMask,
}

impl SparseParameterServer {
    /// Starts from `fleet`'s initial model; `seed` drives client
    /// sampling and the upload masks. The paper uses
    /// `participation = 0.5`, `c = 100`.
    pub fn new(
        fleet: &Fleet,
        participation: f64,
        local_steps: usize,
        compression: f64,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        check_sampling("SFedAvg", participation, local_steps)?;
        check_compression("SFedAvg", compression)?;
        Ok(SparseParameterServer {
            participation,
            local_steps,
            compression,
            server_model: fleet.worker(0).flat(),
            server: None,
            rng: StdRng::seed_from_u64(derive_seed(seed, 1, streams::CLIENT_SAMPLE)),
            mask: RandomMask::from_indices(fleet.n_params(), Vec::new()),
        })
    }
}

impl Algorithm for SparseParameterServer {
    const NAME: &'static str = "S-FedAvg";

    fn round<X: Exchange>(
        &mut self,
        fleet: &mut Fleet,
        x: &mut X,
        t: u64,
        ctx: &mut RoundCtx<'_>,
    ) -> Result<RoundReport, X::Error> {
        // The sampled client list stays in shuffled order — the upload
        // mask RNG draws and the server fold both follow it.
        let clients = sample_clients(fleet, self.participation, &mut self.rng);
        let server = *self.server.get_or_insert_with(|| ctx.bw.best_server());
        let (local_steps, compression, participation) =
            (self.local_steps, self.compression, self.participation);
        let server_model = &mut self.server_model;
        let (rng, mask) = (&mut self.rng, &mut self.mask);
        let n = fleet.n_params();
        // Dense download + local steps per selected client (the
        // client set and every mask below come from the sequential
        // sampling RNG, so the fan-out leaves the exchange
        // untouched).
        let ClientPhase { loss, acc, down } =
            ps_client_phase(fleet, x, ctx, server, &clients, server_model, local_steps)?;
        let steps = (clients.len() * local_steps) as f64;

        // Sparse uploads over *per-client* random masks ([5]'s
        // "random mask" structured update): each client sends
        // (index, value) pairs — 8 bytes/coordinate, the 2N/c of
        // Table I. The server averages each coordinate over the
        // uploads it received that included it, so the union of
        // masks covers most of the model each round.
        let mut sums = vec![0.0f32; n];
        let mut counts = vec![0u32; n];
        let mut transfers = Vec::with_capacity(clients.len());
        for &r in &clients {
            mask.regenerate(n, compression, rng.gen(), t);
            let upload = Payload::Sparse {
                indices: mask.indices().to_vec(),
                values: fleet.worker(r).sparse_payload(mask),
            };
            transfers.push((r, x.send(r, Node::Worker(server), upload)?, down[&r]));
            ctx.traffic
                .record_upload(r, codec::sparse_iv_bytes(mask.nnz()));
            let (indices, values) = x.recv_sparse(Node::Worker(server), r, n)?;
            for (&i, &v) in indices.iter().zip(&values) {
                sums[i as usize] += v;
                counts[i as usize] += 1;
            }
        }
        for i in 0..n {
            if counts[i] > 0 {
                server_model[i] = sums[i] / counts[i] as f32;
            }
        }
        let timing = ctx.price_ps(server, &transfers);
        let stats = ((loss / steps) as f32, (acc / steps) as f32);
        let epochs = fleet.epochs_per_round() * local_steps as f64 * participation;
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

    fn setup(n: usize, c: f64) -> (SFedAvg, Dataset, BandwidthMatrix) {
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, val) = ds.split(0.25, 0);
        let fleet = Fleet::new(n, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        let algo = SparseParameterServer::new(&fleet, 0.5, 5, c, 5).unwrap();
        (
            Rounds::of(algo, fleet, Direct::new()).unwrap(),
            val,
            BandwidthMatrix::constant(n, 1.0),
        )
    }

    #[test]
    fn uploads_are_sparse_downloads_dense() {
        let (mut algo, _, bw) = setup(8, 10.0);
        let mut t = TrafficAccountant::new(8);
        algo.round(&mut t, &bw);
        let n_params = algo.model_len() as u64;
        // Find a selected worker: received the dense model.
        let selected: Vec<usize> = (0..8).filter(|&r| t.worker_recv(r) > 0).collect();
        assert_eq!(selected.len(), 4);
        for &r in &selected {
            assert_eq!(t.worker_recv(r), 4 * n_params);
            assert!(t.worker_sent(r) < n_params); // ~8·N/10 bytes < 4·N
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ds = SyntheticSpec::tiny().samples(400).generate(1);
        let mk = || Fleet::new(4, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 3, 16, 0.1).unwrap();
        assert!(SparseParameterServer::new(&mk(), 0.0, 5, 10.0, 5).is_err());
        assert!(SparseParameterServer::new(&mk(), 0.5, 0, 10.0, 5).is_err());
        assert!(SparseParameterServer::new(&mk(), 0.5, 5, 0.5, 5).is_err());
    }

    #[test]
    fn converges_with_moderate_compression() {
        let (mut algo, val, bw) = setup(8, 10.0);
        let mut t = TrafficAccountant::new(8);
        for _ in 0..80 {
            algo.round(&mut t, &bw);
        }
        let acc = algo.evaluate(&val, 300);
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn churned_workers_are_not_sampled() {
        let (mut algo, _, bw) = setup(8, 10.0);
        algo.set_worker_active(7, false).unwrap();
        let mut t = TrafficAccountant::new(8);
        for _ in 0..10 {
            algo.round(&mut t, &bw);
        }
        assert_eq!(t.worker_total(7), 0, "inactive worker was selected");
    }

    #[test]
    fn cheaper_than_dense_fedavg_per_round() {
        use crate::{FedAvg, FedAvgConfig, ParameterServer};
        let (mut sparse, _, bw) = setup(8, 100.0);
        let ds = SyntheticSpec::tiny().samples(1_200).generate(1);
        let (train, _) = ds.split(0.25, 0);
        let fleet = Fleet::new(8, &train, |rng| zoo::mlp(&[16, 24, 4], rng), 3, 16, 0.1).unwrap();
        let server = ParameterServer::new(&fleet, FedAvgConfig::default(), 5).unwrap();
        let mut dense: FedAvg = Rounds::of(server, fleet, Direct::new()).unwrap();
        let mut ts = TrafficAccountant::new(8);
        let mut td = TrafficAccountant::new(8);
        for _ in 0..5 {
            sparse.round(&mut ts, &bw);
            dense.round(&mut td, &bw);
        }
        assert!(ts.server_total() < td.server_total());
    }
}
