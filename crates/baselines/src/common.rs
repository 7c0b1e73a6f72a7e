//! Shared scaffolding for baseline algorithms: a fleet of workers with
//! identical initial replicas and a first-class membership (active) mask,
//! so worker churn is driven uniformly through the [`saps_core::Trainer`]
//! interface instead of per-algorithm side doors.

use crate::exchange::{reduce_stats, Exchange, Node, Payload, WorkerStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_compress::codec;
use saps_core::{ConfigError, Executor, RoundCtx, RoundReport, RoundTiming, Worker};
use saps_data::{partition, Dataset};
use saps_graph::topology;
use saps_netsim::BandwidthMatrix;
use saps_nn::Model;
use saps_tensor::rng::{derive_seed, streams};
use std::collections::BTreeMap;

/// What [`Fleet::ps_client_phase`] hands the server-side half of a
/// parameter-server round.
pub(crate) struct ClientPhase {
    /// `Σ loss` over every client's local steps.
    pub loss: f64,
    /// `Σ accuracy` over every client's local steps.
    pub acc: f64,
    /// Bytes each client's download occupied on the link, by rank.
    pub down: BTreeMap<usize, u64>,
}

/// Constructor check: a compression ratio is a finite `c ≥ 1`.
pub(crate) fn check_compression(what: &'static str, c: f64) -> Result<(), ConfigError> {
    if c >= 1.0 && c.is_finite() {
        return Ok(());
    }
    Err(ConfigError::invalid(
        what,
        format!("compression {c} must be a finite ratio >= 1"),
    ))
}

/// Constructor check: a ring needs at least 3 workers.
pub(crate) fn check_ring(what: &'static str, fleet: &Fleet) -> Result<(), ConfigError> {
    if fleet.len() >= 3 {
        return Ok(());
    }
    Err(ConfigError::invalid(
        what,
        format!("a ring needs at least 3 workers, got {}", fleet.len()),
    ))
}

/// Constructor check: client sampling takes a fraction in `(0, 1]` of
/// the fleet through at least one local step.
pub(crate) fn check_sampling(
    what: &'static str,
    participation: f64,
    local_steps: usize,
) -> Result<(), ConfigError> {
    if !(participation > 0.0 && participation <= 1.0) {
        return Err(ConfigError::invalid(
            what,
            format!("participation {participation} must be in (0, 1]"),
        ));
    }
    if local_steps == 0 {
        return Err(ConfigError::invalid(what, "local_steps must be >= 1"));
    }
    Ok(())
}

/// A round's report: mean `(loss, accuracy)`, the priced timing, the
/// fraction of an epoch advanced, and the `(mean, min)` bandwidth of the
/// worker-to-worker links used (zeros for parameter-server rounds).
pub(crate) fn round_report(
    (mean_loss, mean_acc): (f32, f32),
    timing: &RoundTiming,
    epochs_advanced: f64,
    (mean_link, min_link): (f64, f64),
) -> RoundReport {
    let mut rep = RoundReport::new();
    rep.mean_loss = mean_loss;
    rep.mean_acc = mean_acc;
    rep.set_timing(timing);
    rep.epochs_advanced = epochs_advanced;
    rep.mean_link_bandwidth = mean_link;
    rep.min_link_bandwidth = min_link;
    rep
}

/// `(mean, min)` bandwidth over the links of the ring through `ranks`.
pub(crate) fn ring_link_stats(bw: &BandwidthMatrix, ranks: &[usize]) -> (f64, f64) {
    let ring = topology::ring_edges_over(ranks);
    let mean = ring.iter().map(|&(a, b)| bw.get(a, b)).sum::<f64>() / ring.len() as f64;
    let min = ring
        .iter()
        .map(|&(a, b)| bw.get(a, b))
        .fold(f64::INFINITY, f64::min);
    (mean, min)
}

/// `(index, item)` pairs for the items at `ranks`, in ascending index
/// order regardless of the order of `ranks` — the shared selector
/// behind every per-rank fan-out (workers, broadcast replicas,
/// compressors). Centralized so the determinism contract (stable
/// ascending order) cannot drift per call site.
pub fn select_ranked_mut<'a, T>(items: &'a mut [T], ranks: &[usize]) -> Vec<(usize, &'a mut T)> {
    let mut selected = vec![false; items.len()];
    for &r in ranks {
        selected[r] = true;
    }
    items
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| selected[*i])
        .collect()
}

/// A fleet of `n` workers with identically initialized model replicas,
/// an IID (or caller-supplied) data partition, a scratch model for
/// consensus evaluation, and an active mask for churn.
pub struct Fleet {
    workers: Vec<Worker>,
    active: Vec<bool>,
    eval_model: Model,
    n_params: usize,
    /// Mini-batch size per worker per round.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.workers.len())
            .field("active", &self.active_count())
            .field("n_params", &self.n_params)
            .finish()
    }
}

impl Fleet {
    /// Builds a fleet over an IID partition of `train`.
    pub fn new(
        n: usize,
        train: &Dataset,
        factory: impl Fn(&mut StdRng) -> Model,
        seed: u64,
        batch_size: usize,
        lr: f32,
    ) -> Result<Self, ConfigError> {
        let parts = partition::iid(train, n, derive_seed(seed, 0, streams::DATA));
        Self::with_partitions(parts, factory, seed, batch_size, lr)
    }

    /// Builds a fleet over explicit partitions.
    pub fn with_partitions(
        parts: Vec<Dataset>,
        factory: impl Fn(&mut StdRng) -> Model,
        seed: u64,
        batch_size: usize,
        lr: f32,
    ) -> Result<Self, ConfigError> {
        if parts.len() < 2 {
            return Err(ConfigError::invalid("Fleet", "need at least two workers"));
        }
        if batch_size == 0 {
            return Err(ConfigError::invalid("Fleet", "batch_size must be >= 1"));
        }
        let make = || {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0, streams::INIT));
            factory(&mut rng)
        };
        let workers: Vec<Worker> = parts
            .into_iter()
            .enumerate()
            .map(|(rank, data)| Worker::new(rank, make(), data, seed))
            .collect();
        let eval_model = make();
        let n_params = eval_model.num_params();
        Ok(Fleet {
            active: vec![true; workers.len()],
            workers,
            eval_model,
            n_params,
            batch_size,
            lr,
        })
    }

    /// Number of workers (active and inactive).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the fleet is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Model size `N`.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Worker access.
    pub fn worker(&self, rank: usize) -> &Worker {
        &self.workers[rank]
    }

    /// Mutable worker access.
    pub fn worker_mut(&mut self, rank: usize) -> &mut Worker {
        &mut self.workers[rank]
    }

    /// Whether `rank` is currently active.
    pub fn is_active(&self, rank: usize) -> bool {
        self.active[rank]
    }

    /// Number of active workers.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Ranks of currently active workers, ascending.
    pub fn active_ranks(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&r| self.active[r])
            .collect()
    }

    /// Marks a worker active/inactive. Inactive workers keep their model
    /// (they re-join where they left off unless the algorithm resyncs
    /// them). Fails if `rank` is out of range or if `min_active` workers
    /// would not remain.
    pub fn set_active(
        &mut self,
        rank: usize,
        active: bool,
        min_active: usize,
    ) -> Result<(), ConfigError> {
        if rank >= self.workers.len() {
            return Err(ConfigError::invalid(
                "Fleet",
                format!("worker rank {rank} out of range ({})", self.workers.len()),
            ));
        }
        if self.active[rank] == active {
            return Ok(());
        }
        if !active && self.active_count() <= min_active {
            return Err(ConfigError::invalid(
                "Fleet",
                format!("cannot deactivate: at least {min_active} workers must stay active"),
            ));
        }
        self.active[rank] = active;
        Ok(())
    }

    /// `(global rank, worker)` pairs for the active workers, in
    /// ascending rank order — the unit of work the round engine fans
    /// out.
    pub fn active_workers_mut(&mut self) -> Vec<(usize, &mut Worker)> {
        let active = &self.active;
        self.workers
            .iter_mut()
            .enumerate()
            .filter(|(r, _)| active[*r])
            .collect()
    }

    /// `(global rank, worker)` pairs for the given rank subset, in
    /// ascending rank order regardless of the order of `ranks` (so the
    /// fan-out and its reduction are deterministic for any caller).
    pub fn workers_mut_at(&mut self, ranks: &[usize]) -> Vec<(usize, &mut Worker)> {
        select_ranked_mut(&mut self.workers, ranks)
    }

    /// The client phase FedAvg and S-FedAvg share. The server (pinned
    /// at worker `server`) ships `model` to every client; each client
    /// installs the copy *it* received and runs `steps` local SGD
    /// steps, fanned out across the round executor; the per-client
    /// sums cross to the coordinator, reduced in ascending-rank order
    /// (bit-identical at any thread count).
    pub(crate) fn ps_client_phase<X: Exchange>(
        &mut self,
        x: &mut X,
        ctx: &mut RoundCtx<'_>,
        server: usize,
        clients: &[usize],
        model: &[f32],
        steps: usize,
    ) -> Result<ClientPhase, X::Error> {
        let n = self.n_params;
        let mut down = BTreeMap::new();
        for &r in clients {
            ctx.traffic.record_download(r, codec::dense_bytes(n));
            let sent = x.send(server, Node::Worker(r), Payload::Dense(model.to_vec()))?;
            down.insert(r, sent);
        }
        let mut globals = BTreeMap::new();
        for &r in clients {
            globals.insert(r, x.recv_dense(Node::Worker(r), server, n)?);
        }
        let (bs, lr) = (self.batch_size, self.lr);
        let globals = &globals;
        let items = self.workers_mut_at(clients);
        let per_client: Vec<WorkerStats> = ctx.exec.par_map(items, |_, (r, w)| {
            w.set_flat(&globals[&r]);
            let mut l = 0.0f64;
            let mut a = 0.0f64;
            for _ in 0..steps {
                let (li, ai) = w.sgd_step(bs, lr);
                l += li as f64;
                a += ai as f64;
            }
            (r, (l, a))
        });
        let (loss, acc) = reduce_stats(x, &per_client)?;
        Ok(ClientPhase { loss, acc, down })
    }

    /// Runs one local SGD step on every *active* worker, fanning out
    /// across `exec`'s threads; returns each worker's `(loss,
    /// accuracy)` in ascending rank order, so any reduction over them
    /// is bit-identical at any thread count.
    pub fn sgd_step_all_on(&mut self, exec: &Executor) -> Vec<WorkerStats> {
        let (bs, lr) = (self.batch_size, self.lr);
        let items = self.active_workers_mut();
        exec.par_map(items, |_, (r, w)| {
            let (l, a) = w.sgd_step(bs, lr);
            (r, (l as f64, a as f64))
        })
    }

    /// Accumulates gradients on every *active* worker without stepping,
    /// fanning out across `exec`'s threads; returns each worker's
    /// `(loss, accuracy)` in ascending rank order.
    pub fn accumulate_grads_all_on(&mut self, exec: &Executor) -> Vec<WorkerStats> {
        let bs = self.batch_size;
        let items = self.active_workers_mut();
        exec.par_map(items, |_, (r, w)| {
            let (l, a) = w.accumulate_grads(bs);
            (r, (l as f64, a as f64))
        })
    }

    /// Brings rejoining worker `rank` back in sync with its
    /// replica-identical fleet: the fabric fetches a live replica's
    /// parameters (a copy in memory, a chunked multi-peer download on
    /// the wire) and the joiner installs them.
    pub(crate) fn resync_joiner<X: Exchange>(
        &mut self,
        x: &mut X,
        round: u64,
        rank: usize,
    ) -> Result<(), ConfigError> {
        let peers: Vec<usize> = self
            .active_ranks()
            .into_iter()
            .filter(|&r| r != rank)
            .collect();
        let workers = &self.workers;
        let flat = x
            .resync(round, rank, &peers, &|r| workers[r].flat())
            .map_err(|e| ConfigError::invalid("joiner resync", e.to_string()))?;
        let joiner = &mut self.workers[rank];
        joiner.set_flat(&flat);
        joiner.model_mut().zero_grads();
        Ok(())
    }

    /// The mean of all *active* workers' flat models.
    pub fn average_model(&self) -> Vec<f32> {
        let ranks = self.active_ranks();
        let mut acc = vec![0.0f32; self.n_params];
        for &r in &ranks {
            for (a, v) in acc.iter_mut().zip(self.workers[r].flat()) {
                *a += v;
            }
        }
        let inv = 1.0 / ranks.len().max(1) as f32;
        for a in &mut acc {
            *a *= inv;
        }
        acc
    }

    /// Validation accuracy of a given flat model.
    pub fn evaluate_flat(&mut self, flat: &[f32], val: &Dataset, max_samples: usize) -> f32 {
        self.eval_model.set_flat_params(flat);
        self.eval_model.evaluate(val, max_samples)
    }

    /// Validation accuracy of the active-fleet-average model.
    pub fn evaluate_average(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        let avg = self.average_model();
        self.evaluate_flat(&avg, val, max_samples)
    }

    /// Mean *active* local-dataset size (for epoch accounting).
    pub fn mean_partition_len(&self) -> f64 {
        let ranks = self.active_ranks();
        ranks
            .iter()
            .map(|&r| self.workers[r].data_len())
            .sum::<usize>() as f64
            / ranks.len().max(1) as f64
    }

    /// Fraction of an epoch advanced by one batch per active worker.
    pub fn epochs_per_round(&self) -> f64 {
        self.batch_size as f64 / self.mean_partition_len().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::SyntheticSpec;
    use saps_nn::zoo;

    fn fleet(n: usize) -> Fleet {
        let ds = SyntheticSpec::tiny().samples(400).generate(1);
        Fleet::new(n, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 7, 16, 0.1).unwrap()
    }

    #[test]
    fn replicas_start_identical() {
        let f = fleet(4);
        let base = f.worker(0).flat();
        for r in 1..4 {
            assert_eq!(base, f.worker(r).flat());
        }
    }

    #[test]
    fn sgd_step_all_diverges_replicas() {
        let mut f = fleet(3);
        let stats = f.sgd_step_all_on(&Executor::sequential());
        assert_eq!(stats.iter().map(|s| s.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        for (_, (loss, acc)) in stats {
            assert!(loss.is_finite() && (0.0..=1.0).contains(&acc));
        }
        assert_ne!(f.worker(0).flat(), f.worker(1).flat());
    }

    #[test]
    fn average_model_is_midpoint_for_two_workers() {
        let mut f = fleet(2);
        f.sgd_step_all_on(&Executor::sequential());
        let avg = f.average_model();
        let a = f.worker(0).flat();
        let b = f.worker(1).flat();
        for i in 0..avg.len() {
            assert!((avg[i] - 0.5 * (a[i] + b[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn epochs_per_round() {
        let f = fleet(4);
        // 400 samples / 4 workers = 100 per worker; batch 16 -> 0.16.
        assert!((f.epochs_per_round() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn tiny_fleets_are_rejected() {
        let ds = SyntheticSpec::tiny().samples(100).generate(1);
        assert!(Fleet::new(1, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 7, 16, 0.1).is_err());
        assert!(Fleet::new(4, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 7, 0, 0.1).is_err());
    }

    #[test]
    fn inactive_workers_freeze_and_drop_out_of_averages() {
        let mut f = fleet(4);
        f.sgd_step_all_on(&Executor::sequential());
        f.set_active(3, false, 2).unwrap();
        let frozen = f.worker(3).flat();
        f.sgd_step_all_on(&Executor::sequential());
        assert_eq!(f.worker(3).flat(), frozen, "inactive worker trained");
        assert_eq!(f.active_ranks(), vec![0, 1, 2]);
        // Average over the 3 active workers only.
        let avg = f.average_model();
        let mut manual = vec![0.0f32; f.n_params()];
        for r in 0..3 {
            for (m, v) in manual.iter_mut().zip(f.worker(r).flat()) {
                *m += v / 3.0;
            }
        }
        for (a, b) in avg.iter().zip(&manual) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn parallel_sgd_step_matches_sequential_bitwise() {
        let mut seq = fleet(5);
        let mut par = fleet(5);
        let exec = Executor::new(saps_core::ParallelismPolicy::Threads(3));
        for _ in 0..3 {
            let a = seq.sgd_step_all_on(&Executor::sequential());
            let b = par.sgd_step_all_on(&exec);
            assert_eq!(a, b);
        }
        for r in 0..5 {
            assert_eq!(seq.worker(r).flat(), par.worker(r).flat(), "worker {r}");
        }
    }

    #[test]
    fn worker_subset_helpers_return_ascending_ranks() {
        let mut f = fleet(5);
        f.set_active(2, false, 2).unwrap();
        let active: Vec<usize> = f.active_workers_mut().iter().map(|(r, _)| *r).collect();
        assert_eq!(active, vec![0, 1, 3, 4]);
        // Ascending regardless of the requested order.
        let picked: Vec<usize> = f
            .workers_mut_at(&[4, 0, 3])
            .iter()
            .map(|(r, _)| *r)
            .collect();
        assert_eq!(picked, vec![0, 3, 4]);
    }

    #[test]
    fn min_active_guard_holds() {
        let mut f = fleet(3);
        f.set_active(0, false, 2).unwrap();
        assert!(f.set_active(1, false, 2).is_err());
        assert!(f.set_active(7, false, 2).is_err());
        f.set_active(0, true, 2).unwrap();
        assert_eq!(f.active_count(), 3);
    }
}
