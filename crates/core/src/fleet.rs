//! The worker fleet every trainer is built on: `n` workers with
//! identical initial replicas (`‖X_0 − X̄_0‖² = 0`), a first-class
//! membership (active) mask, the per-round local-SGD fan-out, model
//! averaging, evaluation and a joiner's resync — so SAPS-PSGD and the
//! seven baselines of `saps-baselines` are each `fleet + fabric + rounds
//! + their own state`, and churn is driven uniformly through the
//! [`crate::Trainer`] interface.

use crate::exchange::Exchange;
use crate::{ConfigError, Executor, RoundReport, Worker};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_data::{partition, Dataset};
use saps_netsim::{BandwidthMatrix, RoundTiming};
use saps_nn::Model;
use saps_tensor::rng::{derive_seed, streams};
use std::convert::Infallible;

/// A round's report: mean `(loss, accuracy)`, the priced timing, the
/// fraction of an epoch advanced, and the `(mean, min)` bandwidth of the
/// worker-to-worker links used (zeros for parameter-server rounds).
pub fn round_report(
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

    /// Builds a fleet over explicit partitions. `factory` builds one
    /// model replica from a seeded RNG; it is called once per worker
    /// (and once for the evaluation model) with identically seeded
    /// RNGs, so all replicas start from the same parameters, and worker
    /// `rank` derives its private batch-sampling stream from
    /// `(seed, rank)`.
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

    /// Runs one local SGD step on every *active* worker, fanning out
    /// across `exec`'s threads; returns each worker's `(rank, (loss,
    /// accuracy))` in ascending rank order, so any reduction over them
    /// is bit-identical at any thread count.
    pub fn sgd_step_all_on(&mut self, exec: &Executor) -> Vec<(usize, (f64, f64))> {
        let (bs, lr) = (self.batch_size, self.lr);
        let items = self.active_workers_mut();
        exec.par_map(items, |_, (r, w)| {
            let (l, a) = w.sgd_step(bs, lr);
            (r, (l as f64, a as f64))
        })
    }

    /// Accumulates gradients on every *active* worker without stepping,
    /// fanning out across `exec`'s threads; returns each worker's
    /// `(rank, (loss, accuracy))` in ascending rank order.
    pub fn accumulate_grads_all_on(&mut self, exec: &Executor) -> Vec<(usize, (f64, f64))> {
        let bs = self.batch_size;
        let items = self.active_workers_mut();
        exec.par_map(items, |_, (r, w)| {
            let (l, a) = w.accumulate_grads(bs);
            (r, (l as f64, a as f64))
        })
    }

    /// Who may serve `joiner`'s catch-up, in preference order: the
    /// other active workers — in the bandwidth snapshot `bw`, those
    /// with a live link to the joiner, fastest first (ascending rank on
    /// ties); all of them in ascending rank when no snapshot is given.
    fn donors_for(&self, joiner: usize, bw: Option<&BandwidthMatrix>) -> Vec<usize> {
        let mut peers = self.active_ranks();
        peers.retain(|&p| p != joiner);
        if let Some(bw) = bw {
            peers.retain(|&p| bw.get(p, joiner) > 0.0);
            peers.sort_by(|&a, &b| {
                bw.get(b, joiner)
                    .partial_cmp(&bw.get(a, joiner))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
        }
        peers
    }

    /// Brings (re)joined worker `rank` up to the fleet. The donor order
    /// is decided here, from the one bandwidth snapshot `bw` (see
    /// [`Exchange::resync`] for what a fabric does with it: a copy of
    /// the first peer's parameters in memory; on a wire a chunked,
    /// checksum-verified, retrying download fanned over the list as
    /// given), and the joiner installs what the fabric fetched. Fails,
    /// with nothing put on the fabric, when no live worker has a link
    /// to the joiner.
    pub fn resync_joiner<X: Exchange>(
        &mut self,
        x: &mut X,
        round: u64,
        rank: usize,
        bw: Option<&BandwidthMatrix>,
    ) -> Result<(), ConfigError> {
        let peers = self.donors_for(rank, bw);
        if peers.is_empty() {
            return Err(ConfigError::invalid(
                "joiner resync",
                format!("no reachable live peer to resync worker {rank} from"),
            ));
        }
        let workers = &self.workers;
        let flat = x
            .resync(round, rank, &peers, &|r| workers[r].flat())
            .map_err(|e| ConfigError::invalid("joiner resync", e.to_string()))?;
        let joiner = &mut self.workers[rank];
        joiner.set_flat(&flat);
        joiner.model_mut().zero_grads();
        Ok(())
    }

    /// The mean of all *active* workers' flat models, each as
    /// `deliver(rank, flat)` hands it back (a fabric collecting them
    /// for the coordinator): an `f32` sum in ascending rank order, then
    /// one scale.
    pub fn average_model_via<E>(
        &self,
        mut deliver: impl FnMut(usize, Vec<f32>) -> Result<Vec<f32>, E>,
    ) -> Result<Vec<f32>, E> {
        let ranks = self.active_ranks();
        let mut acc = vec![0.0f32; self.n_params];
        for &r in &ranks {
            let flat = deliver(r, self.workers[r].flat())?;
            assert_eq!(flat.len(), acc.len(), "flat parameter size");
            for (a, v) in acc.iter_mut().zip(flat) {
                *a += v;
            }
        }
        let inv = 1.0 / ranks.len().max(1) as f32;
        for a in &mut acc {
            *a *= inv;
        }
        Ok(acc)
    }

    /// The mean of all *active* workers' flat models.
    pub fn average_model(&self) -> Vec<f32> {
        self.average_model_via(|_, flat| Ok::<_, Infallible>(flat))
            .unwrap_or_else(|never| match never {})
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
    use crate::Direct;
    use saps_data::SyntheticSpec;
    use saps_nn::zoo;

    /// Four workers whose replicas have diverged by one local step.
    fn diverged_fleet() -> Fleet {
        let ds = SyntheticSpec::tiny().samples(400).generate(1);
        let mut f = Fleet::new(4, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 7, 16, 0.1).unwrap();
        f.sgd_step_all_on(&Executor::sequential());
        f
    }

    #[test]
    fn peers_rank_by_bandwidth_toward_the_joiner() {
        let mut f = diverged_fleet();
        let mut bw = BandwidthMatrix::constant(4, 10.0);
        bw.set(2, 0, 90.0);
        bw.set(3, 0, 40.0);
        bw.set(1, 0, 40.0);
        // Fastest toward rank 0 first; the 40 MB/s tie breaks ascending;
        // no snapshot ranks by ascending rank.
        assert_eq!(f.donors_for(0, Some(&bw)), vec![2, 1, 3]);
        assert_eq!(f.donors_for(0, None), vec![1, 2, 3]);
        // A fabric honours the order: in memory the joiner lands on the
        // first-ranked peer's parameters, not the lowest rank's.
        f.resync_joiner(&mut Direct::new(), 1, 0, Some(&bw))
            .unwrap();
        assert_eq!(f.worker(0).flat(), f.worker(2).flat());
        assert_ne!(f.worker(0).flat(), f.worker(1).flat());
    }

    #[test]
    fn unreachable_peers_never_serve_a_joiner() {
        let mut f = diverged_fleet();
        let mut bw = BandwidthMatrix::constant(4, 10.0);
        bw.set(1, 3, 100.0);
        bw.set(0, 3, 0.0);
        assert_eq!(f.donors_for(3, Some(&bw)), vec![1, 2]);
        // Inactive workers serve nobody either.
        f.set_active(1, false, 2).unwrap();
        assert_eq!(f.donors_for(3, Some(&bw)), vec![2]);
        // With every link toward the joiner down the resync is refused
        // before the fabric is asked (`Direct` would index an empty
        // list) and the joiner keeps its parameters.
        bw.set(2, 3, 0.0);
        let before = f.worker(3).flat();
        let err = f
            .resync_joiner(&mut Direct::new(), 1, 3, Some(&bw))
            .expect_err("no peer is reachable");
        assert!(err.to_string().contains("no reachable live peer"), "{err}");
        assert_eq!(f.worker(3).flat(), before);
    }
}
