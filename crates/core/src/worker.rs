//! Algorithm 2: the SAPS-PSGD worker.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_compress::mask::RandomMask;
use saps_data::Dataset;
use saps_nn::Model;
use saps_tensor::rng::{derive_seed, streams};

/// A training worker: a local model, a local data shard and a private
/// batch-sampling RNG.
///
/// Workers are self-contained — model, data and RNG are owned, nothing
/// is shared — which is what lets the round engine fan their compute
/// phase out across threads without changing any result.
pub struct Worker {
    rank: usize,
    model: Model,
    data: Dataset,
    rng: StdRng,
    /// Model-sized scratch reused by every flat read-modify-write
    /// ([`Worker::update_flat`]) so steady-state rounds allocate nothing
    /// model-sized.
    flat_scratch: Vec<f32>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("rank", &self.rank)
            .field("data_len", &self.data.len())
            .field("model", &self.model)
            .finish()
    }
}

impl Worker {
    /// Creates worker `rank` with its model replica and data shard.
    /// `seed` is the experiment seed; the worker derives its private
    /// batch-sampling stream from `(seed, rank)`.
    pub fn new(rank: usize, model: Model, data: Dataset, seed: u64) -> Self {
        Worker {
            rank,
            model,
            data,
            rng: StdRng::seed_from_u64(derive_seed(seed, rank as u64, streams::BATCH)),
            flat_scratch: Vec::new(),
        }
    }

    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of local examples.
    pub fn data_len(&self) -> usize {
        self.data.len()
    }

    /// The local dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Immutable model access.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Mutable model access.
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
    }

    /// One local mini-batch SGD step (Algorithm 2's `SGD` procedure).
    /// Returns `(loss, accuracy)` on the sampled batch.
    pub fn sgd_step(&mut self, batch_size: usize, lr: f32) -> (f32, f32) {
        let batch = self.data.sample_batch(batch_size, &mut self.rng);
        self.model.train_step(&batch, lr)
    }

    /// Accumulates gradients on one mini-batch without updating
    /// parameters (for all-reduce style algorithms that average
    /// gradients). Returns `(loss, accuracy)`.
    pub fn accumulate_grads(&mut self, batch_size: usize) -> (f32, f32) {
        let batch = self.data.sample_batch(batch_size, &mut self.rng);
        self.model.compute_grads(&batch)
    }

    /// The sparse payload `x̃ = x ∘ m_t` (Algorithm 2 line 7): the model's
    /// values at the mask's surviving indices.
    pub fn sparse_payload(&self, mask: &RandomMask) -> Vec<f32> {
        mask.apply(&self.model.flat_params())
    }

    /// [`Worker::sparse_payload`] into a caller-owned buffer, staging
    /// the flat parameters through this worker's scratch — the
    /// allocation-free form the per-round exchange uses.
    pub fn sparse_payload_into(&mut self, mask: &RandomMask, out: &mut Vec<f32>) {
        self.model.copy_flat_params_into(&mut self.flat_scratch);
        mask.apply_into(&self.flat_scratch, out);
    }

    /// Flat read-modify-write through the worker's reusable scratch:
    /// loads the model into the scratch buffer, lets `f` rewrite it,
    /// and stores it back. The building block for every dense update
    /// (`merge_sparse`, ring mixing, all-reduce application) that used
    /// to allocate a fresh `N`-vector per call.
    pub fn update_flat(&mut self, f: impl FnOnce(&mut [f32])) {
        self.model.copy_flat_params_into(&mut self.flat_scratch);
        f(&mut self.flat_scratch);
        self.model.set_flat_params(&self.flat_scratch);
    }

    /// `x ← x + scale · v` over the flat parameters (allocation-free).
    pub fn add_scaled(&mut self, scale: f32, v: &[f32]) {
        self.update_flat(|flat| saps_tensor::ops::axpy(scale, v, flat));
    }

    /// The exchange-and-average step (Algorithm 2 lines 9-10):
    /// `x ← x ∘ ¬m + (x̃ + x̃_peer)/2` on the masked coordinates.
    pub fn merge_sparse(&mut self, mask: &RandomMask, peer_values: &[f32]) {
        self.update_flat(|flat| mask.average_into(flat, peer_values));
    }

    /// Overwrites the whole model from a flat vector (used by PS-style
    /// baselines and final model collection).
    pub fn set_flat(&mut self, flat: &[f32]) {
        self.model.set_flat_params(flat);
    }

    /// Copies the whole model to a flat vector.
    pub fn flat(&self) -> Vec<f32> {
        self.model.flat_params()
    }

    /// Captures everything a later [`Worker::rollback`] needs to replay
    /// this worker from the current instant: the flat parameters and
    /// the private batch-sampling RNG. Batch sampling depends only on
    /// this state — never on who the worker was matched with — so a
    /// rolled-back worker re-run under a different matching still draws
    /// the same batches.
    pub fn save_state(&self) -> WorkerState {
        WorkerState {
            params: self.model.flat_params(),
            rng: self.rng.clone(),
        }
    }

    /// Restores a [`Worker::save_state`] snapshot: parameters and RNG
    /// return to the captured instant bit-exactly.
    pub fn rollback(&mut self, state: &WorkerState) {
        self.model.set_flat_params(&state.params);
        self.rng = state.rng.clone();
    }
}

/// A point-in-time snapshot of a worker's replayable state — see
/// [`Worker::save_state`]. The dataset and rank are not captured: they
/// never change mid-round.
#[derive(Debug, Clone)]
pub struct WorkerState {
    params: Vec<f32>,
    rng: StdRng,
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::SyntheticSpec;
    use saps_nn::zoo;

    fn worker(rank: usize, seed: u64) -> Worker {
        let mut rng = StdRng::seed_from_u64(99);
        let model = zoo::mlp(&[16, 12, 4], &mut rng);
        let data = SyntheticSpec::tiny().samples(200).generate(1);
        Worker::new(rank, model, data, seed)
    }

    #[test]
    fn sgd_step_changes_params() {
        let mut w = worker(0, 7);
        let before = w.flat();
        let (loss, acc) = w.sgd_step(16, 0.1);
        assert!(loss.is_finite() && (0.0..=1.0).contains(&acc));
        assert_ne!(before, w.flat());
    }

    #[test]
    fn different_ranks_sample_different_batches() {
        let mut a = worker(0, 7);
        let mut b = worker(1, 7);
        // Same initial model, same data, different private batch streams:
        // one step must diverge them.
        let (la, _) = a.sgd_step(8, 0.1);
        let (lb, _) = b.sgd_step(8, 0.1);
        // Losses may coincide numerically, but parameters should differ.
        assert_ne!(a.flat(), b.flat(), "la {la} lb {lb}");
    }

    #[test]
    fn sparse_exchange_agrees_on_masked_coords() {
        let mut a = worker(0, 1);
        let mut b = worker(1, 1);
        a.sgd_step(8, 0.2);
        b.sgd_step(8, 0.2);
        let n = a.model().num_params();
        let mask = RandomMask::generate(n, 4.0, 123, 9);
        let pa = a.sparse_payload(&mask);
        let pb = b.sparse_payload(&mask);
        a.merge_sparse(&mask, &pb);
        b.merge_sparse(&mask, &pa);
        let fa = a.flat();
        let fb = b.flat();
        for &i in mask.indices() {
            assert_eq!(fa[i as usize], fb[i as usize]);
        }
        // Unmasked coordinates still differ (local SGD diverged them).
        let dense = mask.to_dense();
        assert!((0..n).any(|i| !dense[i] && fa[i] != fb[i]));
    }

    #[test]
    fn merge_preserves_pair_mean_on_masked_coords() {
        let mut a = worker(0, 2);
        let mut b = worker(1, 2);
        a.sgd_step(8, 0.3);
        let n = a.model().num_params();
        let mask = RandomMask::generate(n, 2.0, 5, 0);
        let fa0 = a.flat();
        let fb0 = b.flat();
        let pa = a.sparse_payload(&mask);
        let pb = b.sparse_payload(&mask);
        a.merge_sparse(&mask, &pb);
        b.merge_sparse(&mask, &pa);
        let fa1 = a.flat();
        for &i in mask.indices() {
            let i = i as usize;
            let expect = 0.5 * (fa0[i] + fb0[i]);
            assert!((fa1[i] - expect).abs() < 1e-7);
        }
    }

    #[test]
    fn update_flat_and_add_scaled_reuse_scratch() {
        let mut w = worker(0, 3);
        let before = w.flat();
        w.add_scaled(-1.0, &before);
        assert!(w.flat().iter().all(|&v| v == 0.0));
        w.update_flat(|flat| flat.copy_from_slice(&before));
        assert_eq!(w.flat(), before);
    }

    #[test]
    fn sparse_payload_into_matches_allocating_form() {
        let mut w = worker(0, 5);
        let n = w.model().num_params();
        let mask = RandomMask::generate(n, 4.0, 3, 1);
        let expect = w.sparse_payload(&mask);
        let mut buf = Vec::new();
        w.sparse_payload_into(&mask, &mut buf);
        assert_eq!(buf, expect);
    }

    #[test]
    fn set_flat_roundtrip() {
        let mut w = worker(0, 3);
        let mut flat = w.flat();
        flat[0] = 42.0;
        w.set_flat(&flat);
        assert_eq!(w.flat()[0], 42.0);
    }

    #[test]
    fn rollback_replays_bit_identically() {
        let mut w = worker(0, 11);
        w.sgd_step(8, 0.1);
        let snap = w.save_state();
        let (l1, _) = w.sgd_step(8, 0.1);
        let after_one = w.flat();
        w.sgd_step(8, 0.1);
        // Roll back two steps, replay one: parameters and RNG must land
        // exactly where the first replayed step originally did.
        w.rollback(&snap);
        let (l2, _) = w.sgd_step(8, 0.1);
        assert_eq!(l1, l2);
        assert_eq!(w.flat(), after_one);
    }
}
