//! Algorithm 1: the SAPS-PSGD coordinator.
//!
//! The coordinator is a *tracker*, not a parameter server: per round it
//! ships only `(W_t, t, s)` — a matching, a counter and a 64-bit seed —
//! and receives "ROUND END" notifications. Its total model traffic over a
//! whole run is a single final model (`N`), which is where Table I's
//! server-cost row for SAPS-PSGD comes from.

use crate::{ConfigError, GossipGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saps_graph::{Graph, Matching};
use saps_netsim::BandwidthMatrix;
use saps_tensor::rng::{derive_seed, streams};

/// What the coordinator broadcasts at the start of a round
/// (Algorithm 1 line 6: `NotifyWorkerToTrain(W_t, t, s)`).
#[derive(Debug, Clone)]
pub struct RoundPlan {
    /// The round counter `t`.
    pub round: u64,
    /// The shared seed `s` from which every worker derives the mask `m_t`.
    pub mask_seed: u64,
    /// The peer pairing defining `W_t`.
    pub matching: Matching,
}

/// The SAPS-PSGD coordinator (Algorithm 1 state).
#[derive(Debug, Clone)]
pub struct Coordinator {
    generator: GossipGenerator,
    rng: StdRng,
    round: u64,
    bthres: f64,
}

impl Coordinator {
    /// Creates the coordinator from the bandwidth matrix.
    ///
    /// `bthres` is the bandwidth threshold of `GetNewConnectedGraph`
    /// (Algorithm 1 lines 9-12); pass `None` to auto-select the largest
    /// threshold that keeps `B*` connected. `tthres` is the RC window of
    /// Algorithm 3.
    pub fn new(bw: &BandwidthMatrix, bthres: Option<f64>, tthres: u32, seed: u64) -> Self {
        let n = bw.len();
        let thres = bthres.unwrap_or_else(|| bw.max_connecting_threshold());
        // A disconnected (e.g. partitioned) matrix auto-selects thres 0;
        // dead links must still never enter B*, so the filter stays
        // strictly positive and matching is confined to live islands.
        let bstar = Graph::from_adjacency(n, &bw.threshold(thres.max(f64::MIN_POSITIVE)));
        let full = Graph::from_threshold(n, bw.as_slice(), f64::MIN_POSITIVE);
        Coordinator {
            generator: GossipGenerator::new(bstar, full, tthres),
            rng: StdRng::seed_from_u64(derive_seed(seed, 0, streams::MATCHING)),
            round: 0,
            bthres: thres,
        }
    }

    /// The bandwidth threshold in effect.
    pub fn bandwidth_threshold(&self) -> f64 {
        self.bthres
    }

    /// Sets the shard ceiling for Algorithm 1's matching pass: `Some(s)`
    /// plans per bandwidth-partition and splits oversized partitions into
    /// ≤ `s`-vertex shards (see
    /// [`saps_graph::matching::sharded_max_match`]); `None` keeps the
    /// monolithic O(n³) blossom pass.
    pub fn set_shard_size(&mut self, shard_size: Option<usize>) {
        self.generator.set_shard_size(shard_size);
    }

    /// Number of workers currently coordinated.
    pub fn worker_count(&self) -> usize {
        self.generator.len()
    }

    /// Rounds started so far (the next plan's `round` field).
    pub fn rounds_done(&self) -> u64 {
        self.round
    }

    /// Runs one round: generates `W_t` (Algorithm 3) and the mask seed,
    /// and advances the round counter. In the real deployment this is the
    /// broadcast to all workers; in the simulator the returned plan is
    /// handed to each [`crate::Worker`] directly.
    pub fn begin_round(&mut self) -> RoundPlan {
        let t = self.round;
        let matching = self.generator.next_matching(t, &mut self.rng);
        let mask_seed = self.rng.gen::<u64>();
        self.round += 1;
        RoundPlan {
            round: t,
            mask_seed,
            matching,
        }
    }

    /// Rebuilds the peer-selection state after membership or bandwidth
    /// changes (worker churn, measured-bandwidth refresh). `keep[i]` maps
    /// new worker index `i` to its previous index, `None` for joiners.
    pub fn rebuild(&mut self, bw: &BandwidthMatrix, keep: &[Option<usize>]) {
        let n = bw.len();
        assert_eq!(n, keep.len());
        let thres = bw.max_connecting_threshold().min(self.bthres);
        // As in `new`: never admit dead links to B*, even when a
        // partitioned matrix drives the auto-selected threshold to 0.
        let bstar = Graph::from_adjacency(n, &bw.threshold(thres.max(f64::MIN_POSITIVE)));
        let full = Graph::from_threshold(n, bw.as_slice(), f64::MIN_POSITIVE);
        self.generator.rebuild(bstar, full, keep);
        self.bthres = thres;
    }
}

/// The coordinator-side *control state* of a SAPS-PSGD deployment:
/// which workers are active, the bandwidth snapshot peer selection plans
/// from, and the [`Coordinator`] generating round plans over the active
/// subset.
///
/// [`crate::SapsPsgd`] drives the algorithm through this one type
/// whichever fabric carries its messages: churn requests and bandwidth
/// reports reach it as the values the fabric delivered to the
/// coordinator.
#[derive(Debug, Clone)]
pub struct SapsControl {
    coordinator: Coordinator,
    active: Vec<bool>,
    /// Bandwidth snapshot used for peer selection (refreshed on demand,
    /// mirroring the paper's "regularly reported" measurements).
    bw_snapshot: BandwidthMatrix,
    bthres: Option<f64>,
    tthres: u32,
    seed: u64,
    shard_size: Option<usize>,
}

impl SapsControl {
    /// Creates the control state for a fully active fleet over `bw`.
    /// `bthres`/`tthres`/`seed` are as in [`Coordinator::new`].
    pub fn new(bw: &BandwidthMatrix, bthres: Option<f64>, tthres: u32, seed: u64) -> Self {
        SapsControl {
            coordinator: Coordinator::new(bw, bthres, tthres, seed),
            active: vec![true; bw.len()],
            bw_snapshot: bw.clone(),
            bthres,
            tthres,
            seed,
            shard_size: None,
        }
    }

    /// Sets the round-planning shard ceiling (see
    /// [`Coordinator::set_shard_size`]); survives churn rebuilds.
    pub fn set_shard_size(&mut self, shard_size: Option<usize>) {
        self.shard_size = shard_size;
        self.coordinator.set_shard_size(shard_size);
    }

    /// Fleet size `n` (inactive workers included).
    pub fn fleet_size(&self) -> usize {
        self.active.len()
    }

    /// The bandwidth threshold currently in effect.
    pub fn bandwidth_threshold(&self) -> f64 {
        self.coordinator.bandwidth_threshold()
    }

    /// Whether worker `rank` is currently active.
    pub fn is_active(&self, rank: usize) -> bool {
        self.active[rank]
    }

    /// Ranks of currently active workers, ascending.
    pub fn active_ranks(&self) -> Vec<usize> {
        (0..self.active.len()).filter(|&r| self.active[r]).collect()
    }

    /// Marks a worker active/inactive (join/leave churn). Peer selection
    /// is rebuilt over the active subset; inactive workers keep their
    /// model and re-join where they left off.
    ///
    /// Fails if `rank` is out of range or deactivation would leave fewer
    /// than two active workers.
    pub fn set_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError> {
        if rank >= self.active.len() {
            return Err(ConfigError::invalid(
                "SapsControl",
                format!("worker rank {rank} out of range ({})", self.active.len()),
            ));
        }
        if self.active[rank] == active {
            return Ok(());
        }
        if !active && self.active.iter().filter(|&&a| a).count() <= 2 {
            return Err(ConfigError::invalid(
                "SapsControl",
                "cannot deactivate: at least two workers must stay active",
            ));
        }
        self.active[rank] = active;
        self.rebuild();
        Ok(())
    }

    /// The latest reported bandwidth snapshot — the same measurements
    /// peer selection plans over. [`crate::SapsPsgd::catch_up`] hands it
    /// to the fabric, which ranks a joiner's serving peers from it.
    pub fn bandwidth_snapshot(&self) -> &BandwidthMatrix {
        &self.bw_snapshot
    }

    /// Updates the bandwidth snapshot (the paper's periodically reported
    /// speed measurements) and rebuilds peer selection.
    pub fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        assert_eq!(bw.len(), self.active.len());
        self.bw_snapshot = bw.clone();
        self.rebuild();
    }

    /// Runs Algorithm 1's per-round step over the active subset: the
    /// returned plan's matching is indexed by *active-subset position*
    /// (translate with [`SapsControl::global_pairs`]).
    pub fn begin_round(&mut self) -> RoundPlan {
        self.coordinator.begin_round()
    }

    /// Rounds started so far (checkpoint exports stamp this counter).
    pub fn rounds_done(&self) -> u64 {
        self.coordinator.rounds_done()
    }

    /// Translates a plan's active-subset matching into global-rank
    /// pairs, in the matching's pair order.
    pub fn global_pairs(&self, matching: &Matching) -> Vec<(usize, usize)> {
        let ranks = self.active_ranks();
        matching
            .pairs()
            .iter()
            .map(|&(ai, aj)| (ranks[ai], ranks[aj]))
            .collect()
    }

    fn rebuild(&mut self) {
        let ranks = self.active_ranks();
        let m = ranks.len();
        // Submatrix of the snapshot over the active ranks.
        let mut raw = vec![0.0f64; m * m];
        for (i, &ri) in ranks.iter().enumerate() {
            for (j, &rj) in ranks.iter().enumerate() {
                raw[i * m + j] = self.bw_snapshot.get(ri, rj);
            }
        }
        let sub = BandwidthMatrix::from_raw(m, &raw);
        // The coordinator indexes the active subset; rebuilding from
        // scratch with fresh timestamps is the simple, always-correct
        // choice (stale timestamps only delay bridging).
        self.coordinator = Coordinator::new(
            &sub,
            self.bthres,
            self.tthres,
            derive_seed(self.seed, ranks.len() as u64, streams::CHURN),
        );
        self.coordinator.set_shard_size(self.shard_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_threshold_keeps_bstar_connected() {
        let bw = saps_netsim::citydata::fig1_bandwidth();
        let c = Coordinator::new(&bw, None, 5, 1);
        assert!(c.bandwidth_threshold() > 0.0);
        assert_eq!(c.worker_count(), 14);
    }

    #[test]
    fn rounds_advance_and_seeds_differ() {
        let bw = BandwidthMatrix::constant(6, 1.0);
        let mut c = Coordinator::new(&bw, None, 5, 2);
        let p0 = c.begin_round();
        let p1 = c.begin_round();
        assert_eq!(p0.round, 0);
        assert_eq!(p1.round, 1);
        assert_ne!(p0.mask_seed, p1.mask_seed);
        assert!(p0.matching.is_perfect());
    }

    #[test]
    fn deterministic_given_seed() {
        let bw = BandwidthMatrix::constant(8, 1.0);
        let mut a = Coordinator::new(&bw, None, 5, 42);
        let mut b = Coordinator::new(&bw, None, 5, 42);
        for _ in 0..10 {
            let pa = a.begin_round();
            let pb = b.begin_round();
            assert_eq!(pa.matching.pairs(), pb.matching.pairs());
            assert_eq!(pa.mask_seed, pb.mask_seed);
        }
    }

    #[test]
    fn explicit_threshold_respected() {
        let bw = BandwidthMatrix::constant(4, 2.0);
        let c = Coordinator::new(&bw, Some(1.5), 5, 3);
        assert_eq!(c.bandwidth_threshold(), 1.5);
    }

    #[test]
    fn rebuild_shrinks_worker_set() {
        let bw6 = BandwidthMatrix::constant(6, 1.0);
        let mut c = Coordinator::new(&bw6, None, 5, 4);
        c.begin_round();
        let bw4 = BandwidthMatrix::constant(4, 1.0);
        c.rebuild(&bw4, &[Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(c.worker_count(), 4);
        let p = c.begin_round();
        assert!(p.matching.is_perfect());
    }
}
