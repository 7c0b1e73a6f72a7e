//! Algorithm 1: the SAPS-PSGD coordinator.
//!
//! The coordinator is a *tracker*, not a parameter server: per round it
//! ships only `(W_t, t, s)` — a matching, a counter and a 64-bit seed —
//! and receives "ROUND END" notifications. Its total model traffic over a
//! whole run is a single final model (`N`), which is where Table I's
//! server-cost row for SAPS-PSGD comes from.

use crate::GossipGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saps_graph::{Graph, Matching};
use saps_netsim::BandwidthMatrix;
use saps_tensor::rng::{derive_seed, streams};

/// `GetNewConnectedGraph` (Algorithm 1 lines 9-12): the threshold in
/// effect over `bw` — `configured`, else the largest that keeps `B*`
/// connected — with the thresholded graph `B*` and the graph of every
/// live link.
fn connected_graphs(bw: &BandwidthMatrix, configured: Option<f64>) -> (f64, Graph, Graph) {
    let n = bw.len();
    let thres = configured.unwrap_or_else(|| bw.max_connecting_threshold());
    // A disconnected (e.g. partitioned) matrix auto-selects thres 0;
    // dead links must still never enter B*, so the filter stays
    // strictly positive and matching is confined to live islands.
    let bstar = Graph::from_adjacency(n, &bw.threshold(thres.max(f64::MIN_POSITIVE)));
    let full = Graph::from_threshold(n, bw.as_slice(), f64::MIN_POSITIVE);
    (thres, bstar, full)
}

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

/// The SAPS-PSGD coordinator (Algorithm 1 state). One coordinator
/// lives for the whole run: the round counter `t`, the RNG stream that
/// draws matchings and mask seeds, and the RC stamps of surviving pairs
/// all carry across [`Coordinator::rebuild`].
#[derive(Debug, Clone)]
pub struct Coordinator {
    generator: GossipGenerator,
    rng: StdRng,
    /// The RNG as the round begun last found it, until that round is
    /// aborted ([`Coordinator::abort_round`]) or the next one begins.
    rng_before: Option<StdRng>,
    round: u64,
    /// The configured `B_thres`; `None` auto-selects per matrix.
    configured_bthres: Option<f64>,
    /// The threshold in effect over the current matrix.
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
        let (thres, bstar, full) = connected_graphs(bw, bthres);
        Coordinator {
            generator: GossipGenerator::new(bstar, full, tthres),
            rng: StdRng::seed_from_u64(derive_seed(seed, 0, streams::MATCHING)),
            rng_before: None,
            round: 0,
            configured_bthres: bthres,
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

    /// Runs one round: generates `W_t` (Algorithm 3) and the mask seed,
    /// and advances the round counter. In the real deployment this is the
    /// broadcast to all workers; in the simulator the returned plan is
    /// handed to each [`crate::Worker`] directly.
    pub fn begin_round(&mut self) -> RoundPlan {
        let t = self.round;
        self.rng_before = Some(self.rng.clone());
        let matching = self.generator.next_matching(t, &mut self.rng);
        let mask_seed = self.rng.gen::<u64>();
        self.round += 1;
        RoundPlan {
            round: t,
            mask_seed,
            matching,
        }
    }

    /// Takes back the round begun last — its counter tick, its RNG draws
    /// and its RC stamps — as if [`Coordinator::begin_round`] had not
    /// been called: a round aborted by a fault never communicated, and
    /// is replanned from the state of a fleet that never attempted it.
    ///
    /// # Panics
    ///
    /// Panics unless it directly follows the `begin_round` it aborts.
    pub fn abort_round(&mut self) {
        self.rng = self
            .rng_before
            .take()
            .expect("abort_round must directly follow begin_round");
        self.generator.undo_last_matching();
        self.round -= 1;
    }

    /// Rebuilds peer selection in place after membership or bandwidth
    /// changes (worker churn, measured-bandwidth refresh): the threshold
    /// is chosen over `bw` by the same rule as at construction, and the
    /// round counter, the RNG stream and the RC stamps of surviving
    /// pairs carry on. `keep[i]` maps new worker index `i` to its
    /// previous index, `None` for joiners.
    pub fn rebuild(&mut self, bw: &BandwidthMatrix, keep: &[Option<usize>]) {
        assert_eq!(bw.len(), keep.len());
        let (thres, bstar, full) = connected_graphs(bw, self.configured_bthres);
        self.generator.rebuild(bstar, full, keep);
        self.rng_before = None;
        self.bthres = thres;
    }
}

/// The coordinator-side *control state* of a SAPS-PSGD deployment: the
/// ranks peer selection plans over, the bandwidth snapshot it plans
/// from, and the [`Coordinator`] generating round plans over that rank
/// list.
///
/// [`crate::SapsPsgd`] drives the algorithm through this one type
/// whichever fabric carries its messages: bandwidth reports reach it as
/// the values the fabric delivered to the coordinator, and who is
/// active is the [`crate::Fleet`]'s to say — after churn the trainer
/// hands over the fleet's active ranks ([`SapsControl::plan_over`]), so
/// there is no second membership mask here that could disagree.
#[derive(Debug, Clone)]
pub struct SapsControl {
    coordinator: Coordinator,
    /// The global ranks planned over, ascending; a plan's matching
    /// indexes into this list.
    ranks: Vec<usize>,
    /// Bandwidth snapshot used for peer selection (refreshed on demand,
    /// mirroring the paper's "regularly reported" measurements).
    bw_snapshot: BandwidthMatrix,
}

impl SapsControl {
    /// Creates the control state planning over every worker `bw`
    /// covers. `bthres`/`tthres`/`seed` are as in [`Coordinator::new`].
    pub fn new(bw: &BandwidthMatrix, bthres: Option<f64>, tthres: u32, seed: u64) -> Self {
        SapsControl {
            coordinator: Coordinator::new(bw, bthres, tthres, seed),
            ranks: (0..bw.len()).collect(),
            bw_snapshot: bw.clone(),
        }
    }

    /// Sets the round-planning shard ceiling (see
    /// [`Coordinator::set_shard_size`]); survives churn rebuilds.
    pub fn set_shard_size(&mut self, shard_size: Option<usize>) {
        self.coordinator.set_shard_size(shard_size);
    }

    /// The bandwidth threshold currently in effect.
    pub fn bandwidth_threshold(&self) -> f64 {
        self.coordinator.bandwidth_threshold()
    }

    /// Plans over `ranks` from now on (join/leave churn): the fleet's
    /// active ranks, ascending, each below the snapshot's size. Peer
    /// selection is rebuilt in place — the round counter, the seed
    /// stream and surviving pairs' RC stamps carry on. Handing over the
    /// list already planned over changes nothing.
    pub fn plan_over(&mut self, ranks: Vec<usize>) {
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks ascend");
        if ranks != self.ranks {
            let before = std::mem::replace(&mut self.ranks, ranks);
            self.rebuild(&before);
        }
    }

    /// The latest reported bandwidth snapshot — the same measurements
    /// peer selection plans over, and the ones a joiner's donors are
    /// ranked from ([`crate::SapsPsgd::catch_up`]).
    pub fn bandwidth_snapshot(&self) -> &BandwidthMatrix {
        &self.bw_snapshot
    }

    /// Updates the bandwidth snapshot (the paper's periodically reported
    /// speed measurements) and rebuilds peer selection in place.
    pub fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        assert_eq!(bw.len(), self.bw_snapshot.len());
        self.bw_snapshot = bw.clone();
        self.rebuild(&self.ranks.clone());
    }

    /// Runs Algorithm 1's per-round step over the planned ranks: the
    /// returned plan's matching is indexed by *position in that list*
    /// (translate with [`SapsControl::global_pairs`]).
    pub fn begin_round(&mut self) -> RoundPlan {
        self.coordinator.begin_round()
    }

    /// Takes back the round begun last (see
    /// [`Coordinator::abort_round`]): the byzantine recovery's rollback
    /// of the coordinator, next to the workers' own.
    pub fn abort_round(&mut self) {
        self.coordinator.abort_round();
    }

    /// Translates a plan's matching into global-rank pairs, in the
    /// matching's pair order.
    pub fn global_pairs(&self, matching: &Matching) -> Vec<(usize, usize)> {
        matching
            .pairs()
            .iter()
            .map(|&(ai, aj)| (self.ranks[ai], self.ranks[aj]))
            .collect()
    }

    /// Re-plans the coordinator over the current rank list and
    /// snapshot; `before` lists the ranks it indexed until now.
    fn rebuild(&mut self, before: &[usize]) {
        let ranks = &self.ranks;
        let m = ranks.len();
        // Submatrix of the snapshot over the planned ranks.
        let mut raw = vec![0.0f64; m * m];
        for (i, &ri) in ranks.iter().enumerate() {
            for (j, &rj) in ranks.iter().enumerate() {
                raw[i * m + j] = self.bw_snapshot.get(ri, rj);
            }
        }
        let sub = BandwidthMatrix::from_raw(m, &raw);
        let keep: Vec<Option<usize>> = ranks.iter().map(|r| before.binary_search(r).ok()).collect();
        self.coordinator.rebuild(&sub, &keep);
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

    #[test]
    fn bandwidth_reports_do_not_replay_the_plan_sequence() {
        // The paper's "regularly reported" bandwidths: a refresh with
        // unchanged membership must not restart (t, s, W_t).
        let bw = BandwidthMatrix::constant(8, 1.0);
        let mut control = SapsControl::new(&bw, None, 5, 7);
        let mut plans = Vec::new();
        for r in 0..12 {
            if r > 0 && r % 4 == 0 {
                control.refresh_bandwidth(&bw);
            }
            plans.push(control.begin_round());
        }
        for w in plans.windows(2) {
            assert!(w[0].round < w[1].round, "round stamps ran backwards");
        }
        let distinct: std::collections::HashSet<(u64, u64)> =
            plans.iter().map(|p| (p.round, p.mask_seed)).collect();
        assert_eq!(distinct.len(), 12);
        assert_eq!(plans[11].round, 11);
    }

    #[test]
    fn churn_back_to_the_same_fleet_size_draws_fresh_seeds() {
        let bw = BandwidthMatrix::constant(8, 1.0);
        let mut control = SapsControl::new(&bw, None, 5, 7);
        let without = |gone: usize| (0..8).filter(|&r| r != gone).collect();
        control.plan_over(without(3));
        let a = control.begin_round();
        control.plan_over((0..8).collect());
        let b = control.begin_round();
        control.plan_over(without(5));
        let c = control.begin_round();
        assert_ne!(a.mask_seed, b.mask_seed);
        assert_ne!(b.mask_seed, c.mask_seed);
        assert_ne!(
            a.mask_seed, c.mask_seed,
            "7 workers again replayed the seed"
        );
        assert_eq!((a.round, b.round, c.round), (0, 1, 2));
    }

    #[test]
    fn rc_stamps_of_a_surviving_pair_survive_a_third_workers_leave() {
        let bw = BandwidthMatrix::constant(6, 1.0);
        let mut control = SapsControl::new(&bw, None, 5, 7);
        // Past the first window, where an unstamped pair still reads as
        // recently connected.
        let plan = (0..6).map(|_| control.begin_round()).last().unwrap();
        let (a, b) = control.global_pairs(&plan.matching)[0];
        let leaver = (0..6).find(|r| *r != a && *r != b).unwrap();
        let ranks: Vec<usize> = (0..6).filter(|&r| r != leaver).collect();
        control.plan_over(ranks.clone());
        let at = |r: usize| ranks.binary_search(&r).unwrap();
        let rc = control.coordinator.generator.rc_graph(6);
        assert!(rc.has_edge(at(a), at(b)), "stamp of ({a},{b}) lost");
    }

    #[test]
    fn an_aborted_round_is_replanned_from_the_state_it_found() {
        let bw = BandwidthMatrix::constant(6, 1.0);
        let mut twice = Coordinator::new(&bw, None, 5, 9);
        let mut once = twice.clone();
        for _ in 0..7 {
            twice.begin_round();
            once.begin_round();
        }
        twice.begin_round();
        twice.abort_round();
        // Counter, seed stream and RC stamps: the next windows agree.
        for _ in 0..12 {
            let (a, b) = (twice.begin_round(), once.begin_round());
            assert_eq!(a.round, b.round);
            assert_eq!(a.mask_seed, b.mask_seed);
            assert_eq!(a.matching.pairs(), b.matching.pairs());
        }
    }

    #[test]
    fn rebuild_rechooses_the_threshold_over_the_new_matrix() {
        // Auto-selected: follows the matrix up as well as down (no
        // min-of-previous ratchet). Configured: stays put.
        let slow = BandwidthMatrix::constant(4, 1.0);
        let fast = BandwidthMatrix::constant(4, 3.0);
        let mut auto = SapsControl::new(&slow, None, 5, 1);
        auto.refresh_bandwidth(&fast);
        assert_eq!(auto.bandwidth_threshold(), 3.0);
        auto.refresh_bandwidth(&slow);
        assert_eq!(auto.bandwidth_threshold(), 1.0);
        let mut fixed = SapsControl::new(&slow, Some(0.5), 5, 1);
        fixed.refresh_bandwidth(&fast);
        assert_eq!(fixed.bandwidth_threshold(), 0.5);
    }
}
