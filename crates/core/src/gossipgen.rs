//! Algorithm 3: `GenerateGossipMatrix`.
//!
//! Each round the coordinator pairs workers by maximum matching. Two
//! competing goals are balanced exactly as in the paper:
//!
//! 1. **Bandwidth exploitation** — matching is done over the filtered
//!    graph `B*` (links above `B_thres`), so chosen peers have fast links.
//! 2. **Information propagation** (Assumption 3) — a timestamp matrix `R`
//!    tracks when each edge last communicated. If the *recently connected*
//!    edges (those with `R_ij > t − T_thres`) no longer form a connected
//!    graph, the round's matching is instead drawn from **bridge edges**
//!    linking the stale components back together, forcing the union of
//!    edges used in any `T_thres` window to be connected.
//!
//! After the first matching pass, any still-unmatched workers are matched
//! among themselves *ignoring bandwidth* (lines 6-9), so every worker gets
//! a peer whenever possible.

use rand::Rng;
use saps_graph::{connectivity, matching, Graph, Matching};

/// How the per-round matching is chosen when the RC graph is healthy.
///
/// The paper's Algorithm 3 uses maximum-*cardinality* matching over the
/// thresholded graph `B*` ([`PeerStrategy::ThresholdMatching`]);
/// [`PeerStrategy::GreedyWeight`] is an extension this crate adds for the
/// ablation benches: a greedy maximum-weight matching over the raw
/// bandwidths, which chases fast links harder but concentrates on the
/// same few edges (worse mixing). The bridging/leftover machinery is
/// identical for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerStrategy {
    /// Algorithm 3 as published: blossom matching on `B*`.
    #[default]
    ThresholdMatching,
    /// Greedy max-weight matching on raw bandwidths (ablation extension).
    GreedyWeight,
}

/// The adaptive peer-selection engine (Algorithm 3 state).
#[derive(Debug, Clone)]
pub struct GossipGenerator {
    n: usize,
    /// Bandwidth-filtered candidate graph `B*` (edges above threshold).
    bstar: Graph,
    /// All positive-bandwidth edges (the PC-edge graph; used for the
    /// leftover pass and for bridging).
    full: Graph,
    /// `R[i][j]` = last round at which `(i, j)` communicated, or -1.
    last_used: Vec<i64>,
    /// `(i, j, previous R_ij)` for every stamp the last matching
    /// overwrote — what [`GossipGenerator::undo_last_matching`] restores.
    overwritten: Vec<(usize, usize, i64)>,
    /// The RC window.
    tthres: i64,
    /// Matching policy for healthy rounds.
    strategy: PeerStrategy,
    /// Symmetrized bandwidths (MB/s) for [`PeerStrategy::GreedyWeight`];
    /// empty when unused.
    weights: Vec<f64>,
    /// Shard ceiling for the healthy-round matching pass: `Some(s)`
    /// plans per bandwidth-partition (connected component of the
    /// candidate graph), splitting oversized partitions into ≤ `s`
    /// vertex shards — O(s³) per shard instead of O(n³) global. `None`
    /// keeps the monolithic blossom pass.
    shard_size: Option<usize>,
}

impl GossipGenerator {
    /// Creates the generator.
    ///
    /// * `bstar` — the thresholded graph the coordinator computed in
    ///   Algorithm 1 (`GetNewConnectedGraph`);
    /// * `full` — every pair that *can* communicate (PC edges). Must be
    ///   connected for Assumption 3 to be satisfiable.
    /// * `tthres` — the RC window `T_thres` (rounds).
    pub fn new(bstar: Graph, full: Graph, tthres: u32) -> Self {
        assert_eq!(bstar.len(), full.len(), "graphs must cover same workers");
        assert!(tthres >= 1, "T_thres must be at least 1");
        let n = bstar.len();
        GossipGenerator {
            n,
            bstar,
            full,
            last_used: vec![-1; n * n],
            overwritten: Vec::new(),
            tthres: tthres as i64,
            strategy: PeerStrategy::ThresholdMatching,
            weights: Vec::new(),
            shard_size: None,
        }
    }

    /// Sets the shard ceiling for round planning (see
    /// [`saps_graph::matching::sharded_max_match`]). `None` restores the
    /// monolithic pass; `Some(s)` requires `s ≥ 2`.
    pub fn set_shard_size(&mut self, shard_size: Option<usize>) {
        if let Some(s) = shard_size {
            assert!(s >= 2, "shard_size must be at least 2");
        }
        self.shard_size = shard_size;
    }

    /// Creates a generator using greedy maximum-weight matching over the
    /// given symmetrized bandwidth matrix (row-major `n × n`, MB/s)
    /// instead of cardinality matching on `B*`.
    pub fn with_greedy_weights(full: Graph, weights: Vec<f64>, tthres: u32) -> Self {
        let n = full.len();
        assert_eq!(weights.len(), n * n, "weights must be n*n");
        let mut g = Self::new(full.clone(), full, tthres);
        g.strategy = PeerStrategy::GreedyWeight;
        g.weights = weights;
        g
    }

    /// The matching policy in use.
    pub fn strategy(&self) -> PeerStrategy {
        self.strategy
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the generator covers zero workers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The graph of *recently connected* edges at round `t`:
    /// `(i,j)` with `R_ij > t − T_thres`.
    pub fn rc_graph(&self, t: i64) -> Graph {
        let mut g = Graph::new(self.n);
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.last_used[i * self.n + j] > t - self.tthres {
                    g.add_edge(i, j);
                }
            }
        }
        g
    }

    /// Runs one round of Algorithm 3, returning the matching that defines
    /// `W_t`, and records it in the timestamp matrix `R`.
    pub fn next_matching<R: Rng>(&mut self, t: u64, rng: &mut R) -> Matching {
        let t = t as i64;
        let rc = self.rc_graph(t);
        // Line 1: if the RC edges still form a connected graph, match for
        // bandwidth; otherwise match over bridge edges that reconnect the
        // stale components (lines 3-4).
        let rc_healthy = connectivity::is_connected(&rc);
        let candidate = if rc_healthy {
            self.bstar.clone()
        } else {
            let bridges = connectivity::bridge_graph(&rc, &self.full);
            if bridges.edge_count() == 0 {
                // The PC graph itself cannot reconnect the components
                // (disconnected full graph); fall back to bandwidth.
                self.bstar.clone()
            } else {
                bridges
            }
        };
        // Line 5: RandomlyMaxMatch over the candidate edges (or, for the
        // GreedyWeight extension on healthy rounds, the heaviest-first
        // greedy matching over the raw bandwidths).
        let mut match_ = if self.strategy == PeerStrategy::GreedyWeight && rc_healthy {
            matching::greedy_weight_matching(self.n, &self.weights)
        } else if let Some(s) = self.shard_size {
            matching::sharded_max_match(&candidate, s, rng)
        } else {
            matching::randomly_max_match(&candidate, rng)
        };
        // Lines 6-8: pair the leftovers over any PC edge, ignoring
        // bandwidth.
        if match_.len() * 2 < self.n {
            let unmatched = match_.unmatched();
            let mut leftover = Graph::new(self.n);
            for (ai, &a) in unmatched.iter().enumerate() {
                for &b in &unmatched[ai + 1..] {
                    if self.full.has_edge(a, b) {
                        leftover.add_edge(a, b);
                    }
                }
            }
            let second = matching::randomly_max_match(&leftover, rng);
            match_.absorb(&second);
        }
        // Record round stamps.
        self.overwritten.clear();
        for (i, j) in match_.pairs() {
            self.overwritten
                .push((i, j, self.last_used[i * self.n + j]));
            self.last_used[i * self.n + j] = t;
            self.last_used[j * self.n + i] = t;
        }
        match_
    }

    /// Takes back the stamps of the last matching (a round that was
    /// planned but aborted never communicated). A no-op right after a
    /// [`GossipGenerator::rebuild`] or a previous undo.
    pub fn undo_last_matching(&mut self) {
        for (i, j, stamp) in self.overwritten.drain(..) {
            self.last_used[i * self.n + j] = stamp;
            self.last_used[j * self.n + i] = stamp;
        }
    }

    /// Resizes bookkeeping after a topology change (worker churn): keeps
    /// timestamps — and greedy weights, if any — for surviving pairs; a
    /// fresh worker starts unstamped with weight 0. `bstar` and `full`
    /// are the new candidate graphs; `keep[i]` maps new index `i` to the
    /// old index (or `None` for a fresh worker).
    pub fn rebuild(&mut self, bstar: Graph, full: Graph, keep: &[Option<usize>]) {
        assert_eq!(bstar.len(), full.len());
        assert_eq!(bstar.len(), keep.len());
        self.last_used = reindex(&self.last_used, self.n, keep, -1);
        if !self.weights.is_empty() {
            self.weights = reindex(&self.weights, self.n, keep, 0.0);
        }
        self.n = bstar.len();
        self.bstar = bstar;
        self.full = full;
        self.overwritten.clear();
    }
}

/// An `n × n` row-major table carried through `keep` (new index → old
/// index); entries touching a fresh index read `fresh`.
fn reindex<T: Copy>(old: &[T], n: usize, keep: &[Option<usize>], fresh: T) -> Vec<T> {
    let m = keep.len();
    let mut new = vec![fresh; m * m];
    for (ni, oi) in keep.iter().enumerate() {
        for (nj, oj) in keep.iter().enumerate() {
            if let (Some(oi), Some(oj)) = (oi, oj) {
                new[ni * m + nj] = old[oi * n + oj];
            }
        }
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saps_graph::topology::complete;

    fn generator(n: usize, tthres: u32) -> GossipGenerator {
        GossipGenerator::new(complete(n), complete(n), tthres)
    }

    #[test]
    fn produces_perfect_matchings_on_complete_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = generator(8, 10);
        for t in 0..50 {
            let m = g.next_matching(t, &mut rng);
            assert!(m.is_perfect(), "round {t}");
        }
    }

    #[test]
    fn odd_worker_count_leaves_one_unmatched() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = generator(7, 10);
        let m = g.next_matching(0, &mut rng);
        assert_eq!(m.len(), 3);
        assert_eq!(m.unmatched().len(), 1);
    }

    #[test]
    fn rc_window_forces_edge_rotation() {
        // With T_thres large relative to the pair count, the generator
        // must eventually use bridge edges: the union of all edges used in
        // any window must connect the graph.
        let n = 8;
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = generator(n, 6);
        let mut union_edges = std::collections::HashSet::new();
        for t in 0..200 {
            let m = g.next_matching(t, &mut rng);
            for p in m.pairs() {
                union_edges.insert(p);
            }
        }
        // All workers participate in many distinct pairs over time.
        assert!(
            union_edges.len() >= n, // strictly more than a fixed matching's n/2
            "only {} distinct edges used",
            union_edges.len()
        );
        // The union graph is connected.
        let mut ug = Graph::new(n);
        for &(a, b) in &union_edges {
            ug.add_edge(a, b);
        }
        assert!(connectivity::is_connected(&ug));
    }

    #[test]
    fn rc_graph_tracks_recent_edges() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = generator(4, 3);
        let m = g.next_matching(10, &mut rng);
        let rc = g.rc_graph(10);
        for (a, b) in m.pairs() {
            assert!(rc.has_edge(a, b));
        }
        // After the window passes, the edges age out.
        let rc_later = g.rc_graph(14);
        assert_eq!(rc_later.edge_count(), 0);
    }

    #[test]
    fn rc_window_is_open_for_exactly_tthres_rounds() {
        // Algorithm 3 keeps (i,j) recently connected while
        // R_ij > t − T_thres: an edge used at round u is still in the RC
        // graph at u + T_thres − 1 and gone at u + T_thres.
        for tthres in [1u32, 3, 7] {
            let mut rng = StdRng::seed_from_u64(u64::from(tthres));
            let mut g = generator(4, tthres);
            let u = 10u64;
            let m = g.next_matching(u, &mut rng);
            assert!(!m.pairs().is_empty());
            let (u, t) = (u as i64, i64::from(tthres));
            let (open, closed) = (g.rc_graph(u + t - 1), g.rc_graph(u + t));
            for (a, b) in m.pairs() {
                assert!(
                    open.has_edge(a, b),
                    "T_thres={tthres}: ({a},{b}) aged out early"
                );
                assert!(
                    !closed.has_edge(a, b),
                    "T_thres={tthres}: ({a},{b}) outlived the window"
                );
            }
        }
    }

    #[test]
    fn restricted_bstar_still_connects_via_bridges() {
        // B* is a disconnected pairing {0-1, 2-3}, but the full PC graph
        // is complete. The RC-window logic must inject bridge edges so
        // information crosses between {0,1} and {2,3}.
        let n = 4;
        let mut bstar = Graph::new(n);
        bstar.add_edge(0, 1);
        bstar.add_edge(2, 3);
        let mut g = GossipGenerator::new(bstar, complete(n), 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut crossed = false;
        for t in 0..40 {
            let m = g.next_matching(t, &mut rng);
            for (a, b) in m.pairs() {
                let group = |v: usize| usize::from(v >= 2);
                if group(a) != group(b) {
                    crossed = true;
                }
            }
        }
        assert!(crossed, "no cross-component edge ever chosen");
    }

    #[test]
    fn disconnected_full_graph_does_not_panic() {
        // Two isolated pairs with no PC edges between them: the generator
        // can never connect them, but it must still match within pairs.
        let n = 4;
        let mut gph = Graph::new(n);
        gph.add_edge(0, 1);
        gph.add_edge(2, 3);
        let mut g = GossipGenerator::new(gph.clone(), gph, 2);
        let mut rng = StdRng::seed_from_u64(6);
        for t in 0..20 {
            let m = g.next_matching(t, &mut rng);
            assert_eq!(m.len(), 2);
        }
    }

    #[test]
    fn rebuild_preserves_surviving_timestamps() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = generator(4, 100);
        let m = g.next_matching(5, &mut rng);
        let pairs = m.pairs();
        // Drop worker 3, keep 0,1,2 (new index = old index).
        g.rebuild(complete(3), complete(3), &[Some(0), Some(1), Some(2)]);
        let rc = g.rc_graph(6);
        for (a, b) in pairs {
            if a < 3 && b < 3 {
                assert!(rc.has_edge(a, b), "surviving edge ({a},{b}) lost");
            }
        }
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn greedy_weight_strategy_prefers_fast_links() {
        // Weights: edge (0,1) and (2,3) are fast, everything else slow.
        let n = 4;
        let mut weights = vec![1.0; n * n];
        for i in 0..n {
            weights[i * n + i] = 0.0;
        }
        weights[1] = 50.0;
        weights[n] = 50.0;
        weights[2 * n + 3] = 50.0;
        weights[3 * n + 2] = 50.0;
        let mut g = GossipGenerator::with_greedy_weights(complete(n), weights.clone(), 8);
        assert_eq!(g.strategy(), PeerStrategy::GreedyWeight);
        let mut rng = StdRng::seed_from_u64(1);
        // Count how often the fast pairing {(0,1),(2,3)} is chosen on
        // healthy (non-bridging) rounds; greedy should pick it whenever
        // the RC window allows.
        let mut fast = 0;
        let mut total = 0;
        for t in 0..60 {
            let m = g.next_matching(t, &mut rng);
            total += 1;
            if m.pairs() == vec![(0, 1), (2, 3)] {
                fast += 1;
            }
        }
        assert!(
            fast * 2 > total,
            "fast pairing chosen only {fast}/{total} rounds"
        );
    }

    #[test]
    fn greedy_weight_stream_still_mixes() {
        // Even while chasing fast links, the RC-window bridging must keep
        // rho < 1. Same setup as above.
        use saps_gossip::{spectral, GossipMatrix};
        let n = 6;
        let mut weights = vec![1.0; n * n];
        for i in 0..n {
            weights[i * n + i] = 0.0;
        }
        weights[1] = 50.0;
        weights[n] = 50.0;
        let mut g = GossipGenerator::with_greedy_weights(complete(n), weights, 4);
        let mut rng = StdRng::seed_from_u64(2);
        let rho = spectral::estimate_rho(n, 2_000, |t| {
            GossipMatrix::from_matching(&g.next_matching(t as u64, &mut rng))
        });
        assert!(rho < 0.999, "rho = {rho}");
    }

    #[test]
    fn rebuild_reindexes_greedy_weights() {
        // Old ranks 1 and 3 share the fast link; rank 0 leaves and a
        // fresh worker joins at new index 3.
        let n = 4;
        let mut weights = vec![1.0; n * n];
        for i in 0..n {
            weights[i * n + i] = 0.0;
        }
        weights[n + 3] = 50.0;
        weights[3 * n + 1] = 50.0;
        let mut g = GossipGenerator::with_greedy_weights(complete(n), weights, 100);
        g.rebuild(complete(4), complete(4), &[Some(1), Some(2), Some(3), None]);
        assert_eq!(g.strategy(), PeerStrategy::GreedyWeight);
        // Unstamped joiner: the RC graph is disconnected, so seed it
        // connected to exercise the greedy pass on the re-indexed weights.
        let mut rng = StdRng::seed_from_u64(3);
        for t in 0..3 {
            g.next_matching(t, &mut rng);
        }
        assert!(connectivity::is_connected(&g.rc_graph(3)));
        // The fast link is now (0, 2); the joiner carries weight 0 and is
        // paired with the other leftover over the PC graph.
        let m = g.next_matching(3, &mut rng);
        assert!(m.pairs().contains(&(0, 2)), "got {:?}", m.pairs());
        assert!(m.pairs().contains(&(1, 3)), "got {:?}", m.pairs());
    }

    #[test]
    fn spectral_condition_holds_for_generated_stream() {
        // The paper's whole point: the generated W_t stream satisfies
        // rho(E[WᵀW]) < 1 even though each round is only a matching.
        use saps_gossip::{spectral, GossipMatrix};
        let mut rng = StdRng::seed_from_u64(8);
        let mut g = generator(8, 5);
        let rho = spectral::estimate_rho(8, 3000, |t| {
            GossipMatrix::from_matching(&g.next_matching(t as u64, &mut rng))
        });
        assert!(rho < 0.999, "rho = {rho}");
    }
}
