//! Communication topologies the paper compares against.
//!
//! * the **ring** used by D-PSGD / DCD-PSGD (Section IV-D fixes the order
//!   `1 → 2 → … → 32 → 1`);
//! * **uniformly random perfect matchings** — the `RandomChoose` strategy
//!   of Fig. 5;
//! * a complete graph helper for PSGD-style all-to-all analyses.

use crate::{Graph, Matching};
use rand::seq::SliceRandom;
use rand::Rng;

/// The fixed ring `0 → 1 → … → n-1 → 0` as a graph.
pub fn ring(n: usize) -> Graph {
    let mut g = Graph::new(n);
    if n >= 2 {
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
    }
    g
}

/// Ring edges in order: `(0,1), (1,2), …, (n-1,0)`.
pub fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    let all: Vec<usize> = (0..n).collect();
    ring_edges_over(&all)
}

/// The ring closed over an explicit vertex list, in list order — the
/// D-PSGD/DCD-PSGD topology when churn has shrunk the live fleet.
/// Returns `(ranks[i], ranks[i+1 mod m])` successor edges.
pub fn ring_edges_over(ranks: &[usize]) -> Vec<(usize, usize)> {
    let m = ranks.len();
    if m < 2 {
        return Vec::new();
    }
    if m == 2 {
        return vec![(ranks[0], ranks[1])];
    }
    (0..m).map(|i| (ranks[i], ranks[(i + 1) % m])).collect()
}

/// The complete graph on `n` vertices.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(i, j);
        }
    }
    g
}

/// A uniformly random perfect matching on `0..n` (n must be even): the
/// `RandomChoose` peer-selection baseline of Fig. 5. Pairs a random
/// shuffle `(v0,v1), (v2,v3), …`.
pub fn random_perfect_matching<R: Rng>(n: usize, rng: &mut R) -> Matching {
    assert!(
        n.is_multiple_of(2),
        "a perfect matching needs an even vertex count"
    );
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let pairs: Vec<(usize, usize)> = perm.chunks(2).map(|c| (c[0], c[1])).collect();
    Matching::from_pairs(n, &pairs)
}

/// Average link weight of a matching under a (possibly asymmetric) weight
/// matrix, symmetrized with `min` per the paper's bottleneck rule.
/// Returns 0 for an empty matching.
pub fn matching_avg_weight(m: &Matching, n: usize, weights: &[f64]) -> f64 {
    assert_eq!(weights.len(), n * n);
    let pairs = m.pairs();
    if pairs.is_empty() {
        return 0.0;
    }
    let total: f64 = pairs
        .iter()
        .map(|&(u, v)| weights[u * n + v].min(weights[v * n + u]))
        .sum();
    total / pairs.len() as f64
}

/// Minimum (bottleneck) link weight across a set of edges; `f64::INFINITY`
/// for an empty set. The round time of a synchronous exchange is governed
/// by this link.
pub fn edges_min_weight(edges: &[(usize, usize)], n: usize, weights: &[f64]) -> f64 {
    edges
        .iter()
        .map(|&(u, v)| weights[u * n + v].min(weights[v * n + u]))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ring_structure() {
        let g = ring(5);
        assert_eq!(g.edge_count(), 5);
        for i in 0..5 {
            assert_eq!(g.degree(i), 2);
        }
        assert_eq!(ring_edges(5).len(), 5);
        assert_eq!(ring_edges(2), vec![(0, 1)]);
        assert!(ring_edges(1).is_empty());
    }

    #[test]
    fn complete_edge_count() {
        assert_eq!(complete(6).edge_count(), 15);
    }

    #[test]
    fn random_perfect_matching_is_perfect() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let m = random_perfect_matching(8, &mut rng);
            assert!(m.is_perfect());
            assert_eq!(m.len(), 4);
        }
    }

    #[test]
    fn random_perfect_matching_is_roughly_uniform() {
        // On 4 vertices there are 3 perfect matchings; each should appear
        // with frequency ~1/3.
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = std::collections::HashMap::new();
        let trials = 3000;
        for _ in 0..trials {
            *counts
                .entry(random_perfect_matching(4, &mut rng).pairs())
                .or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 3);
        for (_, c) in counts {
            let f = c as f64 / trials as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.05, "frequency {f}");
        }
    }

    #[test]
    fn matching_avg_weight_uses_min_symmetrization() {
        let n = 2;
        let mut w = vec![0.0; 4];
        w[1] = 10.0; // 0 -> 1
        w[2] = 4.0; // 1 -> 0
        let m = Matching::from_pairs(2, &[(0, 1)]);
        assert_eq!(matching_avg_weight(&m, n, &w), 4.0);
    }

    #[test]
    fn edges_min_weight_bottleneck() {
        let n = 3;
        let mut w = vec![0.0; 9];
        let set = |i: usize, j: usize, v: f64, w: &mut Vec<f64>| {
            w[i * n + j] = v;
            w[j * n + i] = v;
        };
        set(0, 1, 5.0, &mut w);
        set(1, 2, 2.0, &mut w);
        assert_eq!(edges_min_weight(&[(0, 1), (1, 2)], n, &w), 2.0);
        assert_eq!(edges_min_weight(&[], n, &w), f64::INFINITY);
    }

    #[test]
    fn empty_matching_avg_weight_is_zero() {
        let m = Matching::empty(4);
        assert_eq!(matching_avg_weight(&m, 4, &[1.0; 16]), 0.0);
    }
}
