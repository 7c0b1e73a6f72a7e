//! Deterministic seed derivation.
//!
//! The coordinator in the paper broadcasts a single random seed `s` each
//! round; every worker must expand it into *identical* randomness (the mask
//! `m_t`) without further communication. This module provides the one
//! canonical way the whole workspace derives per-round / per-purpose seeds,
//! so independent components can agree on randomness by construction.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixes a base seed with a round counter (and an optional stream tag) into
/// a new 64-bit seed using splitmix64 finalization steps.
///
/// Properties relied on across the workspace:
/// * deterministic — same inputs, same output, on every platform;
/// * distinct streams — different `(seed, round, stream)` triples give
///   unrelated RNG streams in practice.
pub fn derive_seed(seed: u64, round: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round.wrapping_add(1)))
        .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Constructs a [`StdRng`] from a derived seed. Convenience wrapper around
/// [`derive_seed`] + `StdRng::seed_from_u64`.
pub fn rng_for(seed: u64, round: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, round, stream))
}

/// Well-known stream tags, so call sites don't collide by accident.
pub mod streams {
    /// The shared sparsification mask `m_t` (Algorithm 2, line 6).
    pub const MASK: u64 = 1;
    /// Mini-batch sampling on a worker (add the worker rank to this).
    pub const BATCH: u64 = 1000;
    /// Gossip-matrix generation randomness (`RandomlyMaxMatch`).
    pub const MATCHING: u64 = 2;
    /// Client sampling in FedAvg-style algorithms.
    pub const CLIENT_SAMPLE: u64 = 3;
    /// Synthetic data generation.
    pub const DATA: u64 = 4;
    /// Model initialization.
    pub const INIT: u64 = 5;
    /// Bandwidth matrix generation.
    pub const BANDWIDTH: u64 = 6;
    /// The per-round RNG handed to trainers through `RoundCtx`.
    pub const ROUND: u64 = 8;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(42, 7, 1), derive_seed(42, 7, 1));
    }

    #[test]
    fn distinct_rounds_and_streams() {
        let base = derive_seed(42, 0, 0);
        assert_ne!(base, derive_seed(42, 1, 0));
        assert_ne!(base, derive_seed(42, 0, 1));
        assert_ne!(base, derive_seed(43, 0, 0));
    }

    #[test]
    fn rng_streams_agree_across_instances() {
        // Two "workers" deriving the mask RNG for the same round must see
        // identical streams.
        let mut a = rng_for(9, 3, streams::MASK);
        let mut b = rng_for(9, 3, streams::MASK);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn no_trivial_collisions_over_rounds() {
        let mut seen = std::collections::HashSet::new();
        for t in 0..10_000u64 {
            assert!(seen.insert(derive_seed(123, t, streams::MASK)));
        }
    }
}
