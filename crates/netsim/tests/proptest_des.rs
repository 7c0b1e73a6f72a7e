//! Property tests for the discrete-event network simulator, checked
//! against closed-form oracles.
//!
//! The contract pinned here (see `docs/NETWORK_SIM.md`):
//!
//! * **Zero-latency equivalence** — for the peer-to-peer,
//!   parameter-server and ring all-reduce (m ≥ 3) patterns, the default
//!   model (the engine at zero latency) reproduces the paper's
//!   bandwidth-only closed forms in [`oracle`] exactly (modulo float
//!   rounding). Two-worker collectives are the documented exception:
//!   both directions share one duplex pair, pricing exactly 2× the ring
//!   formula.
//! * **Latency only adds** — for those same patterns, event-driven time
//!   with positive latency is at least the closed form.
//! * **Allgather lies between its sender chains** — each sender pushes
//!   its `m−1` chunks one after another, and a pair carries at most one
//!   chunk per direction, so the round lies between the slowest
//!   sender's chain `Σ_j bytes/bw(i,j)` and twice it.
//! * **Monotone in bytes** — inflating any transfer never shortens the
//!   round.
//! * **Permutation invariance** — the order of the transfer list is
//!   irrelevant.
//! * **Finiteness** — any transfer set over a fully connected
//!   (all-positive) bandwidth matrix prices finite.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saps_netsim::flows::{simulate, FlowSpec, RateUpdate};
use saps_netsim::{BandwidthMatrix, PacketConfig, TimeModel};

/// The paper's bandwidth-only accounting (bytes moved over the bandwidth
/// of the link they moved over, synchronous rounds gated by the slowest
/// concurrent transfer) for the three patterns where the engine at zero
/// latency must reproduce it. Test-only: the library prices every round
/// on the engine.
mod oracle {
    use saps_netsim::BandwidthMatrix;
    use std::collections::HashMap;

    /// One round of concurrent pairwise transfers `(src, dst, bytes)`.
    /// Transfers on the same unordered pair are summed (the two
    /// directions of one exchange share the pair's bottleneck
    /// bandwidth); the slowest pair gates the round.
    pub fn p2p(bw: &BandwidthMatrix, transfers: &[(usize, usize, u64)]) -> f64 {
        let mut per_pair: HashMap<(usize, usize), u64> = HashMap::new();
        for &(src, dst, bytes) in transfers {
            let sum = per_pair.entry((src.min(dst), src.max(dst))).or_insert(0);
            *sum = sum.saturating_add(bytes);
        }
        per_pair
            .into_iter()
            .map(|((i, j), bytes)| seconds(bytes, bw.get(i, j)))
            .fold(0.0, f64::max)
    }

    /// One parameter-server round: each `(worker, up, down)` client
    /// moves `up + down` bytes over its link to `server`; a co-located
    /// client is free, and the slowest client gates the round.
    pub fn ps(bw: &BandwidthMatrix, server: usize, clients: &[(usize, u64, u64)]) -> f64 {
        clients
            .iter()
            .filter(|&&(w, _, _)| w != server)
            .map(|&(w, up, down)| seconds(up + down, bw.get(w, server)))
            .fold(0.0, f64::max)
    }

    /// A ring all-reduce over `ranks` in order: `2(m−1)` steps each
    /// moving a chunk over every ring link concurrently, so the slowest
    /// ring link carries the whole `bytes_per_worker`. Exact for m ≥ 3.
    pub fn ring(bw: &BandwidthMatrix, ranks: &[usize], bytes_per_worker: u64) -> f64 {
        let m = ranks.len();
        if m < 2 {
            return 0.0;
        }
        let slowest = (0..m)
            .map(|i| bw.get(ranks[i], ranks[(i + 1) % m]))
            .fold(f64::INFINITY, f64::min);
        seconds(bytes_per_worker, slowest)
    }

    fn seconds(bytes: u64, mbps: f64) -> f64 {
        if mbps <= 0.0 {
            f64::INFINITY
        } else {
            bytes as f64 / (mbps * 1e6)
        }
    }
}

/// Relative-tolerance comparison for simulated vs closed-form times.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1e-9)
}

fn random_matrix(n: usize, seed: u64) -> BandwidthMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    BandwidthMatrix::uniform_random(n, 5.0, &mut rng)
}

/// A transfer list over `n` ranks with `pairs` entries and bytes drawn
/// from the matrix seed.
fn random_transfers(n: usize, pairs: usize, seed: u64) -> Vec<(usize, usize, u64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    (0..pairs)
        .map(|_| {
            let src = rng.gen_range(0..n);
            let mut dst = rng.gen_range(0..n);
            if dst == src {
                dst = (dst + 1) % n;
            }
            (src, dst, rng.gen_range(1u64..50_000_000))
        })
        .collect()
}

proptest! {
    #[test]
    fn p2p_des_zero_latency_equals_analytic(
        n in 2usize..10,
        pairs in 1usize..16,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let transfers = random_transfers(n, pairs, seed);
        let a = oracle::p2p(&bw, &transfers);
        let d = TimeModel::default().price_p2p(&bw, &transfers, &[]);
        prop_assert!(
            close(d.transfer_s, a),
            "engine {} != closed form {}", d.transfer_s, a
        );
    }

    #[test]
    fn ps_des_zero_latency_equals_analytic(
        n in 3usize..10,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let server = bw.best_server();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
        let mut clients: Vec<(usize, u64, u64)> = Vec::new();
        for w in 0..n {
            if rng.gen_bool(0.7) {
                let up = rng.gen_range(1u64..10_000_000);
                let down = rng.gen_range(1u64..10_000_000);
                clients.push((w, up, down));
            }
        }
        let a = oracle::ps(&bw, server, &clients);
        let d = TimeModel::default().price_ps(&bw, server, &clients, &[]);
        prop_assert!(
            close(d.transfer_s, a),
            "engine {} != closed form {}", d.transfer_s, a
        );
    }

    // m = 2 is excluded: a 2-worker "ring" is a single duplex pair, and
    // under fair-share contention its two directions split the link —
    // the engine prices 2× the ring formula there (pinned in
    // `two_worker_collectives_share_the_duplex_pair` below).
    #[test]
    fn allreduce_des_zero_latency_equals_analytic(
        n in 3usize..12,
        bytes in 1u64..100_000_000,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let ranks: Vec<usize> = (0..n).collect();
        let a = oracle::ring(&bw, &ranks, bytes);
        let d = TimeModel::default().price_allreduce(&bw, &ranks, bytes, &[]);
        prop_assert!(
            close(d.transfer_s, a),
            "engine {} != closed form {}", d.transfer_s, a
        );
    }

    #[test]
    fn latency_only_adds_time(
        n in 2usize..8,
        pairs in 1usize..12,
        latency in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let transfers = random_transfers(n, pairs, seed);
        let ranks: Vec<usize> = (0..n).collect();
        let des = TimeModel::event_driven(latency);
        let slack = 1e-6;
        prop_assert!(
            des.price_p2p(&bw, &transfers, &[]).transfer_s
                >= oracle::p2p(&bw, &transfers) * (1.0 - slack)
        );
        prop_assert!(
            des.price_allreduce(&bw, &ranks, 1_000_000, &[]).transfer_s
                >= oracle::ring(&bw, &ranks, 1_000_000) * (1.0 - slack)
        );
        let clients: Vec<(usize, u64, u64)> =
            (1..n).map(|w| (w, 1_000_000, 2_000_000)).collect();
        prop_assert!(
            des.price_ps(&bw, 0, &clients, &[]).transfer_s
                >= oracle::ps(&bw, 0, &clients) * (1.0 - slack)
        );
    }

    #[test]
    fn allgather_des_within_twice_its_slowest_sender_chain(
        n in 3usize..8,
        bytes in 1u64..20_000_000,
        seed in any::<u64>(),
    ) {
        // Each sender's m−1 chunks run one after another, each at no
        // more than its link's bandwidth; every unordered pair carries
        // exactly two allgather chunks (one per direction), so fair
        // sharing never drops a chunk below half its link. The round
        // therefore lies between the slowest sender's chain and twice it.
        let bw = random_matrix(n, seed);
        let ranks: Vec<usize> = (0..n).collect();
        let chain = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| bytes as f64 / (bw.get(i, j) * 1e6))
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        let d = TimeModel::default().price_allgather(&bw, &ranks, bytes, &[]);
        prop_assert!(
            d.transfer_s >= chain * (1.0 - 1e-6),
            "engine {} < slowest sender chain {}", d.transfer_s, chain
        );
        prop_assert!(
            d.transfer_s <= 2.0 * chain * (1.0 + 1e-6),
            "engine {} > 2 x slowest sender chain {}", d.transfer_s, chain
        );
    }

    #[test]
    fn round_time_monotone_in_bytes(
        n in 2usize..8,
        pairs in 1usize..12,
        scale in 1u64..20,
        latency in 0.0f64..0.1,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let base = random_transfers(n, pairs, seed);
        let inflated: Vec<(usize, usize, u64)> = base
            .iter()
            .map(|&(s, d, b)| (s, d, b.saturating_mul(scale)))
            .collect();
        for model in [TimeModel::default(), TimeModel::event_driven(latency)] {
            let small = model.price_p2p(&bw, &base, &[]).transfer_s;
            let big = model.price_p2p(&bw, &inflated, &[]).transfer_s;
            prop_assert!(
                big >= small * (1.0 - 1e-9),
                "{model:?}: inflating bytes shortened the round ({small} -> {big})"
            );
        }
    }

    #[test]
    fn p2p_pricing_invariant_under_transfer_permutation(
        n in 2usize..8,
        pairs in 2usize..14,
        latency in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let transfers = random_transfers(n, pairs, seed);
        // A deterministic shuffle of the same list.
        let mut permuted = transfers.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        for i in (1..permuted.len()).rev() {
            permuted.swap(i, rng.gen_range(0..=i));
        }
        for model in [TimeModel::default(), TimeModel::event_driven(latency)] {
            let a = model.price_p2p(&bw, &transfers, &[]);
            let b = model.price_p2p(&bw, &permuted, &[]);
            prop_assert!(
                close(a.transfer_s, b.transfer_s),
                "{model:?}: order changed the price ({} vs {})",
                a.transfer_s,
                b.transfer_s
            );
        }
    }

    #[test]
    fn any_transfer_set_is_finite_on_a_connected_matrix(
        n in 2usize..8,
        pairs in 1usize..16,
        latency in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        // uniform_random draws every pair in (0, 5] MB/s: fully
        // connected, so no flow can starve.
        let bw = random_matrix(n, seed);
        let transfers = random_transfers(n, pairs, seed);
        let ranks: Vec<usize> = (0..n).collect();
        for model in [TimeModel::default(), TimeModel::event_driven(latency)] {
            prop_assert!(model.price_p2p(&bw, &transfers, &[]).transfer_s.is_finite());
            prop_assert!(model
                .price_allreduce(&bw, &ranks, 1_000_000, &[])
                .transfer_s
                .is_finite());
            prop_assert!(model
                .price_allgather(&bw, &ranks, 1_000_000, &[])
                .transfer_s
                .is_finite());
        }
    }

    #[test]
    fn two_worker_collectives_share_the_duplex_pair(
        bytes in 1u64..50_000_000,
        seed in any::<u64>(),
    ) {
        // With exactly two workers, both collective directions ride the
        // one unordered pair: each collective prices as one duplex
        // exchange of `bytes` each way, twice the ring formula.
        let bw = random_matrix(2, seed);
        let ranks = [0usize, 1];
        let exchange = oracle::p2p(&bw, &[(0, 1, bytes), (1, 0, bytes)]);
        prop_assert!(close(exchange, 2.0 * oracle::ring(&bw, &ranks, bytes)));
        let model = TimeModel::default();
        for d in [
            model.price_allreduce(&bw, &ranks, bytes, &[]),
            model.price_allgather(&bw, &ranks, bytes, &[]),
        ] {
            prop_assert!(
                close(d.transfer_s, exchange),
                "engine {} != duplex exchange {}", d.transfer_s, exchange
            );
        }
    }

    #[test]
    fn identity_rate_update_is_a_noop(
        n in 2usize..8,
        pairs in 1usize..10,
        at in 0.0f64..5.0,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let flows: Vec<FlowSpec> = random_transfers(n, pairs, seed)
            .into_iter()
            .map(|(s, d, b)| FlowSpec::new(s, d, b as f64))
            .collect();
        let fluid = PacketConfig::ideal();
        let plain = simulate(&bw, 0.0, &fluid, &flows, &[]);
        let updated = simulate(&bw, 0.0, &fluid,
            &flows,
            &[RateUpdate { at_s: at, bw: bw.clone() }],
        );
        prop_assert!(close(plain.makespan_s, updated.makespan_s));
    }

    #[test]
    fn mid_flight_slowdown_lands_between_bounds(
        n in 2usize..6,
        seed in any::<u64>(),
        cut in 0.1f64..0.9,
    ) {
        // One flow; halve ... scale the matrix mid-transfer: the result
        // must lie between the all-fast and all-slow extremes.
        let bw = random_matrix(n, seed);
        let slow = {
            let mut m = bw.clone();
            for i in 0..n {
                for j in (i + 1)..n {
                    m.set(i, j, bw.get(i, j) * 0.5);
                }
            }
            m
        };
        let flow = [FlowSpec::new(0, 1, 10_000_000.0)];
        let fluid = PacketConfig::ideal();
        let fast_t = simulate(&bw, 0.0, &fluid, &flow, &[]).makespan_s;
        let slow_t = simulate(&slow, 0.0, &fluid, &flow, &[]).makespan_s;
        let mid = simulate(&bw, 0.0, &fluid,
            &flow,
            &[RateUpdate { at_s: fast_t * cut, bw: slow.clone() }],
        )
        .makespan_s;
        prop_assert!(mid >= fast_t * (1.0 - 1e-9), "{mid} < {fast_t}");
        prop_assert!(mid <= slow_t * (1.0 + 1e-9), "{mid} > {slow_t}");
    }
}
