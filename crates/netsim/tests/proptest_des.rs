//! Property tests for the discrete-event network simulator and its
//! relationship to the closed-form analytic time model.
//!
//! The contract pinned here (see `docs/NETWORK_SIM.md`):
//!
//! * **Zero-latency equivalence** — for the peer-to-peer,
//!   parameter-server and ring all-reduce (m ≥ 3) patterns,
//!   `EventDriven { latency: 0 }` reproduces the
//!   analytic transfer time exactly (modulo float rounding). Two-worker
//!   collectives are the documented exception: both directions share
//!   one duplex pair, pricing exactly 2× analytic.
//! * **Latency only adds** — for those same patterns, event-driven time
//!   with positive latency is at least the analytic time.
//! * **Allgather is the loose exception** — the analytic formula gates
//!   every chunk on the global bottleneck link; the simulated
//!   serialized-sender schedule usually comes in under it, and
//!   duplex-direction collisions bound it at 2× in the worst case.
//! * **Monotone in bytes** — inflating any transfer never shortens the
//!   round, under either model.
//! * **Permutation invariance** — the order of the transfer list is
//!   irrelevant under either model.
//! * **Finiteness** — any transfer set over a fully connected
//!   (all-positive) bandwidth matrix prices finite.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saps_netsim::flows::{simulate, FlowSpec, RateUpdate};
use saps_netsim::{BandwidthMatrix, PacketConfig, TimeModel};

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
        let a = TimeModel::Analytic.price_p2p(&bw, &transfers, &[]);
        let d = TimeModel::event_driven(0.0).price_p2p(&bw, &transfers, &[]);
        prop_assert!(
            close(d.transfer_s, a.transfer_s),
            "des {} != analytic {}", d.transfer_s, a.transfer_s
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
        let a = TimeModel::Analytic.price_ps(&bw, server, &clients, &[]);
        let d = TimeModel::event_driven(0.0).price_ps(&bw, server, &clients, &[]);
        prop_assert!(
            close(d.transfer_s, a.transfer_s),
            "des {} != analytic {}", d.transfer_s, a.transfer_s
        );
    }

    // m = 2 is excluded: a 2-worker "ring" is a single duplex pair, and
    // under fair-share contention its two directions split the link —
    // the simulator prices 2× the analytic formula there (pinned in
    // `two_worker_collectives_share_the_duplex_pair` below).
    #[test]
    fn allreduce_des_zero_latency_equals_analytic(
        n in 3usize..12,
        bytes in 1u64..100_000_000,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let ranks: Vec<usize> = (0..n).collect();
        let a = TimeModel::Analytic.price_allreduce(&bw, &ranks, bytes, &[]);
        let d = TimeModel::event_driven(0.0).price_allreduce(&bw, &ranks, bytes, &[]);
        prop_assert!(
            close(d.transfer_s, a.transfer_s),
            "des {} != analytic {}", d.transfer_s, a.transfer_s
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
        let analytic = TimeModel::Analytic;
        let des = TimeModel::event_driven(latency);
        let slack = 1e-6;
        prop_assert!(
            des.price_p2p(&bw, &transfers, &[]).transfer_s
                >= analytic.price_p2p(&bw, &transfers, &[]).transfer_s * (1.0 - slack)
        );
        prop_assert!(
            des.price_allreduce(&bw, &ranks, 1_000_000, &[]).transfer_s
                >= analytic.price_allreduce(&bw, &ranks, 1_000_000, &[]).transfer_s
                    * (1.0 - slack)
        );
        let clients: Vec<(usize, u64, u64)> =
            (1..n).map(|w| (w, 1_000_000, 2_000_000)).collect();
        prop_assert!(
            des.price_ps(&bw, 0, &clients, &[]).transfer_s
                >= analytic.price_ps(&bw, 0, &clients, &[]).transfer_s * (1.0 - slack)
        );
    }

    #[test]
    fn allgather_des_within_twice_the_conservative_analytic(
        n in 3usize..8,
        bytes in 1u64..20_000_000,
        seed in any::<u64>(),
    ) {
        // Every unordered pair carries exactly two allgather transfers
        // (one per direction), so fair sharing never drops a flow below
        // half its link: each sender's chain — and hence the makespan —
        // is bounded by 2 × the analytic (m−1)·bytes/min_link, and on
        // most meshes the simulated schedule prices *under* the
        // analytic bound.
        let bw = random_matrix(n, seed);
        let ranks: Vec<usize> = (0..n).collect();
        let a = TimeModel::Analytic.price_allgather(&bw, &ranks, bytes, &[]);
        let d = TimeModel::event_driven(0.0).price_allgather(&bw, &ranks, bytes, &[]);
        prop_assert!(d.transfer_s > 0.0);
        prop_assert!(
            d.transfer_s <= 2.0 * a.transfer_s * (1.0 + 1e-6),
            "des {} > 2 x analytic {}", d.transfer_s, a.transfer_s
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
        for model in [TimeModel::Analytic, TimeModel::event_driven(latency)] {
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
        for model in [TimeModel::Analytic, TimeModel::event_driven(latency)] {
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
        for model in [TimeModel::Analytic, TimeModel::event_driven(latency)] {
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
        // one unordered pair; fair-share contention halves each, so the
        // event-driven price is exactly twice the analytic one.
        let bw = random_matrix(2, seed);
        let ranks = [0usize, 1];
        for (a, d) in [
            (
                TimeModel::Analytic.price_allreduce(&bw, &ranks, bytes, &[]),
                TimeModel::event_driven(0.0).price_allreduce(&bw, &ranks, bytes, &[]),
            ),
            (
                TimeModel::Analytic.price_allgather(&bw, &ranks, bytes, &[]),
                TimeModel::event_driven(0.0).price_allgather(&bw, &ranks, bytes, &[]),
            ),
        ] {
            prop_assert!(
                close(d.transfer_s, 2.0 * a.transfer_s),
                "des {} != 2 x analytic {}", d.transfer_s, a.transfer_s
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
