//! Property tests pinning how `TimeModel::Packet` and
//! `TimeModel::EventDriven` map onto the one flow engine.
//!
//! The contract (see `docs/NETWORK_SIM.md`):
//!
//! * **Windows and loss off** — at zero loss and zero RTT (whatever the
//!   queue depth) the packet model *is* the zero-latency event-driven
//!   model, bit for bit, on all four traffic patterns (p2p,
//!   parameter-server, ring all-reduce, allgather).
//! * **Loss only adds time** — turning on random loss (any seed) never
//!   shortens a round.
//! * **RTT only adds time** — window ramps, queueing delay and
//!   congestion drops never beat the fluid fair share.
//! * **Monotone in bytes** — inflating any transfer never shortens a
//!   loss-free round, window dynamics and all.
//! * **Permutation invariance** — the p2p transfer-list order is
//!   irrelevant even with loss: per-flow loss RNGs are seeded from the
//!   flow's identity, not its list position.
//! * **Determinism** — a run is a pure function of its inputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saps_netsim::{BandwidthMatrix, PacketConfig, TimeModel};

/// Relative-tolerance comparison for simulated times.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1e-9)
}

fn random_matrix(n: usize, seed: u64) -> BandwidthMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    BandwidthMatrix::uniform_random(n, 5.0, &mut rng)
}

/// A random matrix with links floored at 0.5 MB/s. Windowed/lossy runs
/// cost O(makespan / rtt) events per flow, so the tests that exercise
/// them keep makespans bounded; the ideal-degeneration tests use the
/// unfloored draws.
fn random_matrix_floored(n: usize, seed: u64) -> BandwidthMatrix {
    let mut m = random_matrix(n, seed);
    for i in 0..n {
        for j in (i + 1)..n {
            m.set(i, j, m.get(i, j).max(0.5));
        }
    }
    m
}

fn random_transfers_up_to(
    n: usize,
    pairs: usize,
    seed: u64,
    max_bytes: u64,
) -> Vec<(usize, usize, u64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    (0..pairs)
        .map(|_| {
            let src = rng.gen_range(0..n);
            let mut dst = rng.gen_range(0..n);
            if dst == src {
                dst = (dst + 1) % n;
            }
            (src, dst, rng.gen_range(1u64..max_bytes))
        })
        .collect()
}

fn random_transfers(n: usize, pairs: usize, seed: u64) -> Vec<(usize, usize, u64)> {
    random_transfers_up_to(n, pairs, seed, 50_000_000)
}

/// The acceptance-criteria contract point: zero loss, zero queueing,
/// zero RTT.
fn ideal() -> TimeModel {
    TimeModel::packet(PacketConfig::ideal().with_queue(0))
}

fn fluid() -> TimeModel {
    TimeModel::event_driven(0.0)
}

proptest! {
    #[test]
    fn ideal_packet_equals_fluid_on_p2p(
        n in 2usize..10,
        pairs in 1usize..16,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let transfers = random_transfers(n, pairs, seed);
        let f = fluid().price_p2p(&bw, &transfers, &[]);
        let p = ideal().price_p2p(&bw, &transfers, &[]);
        prop_assert!(p == f, "packet {p:?} != fluid {f:?}");
    }

    #[test]
    fn ideal_packet_equals_fluid_on_ps(
        n in 3usize..10,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let server = bw.best_server();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
        let mut clients: Vec<(usize, u64, u64)> = Vec::new();
        for w in 0..n {
            if rng.gen_bool(0.7) {
                clients.push((
                    w,
                    rng.gen_range(1u64..10_000_000),
                    rng.gen_range(1u64..10_000_000),
                ));
            }
        }
        let f = fluid().price_ps(&bw, server, &clients, &[]);
        let p = ideal().price_ps(&bw, server, &clients, &[]);
        prop_assert!(p == f, "packet {p:?} != fluid {f:?}");
    }

    #[test]
    fn ideal_packet_equals_fluid_on_ring_allreduce(
        n in 2usize..12,
        bytes in 1u64..100_000_000,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let ranks: Vec<usize> = (0..n).collect();
        let f = fluid().price_allreduce(&bw, &ranks, bytes, &[]);
        let p = ideal().price_allreduce(&bw, &ranks, bytes, &[]);
        prop_assert!(p == f, "packet {p:?} != fluid {f:?}");
    }

    #[test]
    fn ideal_packet_equals_fluid_on_allgather(
        n in 2usize..8,
        bytes in 1u64..20_000_000,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix(n, seed);
        let ranks: Vec<usize> = (0..n).collect();
        let f = fluid().price_allgather(&bw, &ranks, bytes, &[]);
        let p = ideal().price_allgather(&bw, &ranks, bytes, &[]);
        prop_assert!(p == f, "packet {p:?} != fluid {f:?}");
    }

    #[test]
    fn loss_only_adds_time(
        n in 2usize..8,
        pairs in 1usize..8,
        loss in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix_floored(n, seed);
        let transfers = random_transfers_up_to(n, pairs, seed, 5_000_000);
        let clean = ideal().price_p2p(&bw, &transfers, &[]).transfer_s;
        let lossy = TimeModel::packet(
            PacketConfig::ideal().with_queue(0).with_loss(loss).with_seed(seed),
        )
        .price_p2p(&bw, &transfers, &[])
        .transfer_s;
        prop_assert!(
            lossy >= clean * (1.0 - 1e-6),
            "loss {loss} shortened the round ({clean} -> {lossy})"
        );
    }

    #[test]
    fn rtt_only_adds_time(
        n in 2usize..8,
        pairs in 1usize..8,
        rtt in 0.005f64..0.05,
        queue in 0u32..64,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix_floored(n, seed);
        let transfers = random_transfers_up_to(n, pairs, seed, 5_000_000);
        let ranks: Vec<usize> = (0..n).collect();
        let windowed = TimeModel::packet(
            PacketConfig::ideal().with_rtt(rtt).with_queue(queue),
        );
        for (got, base) in [
            (
                windowed.price_p2p(&bw, &transfers, &[]).transfer_s,
                fluid().price_p2p(&bw, &transfers, &[]).transfer_s,
            ),
            (
                windowed.price_allreduce(&bw, &ranks, 1_000_000, &[]).transfer_s,
                fluid().price_allreduce(&bw, &ranks, 1_000_000, &[]).transfer_s,
            ),
        ] {
            prop_assert!(
                got >= base * (1.0 - 1e-6),
                "rtt {rtt} beat the fluid share ({base} -> {got})"
            );
        }
    }

    #[test]
    fn lossfree_round_time_monotone_in_bytes(
        n in 2usize..8,
        pairs in 1usize..8,
        scale in 1u64..8,
        rtt in 0.005f64..0.05,
        queue in 0u32..64,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix_floored(n, seed);
        let base = random_transfers_up_to(n, pairs, seed, 2_000_000);
        let inflated: Vec<(usize, usize, u64)> = base
            .iter()
            .map(|&(s, d, b)| (s, d, b.saturating_mul(scale)))
            .collect();
        let model = TimeModel::packet(
            PacketConfig::ideal().with_rtt(rtt).with_queue(queue),
        );
        let small = model.price_p2p(&bw, &base, &[]).transfer_s;
        let big = model.price_p2p(&bw, &inflated, &[]).transfer_s;
        prop_assert!(
            big >= small * (1.0 - 1e-9),
            "inflating bytes shortened the round ({small} -> {big})"
        );
    }

    #[test]
    fn p2p_pricing_invariant_under_transfer_permutation(
        n in 2usize..8,
        pairs in 2usize..10,
        loss in 0.0f64..0.2,
        rtt in 0.005f64..0.05,
        seed in any::<u64>(),
    ) {
        let bw = random_matrix_floored(n, seed);
        let transfers = random_transfers_up_to(n, pairs, seed, 5_000_000);
        let mut permuted = transfers.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        for i in (1..permuted.len()).rev() {
            permuted.swap(i, rng.gen_range(0..=i));
        }
        let model = TimeModel::packet(
            PacketConfig::ideal().with_loss(loss).with_rtt(rtt).with_seed(seed),
        );
        let a = model.price_p2p(&bw, &transfers, &[]);
        let b = model.price_p2p(&bw, &permuted, &[]);
        prop_assert!(
            close(a.transfer_s, b.transfer_s),
            "order changed the packet price ({} vs {})", a.transfer_s, b.transfer_s
        );
    }

    #[test]
    fn packet_pricing_is_deterministic_and_finite(
        n in 2usize..8,
        pairs in 1usize..8,
        loss in 0.0f64..0.3,
        rtt in 0.005f64..0.05,
        queue in 0u32..32,
        seed in any::<u64>(),
    ) {
        // The floored matrix is fully connected, so even a lossy
        // windowed run cannot starve.
        let bw = random_matrix_floored(n, seed);
        let transfers = random_transfers_up_to(n, pairs, seed, 5_000_000);
        let ranks: Vec<usize> = (0..n).collect();
        let model = TimeModel::packet(
            PacketConfig::ideal()
                .with_loss(loss)
                .with_rtt(rtt)
                .with_queue(queue)
                .with_seed(seed),
        );
        let a = model.price_p2p(&bw, &transfers, &[]);
        let b = model.price_p2p(&bw, &transfers, &[]);
        prop_assert!(a.transfer_s.is_finite());
        prop_assert!(a.transfer_s == b.transfer_s, "nondeterministic packet price");
        prop_assert!(model.price_allreduce(&bw, &ranks, 1_000_000, &[]).transfer_s.is_finite());
        prop_assert!(model.price_allgather(&bw, &ranks, 1_000_000, &[]).transfer_s.is_finite());
    }
}
