//! Transfer-time models.
//!
//! The paper compares algorithms on *communication time* (Fig. 6, Table
//! IV): bytes moved divided by the bandwidth of the link they moved over,
//! with synchronous rounds gated by the slowest concurrent transfer. This
//! module implements that accounting for the three communication patterns
//! in the evaluation:
//!
//! * [`p2p_round_time`] — concurrent pairwise exchanges (SAPS-PSGD,
//!   D-PSGD, DCD-PSGD, RandomChoose): the round lasts as long as its
//!   slowest link;
//! * [`ps_round_time`] — parameter-server rounds (FedAvg, S-FedAvg): the
//!   slowest chosen client–server link gates the round; the server is the
//!   best-connected node per the paper;
//! * [`allreduce_ring_time_over`] / [`allgather_time_over`] — ring
//!   all-reduce (PSGD) and sparse allgather (TopK-PSGD) over an explicit
//!   active-rank list (churn shrinks the live fleet).

use crate::BandwidthMatrix;

/// Duration of one synchronous round of concurrent pairwise transfers.
///
/// `transfers` lists `(src, dst, bytes)`. Transfers on the same unordered
/// pair are summed (full-duplex links are *not* assumed: the two
/// directions of one exchange share the pair's bottleneck bandwidth,
/// matching the paper's `min(B_ij, B_ji)` rule). The round time is the
/// maximum per-pair time. Per-pair byte sums saturate at `u64::MAX`
/// rather than wrapping, so absurdly large transfer sets price as "very
/// long" instead of silently short. Returns seconds.
pub fn p2p_round_time(bw: &BandwidthMatrix, transfers: &[(usize, usize, u64)]) -> f64 {
    use std::collections::HashMap;
    let mut per_pair: HashMap<(usize, usize), u64> = HashMap::new();
    for &(src, dst, bytes) in transfers {
        let key = (src.min(dst), src.max(dst));
        let sum = per_pair.entry(key).or_insert(0);
        *sum = sum.saturating_add(bytes);
    }
    let mut worst: f64 = 0.0;
    for ((i, j), bytes) in per_pair {
        let mbps = bw.get(i, j);
        let t = if mbps <= 0.0 {
            f64::INFINITY
        } else {
            bytes as f64 / (mbps * 1e6)
        };
        worst = worst.max(t);
    }
    worst
}

/// Duration of one parameter-server round.
///
/// Each `(worker, up_bytes, down_bytes)` entry moves bytes over the
/// worker↔server link; upload and download share the link's bandwidth.
/// The round lasts as long as the slowest client. Returns seconds.
pub fn ps_round_time(bw: &BandwidthMatrix, server: usize, clients: &[(usize, u64, u64)]) -> f64 {
    let mut worst: f64 = 0.0;
    for &(w, up, down) in clients {
        if w == server {
            // Co-located client: no network transfer.
            continue;
        }
        let mbps = bw.get(w, server);
        let t = if mbps <= 0.0 {
            f64::INFINITY
        } else {
            (up + down) as f64 / (mbps * 1e6)
        };
        worst = worst.max(t);
    }
    worst
}

/// Duration of a ring all-reduce over `ranks` (in order) moving
/// `bytes_per_worker` through each worker (the PSGD pattern;
/// `bytes_per_worker ≈ 2N` for a dense model).
///
/// A ring all-reduce performs `2(m−1)` steps, each transferring a
/// `1/m`-chunk over every ring link concurrently, so the wall time is
/// `bytes_per_worker / min_link_bandwidth` — the slowest ring link gates
/// every step. Returns seconds.
pub fn allreduce_ring_time_over(
    bw: &BandwidthMatrix,
    ranks: &[usize],
    bytes_per_worker: u64,
) -> f64 {
    let m = ranks.len();
    if m < 2 {
        return 0.0;
    }
    let mut min_bw = f64::INFINITY;
    for i in 0..m {
        min_bw = min_bw.min(bw.get(ranks[i], ranks[(i + 1) % m]));
    }
    if min_bw <= 0.0 {
        return f64::INFINITY;
    }
    bytes_per_worker as f64 / (min_bw * 1e6)
}

/// Duration of a sparse allgather over the mesh of `ranks` where every
/// worker sends `bytes` to all `m−1` others (the TopK-PSGD pattern).
/// Modeled as sequential pairwise sends over each worker's slowest
/// outgoing link used.
pub fn allgather_time_over(bw: &BandwidthMatrix, ranks: &[usize], bytes: u64) -> f64 {
    let m = ranks.len();
    if m < 2 {
        return 0.0;
    }
    // Each worker must deliver its payload to m-1 peers; with all links
    // active concurrently, the slowest link in the whole mesh carrying
    // (m-1) sequential chunks gates the operation.
    let mut min_bw = f64::INFINITY;
    for i in 0..m {
        for j in 0..m {
            if i != j {
                min_bw = min_bw.min(bw.get(ranks[i], ranks[j]));
            }
        }
    }
    if min_bw <= 0.0 {
        return f64::INFINITY;
    }
    (bytes * (m as u64 - 1)) as f64 / (min_bw * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_round_gated_by_slowest_pair() {
        let mut bw = BandwidthMatrix::constant(4, 10.0); // 10 MB/s
        bw.set(2, 3, 1.0);
        // Pair (0,1): 10 MB both ways -> 20 MB over 10 MB/s = 2 s.
        // Pair (2,3): 1 MB both ways -> 2 MB over 1 MB/s = 2 s.
        let t = p2p_round_time(
            &bw,
            &[
                (0, 1, 10_000_000),
                (1, 0, 10_000_000),
                (2, 3, 1_000_000),
                (3, 2, 1_000_000),
            ],
        );
        assert!((t - 2.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn p2p_zero_bandwidth_is_infinite() {
        let bw = BandwidthMatrix::constant(2, 0.0);
        let t = p2p_round_time(&bw, &[(0, 1, 1)]);
        assert!(t.is_infinite());
    }

    #[test]
    fn p2p_empty_round_is_zero() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        assert_eq!(p2p_round_time(&bw, &[]), 0.0);
    }

    #[test]
    fn p2p_huge_transfers_saturate_instead_of_wrapping() {
        // Two near-max transfers on one pair used to wrap the u64 sum to
        // almost zero in release builds; now they saturate and price as
        // an enormous (finite) time.
        let bw = BandwidthMatrix::constant(2, 1.0);
        let t = p2p_round_time(&bw, &[(0, 1, u64::MAX - 1), (1, 0, u64::MAX - 1)]);
        let single = p2p_round_time(&bw, &[(0, 1, u64::MAX - 1)]);
        assert!(t.is_finite());
        assert!(
            t >= single,
            "saturated sum {t} priced below one side {single}"
        );
        assert_eq!(t, u64::MAX as f64 / 1e6);
    }

    #[test]
    fn p2p_huge_transfer_on_dead_link_is_infinite() {
        // The 0-bandwidth path must still dominate the saturation path.
        let bw = BandwidthMatrix::constant(2, 0.0);
        let t = p2p_round_time(&bw, &[(0, 1, u64::MAX), (1, 0, u64::MAX)]);
        assert!(t.is_infinite());
    }

    #[test]
    fn ps_round_slowest_client_gates() {
        let mut bw = BandwidthMatrix::constant(3, 10.0);
        bw.set(0, 2, 1.0); // worker 0 has a slow link to server 2
        let t = ps_round_time(
            &bw,
            2,
            &[(0, 1_000_000, 1_000_000), (1, 1_000_000, 1_000_000)],
        );
        // Worker 0: 2 MB over 1 MB/s = 2 s; worker 1: 0.2 s.
        assert!((t - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ps_colocated_client_is_free() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let t = ps_round_time(&bw, 0, &[(0, 1_000_000, 1_000_000)]);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn allreduce_uses_min_ring_link() {
        let mut bw = BandwidthMatrix::constant(4, 10.0);
        bw.set(1, 2, 2.0); // ring link 1-2 is slow
        let t = allreduce_ring_time_over(&bw, &[0, 1, 2, 3], 8_000_000);
        assert!((t - 4.0).abs() < 1e-9, "t = {t}"); // 8 MB / 2 MB/s
    }

    #[test]
    fn allgather_scales_with_n() {
        let bw = BandwidthMatrix::constant(5, 1.0);
        let t = allgather_time_over(&bw, &[0, 1, 2, 3, 4], 1_000_000);
        assert!((t - 4.0).abs() < 1e-9); // 4 peers × 1 MB / 1 MB/s
    }

    #[test]
    fn degenerate_sizes() {
        let bw = BandwidthMatrix::constant(1, 5.0);
        assert_eq!(allreduce_ring_time_over(&bw, &[0], 100), 0.0);
        assert_eq!(allgather_time_over(&bw, &[0], 100), 0.0);
    }
}
