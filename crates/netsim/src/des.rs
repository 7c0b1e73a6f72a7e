//! Round pricing: every round's transfer set priced on the flow engine,
//! behind one [`TimeModel`] switch.
//!
//! Trainers describe *what* moved (a transfer set in one of the paper's
//! four communication patterns); a `TimeModel` decides *how long* it
//! took. Each model turns the set into [`FlowSpec`]s and runs them
//! through [`crate::flows::simulate`]; the models differ only in what
//! they hand the engine:
//!
//! * [`TimeModel::Analytic`] — zero latency and fluid links
//!   ([`PacketConfig::ideal`]): bytes over fair-shared bandwidth and
//!   nothing else. This is the paper's bandwidth-only accounting and
//!   the default.
//! * [`TimeModel::EventDriven`] — the same fluid links plus a per-link
//!   latency, paid per transfer (or per step of a collective).
//! * [`TimeModel::Packet`] — the link dynamics of a [`PacketConfig`]
//!   switched on ([`crate::packet`]): per-flow AIMD congestion windows,
//!   finite link queues, seeded random loss and RTT. An ideal config
//!   (zero RTT, zero loss) *is* the analytic model.
//!
//! All models price the *same* transfer set — switching the model can
//! change time and nothing else. Under every model a flow is released
//! when its own endpoints finished their local compute, so stragglers
//! stagger releases rather than barrier the whole round.
//! `crates/netsim/tests/proptest_des.rs` pins the engine against
//! closed-form oracles for the peer-to-peer, parameter-server and ring
//! all-reduce patterns.
//!
//! Every pricing call returns a [`RoundTiming`] critical-path breakdown
//! (compute vs transfer vs idle), which the experiment driver surfaces
//! per round in `RunHistory`.

use crate::flows::{simulate, FlowSpec};
use crate::packet::PacketConfig;
use crate::BandwidthMatrix;
pub use crate::TimeModel;

/// Critical-path breakdown of one synchronous round.
///
/// `total_s = compute_s + transfer_s`; `idle_s` is diagnostic (mean
/// seconds a worker spent neither computing nor transferring while the
/// round ran) and is not part of the identity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundTiming {
    /// Wall-clock length of the whole round (compute + exchange).
    pub total_s: f64,
    /// When the last worker finished local compute (the compute phase's
    /// critical path; 0 when compute is not modeled).
    pub compute_s: f64,
    /// Time from the last compute finish to the last byte delivered —
    /// the round's communication time. With no compute modeling this is
    /// exactly the transfer makespan.
    pub transfer_s: f64,
    /// Mean per-worker idle time: round length minus the worker's own
    /// compute and the time it had at least one active transfer.
    pub idle_s: f64,
    /// Segments retransmitted while pricing this round
    /// ([`crate::flows::SimReport::retransmit_segments`]); 0 except
    /// under [`TimeModel::Packet`].
    pub retransmit_segments: u64,
    /// Deepest receiver queue observed while pricing this round
    /// ([`crate::flows::SimReport::peak_queue_bytes`], bytes); 0 except
    /// under [`TimeModel::Packet`].
    pub peak_queue_bytes: f64,
}

/// Per-rank compute-finish times. An empty slice means "all zero"
/// (compute not modeled); missing ranks read as 0. A `NaN` entry marks
/// a rank that sat the round out entirely (a departed worker): it never
/// gates a release or the compute barrier and is excluded from the
/// idle mean.
fn start_of(starts: &[f64], rank: usize) -> f64 {
    starts.get(rank).copied().unwrap_or(0.0)
}

fn max_start(starts: &[f64]) -> f64 {
    // `f64::max` ignores a NaN operand, so departed ranks drop out.
    starts.iter().copied().fold(0.0f64, f64::max)
}

/// Mean of `per_rank(r)` over the ranks participating in the round
/// (finite start), 0 when nobody participates.
fn idle_mean(n: usize, starts: &[f64], per_rank: impl Fn(usize, f64) -> f64) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for r in 0..n {
        let start = start_of(starts, r);
        if start.is_finite() {
            sum += per_rank(r, start);
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Breakdown from simulating `flows` on the engine: the round ends when
/// the last flow lands (but no earlier than the last compute finish).
fn simulated_timing(
    bw: &BandwidthMatrix,
    (latency_s, link): (f64, PacketConfig),
    flows: &[FlowSpec],
    starts: &[f64],
) -> RoundTiming {
    let rep = simulate(bw, latency_s, &link, flows, &[]);
    let compute_s = max_start(starts);
    let total_s = rep.makespan_s.max(compute_s);
    let idle_s = if !total_s.is_finite() {
        0.0
    } else {
        idle_mean(bw.len(), starts, |r, start| {
            (total_s - start - rep.busy_s[r]).max(0.0)
        })
    };
    RoundTiming {
        total_s,
        compute_s,
        transfer_s: total_s - compute_s,
        idle_s,
        retransmit_segments: rep.retransmit_segments,
        peak_queue_bytes: rep.peak_queue_bytes,
    }
}

impl TimeModel {
    /// Prices one round of concurrent pairwise transfers (the
    /// SAPS-PSGD / D-PSGD / DCD-PSGD / RandomChoose pattern).
    ///
    /// `transfers` lists `(src, dst, bytes)`; `starts` gives per-rank
    /// compute-finish times (empty = all zero). Each transfer is
    /// released once **both** endpoints finished computing (a pairwise
    /// exchange needs both parties).
    pub fn price_p2p(
        &self,
        bw: &BandwidthMatrix,
        transfers: &[(usize, usize, u64)],
        starts: &[f64],
    ) -> RoundTiming {
        let flows: Vec<FlowSpec> = transfers
            .iter()
            .map(|&(src, dst, bytes)| {
                // `f64::max` drops NaN (departed-rank) starts; the
                // trailing .max(0.0) keeps the release finite even if a
                // caller lists a transfer between two departed ranks.
                let release = start_of(starts, src).max(start_of(starts, dst)).max(0.0);
                FlowSpec::new(src, dst, bytes as f64).released_at(release)
            })
            .collect();
        simulated_timing(bw, self.link(), &flows, starts)
    }

    /// Prices one parameter-server round (FedAvg / S-FedAvg): each
    /// `(worker, up_bytes, down_bytes)` client moves its bytes over the
    /// worker↔server link, upload then download chained per client (the
    /// two directions of one client never overlap, so at zero latency a
    /// client takes `(up+down)/bw`). A client co-located with the
    /// server is free.
    pub fn price_ps(
        &self,
        bw: &BandwidthMatrix,
        server: usize,
        clients: &[(usize, u64, u64)],
        starts: &[f64],
    ) -> RoundTiming {
        let mut flows = Vec::with_capacity(2 * clients.len());
        for (chain, &(w, up, down)) in clients.iter().enumerate() {
            if w == server {
                continue;
            }
            let release = start_of(starts, w).max(start_of(starts, server)).max(0.0);
            flows.push(
                FlowSpec::new(w, server, up as f64)
                    .released_at(release)
                    .on_chain(chain),
            );
            flows.push(
                FlowSpec::new(server, w, down as f64)
                    .released_at(release)
                    .on_chain(chain),
            );
        }
        simulated_timing(bw, self.link(), &flows, starts)
    }

    /// Prices a ring all-reduce over `ranks` in order (the PSGD
    /// pattern): `2(m−1)` steps, each moving a `1/(2(m−1))` chunk of
    /// `bytes_per_worker` over every ring link concurrently. Each ring
    /// link carries one flow of the full per-worker payload paying
    /// `2(m−1)` step latencies, released at the collective's barrier
    /// (the slowest compute); at zero latency and `m ≥ 3` that is
    /// `bytes_per_worker / slowest_ring_link`. For `m = 2` the two ring
    /// directions share the single duplex pair, pricing twice that.
    pub fn price_allreduce(
        &self,
        bw: &BandwidthMatrix,
        ranks: &[usize],
        bytes_per_worker: u64,
        starts: &[f64],
    ) -> RoundTiming {
        let m = ranks.len();
        let barrier = max_start(starts);
        let mut flows = Vec::with_capacity(m);
        if m >= 2 {
            let steps = 2 * (m as u32 - 1);
            for i in 0..m {
                flows.push(
                    FlowSpec::new(ranks[i], ranks[(i + 1) % m], bytes_per_worker as f64)
                        .released_at(barrier)
                        .with_latency_units(steps),
                );
            }
        }
        simulated_timing(bw, self.link(), &flows, starts)
    }

    /// Prices a sparse allgather over `ranks` (the TopK-PSGD pattern):
    /// every worker delivers `bytes` to each of the other `m−1`. Each
    /// sender's `m−1` transfers run on a chain (a node sends to one peer
    /// at a time) using the shifted schedule `k ↦ (i+k+1) mod m`,
    /// released at the collective's barrier. Each pair carries exactly
    /// one transfer per direction, so fair sharing at worst halves a
    /// link: at zero latency the round lies between the slowest
    /// sender's chain `max_i Σ_j bytes/bw(i,j)` and twice it.
    pub fn price_allgather(
        &self,
        bw: &BandwidthMatrix,
        ranks: &[usize],
        bytes: u64,
        starts: &[f64],
    ) -> RoundTiming {
        let m = ranks.len();
        let barrier = max_start(starts);
        let mut flows = Vec::with_capacity(m.saturating_sub(1) * m);
        if m >= 2 {
            for i in 0..m {
                for k in 0..(m - 1) {
                    let j = (i + k + 1) % m;
                    flows.push(
                        FlowSpec::new(ranks[i], ranks[j], bytes as f64)
                            .released_at(barrier)
                            .on_chain(i),
                    );
                }
            }
        }
        simulated_timing(bw, self.link(), &flows, starts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(TimeModel::default(), TimeModel::Analytic);
        assert_eq!(TimeModel::Analytic.label(), "analytic");
        assert_eq!(TimeModel::event_driven(0.01).label(), "des");
        assert_eq!(TimeModel::packet(PacketConfig::ideal()).label(), "packet");
    }

    #[test]
    fn ideal_packet_model_prices_like_zero_latency_des() {
        let mut bw = BandwidthMatrix::constant(4, 10.0);
        bw.set(2, 3, 1.0);
        let transfers = [
            (0usize, 1usize, 10_000_000u64),
            (1, 0, 10_000_000),
            (2, 3, 1_000_000),
            (3, 2, 1_000_000),
        ];
        let ranks = [0usize, 1, 2, 3];
        let clients = [(0usize, 1_000_000u64, 1_000_000u64), (1, 500_000, 500_000)];
        let des = TimeModel::event_driven(0.0);
        // The default model is the same engine run: ideal links, no latency.
        for other in [
            TimeModel::packet(PacketConfig::ideal()),
            TimeModel::default(),
        ] {
            assert_eq!(
                other.price_p2p(&bw, &transfers, &[]),
                des.price_p2p(&bw, &transfers, &[]),
            );
            assert_eq!(
                other.price_ps(&bw, 2, &clients, &[]),
                des.price_ps(&bw, 2, &clients, &[]),
            );
            assert_eq!(
                other.price_allreduce(&bw, &ranks, 8_000_000, &[]),
                des.price_allreduce(&bw, &ranks, 8_000_000, &[]),
            );
            assert_eq!(
                other.price_allgather(&bw, &ranks, 1_000_000, &[]),
                des.price_allgather(&bw, &ranks, 1_000_000, &[]),
            );
        }
    }

    #[test]
    fn lossy_packet_model_only_adds_time() {
        let bw = BandwidthMatrix::constant(4, 1.0);
        let transfers = [(0usize, 1usize, 5_000_000u64), (2, 3, 5_000_000)];
        let clean = TimeModel::packet(PacketConfig::ideal());
        let rough = TimeModel::packet(
            PacketConfig::ideal()
                .with_loss(0.05)
                .with_rtt(0.02)
                .with_seed(3),
        );
        let c = clean.price_p2p(&bw, &transfers, &[]);
        let r = rough.price_p2p(&bw, &transfers, &[]);
        assert!(
            r.transfer_s > c.transfer_s,
            "loss + rtt must add time ({} vs {})",
            r.transfer_s,
            c.transfer_s
        );
    }

    #[test]
    fn p2p_zero_latency_matches_analytic() {
        // At zero latency the event-driven model prices the paper's
        // numbers: the round lasts as long as its slowest pair, and the
        // two directions of a pair share its bandwidth. Pair (0,1): 20 MB
        // over 10 MB/s = 2 s; pair (2,3): 2 MB over 1 MB/s = 2 s.
        let mut bw = BandwidthMatrix::constant(4, 10.0);
        bw.set(2, 3, 1.0);
        let transfers = [
            (0usize, 1usize, 10_000_000u64),
            (1, 0, 10_000_000),
            (2, 3, 1_000_000),
            (3, 2, 1_000_000),
        ];
        let d = TimeModel::event_driven(0.0).price_p2p(&bw, &transfers, &[]);
        approx(d.transfer_s, 2.0);
        approx(d.total_s, 2.0);
    }

    #[test]
    fn p2p_huge_transfers_price_finite() {
        // Byte counts enter the engine as f64, so two near-max transfers
        // on one pair can neither wrap nor overflow: they price as an
        // enormous finite time, never below one of them alone.
        let bw = BandwidthMatrix::constant(2, 1.0);
        let model = TimeModel::default();
        let both = model.price_p2p(&bw, &[(0, 1, u64::MAX - 1), (1, 0, u64::MAX - 1)], &[]);
        let single = model.price_p2p(&bw, &[(0, 1, u64::MAX - 1)], &[]);
        assert!(both.transfer_s.is_finite());
        assert!(
            both.transfer_s >= single.transfer_s,
            "two transfers {} priced below one {}",
            both.transfer_s,
            single.transfer_s
        );
    }

    #[test]
    fn p2p_latency_adds_time() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let transfers = [(0usize, 1usize, 1_000_000u64)];
        let d = TimeModel::event_driven(0.5).price_p2p(&bw, &transfers, &[]);
        approx(d.total_s, 1.5);
    }

    #[test]
    fn straggler_staggers_releases_and_shows_in_breakdown() {
        let bw = BandwidthMatrix::constant(4, 1.0);
        // Pairs (0,1) and (2,3); worker 3 computes until t=2.
        let transfers = [
            (0usize, 1usize, 1_000_000u64),
            (1, 0, 1_000_000),
            (2, 3, 1_000_000),
            (3, 2, 1_000_000),
        ];
        let starts = [0.0, 0.0, 0.0, 2.0];
        let d = TimeModel::default().price_p2p(&bw, &transfers, &starts);
        // Pair (0,1) finishes at 2.0; pair (2,3) runs from 2.0 to 4.0.
        approx(d.total_s, 4.0);
        approx(d.compute_s, 2.0);
        approx(d.transfer_s, 2.0);
        assert!(d.idle_s > 0.0);
    }

    #[test]
    fn ps_zero_latency_matches_analytic() {
        // The slowest client gates the round: worker 0 moves 2 MB over
        // its 1 MB/s link to server 2 (2 s), worker 1 takes 0.2 s.
        let mut bw = BandwidthMatrix::constant(3, 10.0);
        bw.set(0, 2, 1.0);
        let clients = [
            (0usize, 1_000_000u64, 1_000_000u64),
            (1, 1_000_000, 1_000_000),
        ];
        let d = TimeModel::event_driven(0.0).price_ps(&bw, 2, &clients, &[]);
        approx(d.transfer_s, 2.0);
        approx(d.total_s, 2.0);
    }

    #[test]
    fn ps_colocated_client_is_free() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let d = TimeModel::event_driven(0.0).price_ps(&bw, 0, &[(0, 1_000_000, 1_000_000)], &[]);
        assert_eq!(d.total_s, 0.0);
    }

    #[test]
    fn allreduce_zero_latency_matches_analytic() {
        // The slowest ring link gates every step: 8 MB over the 2 MB/s
        // link 1-2 takes 4 s.
        let mut bw = BandwidthMatrix::constant(4, 10.0);
        bw.set(1, 2, 2.0);
        let ranks = [0usize, 1, 2, 3];
        let d = TimeModel::event_driven(0.0).price_allreduce(&bw, &ranks, 8_000_000, &[]);
        approx(d.transfer_s, 4.0);
        approx(d.total_s, 4.0);
    }

    #[test]
    fn allreduce_pays_step_latencies() {
        let bw = BandwidthMatrix::constant(4, 1.0);
        let ranks = [0usize, 1, 2, 3];
        let zero = TimeModel::event_driven(0.0).price_allreduce(&bw, &ranks, 1_000_000, &[]);
        let lat = TimeModel::event_driven(0.1).price_allreduce(&bw, &ranks, 1_000_000, &[]);
        // 2(m-1) = 6 steps of 0.1 s latency on top.
        approx(lat.total_s - zero.total_s, 0.6);
    }

    #[test]
    fn allgather_constant_mesh_matches_analytic() {
        // On a homogeneous mesh every sender's chain is (m−1)·bytes/bw:
        // 4 peers × 1 MB over 1 MB/s.
        let bw = BandwidthMatrix::constant(5, 1.0);
        let ranks = [0usize, 1, 2, 3, 4];
        let d = TimeModel::event_driven(0.0).price_allgather(&bw, &ranks, 1_000_000, &[]);
        approx(d.transfer_s, 4.0);
    }

    #[test]
    fn allgather_heterogeneous_mesh_undercuts_analytic() {
        // One slow link (0,1) at 1 MB/s in a 10 MB/s mesh. Gating all
        // four chunks of every sender on that link, as a slowest-link
        // formula would, charges 4 s. The engine slows only the two
        // flows that use it: senders 0 and 1 each need 1 s + 3 × 0.1 s,
        // and the round lands between that chain and twice it (2 s:
        // the two directions of (0,1) overlap for a while).
        let mut bw = BandwidthMatrix::constant(5, 10.0);
        bw.set(0, 1, 1.0);
        let ranks = [0usize, 1, 2, 3, 4];
        let d = TimeModel::default().price_allgather(&bw, &ranks, 1_000_000, &[]);
        assert!(
            d.transfer_s >= 1.3 - 1e-9 && d.transfer_s <= 2.6 + 1e-9,
            "allgather priced {} s, outside its sender-chain bounds [1.3, 2.6]",
            d.transfer_s
        );
    }

    #[test]
    fn degenerate_collectives_are_zero() {
        let bw = BandwidthMatrix::constant(1, 5.0);
        let d = TimeModel::event_driven(0.1);
        assert_eq!(d.price_allreduce(&bw, &[0], 100, &[]).total_s, 0.0);
        assert_eq!(d.price_allgather(&bw, &[0], 100, &[]).total_s, 0.0);
    }

    #[test]
    fn timing_identity_holds() {
        let bw = BandwidthMatrix::constant(3, 1.0);
        let starts = [0.5, 1.0, 0.0];
        for model in [TimeModel::default(), TimeModel::event_driven(0.02)] {
            let t = model.price_p2p(&bw, &[(0, 1, 500_000)], &starts);
            approx(t.total_s, t.compute_s + t.transfer_s);
        }
    }
}
