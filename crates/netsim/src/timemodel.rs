//! The [`TimeModel`] switch: which link model prices a round.
//!
//! Every model runs the same flow engine ([`crate::flows::simulate`]);
//! a model only chooses what the engine is handed — a one-way per-link
//! latency and the link dynamics of a [`PacketConfig`]. The pricing
//! itself (one `price_*` method per communication pattern of the paper)
//! lives in [`crate::des`].
//!
//! The default, [`TimeModel::Analytic`], is the paper's bandwidth-only
//! accounting: bytes over fair-shared bandwidth, no latency. The tests
//! below pin the rules of that accounting — a synchronous round lasts
//! as long as its slowest transfer, the two directions of a pair share
//! its bandwidth, a dead link never finishes.

use crate::packet::PacketConfig;

/// How a round's communication time is computed from its transfer set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum TimeModel {
    /// The flow engine at zero latency with fluid links
    /// ([`PacketConfig::ideal`]) — the paper's bandwidth-only
    /// accounting and the default.
    #[default]
    Analytic,
    /// The analytic model plus a per-link latency: concurrent flows on
    /// a link still share it fairly ([`crate::flows`]).
    EventDriven {
        /// One-way per-link latency in seconds (paid per transfer, or
        /// per step for multi-step collectives).
        latency: f64,
    },
    /// Packet-level simulation ([`crate::packet`]): the event-driven
    /// flow sets priced with per-flow AIMD congestion windows, finite
    /// link queues, seeded random loss and `rtt_s / 2` of one-way
    /// latency.
    Packet(PacketConfig),
}

impl TimeModel {
    /// An event-driven model with `latency` seconds per link.
    pub fn event_driven(latency: f64) -> Self {
        TimeModel::EventDriven { latency }
    }

    /// A packet-level model with the given link configuration.
    pub fn packet(cfg: PacketConfig) -> Self {
        TimeModel::Packet(cfg)
    }

    /// A short stable name for bench records: `"analytic"`, `"des"` or
    /// `"packet"`.
    pub fn label(&self) -> &'static str {
        match self {
            TimeModel::Analytic => "analytic",
            TimeModel::EventDriven { .. } => "des",
            TimeModel::Packet(_) => "packet",
        }
    }

    /// What this model hands the flow engine: one-way latency and link
    /// dynamics.
    pub(crate) fn link(&self) -> (f64, PacketConfig) {
        match *self {
            TimeModel::Analytic => (0.0, PacketConfig::ideal()),
            TimeModel::EventDriven { latency } => (latency, PacketConfig::ideal()),
            TimeModel::Packet(cfg) => (cfg.rtt_s / 2.0, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BandwidthMatrix;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn p2p_round_gated_by_slowest_pair() {
        let mut bw = BandwidthMatrix::constant(4, 10.0); // 10 MB/s
        bw.set(2, 3, 1.0);
        // Pair (0,1): 10 MB both ways -> 20 MB over 10 MB/s = 2 s.
        // Pair (2,3): 1 MB both ways -> 2 MB over 1 MB/s = 2 s.
        let t = TimeModel::Analytic.price_p2p(
            &bw,
            &[
                (0, 1, 10_000_000),
                (1, 0, 10_000_000),
                (2, 3, 1_000_000),
                (3, 2, 1_000_000),
            ],
            &[],
        );
        approx(t.transfer_s, 2.0);
    }

    #[test]
    fn p2p_zero_bandwidth_is_infinite() {
        let bw = BandwidthMatrix::constant(2, 0.0);
        let t = TimeModel::Analytic.price_p2p(&bw, &[(0, 1, 1)], &[]);
        assert!(t.transfer_s.is_infinite());
    }

    #[test]
    fn p2p_empty_round_is_zero() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        assert_eq!(TimeModel::Analytic.price_p2p(&bw, &[], &[]).total_s, 0.0);
    }

    #[test]
    fn p2p_huge_transfer_on_dead_link_is_infinite() {
        // Enormous byte counts must not mask a dead link.
        let bw = BandwidthMatrix::constant(2, 0.0);
        let t = TimeModel::Analytic.price_p2p(&bw, &[(0, 1, u64::MAX), (1, 0, u64::MAX)], &[]);
        assert!(t.transfer_s.is_infinite());
    }

    #[test]
    fn ps_round_slowest_client_gates() {
        let mut bw = BandwidthMatrix::constant(3, 10.0);
        bw.set(0, 2, 1.0); // worker 0 has a slow link to server 2
        let t = TimeModel::Analytic.price_ps(
            &bw,
            2,
            &[(0, 1_000_000, 1_000_000), (1, 1_000_000, 1_000_000)],
            &[],
        );
        // Worker 0: 2 MB over 1 MB/s = 2 s; worker 1: 0.2 s.
        approx(t.transfer_s, 2.0);
    }

    #[test]
    fn ps_colocated_client_is_free() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let t = TimeModel::Analytic.price_ps(&bw, 0, &[(0, 1_000_000, 1_000_000)], &[]);
        assert_eq!(t.total_s, 0.0);
    }

    #[test]
    fn allreduce_uses_min_ring_link() {
        let mut bw = BandwidthMatrix::constant(4, 10.0);
        bw.set(1, 2, 2.0); // ring link 1-2 is slow
        let t = TimeModel::Analytic.price_allreduce(&bw, &[0, 1, 2, 3], 8_000_000, &[]);
        approx(t.transfer_s, 4.0); // 8 MB / 2 MB/s
    }

    #[test]
    fn allgather_scales_with_n() {
        let bw = BandwidthMatrix::constant(5, 1.0);
        let t = TimeModel::Analytic.price_allgather(&bw, &[0, 1, 2, 3, 4], 1_000_000, &[]);
        approx(t.transfer_s, 4.0); // 4 peers × 1 MB / 1 MB/s
    }

    #[test]
    fn degenerate_sizes() {
        let bw = BandwidthMatrix::constant(1, 5.0);
        let model = TimeModel::Analytic;
        assert_eq!(model.price_allreduce(&bw, &[0], 100, &[]).total_s, 0.0);
        assert_eq!(model.price_allgather(&bw, &[0], 100, &[]).total_s, 0.0);
    }
}
