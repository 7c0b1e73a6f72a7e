//! Packet-level link dynamics for the flow engine: per-flow AIMD
//! congestion windows, finite per-link queues, seeded random loss and
//! round-trip latency.
//!
//! With windows and loss off, [`crate::flows::simulate`] moves bytes at
//! the fair-share rate the instant a flow starts — an idealized
//! transport with a perfect congestion controller and loss-free links.
//! Real WAN transfers ramp a congestion window, queue behind other
//! traffic, and retransmit lost segments. A [`PacketConfig`] switches
//! those effects on in the same event loop without simulating
//! individual packets: each flow carries a window-based AIMD controller
//! and the clock gains three extra event kinds (RTT ticks, random-loss
//! crossings, congestion drops). This module holds the configuration
//! and the per-flow state and arithmetic of those effects; the loop
//! itself is [`crate::flows::simulate`].
//!
//! **Transport model.** Every flow is its own connection with a
//! congestion window `cwnd` (bytes), initialized to
//! [`INIT_WINDOW_SEGMENTS`] segments. While active its send rate is
//!
//! ```text
//! rate = min(capacity / load, cwnd / rtt_eff)
//! ```
//!
//! where `capacity / load` is the fair share of the flow's unordered
//! link pair and `rtt_eff = rtt + queue_bytes / capacity` adds the
//! queueing delay of the pair's standing buffer. Once per RTT the
//! window grows by one segment (additive increase) unless the pair's
//! aggregate window overran `BDP + queue` — then the queue overflowed,
//! one segment is retransmitted and the window halves (multiplicative
//! decrease, floored at one segment). Independently, every segment is
//! lost with probability [`PacketConfig::loss`]: loss distances are
//! drawn per flow from a geometric distribution using a seeded RNG, and
//! each loss costs one segment retransmission plus a window halving.
//!
//! **Windows and loss off.** With `rtt_s = 0` the window and queue
//! state is never built — a zero-RTT connection is perfectly
//! ACK-clocked, so the controller tracks the fair share exactly — and
//! with `loss = 0` no loss RNG is seeded and nothing is retransmitted:
//! an ideal [`PacketConfig`] *is* the fluid fair-share simulator, and
//! `mss`, `queue_segments` and `seed` are inert. Loss and RTT only ever
//! *add* time; `crates/netsim/tests/proptest_packet.rs` pins that on
//! the four traffic patterns.
//!
//! **Cost.** The engine stays event-driven — no per-packet simulation —
//! but window ticks fire once per RTT per active flow, so a run costs
//! `O(flows · makespan / rtt_s)` events (plus one event per random
//! loss). Price long transfers over slow links with a proportionate
//! RTT, or with `rtt_s = 0` when only loss matters.
//!
//! **Determinism.** All randomness comes from per-flow RNGs seeded by
//! hashing `(cfg.seed, src, dst, bytes)` — never the flow's position in
//! the submission list — so a run is a pure function of its inputs and
//! the p2p makespan is invariant under permutation of the transfer
//! list, loss and all.

use crate::flows::{FlowSpec, COMPLETION_EPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Initial congestion window in segments (RFC 6928's IW10).
pub const INIT_WINDOW_SEGMENTS: u32 = 10;

/// Knobs of the packet-level link model, shared by every flow of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketConfig {
    /// Segment size in bytes (the retransmission and window-increment
    /// unit). Default 1500.
    pub mss: f64,
    /// Base round-trip time in seconds. `0` switches window and queue
    /// dynamics off entirely (see the module docs). Under
    /// [`crate::TimeModel::Packet`] flows also pay `rtt_s / 2` of
    /// one-way latency per [`FlowSpec::latency_units`].
    pub rtt_s: f64,
    /// Per-segment random loss probability in `[0, 1)`. Each loss costs
    /// one segment retransmission and (at positive RTT) halves the
    /// flow's window.
    pub loss: f64,
    /// Per-link queue capacity in segments: how far the pair's
    /// aggregate window may overrun the bandwidth-delay product before
    /// ticks register congestion drops. Irrelevant at `rtt_s = 0`.
    pub queue_segments: u32,
    /// Seed for the per-flow loss RNGs.
    pub seed: u64,
}

impl Default for PacketConfig {
    fn default() -> Self {
        PacketConfig {
            mss: 1500.0,
            rtt_s: 0.0,
            loss: 0.0,
            queue_segments: 64,
            seed: 0,
        }
    }
}

impl PacketConfig {
    /// The ideal configuration: zero RTT, zero loss — windows and loss
    /// off, the fluid fair-share simulator.
    pub fn ideal() -> Self {
        PacketConfig::default()
    }

    /// Sets the base RTT in seconds (builder style).
    pub fn with_rtt(mut self, rtt_s: f64) -> Self {
        self.rtt_s = rtt_s;
        self
    }

    /// Sets the per-segment loss probability (builder style).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the per-link queue capacity in segments (builder style).
    pub fn with_queue(mut self, segments: u32) -> Self {
        self.queue_segments = segments;
        self
    }

    /// Sets the loss-RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the segment size in bytes (builder style).
    pub fn with_mss(mut self, mss: f64) -> Self {
        self.mss = mss;
        self
    }
}

/// Seeds a flow's loss RNG from its identity, not its list position:
/// FNV-1a over `(seed, src, dst, bytes)`.
fn flow_seed(seed: u64, f: &FlowSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [seed, f.src as u64, f.dst as u64, f.bytes.to_bits()] {
        h ^= w;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Draws the number of bytes a flow will send before its next random
/// segment loss (geometric with per-segment probability `loss > 0`).
fn draw_loss_bytes(rng: &mut StdRng, loss: f64, mss: f64) -> f64 {
    let u: f64 = rng.gen(); // [0, 1)
                            // Continuous inversion of the geometric CDF; the lost segment is
                            // number floor(k)+1, counting from 1.
    let k = ((1.0 - u).ln() / (1.0 - loss).ln()).floor() + 1.0;
    k * mss
}

/// Seeded random-loss state of a run; exists only at `loss > 0`.
pub(crate) struct Loss {
    p: f64,
    mss: f64,
    rngs: Vec<StdRng>,
    /// Bytes each flow still sends before its next lost segment.
    pub(crate) to_loss: Vec<f64>,
}

impl Loss {
    pub(crate) fn new(cfg: &PacketConfig, flows: &[FlowSpec]) -> Option<Self> {
        if cfg.loss <= 0.0 {
            return None;
        }
        let mut rngs: Vec<StdRng> = flows
            .iter()
            .map(|f| StdRng::seed_from_u64(flow_seed(cfg.seed, f)))
            .collect();
        let to_loss = rngs
            .iter_mut()
            .map(|rng| draw_loss_bytes(rng, cfg.loss, cfg.mss))
            .collect();
        Some(Loss {
            p: cfg.loss,
            mss: cfg.mss,
            rngs,
            to_loss,
        })
    }

    /// Draws flow `i`'s next loss distance after a loss.
    pub(crate) fn redraw(&mut self, i: usize) {
        self.to_loss[i] = draw_loss_bytes(&mut self.rngs[i], self.p, self.mss);
    }
}

/// AIMD window state of a run; exists only at `rtt_s > 0`.
pub(crate) struct Windows {
    rtt_s: f64,
    mss: f64,
    queue_cap: f64,
    /// Congestion window per flow (bytes).
    pub(crate) cwnd: Vec<f64>,
    /// Next per-RTT tick per flow, set when the flow turns active.
    pub(crate) next_tick: Vec<f64>,
    /// Summed windows of the active flows on each link pair, refilled
    /// by the engine every event.
    pub(crate) pair_wnd: Vec<f64>,
    /// Whether each flow's pair overran `BDP + queue` over the current
    /// interval — its next tick registers a congestion drop instead of
    /// growing.
    congested: Vec<bool>,
}

impl Windows {
    pub(crate) fn new(cfg: &PacketConfig, flows: usize, pairs: usize) -> Option<Self> {
        (cfg.rtt_s > 0.0).then(|| Windows {
            rtt_s: cfg.rtt_s,
            mss: cfg.mss,
            queue_cap: f64::from(cfg.queue_segments) * cfg.mss,
            cwnd: vec![f64::from(INIT_WINDOW_SEGMENTS) * cfg.mss; flows],
            next_tick: vec![f64::INFINITY; flows],
            pair_wnd: vec![0.0; pairs],
            congested: vec![false; flows],
        })
    }

    /// Clamps flow `i`'s fair `share` of a pair with capacity `cap > 0`
    /// to `cwnd / rtt_eff` and notes whether the pair is congested.
    /// Returns the send rate and the pair's standing queue (windows
    /// past the BDP back up in the queue, clamped at its capacity).
    pub(crate) fn clamp(&mut self, i: usize, pair: usize, cap: f64, share: f64) -> (f64, f64) {
        let overrun = self.pair_wnd[pair] - self.rtt_s * cap;
        let queue_bytes = overrun.clamp(0.0, self.queue_cap);
        self.congested[i] = overrun > self.queue_cap + COMPLETION_EPS * self.mss;
        let rtt_eff = self.rtt_s + queue_bytes / cap;
        (share.min(self.cwnd[i] / rtt_eff), queue_bytes)
    }

    /// Multiplicative decrease, floored at one segment.
    pub(crate) fn halve(&mut self, i: usize) {
        self.cwnd[i] = (self.cwnd[i] / 2.0).max(self.mss);
    }

    /// One RTT of flow `i` sending at `rate` has elapsed: additive
    /// increase, or — if its pair's queue overflowed — a halved window
    /// and `Some(bytes to retransmit)`.
    ///
    /// The retransmission is one segment capped at half the bytes the
    /// flow actually sent this RTT — a flow draining less than a
    /// segment per RTT cannot lose a full segment per RTT, and an
    /// uncapped charge would grow its debt faster than it drains on a
    /// heavily multiplexed slow link (a livelock: the flow never
    /// finishes and the event loop never runs out of ticks).
    pub(crate) fn tick(&mut self, i: usize, rate: f64) -> Option<f64> {
        if self.congested[i] {
            self.halve(i);
            let sent = rate * self.rtt_s;
            Some(self.mss.min(0.5 * sent))
        } else {
            self.cwnd[i] += self.mss;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{simulate, RateUpdate, SimReport};
    use crate::BandwidthMatrix;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    /// Prices `flows` as [`crate::TimeModel::Packet`] does: `rtt_s / 2`
    /// of one-way latency plus the config's link dynamics.
    fn simulate_packets(
        bw: &BandwidthMatrix,
        cfg: &PacketConfig,
        flows: &[FlowSpec],
        updates: &[RateUpdate],
    ) -> SimReport {
        simulate(bw, cfg.rtt_s / 2.0, cfg, flows, updates)
    }

    fn fluid(bw: &BandwidthMatrix, flows: &[FlowSpec]) -> SimReport {
        simulate_packets(bw, &PacketConfig::ideal(), flows, &[])
    }

    #[test]
    fn ideal_config_degenerates_to_fluid() {
        let bw = BandwidthMatrix::constant(4, 2.0);
        let flows = [
            FlowSpec::new(0, 1, 4e6),
            FlowSpec::new(1, 0, 1e6),
            FlowSpec::new(2, 3, 2e6).released_at(0.5),
            FlowSpec::new(3, 2, 2e6).on_chain(1),
            FlowSpec::new(2, 0, 1e6).on_chain(1),
        ];
        // With windows and loss off the segment size, queue depth and
        // loss seed have nothing to act on.
        let inert = PacketConfig::ideal()
            .with_mss(9000.0)
            .with_queue(0)
            .with_seed(7);
        let f = fluid(&bw, &flows);
        let p = simulate_packets(&bw, &inert, &flows, &[]);
        assert_eq!(f, p, "zero RTT and zero loss must be the fluid run");
    }

    #[test]
    fn random_loss_adds_time_and_is_seeded() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let flows = [FlowSpec::new(0, 1, 3e6)];
        let clean = simulate_packets(&bw, &PacketConfig::ideal(), &flows, &[]);
        let lossy_cfg = PacketConfig::ideal().with_loss(0.2).with_seed(7);
        let lossy = simulate_packets(&bw, &lossy_cfg, &flows, &[]);
        assert!(
            lossy.makespan_s > clean.makespan_s,
            "20% loss must stretch a 2000-segment transfer ({} vs {})",
            lossy.makespan_s,
            clean.makespan_s
        );
        let again = simulate_packets(&bw, &lossy_cfg, &flows, &[]);
        assert_eq!(lossy, again, "same seed, same report");
        let other = simulate_packets(&bw, &lossy_cfg.with_seed(8), &flows, &[]);
        assert!(other.makespan_s.is_finite());
    }

    #[test]
    fn window_ramp_slows_the_start() {
        // 2 MB/s with 50 ms RTT: BDP is 100 kB ≈ 66 segments, the
        // window starts at 10 — the ramp (plus the one-way latency)
        // must show up on top of the fluid time.
        let bw = BandwidthMatrix::constant(2, 2.0);
        let flows = [FlowSpec::new(0, 1, 4e6)];
        let f = fluid(&bw, &flows);
        let p = simulate_packets(&bw, &PacketConfig::ideal().with_rtt(0.05), &flows, &[]);
        assert!(
            p.makespan_s > f.makespan_s + 0.025,
            "AIMD ramp priced {} vs fluid {}",
            p.makespan_s,
            f.makespan_s
        );
    }

    #[test]
    fn multiplexed_tiny_flows_on_a_slow_link_terminate() {
        // Dozens of sub-MSS flows (a serving plane's requests and
        // responses) share one slow link: every pair starts congested
        // (40 initial windows ≫ BDP + queue) and the fair share per
        // RTT is far below one segment. An uncapped per-tick
        // retransmission would grow each flow's debt faster than it
        // drains — the run would never terminate.
        let bw = BandwidthMatrix::constant(2, 0.05); // 50 kB/s
        let mut flows = Vec::new();
        for _ in 0..20 {
            flows.push(FlowSpec::new(0, 1, 95.0));
            flows.push(FlowSpec::new(1, 0, 63.0));
        }
        let cfg = PacketConfig::ideal().with_rtt(0.005).with_seed(7);
        let p = simulate_packets(&bw, &cfg, &flows, &[]);
        assert!(
            p.makespan_s.is_finite(),
            "sub-MSS flows must drain, not livelock"
        );
        let f = fluid(&bw, &flows);
        assert!(
            p.makespan_s >= f.makespan_s,
            "window dynamics never beat the fluid bound ({} vs {})",
            p.makespan_s,
            f.makespan_s
        );
    }

    #[test]
    fn shallow_queue_drops_and_still_finishes() {
        // Two big flows on one pair with a zero-segment queue: every
        // window overshoot registers a congestion drop; the transfer
        // still completes, slower than fluid.
        let bw = BandwidthMatrix::constant(2, 2.0);
        let flows = [FlowSpec::new(0, 1, 4e6), FlowSpec::new(1, 0, 4e6)];
        let f = fluid(&bw, &flows);
        let cfg = PacketConfig::ideal().with_rtt(0.02).with_queue(0);
        let p = simulate_packets(&bw, &cfg, &flows, &[]);
        assert!(p.makespan_s.is_finite());
        assert!(
            p.makespan_s > f.makespan_s,
            "congestion drops priced {} vs fluid {}",
            p.makespan_s,
            f.makespan_s
        );
        assert_eq!(p, simulate_packets(&bw, &cfg, &flows, &[]));
    }

    #[test]
    fn dead_link_without_update_is_infinite() {
        let bw = BandwidthMatrix::constant(2, 0.0);
        let rep = simulate_packets(
            &bw,
            &PacketConfig::ideal().with_rtt(0.01),
            &[FlowSpec::new(0, 1, 1e6)],
            &[],
        );
        assert!(rep.makespan_s.is_infinite());
    }

    #[test]
    fn rate_update_rescues_a_dead_link() {
        let bw = BandwidthMatrix::constant(2, 0.0);
        let rep = simulate_packets(
            &bw,
            &PacketConfig::ideal(),
            &[FlowSpec::new(0, 1, 1e6)],
            &[RateUpdate {
                at_s: 5.0,
                bw: BandwidthMatrix::constant(2, 1.0),
            }],
        );
        approx(rep.makespan_s, 6.0);
    }

    #[test]
    fn zero_byte_flow_finishes_at_its_latency() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let rep = simulate_packets(
            &bw,
            &PacketConfig::ideal().with_rtt(1.0),
            &[FlowSpec::new(0, 1, 0.0)],
            &[],
        );
        approx(rep.makespan_s, 0.5); // one latency unit = rtt/2
    }

    #[test]
    fn loss_distance_draw_is_geometric_shaped() {
        let mss = 1500.0;
        let mut rng = StdRng::seed_from_u64(1);
        let mut total = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let d = draw_loss_bytes(&mut rng, 0.1, mss);
            assert!(d >= mss, "at least the lost segment itself is sent");
            total += d;
        }
        let mean_segments = total / n as f64 / mss;
        // Geometric(p = 0.1) has mean 10.
        assert!(
            (mean_segments - 10.0).abs() < 0.5,
            "mean loss distance {mean_segments} segments, expected ≈10"
        );
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn certain_loss_is_rejected() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        simulate_packets(
            &bw,
            &PacketConfig::ideal().with_loss(1.0),
            &[FlowSpec::new(0, 1, 1.0)],
            &[],
        );
    }
}
