//! The flow engine of the discrete-event network simulator.
//!
//! A round's communication is a set of [`FlowSpec`]s: directed transfers
//! over the links of a [`BandwidthMatrix`]. [`simulate`] — the only event
//! loop in this crate — advances a virtual clock from event to event
//! (flow releases, latency expiries, completions, [`RateUpdate`]s) and
//! moves bytes continuously between events under the **fair-share
//! rule**: all flows transferring on the same unordered link pair at the
//! same instant split that pair's bandwidth equally, and a flow's rate is
//! recomputed whenever the set of its link's concurrent flows (or the
//! matrix itself) changes.
//!
//! On top of fair sharing the engine takes the link dynamics of a
//! [`PacketConfig`]: at positive RTT every flow carries an AIMD
//! congestion window (per-RTT ticks, finite queues, congestion drops),
//! and at positive loss probability every flow draws seeded random
//! segment losses — see [`crate::packet`]. With both off (the *fluid*
//! case, [`PacketConfig::ideal`]) none of that state exists and the loop
//! is the plain fair-share simulator.
//!
//! Everything is deterministic: no wall clock, no hashing, and the only
//! randomness is the per-flow loss RNGs seeded from the flow's identity —
//! flows are processed in submission order and ties resolve by index,
//! so two simulations of the same inputs produce bit-identical
//! [`SimReport`]s.
//!
//! The higher-level [`crate::TimeModel`] builds flow sets for the
//! four communication patterns of the paper and prices them through
//! [`simulate`]; use this module directly for custom traffic patterns or
//! for mid-flight bandwidth changes (congestion hitting a round that is
//! already in progress).

use crate::packet::{Loss, PacketConfig, Windows};
use crate::BandwidthMatrix;

/// Fraction of a flow's original bytes below which the remainder is
/// considered delivered (absorbs float rounding when a completion event
/// lands exactly on the clock).
pub(crate) const COMPLETION_EPS: f64 = 1e-9;

/// One directed transfer handed to the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Sending worker rank.
    pub src: usize,
    /// Receiving worker rank.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: f64,
    /// Earliest virtual time (seconds) the flow may start — typically
    /// the sender's compute-finish time.
    pub release_s: f64,
    /// Chain id: flows sharing a chain id run strictly in submission
    /// order (each starts when its predecessor completes). `None` means
    /// the flow is independent.
    pub chain: Option<usize>,
    /// How many per-hop latencies the flow pays before its first byte
    /// arrives (1 for a plain transfer; collectives with internal steps
    /// collapsed into one flow use the step count).
    pub latency_units: u32,
}

impl FlowSpec {
    /// An independent flow of `bytes` from `src` to `dst`, released at
    /// time 0 with a single latency unit.
    pub fn new(src: usize, dst: usize, bytes: f64) -> Self {
        FlowSpec {
            src,
            dst,
            bytes,
            release_s: 0.0,
            chain: None,
            latency_units: 1,
        }
    }

    /// Sets the release time (builder style).
    pub fn released_at(mut self, t: f64) -> Self {
        self.release_s = t;
        self
    }

    /// Puts the flow on a chain (builder style).
    pub fn on_chain(mut self, chain: usize) -> Self {
        self.chain = Some(chain);
        self
    }

    /// Sets the latency multiplier (builder style).
    pub fn with_latency_units(mut self, units: u32) -> Self {
        self.latency_units = units;
        self
    }
}

/// A scheduled change to the link-rate matrix while flows are in flight
/// — a `BandwidthShift`/`LinkChange` scenario event or a drifting
/// bandwidth refresh landing mid-round. In-flight flows keep the bytes
/// they already moved and continue at the new rates.
#[derive(Debug, Clone)]
pub struct RateUpdate {
    /// Virtual time (seconds) the new matrix takes effect.
    pub at_s: f64,
    /// The matrix in effect from `at_s` on.
    pub bw: BandwidthMatrix,
}

/// Per-flow outcome of a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOutcome {
    /// When the flow was allowed to start (release + chain wait).
    pub start_s: f64,
    /// When its last byte arrived. `f64::INFINITY` if the flow starved
    /// on a zero-bandwidth link.
    pub finish_s: f64,
}

/// What one simulation run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Completion time of the last flow (0 for an empty flow set);
    /// `f64::INFINITY` if any flow starved.
    pub makespan_s: f64,
    /// Outcome per input flow, in submission order.
    pub flows: Vec<FlowOutcome>,
    /// Seconds each worker rank spent with at least one flow actively
    /// transferring on one of its links (sender or receiver side).
    pub busy_s: Vec<f64>,
    /// MSS-sized segments retransmitted (random loss + congestion
    /// drops). Always 0 with windows and loss off.
    pub retransmit_segments: u64,
    /// Deepest receiver queue observed across all flows (bytes). Always
    /// 0 at zero RTT, where there are no queues.
    pub peak_queue_bytes: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum St {
    /// Waiting for the chain predecessor to complete.
    WaitChain,
    /// Released; bytes start flowing at `ready`.
    Latency { ready: f64 },
    /// Transferring.
    Active,
    /// Delivered at the stored time.
    Done(f64),
}

/// Runs the fair-share simulation of `flows` over `bw`, applying
/// `updates` (which must be sorted by [`RateUpdate::at_s`]) as the clock
/// passes them. Returns per-flow start/finish times, per-rank busy
/// times and the makespan.
///
/// Every flow pays `latency_s` of one-way latency per
/// [`FlowSpec::latency_units`] before its first byte arrives. `link`
/// switches on the packet-level dynamics of [`crate::packet`]: AIMD
/// windows and queues at `link.rtt_s > 0`, seeded random loss at
/// `link.loss > 0`; [`PacketConfig::ideal`] is the fluid simulator.
/// [`crate::TimeModel::EventDriven`] is `(latency, ideal)` and
/// [`crate::TimeModel::Packet`] is `(cfg.rtt_s / 2, cfg)`.
///
/// # Panics
///
/// Panics if a flow references a rank outside the matrix, has negative
/// or non-finite bytes or release time, if `updates` are unsorted or
/// sized differently from `bw`, or if `link` has a non-finite or
/// non-positive `mss`, a negative or non-finite `rtt_s`, or a `loss`
/// outside `[0, 1)`.
pub fn simulate(
    bw: &BandwidthMatrix,
    latency_s: f64,
    link: &PacketConfig,
    flows: &[FlowSpec],
    updates: &[RateUpdate],
) -> SimReport {
    let n = bw.len();
    assert!(
        link.mss.is_finite() && link.mss > 0.0,
        "mss must be finite and positive"
    );
    assert!(
        link.rtt_s.is_finite() && link.rtt_s >= 0.0,
        "rtt must be finite and non-negative"
    );
    assert!(
        (0.0..1.0).contains(&link.loss),
        "loss probability must be in [0, 1)"
    );
    for f in flows {
        assert!(f.src < n && f.dst < n, "flow endpoint out of range");
        assert!(
            f.bytes.is_finite() && f.bytes >= 0.0,
            "flow bytes must be finite and non-negative"
        );
        assert!(
            f.release_s.is_finite() && f.release_s >= 0.0,
            "flow release must be finite and non-negative"
        );
    }
    for w in updates.windows(2) {
        assert!(w[0].at_s <= w[1].at_s, "rate updates must be sorted");
    }
    for u in updates {
        assert_eq!(u.bw.len(), n, "rate update matrix size mismatch");
        assert!(u.at_s.is_finite() && u.at_s >= 0.0);
    }

    let mut report = SimReport {
        makespan_s: 0.0,
        flows: vec![
            FlowOutcome {
                start_s: 0.0,
                finish_s: f64::INFINITY,
            };
            flows.len()
        ],
        busy_s: vec![0.0; n],
        retransmit_segments: 0,
        peak_queue_bytes: 0.0,
    };
    if flows.is_empty() {
        return report;
    }

    // Chain bookkeeping: within a chain, flow k+1 starts when flow k
    // completes (in submission order).
    let mut chain_pred: Vec<Option<usize>> = vec![None; flows.len()];
    let mut chain_succ: Vec<Option<usize>> = vec![None; flows.len()];
    {
        let mut last_of_chain: Vec<(usize, usize)> = Vec::new(); // (chain, flow idx)
        for (i, f) in flows.iter().enumerate() {
            if let Some(c) = f.chain {
                if let Some(entry) = last_of_chain.iter_mut().find(|(cc, _)| *cc == c) {
                    chain_pred[i] = Some(entry.1);
                    chain_succ[entry.1] = Some(i);
                    entry.1 = i;
                } else {
                    last_of_chain.push((c, i));
                }
            }
        }
    }

    // Flows on the same unordered link pair share its bandwidth:
    // `pair[i]` indexes flow i's pair among the distinct pairs in use.
    let pair_key = |f: &FlowSpec| (f.src.min(f.dst), f.src.max(f.dst));
    let mut pairs: Vec<(usize, usize)> = flows.iter().map(pair_key).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let pair: Vec<usize> = flows
        .iter()
        .map(|f| {
            pairs
                .binary_search(&pair_key(f))
                .expect("every flow's pair is listed")
        })
        .collect();

    let mut state: Vec<St> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if chain_pred[i].is_some() {
                St::WaitChain
            } else {
                report.flows[i].start_s = f.release_s;
                St::Latency {
                    ready: f.release_s + latency_s * f.latency_units as f64,
                }
            }
        })
        .collect();
    // `remaining` counts bytes still to deliver, retransmissions
    // included; it can grow past the original size under loss.
    let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes).collect();
    let eps: Vec<f64> = flows
        .iter()
        .map(|f| COMPLETION_EPS * f.bytes.max(1.0))
        .collect();
    let loss_eps = COMPLETION_EPS * link.mss;

    // Packet-level state exists only when the link asks for it.
    let mut windows = Windows::new(link, flows.len(), pairs.len());
    let mut loss = Loss::new(link, flows);

    // Per-event scratch: active flows per pair, each active flow's send
    // rate over the interval, ranks with bytes moving.
    let mut load: Vec<u32> = vec![0; pairs.len()];
    let mut rate: Vec<f64> = vec![0.0; flows.len()];
    let mut engaged: Vec<bool> = vec![false; n];

    let mut current = bw;
    let mut next_update = 0usize;
    let mut t = 0.0f64;
    let mut done = 0usize;

    // Marks flow `i` delivered at time `at` and releases its chain
    // successor.
    macro_rules! complete {
        ($i:expr, $at:expr) => {{
            let i = $i;
            state[i] = St::Done($at);
            report.flows[i].finish_s = $at;
            done += 1;
            if let Some(s) = chain_succ[i] {
                let start = flows[s].release_s.max($at);
                report.flows[s].start_s = start;
                state[s] = St::Latency {
                    ready: start + latency_s * flows[s].latency_units as f64,
                };
            }
        }};
    }

    while done < flows.len() {
        // Promote latency expiries due at the current clock, completing
        // empty flows on the spot. A freshly active windowed flow
        // schedules its first tick one RTT out.
        loop {
            let mut promoted = false;
            for i in 0..flows.len() {
                if let St::Latency { ready } = state[i] {
                    if ready <= t {
                        if remaining[i] <= eps[i] {
                            complete!(i, ready.max(t));
                        } else {
                            state[i] = St::Active;
                            if let Some(w) = &mut windows {
                                w.next_tick[i] = t + link.rtt_s;
                            }
                        }
                        promoted = true;
                    }
                }
            }
            if !promoted {
                break;
            }
        }
        if done == flows.len() {
            break;
        }

        // Per-pair aggregates over the active set: the fair-share
        // divisor plus (windowed) the summed windows that decide
        // queueing.
        load.fill(0);
        if let Some(w) = &mut windows {
            w.pair_wnd.fill(0.0);
        }
        for i in 0..flows.len() {
            if state[i] == St::Active {
                load[pair[i]] += 1;
                if let Some(w) = &mut windows {
                    w.pair_wnd[pair[i]] += w.cwnd[i];
                }
            }
        }
        // Send rate of every active flow over this interval: its pair's
        // capacity split by the load, clamped by the window if there is
        // one. A dead link moves nothing.
        for (i, f) in flows.iter().enumerate() {
            if state[i] == St::Active {
                let cap = current.get(f.src, f.dst) * 1e6; // MB/s → bytes/s
                rate[i] = if cap <= 0.0 {
                    0.0
                } else {
                    let share = cap / f64::from(load[pair[i]]);
                    match &mut windows {
                        None => share,
                        Some(w) => {
                            let (clamped, queue_bytes) = w.clamp(i, pair[i], cap, share);
                            report.peak_queue_bytes = report.peak_queue_bytes.max(queue_bytes);
                            clamped
                        }
                    }
                };
            }
        }

        // Next event: completion, random-loss crossing, window tick,
        // latency expiry, or rate update. Starved flows (dead link)
        // schedule nothing — only a rate update can rescue them.
        let mut t_next = f64::INFINITY;
        for i in 0..flows.len() {
            match state[i] {
                St::Active if rate[i] > 0.0 => {
                    t_next = t_next.min(t + remaining[i] / rate[i]);
                    if let Some(l) = &loss {
                        t_next = t_next.min(t + l.to_loss[i] / rate[i]);
                    }
                    if let Some(w) = &windows {
                        t_next = t_next.min(w.next_tick[i]);
                    }
                }
                St::Latency { ready } => t_next = t_next.min(ready),
                _ => {}
            }
        }
        if next_update < updates.len() {
            t_next = t_next.min(updates[next_update].at_s.max(t));
        }
        if !t_next.is_finite() {
            // Every remaining flow sits on a dead link with no update in
            // sight: the round never finishes.
            report.makespan_s = f64::INFINITY;
            return report;
        }

        // Advance bytes (delivered and toward the next loss) and busy
        // clocks over [t, t_next]. A flow starved on a dead link moves
        // nothing and does not make its endpoints busy.
        let dt = (t_next - t).max(0.0);
        if dt > 0.0 {
            engaged.fill(false);
            for (i, f) in flows.iter().enumerate() {
                if state[i] == St::Active && rate[i] > 0.0 {
                    let sent = rate[i] * dt;
                    remaining[i] = (remaining[i] - sent).max(0.0);
                    if let Some(l) = &mut loss {
                        l.to_loss[i] = (l.to_loss[i] - sent).max(0.0);
                    }
                    engaged[f.src] = true;
                    engaged[f.dst] = true;
                }
            }
            for (b, e) in report.busy_s.iter_mut().zip(&engaged) {
                if *e {
                    *b += dt;
                }
            }
        }
        t = t_next;

        // Apply rate updates that have come due. `rate` keeps the
        // interval's values: ticks below judge what the flow just sent.
        while next_update < updates.len() && updates[next_update].at_s <= t {
            current = &updates[next_update].bw;
            next_update += 1;
        }

        // Handle the events that landed at `t`, in flow-index order.
        // Completion wins over a coincident loss (the last byte already
        // arrived); loss and tick may both fire.
        for i in 0..flows.len() {
            if state[i] != St::Active {
                continue;
            }
            if remaining[i] <= eps[i] {
                complete!(i, t);
                continue;
            }
            if let Some(l) = &mut loss {
                if l.to_loss[i] <= loss_eps {
                    remaining[i] += link.mss;
                    report.retransmit_segments += 1;
                    l.redraw(i);
                    if let Some(w) = &mut windows {
                        w.halve(i);
                    }
                }
            }
            if let Some(w) = &mut windows {
                if w.next_tick[i] <= t && rate[i] > 0.0 {
                    if let Some(resend) = w.tick(i, rate[i]) {
                        remaining[i] += resend;
                        report.retransmit_segments += 1;
                    }
                    w.next_tick[i] = t + link.rtt_s;
                }
            }
        }
    }

    report.makespan_s = report
        .flows
        .iter()
        .map(|f| f.finish_s)
        .fold(0.0f64, f64::max);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Windows and loss off: the plain fair-share simulator.
    fn fluid(
        bw: &BandwidthMatrix,
        latency_s: f64,
        flows: &[FlowSpec],
        updates: &[RateUpdate],
    ) -> SimReport {
        simulate(bw, latency_s, &PacketConfig::ideal(), flows, updates)
    }

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn single_flow_is_bytes_over_bandwidth() {
        let bw = BandwidthMatrix::constant(2, 2.0); // 2 MB/s
        let rep = fluid(&bw, 0.0, &[FlowSpec::new(0, 1, 4e6)], &[]);
        approx(rep.makespan_s, 2.0);
        approx(rep.busy_s[0], 2.0);
        approx(rep.busy_s[1], 2.0);
    }

    #[test]
    fn fair_share_on_one_link_preserves_total_time() {
        // Two equal flows share the pair: each runs at half rate, both
        // finish when the link has moved the total bytes.
        let bw = BandwidthMatrix::constant(2, 1.0);
        let rep = fluid(
            &bw,
            0.0,
            &[FlowSpec::new(0, 1, 1e6), FlowSpec::new(1, 0, 1e6)],
            &[],
        );
        approx(rep.makespan_s, 2.0);
        approx(rep.flows[0].finish_s, 2.0);
        approx(rep.flows[1].finish_s, 2.0);
    }

    #[test]
    fn short_flow_releases_capacity_to_long_flow() {
        // 1 MB and 3 MB share a 2 MB/s link: the short one finishes at
        // t=1 (1 MB at 1 MB/s), after which the long one runs at full
        // rate: 1 MB moved by t=1, 2 MB left at 2 MB/s → t=2.
        let bw = BandwidthMatrix::constant(2, 2.0);
        let rep = fluid(
            &bw,
            0.0,
            &[FlowSpec::new(0, 1, 1e6), FlowSpec::new(1, 0, 3e6)],
            &[],
        );
        approx(rep.flows[0].finish_s, 1.0);
        approx(rep.flows[1].finish_s, 2.0);
    }

    #[test]
    fn latency_delays_delivery() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let latency = 0.25;
        let rep = fluid(&bw, latency, &[FlowSpec::new(0, 1, 1e6)], &[]);
        approx(rep.makespan_s, 1.25);
        let rep2 = fluid(
            &bw,
            latency,
            &[FlowSpec::new(0, 1, 1e6).with_latency_units(4)],
            &[],
        );
        approx(rep2.makespan_s, 2.0);
    }

    #[test]
    fn chains_serialize_flows() {
        let bw = BandwidthMatrix::constant(3, 1.0);
        let rep = fluid(
            &bw,
            0.0,
            &[
                FlowSpec::new(0, 1, 1e6).on_chain(7),
                FlowSpec::new(0, 2, 1e6).on_chain(7),
            ],
            &[],
        );
        approx(rep.flows[0].finish_s, 1.0);
        approx(rep.flows[1].start_s, 1.0);
        approx(rep.flows[1].finish_s, 2.0);
    }

    #[test]
    fn release_time_offsets_start() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let rep = fluid(&bw, 0.0, &[FlowSpec::new(0, 1, 1e6).released_at(3.0)], &[]);
        approx(rep.flows[0].start_s, 3.0);
        approx(rep.makespan_s, 4.0);
    }

    #[test]
    fn mid_flight_rate_update_changes_pace() {
        // 4 MB at 2 MB/s; at t=1 the link halves to 1 MB/s: 2 MB moved,
        // 2 MB left at 1 MB/s → finish at t=3 (vs 2 s undisturbed).
        let bw = BandwidthMatrix::constant(2, 2.0);
        let rep = fluid(
            &bw,
            0.0,
            &[FlowSpec::new(0, 1, 4e6)],
            &[RateUpdate {
                at_s: 1.0,
                bw: BandwidthMatrix::constant(2, 1.0),
            }],
        );
        approx(rep.makespan_s, 3.0);
    }

    #[test]
    fn rate_update_can_rescue_a_dead_link() {
        let bw = BandwidthMatrix::constant(2, 0.0);
        let rep = fluid(
            &bw,
            0.0,
            &[FlowSpec::new(0, 1, 1e6)],
            &[RateUpdate {
                at_s: 5.0,
                bw: BandwidthMatrix::constant(2, 1.0),
            }],
        );
        approx(rep.makespan_s, 6.0);
        // The starved interval [0, 5) is not transfer activity: the
        // endpoints were only busy while bytes actually moved.
        approx(rep.busy_s[0], 1.0);
        approx(rep.busy_s[1], 1.0);
    }

    #[test]
    fn dead_link_without_update_is_infinite() {
        let bw = BandwidthMatrix::constant(2, 0.0);
        let rep = fluid(&bw, 0.0, &[FlowSpec::new(0, 1, 1.0)], &[]);
        assert!(rep.makespan_s.is_infinite());
        assert!(rep.flows[0].finish_s.is_infinite());
    }

    #[test]
    fn empty_flow_set_is_zero_time() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let rep = fluid(&bw, 0.0, &[], &[]);
        assert_eq!(rep.makespan_s, 0.0);
    }

    #[test]
    fn zero_byte_flow_finishes_at_its_latency() {
        let bw = BandwidthMatrix::constant(2, 1.0);
        let latency = 0.5;
        let rep = fluid(&bw, latency, &[FlowSpec::new(0, 1, 0.0)], &[]);
        approx(rep.makespan_s, 0.5);
    }

    #[test]
    fn simulation_is_deterministic() {
        let bw = BandwidthMatrix::constant(4, 1.5);
        let flows: Vec<FlowSpec> = (0..12)
            .map(|i| {
                FlowSpec::new(i % 4, (i + 1) % 4, 1e6 + i as f64 * 1e5).released_at(i as f64 * 0.1)
            })
            .collect();
        let latency = 0.01;
        let a = fluid(&bw, latency, &flows, &[]);
        let b = fluid(&bw, latency, &flows, &[]);
        assert_eq!(a, b);
    }
}
