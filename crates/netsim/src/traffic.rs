//! Exact traffic accounting.
//!
//! Every algorithm in the workspace charges the bytes it moves through a
//! [`TrafficAccountant`]; Table IV's "Traffic" column and the x-axes of
//! Fig. 4 are read directly from these counters. Counting is split per
//! worker and per direction, plus a separate server counter for
//! centralized algorithms, so Table I's per-role formulas can be checked
//! against measurements.

/// Per-round traffic snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTraffic {
    /// Bytes sent by the busiest worker this round.
    pub max_worker_sent: u64,
    /// Bytes received by the busiest worker this round.
    pub max_worker_recv: u64,
    /// Total bytes moved by all workers this round (sent only, to avoid
    /// double counting pairwise transfers).
    pub total_sent: u64,
    /// Bytes through the server (if any) this round, both directions.
    pub server_bytes: u64,
}

/// Accumulates traffic over a training run.
#[derive(Debug, Clone)]
pub struct TrafficAccountant {
    n: usize,
    sent: Vec<u64>,
    recv: Vec<u64>,
    server: u64,
    rounds: Vec<RoundTraffic>,
    // Current round working state.
    cur_sent: Vec<u64>,
    cur_recv: Vec<u64>,
    cur_server: u64,
}

impl TrafficAccountant {
    /// Creates an accountant for `n` workers.
    pub fn new(n: usize) -> Self {
        TrafficAccountant {
            n,
            sent: vec![0; n],
            recv: vec![0; n],
            server: 0,
            rounds: Vec::new(),
            cur_sent: vec![0; n],
            cur_recv: vec![0; n],
            cur_server: 0,
        }
    }

    /// Number of workers tracked.
    pub fn worker_count(&self) -> usize {
        self.n
    }

    /// Records a worker-to-worker transfer of `bytes` from `src` to `dst`.
    pub fn record_p2p(&mut self, src: usize, dst: usize, bytes: u64) {
        assert!(src < self.n && dst < self.n, "worker out of range");
        self.sent[src] += bytes;
        self.recv[dst] += bytes;
        self.cur_sent[src] += bytes;
        self.cur_recv[dst] += bytes;
    }

    /// Records an upload from `worker` to the server.
    pub fn record_upload(&mut self, worker: usize, bytes: u64) {
        assert!(worker < self.n);
        self.sent[worker] += bytes;
        self.cur_sent[worker] += bytes;
        self.server += bytes;
        self.cur_server += bytes;
    }

    /// Records a download from the server to `worker`.
    pub fn record_download(&mut self, worker: usize, bytes: u64) {
        assert!(worker < self.n);
        self.recv[worker] += bytes;
        self.cur_recv[worker] += bytes;
        self.server += bytes;
        self.cur_server += bytes;
    }

    /// Records control-plane traffic on the server/coordinator row
    /// *only* — round plans, round-end notices, churn frames and all
    /// wire framing overhead of a message-driven deployment. Unlike
    /// [`TrafficAccountant::record_upload`]/`record_download`, no worker
    /// row is charged: Table I's worker cost counts model payload bytes,
    /// and the coordinator's control chatter belongs to the server row
    /// alone.
    pub fn record_control(&mut self, bytes: u64) {
        self.server += bytes;
        self.cur_server += bytes;
    }

    /// Closes the current round, returning its snapshot.
    pub fn end_round(&mut self) -> RoundTraffic {
        let rt = RoundTraffic {
            max_worker_sent: self.cur_sent.iter().copied().max().unwrap_or(0),
            max_worker_recv: self.cur_recv.iter().copied().max().unwrap_or(0),
            total_sent: self.cur_sent.iter().sum(),
            server_bytes: self.cur_server,
        };
        self.rounds.push(rt);
        self.cur_sent.iter_mut().for_each(|b| *b = 0);
        self.cur_recv.iter_mut().for_each(|b| *b = 0);
        self.cur_server = 0;
        rt
    }

    /// Takes back everything recorded since the last
    /// [`TrafficAccountant::end_round`]: a round that failed part-way
    /// bills nothing.
    pub fn discard_round(&mut self) {
        for (total, cur) in self.sent.iter_mut().zip(&mut self.cur_sent) {
            *total -= std::mem::take(cur);
        }
        for (total, cur) in self.recv.iter_mut().zip(&mut self.cur_recv) {
            *total -= std::mem::take(cur);
        }
        self.server -= std::mem::take(&mut self.cur_server);
    }

    /// Total bytes sent by `worker` across all rounds.
    pub fn worker_sent(&self, worker: usize) -> u64 {
        self.sent[worker]
    }

    /// Total bytes received by `worker` across all rounds.
    pub fn worker_recv(&self, worker: usize) -> u64 {
        self.recv[worker]
    }

    /// Total bytes sent + received by `worker`.
    pub fn worker_total(&self, worker: usize) -> u64 {
        self.sent[worker] + self.recv[worker]
    }

    /// The busiest worker's total (sent + received) — the paper reports
    /// "communication size on a training worker".
    pub fn max_worker_total(&self) -> u64 {
        (0..self.n).map(|w| self.worker_total(w)).max().unwrap_or(0)
    }

    /// Mean per-worker total (sent + received).
    pub fn mean_worker_total(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let sum: u64 = (0..self.n).map(|w| self.worker_total(w)).sum();
        sum as f64 / self.n as f64
    }

    /// Total server bytes (both directions) across all rounds.
    pub fn server_total(&self) -> u64 {
        self.server
    }

    /// Per-round snapshots in order.
    pub fn rounds(&self) -> &[RoundTraffic] {
        &self.rounds
    }

    /// Grand total of bytes moved by all workers (sent only).
    pub fn grand_total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }
}

/// Converts bytes to the paper's MB (10^6 bytes).
pub fn to_mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_charges_both_sides() {
        let mut t = TrafficAccountant::new(3);
        t.record_p2p(0, 1, 100);
        t.record_p2p(1, 0, 50);
        assert_eq!(t.worker_sent(0), 100);
        assert_eq!(t.worker_recv(0), 50);
        assert_eq!(t.worker_total(0), 150);
        assert_eq!(t.worker_total(1), 150);
        assert_eq!(t.worker_total(2), 0);
        assert_eq!(t.server_total(), 0);
    }

    #[test]
    fn server_traffic_counts_both_directions() {
        let mut t = TrafficAccountant::new(2);
        t.record_upload(0, 100);
        t.record_download(0, 100);
        t.record_upload(1, 100);
        t.record_download(1, 100);
        // Server moved 2 * (100 up + 100 down) = 400.
        assert_eq!(t.server_total(), 400);
        assert_eq!(t.worker_total(0), 200);
    }

    #[test]
    fn round_snapshots() {
        let mut t = TrafficAccountant::new(2);
        t.record_p2p(0, 1, 10);
        let r1 = t.end_round();
        assert_eq!(r1.max_worker_sent, 10);
        assert_eq!(r1.max_worker_recv, 10);
        assert_eq!(r1.total_sent, 10);
        t.record_p2p(1, 0, 30);
        t.record_p2p(0, 1, 20);
        let r2 = t.end_round();
        assert_eq!(r2.max_worker_sent, 30);
        assert_eq!(r2.total_sent, 50);
        assert_eq!(t.rounds().len(), 2);
        // Cumulative counters unaffected by round boundaries.
        assert_eq!(t.worker_sent(0), 30);
        assert_eq!(t.grand_total_sent(), 60);
    }

    #[test]
    fn control_traffic_bills_only_the_server_row() {
        let mut t = TrafficAccountant::new(2);
        t.record_control(64);
        t.record_p2p(0, 1, 100);
        let r = t.end_round();
        assert_eq!(r.server_bytes, 64);
        assert_eq!(r.total_sent, 100);
        assert_eq!(t.server_total(), 64);
        assert_eq!(t.worker_total(0), 100);
        assert_eq!(t.worker_total(1), 100);
    }

    #[test]
    fn discard_round_restores_every_row() {
        let mut t = TrafficAccountant::new(3);
        t.record_p2p(0, 1, 100);
        t.record_upload(2, 40);
        t.record_download(2, 60);
        t.end_round();
        let rows = |t: &TrafficAccountant| -> Vec<(u64, u64)> {
            (0..3)
                .map(|w| (t.worker_sent(w), t.worker_recv(w)))
                .collect()
        };
        let (before, server, rounds) = (rows(&t), t.server_total(), t.rounds().to_vec());
        // A round that bills every row kind, then fails.
        t.record_p2p(1, 0, 7);
        t.record_upload(0, 11);
        t.record_download(1, 13);
        t.record_control(17);
        t.discard_round();
        assert_eq!(rows(&t), before);
        assert_eq!(t.server_total(), server);
        assert_eq!(t.rounds(), &rounds[..]);
        // The next round starts from zero, not from the discarded bytes.
        assert_eq!(t.end_round(), RoundTraffic::default());
    }

    #[test]
    fn max_and_mean_worker_total() {
        let mut t = TrafficAccountant::new(2);
        t.record_p2p(0, 1, 100);
        assert_eq!(t.max_worker_total(), 100);
        assert_eq!(t.mean_worker_total(), 100.0);
    }

    #[test]
    fn to_mb_uses_decimal_megabytes() {
        assert_eq!(to_mb(5_000_000), 5.0);
    }
}
