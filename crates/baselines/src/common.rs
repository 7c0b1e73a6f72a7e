//! Shared scaffolding for baseline algorithms over the worker
//! [`Fleet`] of `saps-core`: constructor checks, ring link statistics
//! and the parameter-server client sampling and phase.

use crate::exchange::{reduce_stats, Exchange, Node, Payload, WorkerStats};
use crate::Fleet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use saps_compress::codec;
use saps_core::{ConfigError, RoundCtx};
use saps_graph::topology;
use saps_netsim::BandwidthMatrix;
use std::collections::BTreeMap;

/// What [`ps_client_phase`] hands the server-side half of a
/// parameter-server round.
pub(crate) struct ClientPhase {
    /// `Σ loss` over every client's local steps.
    pub loss: f64,
    /// `Σ accuracy` over every client's local steps.
    pub acc: f64,
    /// Bytes each client's download occupied on the link, by rank.
    pub down: BTreeMap<usize, u64>,
}

/// Constructor check: a compression ratio is a finite `c ≥ 1`.
pub(crate) fn check_compression(what: &'static str, c: f64) -> Result<(), ConfigError> {
    if c >= 1.0 && c.is_finite() {
        return Ok(());
    }
    Err(ConfigError::invalid(
        what,
        format!("compression {c} must be a finite ratio >= 1"),
    ))
}

/// Constructor check: client sampling takes a fraction in `(0, 1]` of
/// the fleet through at least one local step.
pub(crate) fn check_sampling(
    what: &'static str,
    participation: f64,
    local_steps: usize,
) -> Result<(), ConfigError> {
    if !(participation > 0.0 && participation <= 1.0) {
        return Err(ConfigError::invalid(
            what,
            format!("participation {participation} must be in (0, 1]"),
        ));
    }
    if local_steps == 0 {
        return Err(ConfigError::invalid(what, "local_steps must be >= 1"));
    }
    Ok(())
}

/// This round's clients: a `participation` share (at least one) of the
/// active workers, drawn by shuffling them with `rng`, in drawn order.
pub(crate) fn sample_clients(fleet: &Fleet, participation: f64, rng: &mut StdRng) -> Vec<usize> {
    let mut ranks = fleet.active_ranks();
    let m = ranks.len();
    let k = ((m as f64 * participation).round() as usize).clamp(1, m);
    ranks.shuffle(rng);
    ranks.truncate(k);
    ranks
}

/// `(mean, min)` bandwidth over the links of the ring through `ranks`.
pub(crate) fn ring_link_stats(bw: &BandwidthMatrix, ranks: &[usize]) -> (f64, f64) {
    let ring = topology::ring_edges_over(ranks);
    let mean = ring.iter().map(|&(a, b)| bw.get(a, b)).sum::<f64>() / ring.len() as f64;
    let min = ring
        .iter()
        .map(|&(a, b)| bw.get(a, b))
        .fold(f64::INFINITY, f64::min);
    (mean, min)
}

/// The client phase FedAvg and S-FedAvg share. The server (pinned at
/// worker `server`) ships `model` to every client; each client installs
/// the copy *it* received and runs `steps` local SGD steps, fanned out
/// across the round executor; the per-client sums cross to the
/// coordinator, reduced in ascending-rank order (bit-identical at any
/// thread count).
pub(crate) fn ps_client_phase<X: Exchange>(
    fleet: &mut Fleet,
    x: &mut X,
    ctx: &mut RoundCtx<'_>,
    server: usize,
    clients: &[usize],
    model: &[f32],
    steps: usize,
) -> Result<ClientPhase, X::Error> {
    let n = fleet.n_params();
    let mut down = BTreeMap::new();
    for &r in clients {
        ctx.traffic.record_download(r, codec::dense_bytes(n));
        let sent = x.send(server, Node::Worker(r), Payload::Dense(model.to_vec()))?;
        down.insert(r, sent);
    }
    let mut globals = BTreeMap::new();
    for &r in clients {
        globals.insert(r, x.recv_dense(Node::Worker(r), server, n)?);
    }
    let (bs, lr) = (fleet.batch_size, fleet.lr);
    let globals = &globals;
    let items = fleet.workers_mut_at(clients);
    let per_client: Vec<WorkerStats> = ctx.exec.par_map(items, |_, (r, w)| {
        w.set_flat(&globals[&r]);
        let mut l = 0.0f64;
        let mut a = 0.0f64;
        for _ in 0..steps {
            let (li, ai) = w.sgd_step(bs, lr);
            l += li as f64;
            a += ai as f64;
        }
        (r, (l, a))
    });
    let (loss, acc) = reduce_stats(x, &per_client)?;
    Ok(ClientPhase { loss, acc, down })
}

#[cfg(test)]
mod tests {
    //! `Fleet` lives in `saps-core`; these pin the surface this crate
    //! re-exports and builds its seven trainers on.
    use super::*;
    use saps_core::Executor;
    use saps_data::SyntheticSpec;
    use saps_nn::zoo;

    fn fleet(n: usize) -> Fleet {
        let ds = SyntheticSpec::tiny().samples(400).generate(1);
        Fleet::new(n, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 7, 16, 0.1).unwrap()
    }

    #[test]
    fn replicas_start_identical() {
        let f = fleet(4);
        let base = f.worker(0).flat();
        for r in 1..4 {
            assert_eq!(base, f.worker(r).flat());
        }
    }

    #[test]
    fn sgd_step_all_diverges_replicas() {
        let mut f = fleet(3);
        let stats = f.sgd_step_all_on(&Executor::sequential());
        assert_eq!(stats.iter().map(|s| s.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        for (_, (loss, acc)) in stats {
            assert!(loss.is_finite() && (0.0..=1.0).contains(&acc));
        }
        assert_ne!(f.worker(0).flat(), f.worker(1).flat());
    }

    #[test]
    fn average_model_is_midpoint_for_two_workers() {
        let mut f = fleet(2);
        f.sgd_step_all_on(&Executor::sequential());
        let avg = f.average_model();
        let a = f.worker(0).flat();
        let b = f.worker(1).flat();
        for i in 0..avg.len() {
            assert!((avg[i] - 0.5 * (a[i] + b[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn epochs_per_round() {
        let f = fleet(4);
        // 400 samples / 4 workers = 100 per worker; batch 16 -> 0.16.
        assert!((f.epochs_per_round() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn tiny_fleets_are_rejected() {
        let ds = SyntheticSpec::tiny().samples(100).generate(1);
        assert!(Fleet::new(1, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 7, 16, 0.1).is_err());
        assert!(Fleet::new(4, &ds, |rng| zoo::mlp(&[16, 12, 4], rng), 7, 0, 0.1).is_err());
    }

    #[test]
    fn inactive_workers_freeze_and_drop_out_of_averages() {
        let mut f = fleet(4);
        f.sgd_step_all_on(&Executor::sequential());
        f.set_active(3, false, 2).unwrap();
        let frozen = f.worker(3).flat();
        f.sgd_step_all_on(&Executor::sequential());
        assert_eq!(f.worker(3).flat(), frozen, "inactive worker trained");
        assert_eq!(f.active_ranks(), vec![0, 1, 2]);
        // Average over the 3 active workers only.
        let avg = f.average_model();
        let mut manual = vec![0.0f32; f.n_params()];
        for r in 0..3 {
            for (m, v) in manual.iter_mut().zip(f.worker(r).flat()) {
                *m += v / 3.0;
            }
        }
        for (a, b) in avg.iter().zip(&manual) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn parallel_sgd_step_matches_sequential_bitwise() {
        let mut seq = fleet(5);
        let mut par = fleet(5);
        let exec = Executor::new(saps_core::ParallelismPolicy::Threads(3));
        for _ in 0..3 {
            let a = seq.sgd_step_all_on(&Executor::sequential());
            let b = par.sgd_step_all_on(&exec);
            assert_eq!(a, b);
        }
        for r in 0..5 {
            assert_eq!(seq.worker(r).flat(), par.worker(r).flat(), "worker {r}");
        }
    }

    #[test]
    fn worker_subset_helpers_return_ascending_ranks() {
        let mut f = fleet(5);
        f.set_active(2, false, 2).unwrap();
        let active: Vec<usize> = f.active_workers_mut().iter().map(|(r, _)| *r).collect();
        assert_eq!(active, vec![0, 1, 3, 4]);
        // Ascending regardless of the requested order.
        let picked: Vec<usize> = f
            .workers_mut_at(&[4, 0, 3])
            .iter()
            .map(|(r, _)| *r)
            .collect();
        assert_eq!(picked, vec![0, 3, 4]);
    }

    #[test]
    fn min_active_guard_holds() {
        let mut f = fleet(3);
        f.set_active(0, false, 2).unwrap();
        assert!(f.set_active(1, false, 2).is_err());
        assert!(f.set_active(7, false, 2).is_err());
        f.set_active(0, true, 2).unwrap();
        assert_eq!(f.active_count(), 3);
    }
}
