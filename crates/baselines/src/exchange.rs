//! The loss/accuracy reduction the seven baseline trainers share, over
//! the [`Exchange`] fabric of `saps-core`
//! (re-exported here: [`Direct`] in memory, `saps_cluster::Framed` on
//! the wire).

pub use saps_core::{Direct, Exchange, Node, Payload, Shape};

/// One worker's `(rank, (Σ loss, Σ accuracy))` over its local steps of
/// a round — kept per rank so the sums can cross the fabric before they
/// are reduced to a mean.
pub(crate) type WorkerStats = (usize, (f64, f64));

/// Every reporting worker ships its `(Σ loss, Σ acc)` to the
/// coordinator, which folds what it received in the order of
/// `per_worker` (ascending rank at every call site). Returns the sums.
pub(crate) fn reduce_stats<X: Exchange>(
    x: &mut X,
    per_worker: &[WorkerStats],
) -> Result<(f64, f64), X::Error> {
    for &(rank, (loss, acc)) in per_worker {
        x.send(rank, Node::Coordinator, Payload::Stats { loss, acc })?;
    }
    let mut sums = (0.0, 0.0);
    for &(rank, _) in per_worker {
        match x.recv(Node::Coordinator, rank, Shape::Stats)? {
            Payload::Stats { loss, acc } => sums = (sums.0 + loss, sums.1 + acc),
            _ => unreachable!("recv returns the requested shape"),
        }
    }
    Ok(sums)
}

/// [`reduce_stats`] over one report per active worker, reduced to the
/// round's mean `(loss, accuracy)`.
pub(crate) fn mean_stats<X: Exchange>(
    x: &mut X,
    per_worker: &[WorkerStats],
) -> Result<(f32, f32), X::Error> {
    let (loss, acc) = reduce_stats(x, per_worker)?;
    let n = per_worker.len().max(1) as f64;
    Ok(((loss / n) as f32, (acc / n) as f32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Fleet, RingGossip, Rounds};
    use rand::rngs::StdRng;
    use saps_core::{checkpoint, Notice, RoundCtx, SapsConfig, SapsPsgd, Trainer};
    use saps_data::{partition, Dataset, SyntheticSpec};
    use saps_netsim::{BandwidthMatrix, TrafficAccountant};
    use saps_nn::{zoo, Model};
    use std::sync::Arc;

    /// [`Direct`] that refuses the `nth` send of round 2 once, and logs
    /// every round it opens and every plan announced over it. Each round
    /// starts from empty inboxes, so a round that died part-way leaves
    /// nothing in flight for the next.
    struct FailOnce {
        inner: Direct,
        round: u64,
        sends: usize,
        nth: Option<usize>,
        opened: Vec<u64>,
        planned: Vec<u64>,
    }

    fn fail_once(nth: usize) -> FailOnce {
        FailOnce {
            inner: Direct::new(),
            round: 0,
            sends: 0,
            nth: Some(nth),
            opened: Vec::new(),
            planned: Vec::new(),
        }
    }

    impl Exchange for FailOnce {
        type Error = String;

        fn begin_round(&mut self, round: u64, _: &RoundCtx<'_>) {
            (self.inner, self.round, self.sends) = (Direct::new(), round, 0);
            self.opened.push(round);
        }

        fn send(&mut self, from: usize, to: Node, payload: Payload) -> Result<u64, String> {
            self.sends += 1;
            if self.round == 2 && self.nth == Some(self.sends) {
                self.nth = None;
                return Err(format!("send {} of round 2 refused", self.sends));
            }
            Ok(self
                .inner
                .send(from, to, payload)
                .unwrap_or_else(|e| match e {}))
        }

        fn recv(&mut self, at: Node, from: usize, want: Shape) -> Result<Payload, String> {
            Ok(self
                .inner
                .recv(at, from, want)
                .unwrap_or_else(|e| match e {}))
        }

        fn resync(
            &mut self,
            round: u64,
            joiner: usize,
            peers: &[usize],
            flat_of: &dyn Fn(usize) -> Vec<f32>,
        ) -> Result<Vec<f32>, String> {
            let flat = self.inner.resync(round, joiner, peers, flat_of);
            Ok(flat.unwrap_or_else(|e| match e {}))
        }

        fn announce(
            &mut self,
            to: &[usize],
            notice: &Arc<Notice>,
        ) -> Result<Vec<Arc<Notice>>, String> {
            self.planned.push(notice.round);
            Ok(vec![Arc::clone(notice); to.len()])
        }
    }

    /// Rounds 0–1 succeed; round 2 fails on the fabric's refused send
    /// and is retried. The failed attempt leaves the round count and the
    /// accountant as they were: the retry is opened as round 2 and the
    /// export after it is stamped 3.
    fn a_failed_round_does_not_count<A: Algorithm>(trainer: &mut Rounds<A, FailOnce>) {
        let workers = trainer.worker_count();
        let bw = BandwidthMatrix::constant(workers, 1.0);
        let mut traffic = TrafficAccountant::new(workers);
        let step = |trainer: &mut Rounds<A, FailOnce>, traffic: &mut _, round| {
            trainer.try_step(&mut RoundCtx::new(round, &bw, traffic, 0))
        };
        let billed = |t: &TrafficAccountant| {
            let rows: Vec<u64> = (0..workers).map(|w| t.worker_total(w)).collect();
            (rows, t.server_total(), t.rounds().len())
        };
        step(trainer, &mut traffic, 0).unwrap();
        step(trainer, &mut traffic, 1).unwrap();
        let before = billed(&traffic);
        let err = step(trainer, &mut traffic, 2).unwrap_err();
        assert!(err.contains("refused"), "{err}");
        assert_eq!(billed(&traffic), before, "the failed round was billed");
        step(trainer, &mut traffic, 2).unwrap();
        assert_eq!(trainer.fabric().opened, [0, 1, 2, 2]);
        let (_, stamp) = checkpoint::decode(trainer.export_checkpoint().unwrap().into()).unwrap();
        assert_eq!(stamp, 3);
    }

    fn model(rng: &mut StdRng) -> Model {
        zoo::mlp(&[16, 12, 4], rng)
    }

    fn parts() -> Vec<Dataset> {
        let ds = SyntheticSpec::tiny().samples(400).generate(1);
        partition::iid(&ds, 4, 9)
    }

    #[test]
    fn a_failed_round_is_replanned_and_restamped_with_its_own_index() {
        // SAPS-PSGD: the second masked payload of round 2 is refused;
        // the coordinator plans round 2 again.
        let cfg = SapsConfig {
            workers: 4,
            compression: 4.0,
            lr: 0.1,
            batch_size: 16,
            ..SapsConfig::default()
        };
        let bw = BandwidthMatrix::constant(4, 1.0);
        let mut saps = SapsPsgd::over(cfg, parts(), &bw, model, fail_once(2)).unwrap();
        a_failed_round_does_not_count(&mut saps);
        assert_eq!(saps.fabric().planned, [0, 1, 2, 2]);

        // D-PSGD: four stats reports and one billed ring send leave
        // before the sixth send of round 2 is refused.
        let fleet = Fleet::with_partitions(parts(), model, 9, 16, 0.1).unwrap();
        let mut ring = Rounds::of(RingGossip, fleet, fail_once(6)).unwrap();
        a_failed_round_does_not_count(&mut ring);
    }

    #[test]
    fn stats_fold_in_the_listed_order_and_cost_nothing() {
        let mut x = Direct::new();
        let per_worker = [(0, (1.0, 0.5)), (3, (2.0, 0.25))];
        assert_eq!(reduce_stats(&mut x, &per_worker), Ok((3.0, 0.75)));
        assert_eq!(
            Payload::Stats {
                loss: 1.0,
                acc: 0.5
            }
            .value_bytes(),
            0
        );
    }
}
