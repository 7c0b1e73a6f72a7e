//! SAPS-PSGD wired together: Algorithms 1 + 2 + 3 behind the [`Trainer`]
//! interface, generic over the [`Exchange`] fabric that carries the
//! coordinator's plan, the workers' masked payloads and their
//! acknowledgements.

use crate::exchange::{Direct, Exchange, Node, Notice, Payload};
use crate::fleet::{round_report, Fleet};
use crate::{ConfigError, RoundCtx, RoundReport, SapsControl, Trainer, Worker, WorkerState};
use rand::rngs::StdRng;
use saps_compress::codec;
use saps_compress::mask::RandomMask;
use saps_data::{partition, Dataset};
use saps_netsim::BandwidthMatrix;
use saps_nn::Model;
use saps_tensor::rng::{derive_seed, streams};
use std::any::TypeId;
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::Arc;

/// Configuration of a SAPS-PSGD run.
#[derive(Debug, Clone, PartialEq)]
pub struct SapsConfig {
    /// Number of workers `n`.
    pub workers: usize,
    /// Compression ratio `c` (keep probability `1/c`). The paper uses 100.
    pub compression: f64,
    /// Learning rate γ.
    pub lr: f32,
    /// Mini-batch size per worker per round.
    pub batch_size: usize,
    /// Bandwidth threshold `B_thres`; `None` auto-selects the largest
    /// threshold that keeps `B*` connected.
    pub bthres: Option<f64>,
    /// RC window `T_thres` of Algorithm 3 (rounds).
    pub tthres: u32,
    /// Experiment seed; all randomness derives from it.
    pub seed: u64,
    /// Round-planning shard ceiling: `Some(s)` computes Algorithm 1's
    /// matching per bandwidth-partition (splitting partitions larger
    /// than `s`), so planning is O(s³) per shard instead of O(n³)
    /// global — required for 1k+-worker fleets. `None` keeps the
    /// monolithic pass.
    pub shard_size: Option<usize>,
}

impl Default for SapsConfig {
    fn default() -> Self {
        SapsConfig {
            workers: 32,
            compression: 100.0,
            lr: 0.05,
            batch_size: 50,
            bthres: None,
            tthres: 10,
            seed: 0,
            shard_size: None,
        }
    }
}

impl SapsConfig {
    /// Checks the configuration is internally consistent.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers < 2 {
            return Err(ConfigError::invalid(
                "SapsConfig",
                "need at least two workers",
            ));
        }
        if !(self.compression >= 1.0 && self.compression.is_finite()) {
            return Err(ConfigError::invalid(
                "SapsConfig",
                format!(
                    "compression {} must be a finite ratio >= 1",
                    self.compression
                ),
            ));
        }
        if self.tthres == 0 {
            return Err(ConfigError::invalid("SapsConfig", "tthres must be >= 1"));
        }
        if self.batch_size == 0 {
            return Err(ConfigError::invalid(
                "SapsConfig",
                "batch_size must be >= 1",
            ));
        }
        if let Some(s) = self.shard_size {
            if s < 2 {
                return Err(ConfigError::invalid(
                    "SapsConfig",
                    "shard_size must be >= 2 (a shard needs two workers to pair)",
                ));
            }
        }
        Ok(())
    }
}

/// The shared-seed mask `m_t` (Algorithm 2 line 6). Every worker
/// derives it from the `(s, t)` of the notice *it* heard; the index
/// buffer is regenerated in place, and only when a notice names another
/// `(s, t)` than the last one asked for — once per round when everyone
/// heard the same plan.
struct RoundMask {
    mask: RandomMask,
    derived_from: Option<(u64, u64)>,
}

impl RoundMask {
    fn of(&mut self, n_params: usize, compression: f64, heard: &Notice) -> &RandomMask {
        let key = (heard.mask_seed, heard.round);
        if self.derived_from != Some(key) {
            self.mask
                .regenerate(n_params, compression, heard.mask_seed, heard.round);
            self.derived_from = Some(key);
        }
        &self.mask
    }
}

/// The SAPS-PSGD algorithm: a coordinator plus `n` workers, exchanging
/// shared-seed sparse models over adaptively selected peers.
///
/// Generic over the [`Exchange`] fabric like every baseline: with
/// [`Direct`] (the default) plans, payloads and acknowledgements are
/// handed over in memory; over `saps_cluster::Framed` the same round
/// body runs through real `saps-proto` frames. There is no second
/// implementation, so a wire run is bit-identical to an in-memory one
/// by construction.
///
/// **Byzantine tolerance** (only a fabric that can fail needs it): when
/// a round attempt dies on an error that [`Exchange::blamed`] pins on
/// one worker, every worker rolls back to the round's start (parameters
/// and batch RNG), what is in flight is discarded, the offender is
/// expelled through the normal churn path and the round replays without
/// it. Peer selection rebuilds as a pure function of the active set, so
/// honest workers end bit-identical to a run where the offender left
/// gracefully.
pub struct SapsPsgd<X: Exchange = Direct> {
    cfg: SapsConfig,
    control: SapsControl,
    fleet: Fleet,
    mask: RoundMask,
    /// Ranks expelled by byzantine recovery; they take no part in any
    /// later round and cannot rejoin.
    quarantined: BTreeSet<usize>,
    x: X,
}

impl<X: Exchange> std::fmt::Debug for SapsPsgd<X> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SapsPsgd")
            .field("cfg", &self.cfg)
            .field("fleet", &self.fleet)
            .finish()
    }
}

impl SapsPsgd {
    /// Creates the algorithm with an IID partition of `train`;
    /// exchanges stay in memory.
    ///
    /// `factory` builds one model replica from a seeded RNG; it is called
    /// once per worker with identically seeded RNGs so all replicas start
    /// from the same parameters (making `‖X_0 − X̄_0‖² = 0`, the
    /// consensus-friendly initialization the paper's Theorem 1 remarks
    /// on).
    pub fn new(
        cfg: SapsConfig,
        train: &Dataset,
        bw: &BandwidthMatrix,
        factory: impl Fn(&mut StdRng) -> Model,
    ) -> Result<Self, ConfigError> {
        let parts = partition::iid(train, cfg.workers, derive_seed(cfg.seed, 0, streams::DATA));
        Self::with_partitions(cfg, parts, bw, factory)
    }

    /// Creates the algorithm with explicit per-worker datasets (use
    /// [`saps_data::partition::dirichlet`] or
    /// [`saps_data::partition::shards`] for non-IID experiments);
    /// exchanges stay in memory.
    pub fn with_partitions(
        cfg: SapsConfig,
        parts: Vec<Dataset>,
        bw: &BandwidthMatrix,
        factory: impl Fn(&mut StdRng) -> Model,
    ) -> Result<Self, ConfigError> {
        Self::over(cfg, parts, bw, factory, Direct::new())
    }
}

impl<X: Exchange> SapsPsgd<X> {
    /// Creates the algorithm with explicit per-worker datasets,
    /// exchanging over `fabric`.
    pub fn over(
        cfg: SapsConfig,
        parts: Vec<Dataset>,
        bw: &BandwidthMatrix,
        factory: impl Fn(&mut StdRng) -> Model,
        fabric: X,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if parts.len() != cfg.workers {
            return Err(ConfigError::invalid(
                "SapsConfig",
                format!(
                    "{} partitions for {} workers (need one each)",
                    parts.len(),
                    cfg.workers
                ),
            ));
        }
        if bw.len() != cfg.workers {
            return Err(ConfigError::invalid(
                "SapsConfig",
                format!(
                    "bandwidth matrix covers {} workers, config has {}",
                    bw.len(),
                    cfg.workers
                ),
            ));
        }
        let fleet = Fleet::with_partitions(parts, factory, cfg.seed, cfg.batch_size, cfg.lr)?;
        let mut control = SapsControl::new(bw, cfg.bthres, cfg.tthres, cfg.seed);
        control.set_shard_size(cfg.shard_size);
        Ok(SapsPsgd {
            cfg,
            control,
            mask: RoundMask {
                mask: RandomMask::from_indices(fleet.n_params(), Vec::new()),
                derived_from: None,
            },
            fleet,
            quarantined: BTreeSet::new(),
            x: fabric,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SapsConfig {
        &self.cfg
    }

    /// The fabric the exchanges run over.
    pub fn fabric(&self) -> &X {
        &self.x
    }

    /// Mutable access to the fabric (an orderly wire shutdown).
    pub fn fabric_mut(&mut self) -> &mut X {
        &mut self.x
    }

    /// Direct access to a worker (tests, churn experiments).
    pub fn worker(&self, rank: usize) -> &Worker {
        self.fleet.worker(rank)
    }

    /// Overwrites one worker's model from a flat parameter vector —
    /// restoring from a [`crate::checkpoint`], or re-seeding a joiner
    /// with the current consensus model.
    pub fn set_worker_model(&mut self, rank: usize, flat: &[f32]) {
        assert_eq!(flat.len(), self.fleet.n_params(), "flat parameter size");
        self.fleet.worker_mut(rank).set_flat(flat);
    }

    /// Marks a worker active/inactive (join/leave churn): the request
    /// crosses the fabric to the coordinator, which applies what it
    /// received to the fleet's membership and replans peer selection
    /// over the active subset. Inactive workers keep their model and
    /// re-join where they left off.
    ///
    /// A quarantined rank is refused before anything is put on the
    /// fabric; the coordinator refuses a rank that is out of range and a
    /// deactivation that would leave fewer than two active workers
    /// ([`Fleet::set_active`]).
    pub fn set_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError> {
        if self.quarantined.contains(&rank) {
            return Err(ConfigError::invalid(
                "SapsPsgd",
                format!(
                    "worker {rank} is quarantined (expelled for byzantine traffic): \
                     its membership cannot change"
                ),
            ));
        }
        let (rank, active) = self
            .x
            .membership(rank, active)
            .map_err(|e| ConfigError::invalid("SapsPsgd", e.to_string()))?;
        self.fleet.set_active(rank, active, 2)?;
        self.control.plan_over(self.fleet.active_ranks());
        Ok(())
    }

    /// Updates the coordinator's bandwidth snapshot (the paper's
    /// periodically reported speed measurements) with the report that
    /// crossed the fabric, and rebuilds peer selection.
    pub fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        assert_eq!(bw.len(), self.fleet.len());
        let reported = self
            .x
            .report_bandwidth(bw)
            .unwrap_or_else(|e| panic!("bandwidth report failed: {e}"));
        self.control.refresh_bandwidth(&reported);
    }

    /// Ranks of currently active workers.
    pub fn active_ranks(&self) -> Vec<usize> {
        self.fleet.active_ranks()
    }

    /// Ranks expelled by byzantine recovery, ascending.
    pub fn quarantined(&self) -> Vec<u32> {
        self.quarantined.iter().map(|&r| r as u32).collect()
    }

    /// The consensus (average) model over active workers, read straight
    /// from the workers (diagnostics; what the *coordinator* averages
    /// is [`SapsPsgd::consensus_model`]).
    pub fn average_model(&self) -> Vec<f32> {
        self.fleet.average_model()
    }

    /// The consensus (average) model as the coordinator computes it:
    /// every active worker's model is collected through the fabric
    /// (model-plane frames on a wire) and averaged in ascending rank
    /// order.
    pub fn consensus_model(&mut self) -> Result<Vec<f32>, X::Error> {
        let stamp = self.control.rounds_done();
        let x = &mut self.x;
        self.fleet
            .average_model_via(|rank, flat| x.collect_model(rank, stamp, flat))
    }

    /// Squared consensus distance `Σ_i ‖x_i − x̄‖²` over active workers —
    /// the quantity Theorem 1 bounds.
    pub fn consensus_distance_sq(&self) -> f64 {
        let avg = self.average_model();
        let mut total = 0.0f64;
        for &r in &self.active_ranks() {
            let f = self.worker(r).flat();
            total += f
                .iter()
                .zip(&avg)
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>();
        }
        total
    }

    /// Brings (re)joined worker `rank` up to the fleet
    /// ([`Fleet::resync_joiner`]): the serving peers are ranked from
    /// the coordinator's current bandwidth snapshot — reachable links
    /// only, fastest first — and the fabric fetches the first one's
    /// parameters, which the worker installs. The donor is the same on
    /// every fabric.
    pub fn catch_up(&mut self, rank: usize) -> Result<(), ConfigError> {
        let round = self.control.rounds_done();
        let bw = self.control.bandwidth_snapshot();
        self.fleet.resync_joiner(&mut self.x, round, rank, Some(bw))
    }

    /// One attempt at a round: Algorithm 1's plan, Algorithm 2 on every
    /// active worker, the "ROUND END" fold. Charges the accountant only
    /// once every exchange succeeded, so an aborted attempt bills
    /// nothing.
    fn attempt(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, X::Error> {
        let SapsPsgd {
            cfg,
            control,
            fleet,
            mask,
            x,
            ..
        } = self;
        let (n_params, c) = (fleet.n_params(), cfg.compression);
        let ranks = fleet.active_ranks();
        let plan = control.begin_round();
        // The matching is over active-subset indices; translate to
        // global ranks.
        let pairs = control.global_pairs(&plan.matching);
        x.begin_round(plan.round, ctx);

        // Algorithm 1 line 6: NotifyWorkerToTrain(W_t, t, s). From here
        // on every worker acts on the notice *it* heard.
        let notice = Arc::new(Notice {
            round: plan.round,
            mask_seed: plan.mask_seed,
            pairs: pairs.iter().map(|&(a, b)| (a as u32, b as u32)).collect(),
        });
        let heard = x.announce(&ranks, &notice)?;

        // Local SGD on every active worker (Algorithm 2 line 5) — the
        // compute phase, fanned out across the round executor. Each
        // worker owns its model/data/RNG, and the results are reduced in
        // rank order, so any thread count yields identical numbers.
        let stats = fleet.sgd_step_all_on(&ctx.exec);

        // `(worker, the mate its notice names, that notice)` in plan
        // order — the order transfers are priced in.
        let matched: Vec<(usize, usize, &Notice)> = pairs
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .filter_map(|r| {
                let heard: &Notice = &heard[ranks.binary_search(&r).ok()?];
                Some((r, heard.mate_of(r)?, heard))
            })
            .collect();

        // Lines 6–8: derive the shared-seed mask and ship x̃ = x ∘ m_t
        // (values only) to the mate — every payload leaves before any
        // merge, so all are cut from the post-SGD models.
        let mut billed = Vec::with_capacity(matched.len());
        let mut priced = Vec::with_capacity(matched.len());
        for &(src, dst, heard) in &matched {
            let mask = mask.of(n_params, c, heard);
            let mut values = Vec::with_capacity(mask.nnz());
            fleet.worker_mut(src).sparse_payload_into(mask, &mut values);
            billed.push((src, dst, codec::sparse_shared_mask_bytes(values.len())));
            let on_link = x.send(src, Node::Worker(dst), Payload::Masked(values))?;
            priced.push((src, dst, on_link));
        }
        // Lines 9–10: average the mate's payload into the local model on
        // the masked coordinates.
        for &(at, from, heard) in &matched {
            let mask = mask.of(n_params, c, heard);
            let theirs = x.recv_masked(Node::Worker(at), from, mask.nnz())?;
            fleet.worker_mut(at).merge_sparse(mask, &theirs);
        }

        // "ROUND END": every active worker reports its batch statistics
        // (the `f32`s it computed — widening them was exact) and the
        // coordinator folds what it received, ascending rank, in `f64`.
        let acks = stats
            .into_iter()
            .map(|(r, (loss, acc))| (r, (loss as f32, acc as f32)))
            .collect();
        let acks = x.acknowledge(acks)?;
        let (mut loss, mut acc) = (0.0f64, 0.0f64);
        for &(_, (l, a)) in &acks {
            loss += l as f64;
            acc += a as f64;
        }
        let reported = acks.len().max(1) as f64;

        for (src, dst, value_bytes) in billed {
            ctx.traffic.record_p2p(src, dst, value_bytes);
        }
        let timing = ctx.price_p2p(&priced);
        // Link mean / min over the plan-ordered pairs.
        let (mut link_sum, mut link_min) = (0.0f64, f64::INFINITY);
        for &(a, b) in &pairs {
            link_sum += ctx.bw.get(a, b);
            link_min = link_min.min(ctx.bw.get(a, b));
        }
        let links = if pairs.is_empty() {
            (0.0, 0.0)
        } else {
            (link_sum / pairs.len() as f64, link_min)
        };
        Ok(round_report(
            ((loss / reported) as f32, (acc / reported) as f32),
            &timing,
            fleet.epochs_per_round(),
            links,
        ))
    }

    /// Runs one round, surfacing fabric faults as typed errors —
    /// including the fabric's fatal form of a byzantine fault whose
    /// offender the fleet refused to expel (it would drop below the
    /// control plane's minimum). Each recovery shrinks the active fleet
    /// by one, so the replay loop terminates.
    pub fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, X::Error> {
        // Only a fabric that can fail needs something to roll back to.
        let fallible = TypeId::of::<X::Error>() != TypeId::of::<Infallible>();
        loop {
            let saved: Vec<(usize, WorkerState)> = if fallible {
                let active = self.active_ranks().into_iter();
                active.map(|r| (r, self.worker(r).save_state())).collect()
            } else {
                Vec::new()
            };
            let stepped = self.attempt(ctx);
            let offender = stepped.as_ref().err().and_then(|e| self.x.blamed(e));
            let (err, rank) = match (stepped, offender) {
                (Err(err), Some(rank)) => (err, rank),
                (stepped, _) => {
                    let rep = self.x.end_round(ctx, stepped)?;
                    ctx.traffic.end_round();
                    return Ok(rep);
                }
            };
            // Flight-recorder contract: the quarantine event names the
            // offender, then the dump freezes it together with the
            // trail of preceding rounds.
            ctx.telemetry.add("cluster.quarantines", 1);
            ctx.telemetry.event(
                "byzantine.quarantine",
                Some(ctx.round() as u64),
                vec![("rank", rank.into()), ("detail", err.to_string().into())],
            );
            ctx.telemetry.crash_dump("byzantine quarantine");
            for (r, state) in &saved {
                self.fleet.worker_mut(*r).rollback(state);
            }
            self.control.abort_round();
            self.x.discard_in_flight(self.fleet.len())?;
            // The aborted plan is taken back and the offender expelled
            // through the normal churn path, so the rebuilt
            // peer-selection state is the one a graceful leave produces.
            if let Err(why) = self.set_active(rank, false) {
                return Err(self.x.refused(err, &why));
            }
            self.quarantined.insert(rank);
        }
    }
}

impl<X: Exchange> Trainer for SapsPsgd<X> {
    fn name(&self) -> &'static str {
        "SAPS-PSGD"
    }

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        self.try_step(ctx)
            .unwrap_or_else(|e| panic!("SAPS-PSGD round failed: {e}"))
    }

    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        let avg = self
            .consensus_model()
            .unwrap_or_else(|e| panic!("model collection failed: {e}"));
        self.fleet.evaluate_flat(&avg, val, max_samples)
    }

    fn model_len(&self) -> usize {
        self.fleet.n_params()
    }

    fn worker_count(&self) -> usize {
        self.fleet.len()
    }

    fn set_worker_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError> {
        self.set_active(rank, active)
    }

    fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        SapsPsgd::refresh_bandwidth(self, bw);
    }

    fn export_checkpoint(&mut self) -> Result<Vec<u8>, ConfigError> {
        let avg = self
            .consensus_model()
            .map_err(|e| ConfigError::invalid("SapsPsgd", e.to_string()))?;
        Ok(crate::checkpoint::encode(&avg, self.control.rounds_done()).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saps_data::SyntheticSpec;
    use saps_netsim::TrafficAccountant;
    use saps_nn::zoo;

    fn setup(workers: usize, c: f64) -> (SapsPsgd, Dataset, BandwidthMatrix) {
        let ds = SyntheticSpec::tiny().samples(1_600).generate(1);
        let (train, val) = ds.split(0.2, 0);
        let bw = BandwidthMatrix::constant(workers, 1.0);
        let cfg = SapsConfig {
            workers,
            compression: c,
            lr: 0.1,
            batch_size: 20,
            tthres: 5,
            ..SapsConfig::default()
        };
        let algo = SapsPsgd::new(cfg, &train, &bw, |rng| zoo::mlp(&[16, 24, 4], rng)).unwrap();
        (algo, val, bw)
    }

    #[test]
    fn workers_start_identical() {
        let (algo, _, _) = setup(4, 10.0);
        let f0 = algo.worker(0).flat();
        for r in 1..4 {
            assert_eq!(f0, algo.worker(r).flat());
        }
        assert!(algo.consensus_distance_sq() < 1e-12);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ds = SyntheticSpec::tiny().samples(200).generate(1);
        let bw = BandwidthMatrix::constant(1, 1.0);
        let cfg = SapsConfig {
            workers: 1,
            ..SapsConfig::default()
        };
        assert!(SapsPsgd::new(cfg, &ds, &bw, |rng| zoo::mlp(&[16, 8, 4], rng)).is_err());
        let bw = BandwidthMatrix::constant(4, 1.0);
        let cfg = SapsConfig {
            workers: 4,
            compression: 0.5,
            ..SapsConfig::default()
        };
        assert!(SapsPsgd::new(cfg, &ds, &bw, |rng| zoo::mlp(&[16, 8, 4], rng)).is_err());
        let cfg = SapsConfig {
            workers: 4,
            ..SapsConfig::default()
        };
        let small = BandwidthMatrix::constant(3, 1.0);
        assert!(SapsPsgd::new(cfg, &ds, &small, |rng| zoo::mlp(&[16, 8, 4], rng)).is_err());
    }

    #[test]
    fn round_reports_sane_numbers() {
        let (mut algo, _, bw) = setup(4, 10.0);
        let mut traffic = TrafficAccountant::new(4);
        let rep = algo.round(&mut traffic, &bw);
        assert!(rep.mean_loss.is_finite());
        assert!(rep.comm_time_s > 0.0);
        assert!(rep.epochs_advanced > 0.0);
        assert!((rep.mean_link_bandwidth - 1.0).abs() < 1e-9);
        // Each worker exchanged one sparse payload both ways.
        let expected = 2 * traffic.rounds()[0].max_worker_sent;
        assert_eq!(traffic.worker_total(0), expected);
    }

    #[test]
    fn traffic_matches_mask_nnz() {
        let (mut algo, _, bw) = setup(4, 4.0);
        let mut traffic = TrafficAccountant::new(4);
        algo.round(&mut traffic, &bw);
        // Payload = 4 bytes per kept coordinate; nnz ≈ N/4.
        let n = algo.model_len() as f64;
        let sent = traffic.worker_sent(0) as f64;
        assert!(
            (sent / (4.0 * n / 4.0) - 1.0).abs() < 0.35,
            "sent {sent}, N {n}"
        );
    }

    #[test]
    fn training_improves_accuracy() {
        let (mut algo, val, bw) = setup(4, 4.0);
        let mut traffic = TrafficAccountant::new(4);
        let before = algo.evaluate(&val, 300);
        for _ in 0..120 {
            algo.round(&mut traffic, &bw);
        }
        let after = algo.evaluate(&val, 300);
        assert!(
            after > before + 0.2,
            "accuracy {before} -> {after} (chance 0.25)"
        );
    }

    #[test]
    fn consensus_distance_stays_bounded() {
        let (mut algo, _, bw) = setup(8, 4.0);
        let mut traffic = TrafficAccountant::new(8);
        for _ in 0..60 {
            algo.round(&mut traffic, &bw);
        }
        let d = algo.consensus_distance_sq();
        // Workers drift apart through local SGD but the gossip keeps them
        // within a modest envelope.
        assert!(d.is_finite() && d < 50.0, "consensus distance {d}");
    }

    #[test]
    fn deterministic_runs() {
        let (mut a, _, bw) = setup(4, 10.0);
        let (mut b, _, _) = setup(4, 10.0);
        let mut ta = TrafficAccountant::new(4);
        let mut tb = TrafficAccountant::new(4);
        for _ in 0..5 {
            a.round(&mut ta, &bw);
            b.round(&mut tb, &bw);
        }
        assert_eq!(a.worker(2).flat(), b.worker(2).flat());
        assert_eq!(ta.worker_total(1), tb.worker_total(1));
    }

    #[test]
    fn churn_worker_leaves_and_rejoins() {
        let (mut algo, val, bw) = setup(6, 4.0);
        let mut traffic = TrafficAccountant::new(6);
        for _ in 0..10 {
            algo.round(&mut traffic, &bw);
        }
        algo.set_active(5, false).unwrap();
        assert_eq!(algo.active_ranks().len(), 5);
        let frozen = algo.worker(5).flat();
        for _ in 0..10 {
            algo.round(&mut traffic, &bw);
        }
        // The inactive worker's model is untouched.
        assert_eq!(algo.worker(5).flat(), frozen);
        algo.set_active(5, true).unwrap();
        for _ in 0..10 {
            algo.round(&mut traffic, &bw);
        }
        assert_ne!(algo.worker(5).flat(), frozen);
        let acc = algo.evaluate(&val, 200);
        assert!(acc > 0.25, "post-churn accuracy {acc}");
    }

    #[test]
    fn churn_guards_minimum_active_fleet() {
        let (mut algo, _, _) = setup(4, 10.0);
        algo.set_active(0, false).unwrap();
        algo.set_active(1, false).unwrap();
        // Two active workers left — dropping another must fail.
        assert!(algo.set_active(2, false).is_err());
        assert!(algo.set_active(9, false).is_err());
        assert_eq!(algo.active_ranks(), vec![2, 3]);
    }

    #[test]
    fn odd_worker_count_trains_with_one_idle_per_round() {
        let (mut algo, val, bw) = setup(5, 4.0);
        let mut traffic = TrafficAccountant::new(5);
        for _ in 0..80 {
            let rep = algo.round(&mut traffic, &bw);
            assert!(rep.mean_loss.is_finite());
        }
        // Every round matches 2 pairs, leaving one worker out; over many
        // rounds everyone must still have communicated.
        for r in 0..5 {
            assert!(traffic.worker_sent(r) > 0, "worker {r} never exchanged");
        }
        let acc = algo.evaluate(&val, 300);
        assert!(acc > 0.4, "odd-fleet accuracy {acc}");
    }

    #[test]
    fn churn_to_odd_active_count() {
        let (mut algo, _, bw) = setup(6, 4.0);
        let mut traffic = TrafficAccountant::new(6);
        algo.set_active(2, false).unwrap(); // 5 active
        for _ in 0..20 {
            let rep = algo.round(&mut traffic, &bw);
            assert!(rep.mean_loss.is_finite());
        }
        assert_eq!(traffic.worker_total(2), 0, "inactive worker exchanged");
    }

    #[test]
    fn compression_reduces_traffic_proportionally() {
        let (mut lo, _, bw) = setup(4, 2.0);
        let (mut hi, _, _) = setup(4, 20.0);
        let mut tl = TrafficAccountant::new(4);
        let mut th = TrafficAccountant::new(4);
        for _ in 0..10 {
            lo.round(&mut tl, &bw);
            hi.round(&mut th, &bw);
        }
        let ratio = tl.worker_total(0) as f64 / th.worker_total(0) as f64;
        assert!(
            (ratio / 10.0 - 1.0).abs() < 0.25,
            "traffic ratio {ratio}, expected ~10"
        );
    }
}
