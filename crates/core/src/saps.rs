//! SAPS-PSGD wired together: Algorithms 1 + 2 + 3 as one [`Algorithm`]
//! run by [`Rounds`], generic over the [`Exchange`] fabric that carries
//! the coordinator's plan, the workers' masked payloads and their
//! acknowledgements.

use crate::exchange::{Direct, Exchange, Node, Notice, Payload};
use crate::fleet::{round_report, Fleet};
use crate::rounds::{churn, Algorithm, Rounds};
use crate::{ConfigError, RoundCtx, RoundReport, SapsControl, WorkerState};
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
#[derive(Debug)]
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

/// The SAPS-PSGD trainer: a coordinator plus `n` workers, exchanging
/// shared-seed sparse models over adaptively selected peers — the
/// [`Saps`] algorithm run by [`Rounds`].
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
pub type SapsPsgd<X = Direct> = Rounds<Saps, X>;

/// SAPS-PSGD's own state: the compression ratio, the coordinator's
/// [`SapsControl`], the workers' shared-seed mask and the ranks expelled
/// by byzantine recovery.
#[derive(Debug)]
pub struct Saps {
    compression: f64,
    control: SapsControl,
    mask: RoundMask,
    /// Ranks expelled by byzantine recovery; they take no part in any
    /// later round and cannot rejoin.
    quarantined: BTreeSet<usize>,
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
        let (n, n_parts, n_bw) = (cfg.workers, parts.len(), bw.len());
        if (n_parts, n_bw) != (n, n) {
            let why = format!("{n_parts} partitions and bandwidths over {n_bw} for {n} workers");
            return Err(ConfigError::invalid("SapsConfig", why));
        }
        let fleet = Fleet::with_partitions(parts, factory, cfg.seed, cfg.batch_size, cfg.lr)?;
        let mut control = SapsControl::new(bw, cfg.bthres, cfg.tthres, cfg.seed);
        control.set_shard_size(cfg.shard_size);
        let saps = Saps {
            compression: cfg.compression,
            control,
            mask: RoundMask {
                mask: RandomMask::from_indices(fleet.n_params(), Vec::new()),
                derived_from: None,
            },
            quarantined: BTreeSet::new(),
        };
        Rounds::of(saps, fleet, fabric)
    }

    /// Overwrites one worker's model from a flat parameter vector —
    /// restoring from a [`crate::checkpoint`], or re-seeding a joiner
    /// with the current consensus model.
    pub fn set_worker_model(&mut self, rank: usize, flat: &[f32]) {
        assert_eq!(flat.len(), self.fleet.n_params(), "flat parameter size");
        self.fleet.worker_mut(rank).set_flat(flat);
    }

    /// Ranks expelled by byzantine recovery, ascending.
    pub fn quarantined(&self) -> Vec<u32> {
        self.algo.quarantined.iter().map(|&r| r as u32).collect()
    }

    /// Brings (re)joined worker `rank` up to the fleet
    /// ([`Fleet::resync_joiner`]): the serving peers are ranked from
    /// the coordinator's current bandwidth snapshot — reachable links
    /// only, fastest first — and the fabric fetches the first one's
    /// parameters, which the worker installs. The donor is the same on
    /// every fabric.
    pub fn catch_up(&mut self, rank: usize) -> Result<(), ConfigError> {
        let bw = self.algo.control.bandwidth_snapshot();
        self.fleet
            .resync_joiner(&mut self.x, self.t, rank, Some(bw))
    }
}

impl Saps {
    /// One attempt at round `t`: Algorithm 1's plan, Algorithm 2 on
    /// every active worker, the "ROUND END" fold. Charges the
    /// accountant only once every exchange succeeded, so an aborted
    /// attempt bills nothing.
    fn attempt<X: Exchange>(
        &mut self,
        fleet: &mut Fleet,
        x: &mut X,
        t: u64,
        ctx: &mut RoundCtx<'_>,
    ) -> Result<RoundReport, X::Error> {
        let (n_params, c) = (fleet.n_params(), self.compression);
        let Saps { control, mask, .. } = self;
        let ranks = fleet.active_ranks();
        let plan = control.begin_round();
        assert_eq!(plan.round, t, "the coordinator plans round t");
        // The matching is over active-subset indices; translate to
        // global ranks.
        let pairs = control.global_pairs(&plan.matching);

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
}

impl Algorithm for Saps {
    const NAME: &'static str = "SAPS-PSGD";

    /// Round `t`, surfacing fabric faults as typed errors — including
    /// the fabric's fatal form of a byzantine fault whose offender the
    /// fleet refused to expel (it would drop below the control plane's
    /// minimum). A failed attempt takes its plan back; each recovery
    /// shrinks the active fleet by one, so the replay loop terminates.
    fn round<X: Exchange>(
        &mut self,
        fleet: &mut Fleet,
        x: &mut X,
        t: u64,
        ctx: &mut RoundCtx<'_>,
    ) -> Result<RoundReport, X::Error> {
        // Only a fabric that can fail needs something to roll back to.
        let fallible = TypeId::of::<X::Error>() != TypeId::of::<Infallible>();
        loop {
            let saved: Vec<(usize, WorkerState)> = if fallible {
                let active = fleet.active_ranks().into_iter();
                active.map(|r| (r, fleet.worker(r).save_state())).collect()
            } else {
                Vec::new()
            };
            let err = match self.attempt(fleet, x, t, ctx) {
                Ok(rep) => return Ok(rep),
                Err(err) => err,
            };
            self.control.abort_round();
            let Some(rank) = x.blamed(&err) else {
                return Err(err);
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
                fleet.worker_mut(*r).rollback(state);
            }
            x.discard_in_flight(fleet.len())?;
            // The aborted plan was taken back and the offender is
            // expelled through the normal churn path, so the rebuilt
            // peer-selection state is the one a graceful leave produces.
            if let Err(why) = churn(self, fleet, x, t, rank, false) {
                return Err(x.refused(err, &why));
            }
            self.quarantined.insert(rank);
            x.begin_round(t, ctx);
        }
    }

    /// The average of the active workers' models as the coordinator
    /// computes it: every one is collected through the fabric
    /// (model-plane frames on a wire) and averaged in ascending rank
    /// order.
    fn consensus<X: Exchange>(
        &self,
        fleet: &Fleet,
        x: &mut X,
        t: u64,
    ) -> Result<Vec<f32>, X::Error> {
        fleet.average_model_via(|rank, flat| x.collect_model(rank, t, flat))
    }

    /// A quarantined rank is refused before anything is put on the
    /// fabric; any other request crosses it to the coordinator, which
    /// applies what it received.
    fn admit<X: Exchange>(
        &mut self,
        x: &mut X,
        rank: usize,
        active: bool,
    ) -> Result<(usize, bool), ConfigError> {
        if self.quarantined.contains(&rank) {
            return Err(ConfigError::invalid(
                "SapsPsgd",
                format!(
                    "worker {rank} is quarantined (expelled for byzantine traffic): \
                     its membership cannot change"
                ),
            ));
        }
        x.membership(rank, active)
            .map_err(|e| ConfigError::invalid("SapsPsgd", e.to_string()))
    }

    /// Peer selection replans over the active subset. Inactive workers
    /// keep their model and re-join where they left off.
    fn on_membership<X: Exchange>(
        &mut self,
        fleet: &mut Fleet,
        _: &mut X,
        _: u64,
        _: usize,
        _: bool,
    ) -> Result<(), ConfigError> {
        self.control.plan_over(fleet.active_ranks());
        Ok(())
    }

    /// The coordinator's bandwidth snapshot (the paper's periodically
    /// reported speed measurements) becomes the report that crossed the
    /// fabric, and peer selection rebuilds.
    fn on_bandwidth<X: Exchange>(&mut self, x: &mut X, bw: &BandwidthMatrix) {
        assert_eq!(bw.len(), self.control.bandwidth_snapshot().len());
        let reported = x
            .report_bandwidth(bw)
            .unwrap_or_else(|e| panic!("bandwidth report failed: {e}"));
        self.control.refresh_bandwidth(&reported);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trainer;
    use saps_data::SyntheticSpec;
    use saps_netsim::TrafficAccountant;
    use saps_nn::zoo;

    /// Squared consensus distance `Σ_i ‖x_i − x̄‖²` over active workers —
    /// the quantity Theorem 1 bounds.
    fn consensus_distance_sq(algo: &SapsPsgd) -> f64 {
        let avg = algo.fleet().average_model();
        let mut total = 0.0f64;
        for &r in &algo.fleet().active_ranks() {
            let f = algo.fleet().worker(r).flat();
            total += f
                .iter()
                .zip(&avg)
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>();
        }
        total
    }

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
        let f0 = algo.fleet().worker(0).flat();
        for r in 1..4 {
            assert_eq!(f0, algo.fleet().worker(r).flat());
        }
        assert!(consensus_distance_sq(&algo) < 1e-12);
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
        let d = consensus_distance_sq(&algo);
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
        assert_eq!(a.fleet().worker(2).flat(), b.fleet().worker(2).flat());
        assert_eq!(ta.worker_total(1), tb.worker_total(1));
    }

    #[test]
    fn churn_worker_leaves_and_rejoins() {
        let (mut algo, val, bw) = setup(6, 4.0);
        let mut traffic = TrafficAccountant::new(6);
        for _ in 0..10 {
            algo.round(&mut traffic, &bw);
        }
        algo.set_worker_active(5, false).unwrap();
        assert_eq!(algo.fleet().active_ranks().len(), 5);
        let frozen = algo.fleet().worker(5).flat();
        for _ in 0..10 {
            algo.round(&mut traffic, &bw);
        }
        // The inactive worker's model is untouched.
        assert_eq!(algo.fleet().worker(5).flat(), frozen);
        algo.set_worker_active(5, true).unwrap();
        for _ in 0..10 {
            algo.round(&mut traffic, &bw);
        }
        assert_ne!(algo.fleet().worker(5).flat(), frozen);
        let acc = algo.evaluate(&val, 200);
        assert!(acc > 0.25, "post-churn accuracy {acc}");
    }

    #[test]
    fn churn_guards_minimum_active_fleet() {
        let (mut algo, _, _) = setup(4, 10.0);
        algo.set_worker_active(0, false).unwrap();
        algo.set_worker_active(1, false).unwrap();
        // Two active workers left — dropping another must fail.
        assert!(algo.set_worker_active(2, false).is_err());
        assert!(algo.set_worker_active(9, false).is_err());
        assert_eq!(algo.fleet().active_ranks(), vec![2, 3]);
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
        algo.set_worker_active(2, false).unwrap(); // 5 active
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
