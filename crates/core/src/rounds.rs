//! The one round driver under all eight trainers: [`Rounds`] owns the
//! [`Fleet`], the [`Exchange`] fabric and the completed-round count `t`,
//! and implements [`Trainer`] once; an [`Algorithm`] supplies only what
//! differs between SAPS-PSGD and the seven baselines.

use crate::exchange::{Direct, Exchange};
use crate::{checkpoint, ConfigError, Fleet, RoundCtx, RoundReport, Trainer};
use saps_data::Dataset;
use saps_netsim::BandwidthMatrix;

/// What one distributed training algorithm adds to the shared round
/// driver [`Rounds`].
pub trait Algorithm {
    /// Algorithm name as the paper spells it (e.g. `"SAPS-PSGD"`).
    const NAME: &'static str;

    /// The fewest live workers a round can run on (3 for the rings),
    /// checked when the trainer is built and on every departure.
    const MIN_LIVE: usize = 2;

    /// Round `t` (the number of rounds completed before it) over the
    /// fleet's active workers: local computation plus the exchange over
    /// `x`. Charges worker rows to `ctx.traffic` and prices the round;
    /// the driver opens and closes the round around it.
    fn round<X: Exchange>(
        &mut self,
        fleet: &mut Fleet,
        x: &mut X,
        t: u64,
        ctx: &mut RoundCtx<'_>,
    ) -> Result<RoundReport, X::Error>;

    /// The consensus model after `t` completed rounds — what
    /// [`Trainer::evaluate`] scores and [`Trainer::export_checkpoint`]
    /// stamps. By default the average of the active workers' models.
    fn consensus<X: Exchange>(
        &self,
        fleet: &Fleet,
        x: &mut X,
        t: u64,
    ) -> Result<Vec<f32>, X::Error> {
        let _ = (x, t);
        Ok(fleet.average_model())
    }

    /// Vets a request that worker `rank` join (`active`) or leave,
    /// before the fleet applies it: refuses it, or returns the request
    /// as the fleet should apply it. By default it passes unchanged.
    fn admit<X: Exchange>(
        &mut self,
        x: &mut X,
        rank: usize,
        active: bool,
    ) -> Result<(usize, bool), ConfigError> {
        let _ = x;
        Ok((rank, active))
    }

    /// Called once the fleet applied a membership change of `rank`,
    /// after `t` completed rounds (a joiner's resync, say).
    fn on_membership<X: Exchange>(
        &mut self,
        fleet: &mut Fleet,
        x: &mut X,
        t: u64,
        rank: usize,
        active: bool,
    ) -> Result<(), ConfigError> {
        let _ = (fleet, x, t, rank, active);
        Ok(())
    }

    /// Called with fresh bandwidth measurements
    /// ([`Trainer::refresh_bandwidth`]). Most algorithms read `ctx.bw`
    /// each round instead and ignore it.
    fn on_bandwidth<X: Exchange>(&mut self, x: &mut X, bw: &BandwidthMatrix) {
        let _ = (x, bw);
    }
}

/// Algorithm `A` driven round by round over a [`Fleet`] and the fabric
/// `X` ([`Direct`] by default: exchanges stay in memory).
///
/// A round that fails leaves the completed-round count and the traffic
/// accountant as they were, so the next round is planned and stamped
/// with the same index.
pub struct Rounds<A, X = Direct> {
    pub(crate) algo: A,
    pub(crate) fleet: Fleet,
    pub(crate) x: X,
    pub(crate) t: u64,
}

/// A membership change through `algo`'s hooks — the one churn path,
/// shared by [`Trainer::set_worker_active`] and an algorithm expelling
/// a worker mid-round.
pub(crate) fn churn<A: Algorithm, X: Exchange>(
    algo: &mut A,
    fleet: &mut Fleet,
    x: &mut X,
    t: u64,
    rank: usize,
    active: bool,
) -> Result<(), ConfigError> {
    let (rank, active) = algo.admit(x, rank, active)?;
    fleet.set_active(rank, active, A::MIN_LIVE)?;
    algo.on_membership(fleet, x, t, rank, active)
}

impl<A: Algorithm, X: Exchange> Rounds<A, X> {
    /// Drives `algo` over `fleet`, exchanging over `fabric`. Fails if
    /// the fleet is smaller than [`Algorithm::MIN_LIVE`].
    pub fn of(algo: A, fleet: Fleet, fabric: X) -> Result<Self, ConfigError> {
        let (n, min) = (fleet.len(), A::MIN_LIVE);
        if n < min {
            let why = format!("needs at least {min} workers, got {n}");
            return Err(ConfigError::invalid(A::NAME, why));
        }
        Ok(Rounds {
            algo,
            fleet,
            x: fabric,
            t: 0,
        })
    }

    /// The algorithm's own state.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// The worker fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The fabric the exchanges run over.
    pub fn fabric(&self) -> &X {
        &self.x
    }

    /// Mutable access to the fabric (an orderly wire shutdown).
    pub fn fabric_mut(&mut self) -> &mut X {
        &mut self.x
    }

    /// Runs one round, surfacing fabric faults as the fabric's typed
    /// errors. A failed round bills nothing and does not count.
    pub fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, X::Error> {
        let Rounds { algo, fleet, x, t } = self;
        x.begin_round(*t, ctx);
        let stepped = algo.round(fleet, x, *t, ctx);
        match x.end_round(ctx, stepped) {
            Ok(rep) => {
                ctx.traffic.end_round();
                *t += 1;
                Ok(rep)
            }
            Err(e) => {
                ctx.traffic.discard_round();
                Err(e)
            }
        }
    }

    /// The algorithm's consensus model ([`Algorithm::consensus`]); on a
    /// wire, every model it averages is collected through the fabric.
    pub fn consensus_model(&mut self) -> Result<Vec<f32>, X::Error> {
        self.algo.consensus(&self.fleet, &mut self.x, self.t)
    }
}

impl<A: Algorithm, X: Exchange> Trainer for Rounds<A, X> {
    fn name(&self) -> &'static str {
        A::NAME
    }

    fn step(&mut self, ctx: &mut RoundCtx<'_>) -> RoundReport {
        Rounds::try_step(self, ctx).unwrap_or_else(|e| panic!("{} round failed: {e}", A::NAME))
    }

    fn try_step(&mut self, ctx: &mut RoundCtx<'_>) -> Result<RoundReport, ConfigError> {
        Rounds::try_step(self, ctx).map_err(|e| ConfigError::invalid(A::NAME, e.to_string()))
    }

    fn evaluate(&mut self, val: &Dataset, max_samples: usize) -> f32 {
        let model = self
            .consensus_model()
            .unwrap_or_else(|e| panic!("model collection failed: {e}"));
        self.fleet.evaluate_flat(&model, val, max_samples)
    }

    fn model_len(&self) -> usize {
        self.fleet.n_params()
    }

    fn worker_count(&self) -> usize {
        self.fleet.len()
    }

    fn set_worker_active(&mut self, rank: usize, active: bool) -> Result<(), ConfigError> {
        let Rounds { algo, fleet, x, t } = self;
        churn(algo, fleet, x, *t, rank, active)
    }

    fn refresh_bandwidth(&mut self, bw: &BandwidthMatrix) {
        self.algo.on_bandwidth(&mut self.x, bw);
    }

    fn export_checkpoint(&mut self) -> Result<Vec<u8>, ConfigError> {
        let model = self
            .consensus_model()
            .map_err(|e| ConfigError::invalid(A::NAME, e.to_string()))?;
        Ok(checkpoint::encode(&model, self.t).to_vec())
    }
}
