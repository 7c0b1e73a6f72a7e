//! The chunked model-distribution plane, end to end.
//!
//! A joiner catches up from an epoch-stamped chunk manifest through a
//! multi-peer download scheduler. These tests pin that path to the
//! properties that make it safe to ship:
//!
//! 1. **Bit-identity** — a chunk-fetched resync installs parameters
//!    bit-identical to the in-memory fabric's plain copy of a live
//!    replica (the same trainer over `Direct`), whatever mix of peers
//!    served the pieces (runs inside the CI determinism matrix,
//!    `SAPS_THREADS ∈ {1, 2}`).
//! 2. **Accounting** — catch-up traffic rides the model plane: the
//!    `WireTap`'s `model_bytes` delta reconciles exactly with the bytes
//!    the resync framed, and the `TrafficAccountant`'s billed worker
//!    rows never see it.
//! 3. **Hostile wires converge** — with the transport dropping and
//!    corrupting chunk frames, every failed piece is re-sourced from
//!    the next ranked peer and the result is still bit-identical.
//! 4. **Failure is typed** — a wire that eats everything surfaces
//!    `ClusterError::ResyncFailed`, never a hang; a dead donor means
//!    fallback to the next live peer, not failure.
//! 5. **Flash crowds scale out** — the `#[ignore]`d smoke drives a
//!    `zoo::flash_crowd` wave of 100+ simultaneous joiners, each
//!    sourcing chunks from at least two distinct peers (CI runs it as a
//!    dedicated step).
//! 6. **Severed links are not fetched across** — the serving peers are
//!    ranked from the *current* bandwidths, above the fabric (so the
//!    donor is the same in memory and on a wire), and a peer whose link
//!    to the joiner is down serves nothing.

use saps::baselines::{Direct, Exchange, Fleet, PsgdAllReduce};
use saps::cluster::{
    cluster_registry, Addr, FaultPlan, FaultScope, FaultyTransport, Framed, LoopbackTransport,
    Transport, WireTap,
};
use saps::core::{
    zoo as scenario_zoo, AlgorithmSpec, Experiment, RoundCtx, SapsConfig, SapsPsgd, ScenarioEvent,
    Trainer,
};
use saps::data::{partition, Dataset, SyntheticSpec};
use saps::netsim::{BandwidthMatrix, TrafficAccountant};
use saps::nn::zoo;
use saps::tensor::rng::{derive_seed, streams};

const SEED: u64 = 37;

/// Chunk size small enough that the tiny test model splits into many
/// chunks — the fan-out the scheduler exists for.
const CHUNK: u32 = 256;

fn parts(workers: usize) -> Vec<Dataset> {
    let (train, _) = SyntheticSpec::tiny()
        .samples(8 * workers.max(50))
        .generate(5)
        .split(0.2, 0);
    partition::iid(&train, workers, derive_seed(SEED, 0, streams::DATA))
}

fn model(rng: &mut rand::rngs::StdRng) -> saps::nn::Model {
    zoo::mlp(&[16, 20, 4], rng)
}

/// P-SGD — the baseline that resyncs a joiner — over `fabric`.
fn psgd<X: Exchange>(workers: usize, fabric: X) -> PsgdAllReduce<X> {
    let fleet = Fleet::with_partitions(parts(workers), model, SEED, 16, 0.1).unwrap();
    PsgdAllReduce::over(fleet, fabric).unwrap()
}

/// [`psgd`] on the wire: `chunk`-byte chunks over `transport`, serving
/// peers ranked by `bw`.
fn wire_psgd<T: Transport>(
    workers: usize,
    bw: &BandwidthMatrix,
    transport: T,
    tap: WireTap,
    chunk: u32,
) -> PsgdAllReduce<Framed<T>> {
    let mut trainer = psgd(workers, Framed::new(transport, tap).with_chunk_size(chunk));
    trainer.refresh_bandwidth(bw);
    trainer
}

fn loopback_psgd(
    workers: usize,
    bw: &BandwidthMatrix,
    tap: WireTap,
) -> PsgdAllReduce<Framed<LoopbackTransport>> {
    wire_psgd(workers, bw, LoopbackTransport::new(tap.clone()), tap, CHUNK)
}

fn step(trainer: &mut impl Trainer, round: usize, bw: &BandwidthMatrix) -> f32 {
    let mut traffic = TrafficAccountant::new(trainer.worker_count());
    let mut ctx = RoundCtx::new(round, bw, &mut traffic, SEED);
    trainer.step(&mut ctx).mean_loss
}

/// Bit-identity conformance: the chunked multi-peer resync installs the
/// exact parameters the in-memory fabric copies from a live replica —
/// across a leave/rejoin cycle, every worker, every parameter.
#[test]
fn chunked_resync_is_bit_identical_to_in_memory() {
    let workers = 6;
    let bw = BandwidthMatrix::constant(workers, 50.0);
    let tap_chunk = WireTap::new();
    let mut mono = psgd(workers, Direct::new());
    let mut chunk = loopback_psgd(workers, &bw, tap_chunk.clone());

    for round in 0..8 {
        if round == 3 {
            mono.set_worker_active(4, false).unwrap();
            chunk.set_worker_active(4, false).unwrap();
        }
        if round == 6 {
            let before = tap_chunk.snapshot();
            mono.set_worker_active(4, true).unwrap();
            chunk.set_worker_active(4, true).unwrap();
            let after = tap_chunk.snapshot();

            // The rejoin fanned real chunks over multiple peers...
            let rep = chunk.fabric().resync_log().last().unwrap().clone();
            assert_eq!(rep.rank, 4);
            assert!(rep.chunks > 1, "model must split into several chunks");
            assert!(
                rep.sources.len() >= 2,
                "chunks came from {} peer(s), expected a fan-out",
                rep.sources.len()
            );
            // ...metered on the model plane, byte for byte.
            assert_eq!(
                after.model_bytes - before.model_bytes,
                rep.wire_bytes,
                "resync bytes must reconcile with the tap's model plane"
            );
            assert_eq!(
                after.data_bytes, before.data_bytes,
                "catch-up must not pollute the billed data plane"
            );
        }
        let lm = step(&mut mono, round, &bw);
        let lc = step(&mut chunk, round, &bw);
        assert_eq!(lm.to_bits(), lc.to_bits(), "round {round} loss drifted");
    }
    for r in 0..workers {
        assert_eq!(
            mono.fleet().worker(r).flat(),
            chunk.fleet().worker(r).flat(),
            "worker {r}: chunked resync diverged from the in-memory copy"
        );
    }
}

/// A SAPS-PSGD joiner's catch-up is the same fabric resync: it lands
/// bit-identical to the donor over the model plane, without touching
/// the billed traffic rows — and, now matching the donor, serves the
/// next joiner itself.
#[test]
fn saps_joiner_catches_up_from_published_epoch() {
    let workers = 4;
    let bw = BandwidthMatrix::constant(workers, 25.0);
    let cfg = SapsConfig {
        workers,
        compression: 4.0,
        lr: 0.1,
        batch_size: 16,
        bthres: None,
        tthres: 5,
        seed: SEED,
        shard_size: None,
    };
    let tap = WireTap::new();
    let fabric = Framed::loopback(tap.clone()).with_chunk_size(CHUNK);
    let mut clu = SapsPsgd::over(cfg.clone(), parts(workers), &bw, model, fabric).unwrap();
    let mut mem = SapsPsgd::with_partitions(cfg, parts(workers), &bw, model).unwrap();
    let mut traffic = TrafficAccountant::new(workers);
    let mut t_mem = TrafficAccountant::new(workers);
    let mut round = 0;
    let mut step_both = |clu: &mut SapsPsgd<_>, mem: &mut SapsPsgd, traffic: &mut _| {
        let on_wire = clu.step(&mut RoundCtx::new(round, &bw, traffic, SEED));
        let in_memory = mem.step(&mut RoundCtx::new(round, &bw, &mut t_mem, SEED));
        assert_eq!(on_wire.mean_loss.to_bits(), in_memory.mean_loss.to_bits());
        round += 1;
    };
    for _ in 0..3 {
        step_both(&mut clu, &mut mem, &mut traffic);
    }
    for rank in [2, 3] {
        clu.set_worker_active(rank, false).unwrap();
        mem.set_worker_active(rank, false).unwrap();
    }
    for _ in 0..2 {
        step_both(&mut clu, &mut mem, &mut traffic);
    }

    // Rejoin the stragglers; the first catches up from its peers.
    for rank in [2, 3] {
        clu.set_worker_active(rank, true).unwrap();
        mem.set_worker_active(rank, true).unwrap();
    }
    let billed_before = (0..workers).map(|r| traffic.worker_sent(r)).sum::<u64>();
    let model_before = tap.snapshot().model_bytes;
    clu.catch_up(3).unwrap();
    mem.catch_up(3).unwrap();

    // Bit-identical to the donor (constant links: the lowest active
    // rank on either fabric), in several verified chunks.
    let donor = clu.active_ranks()[0];
    assert_eq!(
        clu.worker(3).flat(),
        clu.worker(donor).flat(),
        "joiner must land on the donor's model exactly"
    );
    let rep = clu.fabric().resync_log().last().unwrap().clone();
    assert_eq!((rep.rank, rep.donor), (3, donor as u32));
    assert!(rep.chunks > 1, "model must split into several chunks");
    // The download crossed the model plane and nothing else; billed
    // worker rows are untouched by instrumentation traffic.
    assert_eq!(
        tap.snapshot().model_bytes - model_before,
        rep.wire_bytes,
        "catch-up bytes must reconcile with the tap's model plane"
    );
    let billed_after = (0..workers).map(|r| traffic.worker_sent(r)).sum::<u64>();
    assert_eq!(billed_before, billed_after, "catch-up polluted billed rows");

    // The caught-up joiner now matches the manifest, so it serves the
    // next joiner alongside the donor (catch-up capacity grows with the
    // crowd); nothing stray was left for the coordinator.
    clu.catch_up(2).unwrap();
    mem.catch_up(2).unwrap();
    let rep = clu.fabric().resync_log().last().unwrap();
    assert!(
        rep.sources.contains(&3),
        "the caught-up joiner served nothing: {:?}",
        rep.sources
    );
    assert_eq!(clu.fabric().late_models(), 0);

    // Training continues after the catch-up, still the in-memory run.
    step_both(&mut clu, &mut mem, &mut traffic);
    for r in 0..workers {
        assert_eq!(clu.worker(r).flat(), mem.worker(r).flat(), "worker {r}");
    }
}

/// Donor choice is above the fabric: over heterogeneous links with the
/// link from the lowest active rank to the joiner severed, a SAPS-PSGD
/// catch-up lands on the *fastest reachable* peer's parameters on both
/// fabrics — bit-equal — and the severed peer serves nothing. (When the
/// fabric chose, `Direct` copied the lowest active rank: rank 0, across
/// the dead link.)
#[test]
fn saps_catch_up_picks_the_same_donor_on_both_fabrics() {
    let workers = 5;
    let joiner = 4;
    let mut bw = BandwidthMatrix::constant(workers, 10.0);
    bw.set(0, joiner, 0.0);
    bw.set(1, joiner, 25.0);
    bw.set(2, joiner, 90.0);
    bw.set(3, joiner, 40.0);
    let cfg = SapsConfig {
        workers,
        compression: 4.0,
        lr: 0.1,
        batch_size: 16,
        bthres: None,
        tthres: 5,
        seed: SEED,
        shard_size: None,
    };
    let fabric = Framed::loopback(WireTap::new()).with_chunk_size(CHUNK);
    let mut clu = SapsPsgd::over(cfg.clone(), parts(workers), &bw, model, fabric).unwrap();
    let mut mem = SapsPsgd::with_partitions(cfg, parts(workers), &bw, model).unwrap();
    for round in 0..5 {
        if round == 3 {
            clu.set_worker_active(joiner, false).unwrap();
            mem.set_worker_active(joiner, false).unwrap();
        }
        let on_wire = step(&mut clu, round, &bw);
        let in_memory = step(&mut mem, round, &bw);
        assert_eq!(on_wire.to_bits(), in_memory.to_bits(), "round {round}");
    }
    clu.set_worker_active(joiner, true).unwrap();
    mem.set_worker_active(joiner, true).unwrap();
    clu.catch_up(joiner).unwrap();
    mem.catch_up(joiner).unwrap();

    // Local SGD has driven the replicas apart, so the parameters the
    // joiner holds name its donor.
    let fastest = mem.worker(2).flat();
    assert_ne!(fastest, mem.worker(0).flat());
    assert_eq!(mem.worker(joiner).flat(), fastest, "in memory");
    assert_eq!(clu.worker(joiner).flat(), fastest, "on the wire");
    let rep = clu.fabric().resync_log().last().unwrap();
    assert_eq!((rep.rank, rep.donor), (joiner as u32, 2));
    assert!(
        !rep.sources.contains(&0),
        "rank 0 served across its severed link: {:?}",
        rep.sources
    );
    // Both fleets train on as one.
    let on_wire = step(&mut clu, 5, &bw);
    assert_eq!(on_wire.to_bits(), step(&mut mem, 5, &bw).to_bits());
}

/// A wire that drops and corrupts chunk frames: every lost piece is
/// re-sourced (rotating peers) and the assembled model is still
/// bit-identical to the in-memory run of the same schedule.
#[test]
fn chunk_hostile_wire_still_resyncs_bit_identically() {
    let workers = 6;
    let bw = BandwidthMatrix::constant(workers, 10.0);
    // Reference: the same schedule with every exchange in memory.
    let mut mono = psgd(workers, Direct::new());

    let tap = WireTap::new();
    let faulty = FaultyTransport::new(LoopbackTransport::new(tap.clone()), FaultPlan::none(), 991);
    let plan = faulty.plan_handle();
    let mut hostile = wire_psgd(workers, &bw, faulty, tap, 64);

    for round in 0..6 {
        if round == 2 {
            mono.set_worker_active(1, false).unwrap();
            hostile.set_worker_active(1, false).unwrap();
        }
        if round == 4 {
            mono.set_worker_active(1, true).unwrap();
            // Storm only while the catch-up runs: a third of all chunk
            // frames vanish or arrive corrupted.
            plan.set(FaultPlan::none().with_drop(0.2).with_corrupt(0.15));
            hostile.set_worker_active(1, true).unwrap();
            plan.set(FaultPlan::none());
            let rep = hostile.fabric().resync_log().last().unwrap();
            assert!(
                rep.retries > 0,
                "the storm must have forced at least one re-source"
            );
        }
        let lm = step(&mut mono, round, &bw);
        let lh = step(&mut hostile, round, &bw);
        assert_eq!(lm.to_bits(), lh.to_bits(), "round {round} loss drifted");
    }
    for r in 0..workers {
        assert_eq!(
            mono.fleet().worker(r).flat(),
            hostile.fleet().worker(r).flat(),
            "worker {r}: hostile-wire resync diverged"
        );
    }
}

/// A dead donor is a fallback, not a failure: with every frame from the
/// preferred (fastest) donor dropped, the scheduler rotates to the
/// remaining peers and completes.
#[test]
fn dead_donor_falls_back_to_the_next_live_peer() {
    let workers = 5;
    // Rank 3 is by far the fastest toward everyone: it will be ranked
    // first and chosen as the preferred donor.
    let mut bw = BandwidthMatrix::constant(workers, 10.0);
    for j in 0..workers {
        if j != 3 {
            bw.set(3, j, 500.0);
        }
    }
    let tap = WireTap::new();
    let faulty = FaultyTransport::new(LoopbackTransport::new(tap.clone()), FaultPlan::none(), 17);
    let plan = faulty.plan_handle();
    let mut trainer = wire_psgd(workers, &bw, faulty, tap, CHUNK);

    trainer.set_worker_active(0, false).unwrap();
    // The donor's replies never arrive.
    plan.set(
        FaultPlan::none()
            .with_drop(1.0)
            .scoped(FaultScope::From(Addr::Worker(3))),
    );
    trainer.set_worker_active(0, true).unwrap();
    plan.set(FaultPlan::none());

    let rep = trainer.fabric().resync_log().last().unwrap();
    assert_eq!(rep.donor, 3, "rank 3 must be the preferred donor");
    assert!(
        !rep.sources.contains(&3),
        "nothing can have been accepted from the dead donor"
    );
    assert!(!rep.sources.is_empty(), "fallback peers served the model");
    assert!(rep.retries > 0);
    // The fallback still lands bit-exactly on the fleet's model.
    assert_eq!(
        trainer.fleet().worker(0).flat(),
        trainer.fleet().worker(1).flat()
    );
}

/// A wire that eats everything surfaces the typed failure, never a
/// hang: every chunk exhausts its per-peer attempt budget and
/// `ClusterError::ResyncFailed` comes back through the churn API.
#[test]
fn total_frame_loss_surfaces_typed_resync_failure() {
    let workers = 4;
    let bw = BandwidthMatrix::constant(workers, 10.0);
    let tap = WireTap::new();
    let faulty = FaultyTransport::new(
        LoopbackTransport::new(tap.clone()),
        FaultPlan::none().with_drop(1.0),
        3,
    );
    let mut trainer = wire_psgd(workers, &bw, faulty, tap, CHUNK);

    trainer.set_worker_active(2, false).unwrap();
    let err = trainer
        .set_worker_active(2, true)
        .expect_err("a dead wire cannot resync");
    let msg = err.to_string();
    assert!(
        msg.contains("resync of joiner 2 failed"),
        "expected the typed ResyncFailed surface, got: {msg}"
    );
}

/// Flash crowd: a `zoo::flash_crowd` wave — the whole cohort leaves in
/// one round and rejoins in another, 100+ simultaneous joiners — where
/// every joiner sources its chunks from at least two distinct peers and
/// the wire bytes reconcile exactly with the tap. `#[ignore]`d like the
/// 1k-worker smoke; CI runs it as a dedicated step.
#[test]
#[ignore = "flash-crowd smoke; run explicitly (CI chunk step) with --ignored"]
fn flash_crowd_rejoin_fans_over_peers() {
    let workers = 128;
    let cohort: Vec<usize> = (8..108).collect(); // 100 simultaneous joiners
    let bw = BandwidthMatrix::constant(workers, 40.0);
    let tap = WireTap::new();
    let mut trainer = loopback_psgd(workers, &bw, tap.clone());

    let events = scenario_zoo::flash_crowd(workers, &cohort, 1, 2);
    let mut billed = TrafficAccountant::new(workers);
    for round in 0..3 {
        for ev in events.iter().filter(|e| e.round == round) {
            match ev.event {
                ScenarioEvent::WorkerLeave { rank } => {
                    trainer.set_worker_active(rank, false).unwrap()
                }
                ScenarioEvent::WorkerJoin { rank } => {
                    if round == 2 && rank == cohort[0] {
                        // Reconcile the whole wave's bytes below.
                        billed = TrafficAccountant::new(workers);
                    }
                    trainer.set_worker_active(rank, true).unwrap()
                }
                _ => unreachable!("flash_crowd emits only churn"),
            }
        }
        let loss = step(&mut trainer, round, &bw);
        assert!(loss.is_finite(), "round {round}");
    }

    let log = trainer.fabric().resync_log();
    assert_eq!(log.len(), cohort.len(), "one resync per joiner");
    let mut wave_bytes = 0u64;
    for rep in log {
        assert!(
            rep.sources.len() >= 2,
            "joiner {} sourced from only {} peer(s)",
            rep.rank,
            rep.sources.len()
        );
        wave_bytes += rep.wire_bytes;
    }
    // Every joiner landed on the same model...
    let reference = trainer.fleet().worker(0).flat();
    for &r in &cohort {
        assert_eq!(
            trainer.fleet().worker(r).flat(),
            reference,
            "joiner {r} diverged after catch-up"
        );
    }
    // ...the catch-up bytes all rode the unbilled model plane...
    let wire = tap.snapshot();
    assert!(
        wire.model_bytes >= wave_bytes,
        "tap model plane ({}) lost resync bytes ({wave_bytes})",
        wire.model_bytes
    );
    // ...and the billed accountant rows reconcile with the data plane
    // alone: value bytes billed ≤ data-plane bytes framed, and not one
    // model-plane byte lands on a billed worker row.
    let billed_rows: u64 = (0..workers).map(|r| billed.worker_sent(r)).sum();
    assert!(
        billed_rows <= wire.data_bytes,
        "billed rows ({billed_rows}) exceed framed data plane ({})",
        wire.data_bytes
    );
}

/// Regression (stale bandwidth snapshot in wire resync): the joiner's
/// serving peers must be ranked from the bandwidths in effect *now*,
/// not the construction-time matrix. Rank 2 has by far the fastest
/// link to rank 5 at build time; the link is severed while 5 is away.
/// Fetching across it priced the next round's catch-up traffic over a
/// dead link — `comm_time_s = inf` from the rejoin on.
#[test]
fn resync_never_fetches_across_a_severed_link() {
    let workers = 6;
    let mut bw = BandwidthMatrix::constant(workers, 10.0);
    bw.set(2, 5, 100.0);

    // Through the experiment driver, as a scenario: every round's time
    // stays finite on the wire and the loss trace is the in-memory one.
    let (train, val) = SyntheticSpec::tiny()
        .samples(900)
        .generate(5)
        .split(0.25, 0);
    let run = |registry| {
        Experiment::new(AlgorithmSpec::Psgd)
            .train(train.clone())
            .validation(val.clone())
            .workers(workers)
            .batch_size(16)
            .seed(SEED)
            .bandwidth_matrix(bw.clone())
            .model(model)
            .rounds(8)
            .eval_every(8)
            .eval_samples(100)
            .event(2, ScenarioEvent::WorkerLeave { rank: 5 })
            .event(
                3,
                ScenarioEvent::LinkChange {
                    a: 2,
                    b: 5,
                    mbps: 0.0,
                },
            )
            .event(5, ScenarioEvent::WorkerJoin { rank: 5 })
            .run(&registry)
            .unwrap()
    };
    let wire = run(cluster_registry(WireTap::new()));
    let mem = run(saps::baselines::registry());
    for (w, m) in wire.points.iter().zip(&mem.points) {
        assert!(
            w.comm_time_s.is_finite(),
            "round {}: catch-up priced over a dead link",
            w.round
        );
        assert_eq!(w.train_loss.to_bits(), m.train_loss.to_bits());
    }

    // By hand, to see who served: rank 2 would rank first on the stale
    // matrix and must not appear among the sources.
    let mut trainer = loopback_psgd(workers, &bw, WireTap::new());
    trainer.set_worker_active(5, false).unwrap();
    bw.set(2, 5, 0.0);
    trainer.refresh_bandwidth(&bw);
    trainer.set_worker_active(5, true).unwrap();
    let rep = trainer.fabric().resync_log().last().unwrap();
    assert!(!rep.sources.is_empty());
    assert!(
        !rep.sources.contains(&2),
        "rank 2 served chunks across its severed link: {:?}",
        rep.sources
    );
    assert!(step(&mut trainer, 0, &bw).is_finite());
}
