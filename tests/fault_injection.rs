//! Fault injection against the cluster runtime: the wire is hostile,
//! training must not be.
//!
//! Driven through [`FaultyTransport`], a seeded per-frame adversary
//! wrapping the loopback transport, these tests pin three contracts:
//!
//! 1. **Tolerated faults are invisible** — delays and reorders change
//!    only delivery schedules; every round's loss and the final
//!    consensus stay bit-identical to a clean run — for all eight
//!    algorithms over the `Framed` fabric.
//! 2. **Lost frames surface as typed errors** — a transport that
//!    silently drops frames produces `ClusterError::Stalled` from
//!    `try_step` (all eight algorithms), never a hang or a wrong answer.
//! 3. **Byzantine workers are quarantined and replayed away** — a
//!    worker whose payloads are corrupt (or malformed) is expelled
//!    mid-round and the round replays without it, leaving *every*
//!    worker — honest ones and the rolled-back offender — bit-identical
//!    to a run where the offender left gracefully at the same round.
//!    This is the acceptance test of the byzantine scenario; it
//!    runs inside the CI determinism matrix (`SAPS_THREADS ∈ {1, 2}`).
//!    An expelled rank stays expelled: a membership request for it is
//!    refused before anything is framed.

use saps::baselines::{
    register_baselines, FedAvgConfig, Fleet, ParameterServer, RandomPeers, RingAllReduce,
    RingDiffGossip, RingGossip, Rounds, SparseParameterServer, TopKAllgather,
};
use saps::cluster::{
    cluster_registry, Addr, ClusterError, ClusterTrainer, FaultPlan, FaultScope, FaultyTransport,
    Framed, LoopbackTransport, Transport, WireTap,
};
use saps::core::{
    register_saps, AlgorithmRegistry, AlgorithmSpec, BuildCtx, ConfigError, Exchange, Experiment,
    HistoryPoint, Node, Payload, Recorder, RoundCtx, RoundObserver, RoundReport, RunHistory,
    SapsConfig, SapsPsgd, ScenarioEvent, Trainer,
};
use saps::data::{partition, Dataset, SyntheticSpec};
use saps::netsim::{BandwidthMatrix, TrafficAccountant};
use saps::nn::zoo;
use saps::proto::{frame, Message};
use saps::tensor::rng::{derive_seed, streams};
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 23;

fn parts(workers: usize) -> Vec<Dataset> {
    let (train, _) = SyntheticSpec::tiny()
        .samples(1_600)
        .generate(5)
        .split(0.2, 0);
    partition::iid(&train, workers, derive_seed(SEED, 0, streams::DATA))
}

fn cfg(workers: usize) -> SapsConfig {
    SapsConfig {
        workers,
        compression: 4.0,
        lr: 0.1,
        batch_size: 16,
        bthres: None,
        tthres: 5,
        seed: SEED,
        shard_size: None,
    }
}

fn model(rng: &mut rand::rngs::StdRng) -> saps::nn::Model {
    zoo::mlp(&[16, 20, 4], rng)
}

fn clean_trainer(workers: usize) -> SapsPsgd<Framed<LoopbackTransport>> {
    ClusterTrainer::loopback(
        cfg(workers),
        parts(workers),
        &BandwidthMatrix::constant(workers, 1.0),
        model,
        WireTap::new(),
    )
    .unwrap()
}

type FaultyFabric = Framed<FaultyTransport<LoopbackTransport>>;

fn faulty_fabric(plan: FaultPlan, seed: u64) -> FaultyFabric {
    let tap = WireTap::new();
    let transport = FaultyTransport::new(LoopbackTransport::new(tap.clone()), plan, seed);
    Framed::new(transport, tap)
}

/// SAPS-PSGD over `fabric`.
fn saps_over<T: Transport>(workers: usize, fabric: Framed<T>) -> SapsPsgd<Framed<T>> {
    SapsPsgd::over(
        cfg(workers),
        parts(workers),
        &BandwidthMatrix::constant(workers, 1.0),
        model,
        fabric,
    )
    .unwrap()
}

fn step(
    trainer: &mut (impl Trainer + ?Sized),
    round: usize,
    traffic: &mut TrafficAccountant,
) -> f32 {
    let bw = BandwidthMatrix::constant(trainer.worker_count(), 1.0);
    let mut ctx = RoundCtx::new(round, &bw, traffic, SEED);
    trainer.step(&mut ctx).mean_loss
}

/// One spec per algorithm, by registry key.
fn all_specs() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::Saps {
            compression: 4.0,
            tthres: 5,
            bthres: None,
        },
        AlgorithmSpec::Psgd,
        AlgorithmSpec::TopK { compression: 4.0 },
        AlgorithmSpec::FedAvg {
            participation: 0.5,
            local_steps: 2,
        },
        AlgorithmSpec::SFedAvg {
            participation: 0.5,
            local_steps: 2,
            compression: 4.0,
        },
        AlgorithmSpec::DPsgd,
        AlgorithmSpec::DcdPsgd { compression: 4.0 },
        AlgorithmSpec::RandomChoose { compression: 4.0 },
    ]
}

/// The table, part one: for every algorithm, a run through heavy delay
/// and reorder weather (almost half of all frames arrive late or behind
/// a successor) is bit-identical — every round's loss, the final
/// consensus checkpoint — to a run over a clean wire.
#[test]
fn delays_and_reorders_leave_training_bit_identical() {
    let workers = 6;
    let bw = BandwidthMatrix::constant(workers, 1.0);
    let ctx = || BuildCtx {
        partitions: parts(workers),
        bw: &bw,
        batch_size: 16,
        lr: 0.1,
        seed: SEED,
        factory: Arc::new(model),
    };
    let clean_reg = cluster_registry(WireTap::new());
    let mut faulty_reg = AlgorithmRegistry::empty();
    let plan = FaultPlan::none().with_delay(0.25).with_reorder(0.2);
    register_saps(&mut faulty_reg, move || faulty_fabric(plan, 77));
    register_baselines(&mut faulty_reg, move || faulty_fabric(plan, 77));
    for spec in all_specs() {
        let key = spec.key();
        let mut clean = clean_reg.build(&spec, ctx()).unwrap();
        let mut faulty = faulty_reg.build(&spec, ctx()).unwrap();
        let (mut tc, mut tf) = (
            TrafficAccountant::new(workers),
            TrafficAccountant::new(workers),
        );
        for round in 0..8 {
            // Churn keeps the ring-closing and resync paths in the storm.
            if round == 3 || round == 6 {
                clean.set_worker_active(4, round == 6).unwrap();
                faulty.set_worker_active(4, round == 6).unwrap();
            }
            let lc = step(&mut *clean, round, &mut tc);
            let lf = step(&mut *faulty, round, &mut tf);
            assert_eq!(lc.to_bits(), lf.to_bits(), "{key}: round {round} loss");
        }
        assert_eq!(
            clean.export_checkpoint().unwrap(),
            faulty.export_checkpoint().unwrap(),
            "{key}: consensus diverged under delay/reorder faults"
        );
    }
}

/// The table, part two: for every algorithm, a wire that eats every
/// frame surfaces from `try_step` as the typed stall, not a hang.
#[test]
fn dropped_frames_surface_as_a_typed_stall_not_a_hang() {
    let workers = 4;
    let bw = BandwidthMatrix::constant(workers, 1.0);
    for spec in all_specs() {
        let fleet = Fleet::with_partitions(parts(workers), model, SEED, 16, 0.1).unwrap();
        let x = faulty_fabric(FaultPlan::none().with_drop(1.0), 3).with_stall_limit(50);
        let mut traffic = TrafficAccountant::new(workers);
        let ctx = &mut RoundCtx::new(0, &bw, &mut traffic, SEED);
        let stepped: Result<RoundReport, ClusterError> = match spec {
            AlgorithmSpec::Saps { .. } => saps_over(workers, x).try_step(ctx),
            AlgorithmSpec::Psgd => Rounds::of(RingAllReduce::default(), fleet, x)
                .unwrap()
                .try_step(ctx),
            AlgorithmSpec::TopK { compression } => {
                let algo = TopKAllgather::new(&fleet, compression).unwrap();
                Rounds::of(algo, fleet, x).unwrap().try_step(ctx)
            }
            AlgorithmSpec::FedAvg {
                participation,
                local_steps,
            } => {
                let cfg = FedAvgConfig {
                    participation,
                    local_steps,
                };
                let algo = ParameterServer::new(&fleet, cfg, SEED).unwrap();
                Rounds::of(algo, fleet, x).unwrap().try_step(ctx)
            }
            AlgorithmSpec::SFedAvg {
                participation,
                local_steps,
                compression,
            } => {
                let algo = SparseParameterServer::new(
                    &fleet,
                    participation,
                    local_steps,
                    compression,
                    SEED,
                )
                .unwrap();
                Rounds::of(algo, fleet, x).unwrap().try_step(ctx)
            }
            AlgorithmSpec::DPsgd => Rounds::of(RingGossip, fleet, x).unwrap().try_step(ctx),
            AlgorithmSpec::DcdPsgd { compression } => {
                let algo = RingDiffGossip::new(&fleet, compression).unwrap();
                Rounds::of(algo, fleet, x).unwrap().try_step(ctx)
            }
            AlgorithmSpec::RandomChoose { compression } => {
                let algo = RandomPeers::new(&fleet, compression, SEED).unwrap();
                Rounds::of(algo, fleet, x).unwrap().try_step(ctx)
            }
        };
        match stepped {
            Err(ClusterError::Stalled { round: 0, .. }) => {}
            other => panic!("{}: expected a stall error, got {other:?}", spec.key()),
        }
    }
}

/// The table, part three: under the experiment driver a dead data plane
/// is the caller's error, not a panic — for every algorithm, `run` names
/// the round and the stall, and the observers still see the (empty)
/// history. Only the payloads of one worker — the one the parameter
/// servers are placed at — die: the driver's evaluation before round 0
/// collects SAPS-PSGD's models over the model plane, and
/// `Trainer::evaluate` has no error to return.
#[test]
fn a_dead_fabric_under_the_experiment_driver_is_an_error_for_every_algorithm() {
    use std::cell::Cell;
    use std::rc::Rc;
    struct Completed(Rc<Cell<bool>>);
    impl RoundObserver for Completed {
        fn on_point(&mut self, _: &HistoryPoint) {}
        fn on_complete(&mut self, _: &RunHistory) {
            self.0.set(true);
        }
    }
    let workers = 4;
    let server = BandwidthMatrix::constant(workers, 1.0).best_server() as u32;
    let plan = FaultPlan::none()
        .with_drop(1.0)
        .scoped(FaultScope::PayloadsFrom(Addr::Worker(server)));
    let dead = move || faulty_fabric(plan, 3).with_stall_limit(50);
    let mut reg = AlgorithmRegistry::empty();
    register_saps(&mut reg, dead);
    register_baselines(&mut reg, dead);
    let (train, val) = SyntheticSpec::tiny()
        .samples(800)
        .generate(5)
        .split(0.25, 0);
    for spec in all_specs() {
        let completed = Rc::new(Cell::new(false));
        let err = Experiment::new(spec)
            .train(train.clone())
            .validation(val.clone())
            .workers(workers)
            .batch_size(16)
            .seed(SEED)
            .model(model)
            .rounds(2)
            .eval_samples(50)
            .observer(Box::new(Completed(Rc::clone(&completed))))
            .run(&reg)
            .expect_err("a dead fabric fails the run");
        let msg = err.to_string();
        assert!(msg.contains("round 0 failed"), "{}: {msg}", spec.key());
        assert!(msg.contains("quiescent"), "{}: {msg}", spec.key());
        assert!(
            completed.get(),
            "{}: observers were not flushed",
            spec.key()
        );
    }
}

#[test]
fn byzantine_worker_is_quarantined_and_honest_workers_match_a_graceful_leave() {
    const WORKERS: usize = 4;
    const ROUNDS: usize = 8;
    const EVIL_RANK: usize = 3;
    const ATTACK_ROUND: usize = 3;

    // Baseline: the offender leaves gracefully just before the attack
    // round — the world the quarantine must reproduce exactly.
    let mut baseline = clean_trainer(WORKERS);
    // Attacked run: identical spec; from the attack round on, every
    // payload the offender sends is corrupted in flight.
    let mut attacked = {
        let tap = WireTap::new();
        let transport =
            FaultyTransport::new(LoopbackTransport::new(tap.clone()), FaultPlan::none(), 7);
        let handle = transport.plan_handle();
        let clu = ClusterTrainer::with_transport(
            cfg(WORKERS),
            parts(WORKERS),
            &BandwidthMatrix::constant(WORKERS, 1.0),
            model,
            transport,
            tap,
        )
        .unwrap();
        (clu, handle)
    };

    let (mut tb, mut ta) = (
        TrafficAccountant::new(WORKERS),
        TrafficAccountant::new(WORKERS),
    );
    for round in 0..ROUNDS {
        if round == ATTACK_ROUND {
            baseline.set_worker_active(EVIL_RANK, false).unwrap();
            attacked.1.set(
                FaultPlan::none()
                    .with_corrupt(1.0)
                    .scoped(FaultScope::PayloadsFrom(Addr::Worker(EVIL_RANK as u32))),
            );
        }
        let lb = step(&mut baseline, round, &mut tb);
        let la = step(&mut attacked.0, round, &mut ta);
        assert_eq!(
            lb.to_bits(),
            la.to_bits(),
            "round {round}: attacked run's loss drifted from the graceful-leave baseline"
        );
    }

    // The offender was expelled, exactly once, and the fleets agree.
    assert_eq!(attacked.0.quarantined(), vec![EVIL_RANK as u32]);
    assert!(baseline.quarantined().is_empty());
    assert_eq!(
        attacked.0.fleet().active_ranks(),
        baseline.fleet().active_ranks()
    );

    // Every worker is bit-identical: the honest ones because the replay
    // matched the graceful-leave world, the offender because the aborted
    // attempt was rolled back (its local step was undone, like the
    // frozen model of a worker that left).
    for r in 0..WORKERS {
        assert_eq!(
            baseline.fleet().worker(r).flat(),
            attacked.0.fleet().worker(r).flat(),
            "worker {r} params diverged from the graceful-leave baseline"
        );
    }
    // The consensus over honest workers agrees through the wire too.
    assert_eq!(
        baseline.consensus_model().unwrap(),
        attacked.0.consensus_model().unwrap()
    );
}

#[test]
fn quarantine_below_the_minimum_fleet_is_a_fatal_byzantine_error() {
    // With two workers, expelling the offender would leave one — the
    // control plane refuses, and the fault surfaces as fatal instead of
    // retrying forever.
    let workers = 2;
    let plan = FaultPlan::none()
        .with_corrupt(1.0)
        .scoped(FaultScope::PayloadsFrom(Addr::Worker(1)));
    let mut clu = saps_over(workers, faulty_fabric(plan, 11));
    let bw = BandwidthMatrix::constant(workers, 1.0);
    let mut traffic = TrafficAccountant::new(workers);
    let mut ctx = RoundCtx::new(0, &bw, &mut traffic, SEED);
    match clu.try_step(&mut ctx) {
        Err(ClusterError::Byzantine { rank, detail }) => {
            assert_eq!(rank, 1);
            assert!(detail.contains("quarantine refused"), "detail: {detail}");
        }
        other => panic!("expected a fatal byzantine error, got {other:?}"),
    }
}

#[test]
fn malformed_payload_is_attributed_to_its_sender() {
    // Decode-level corruption is caught by the frame checksum; a frame
    // that decodes fine but violates the round's shared-mask contract
    // (wrong payload length) must be pinned on the sender too — that is
    // what the trainer's quarantine reads back through `blamed`.
    let mut x = Framed::loopback(WireTap::new());
    x.send(1, Node::Worker(0), Payload::Masked(Vec::new()))
        .unwrap();
    let err = x.recv_masked(Node::Worker(0), 1, 3).unwrap_err();
    assert_eq!(x.blamed(&err), Some(1));
    match err {
        ClusterError::Byzantine { rank, detail } => {
            assert_eq!(rank, 1);
            assert!(detail.contains("mask keeps"), "detail: {detail}");
        }
        other => panic!("expected byzantine attribution, got {other:?}"),
    }
    // So is a frame from a worker that does not decode at all; a stall
    // blames nobody.
    let mut x = faulty_fabric(FaultPlan::none().with_corrupt(1.0), 5).with_stall_limit(5);
    x.send(2, Node::Worker(0), Payload::Masked(vec![1.0]))
        .unwrap();
    let err = x.recv_masked(Node::Worker(0), 2, 1).unwrap_err();
    assert_eq!(x.blamed(&err), Some(2), "{err}");
    let err = x.recv_masked(Node::Worker(0), 2, 1).unwrap_err();
    assert!(matches!(err, ClusterError::Stalled { .. }), "{err}");
    assert_eq!(x.blamed(&err), None);
}

/// Regression: churn on a quarantined rank used to frame its `Join` /
/// `Leave` *from* the silenced worker, wait out the whole stall limit
/// (5 s) and report a protocol stall. It is refused up front, with the
/// reason, and nothing reaches the wire.
#[test]
fn churn_on_a_quarantined_rank_is_refused_before_anything_is_framed() {
    const WORKERS: usize = 4;
    const EVIL_RANK: usize = 3;
    let attack = FaultPlan::none()
        .with_corrupt(1.0)
        .scoped(FaultScope::PayloadsFrom(Addr::Worker(EVIL_RANK as u32)));

    let tap = WireTap::new();
    let transport = FaultyTransport::new(LoopbackTransport::new(tap.clone()), attack, 7);
    let handle = transport.plan_handle();
    let mut clu = saps_over(WORKERS, Framed::new(transport, tap.clone()));
    step(&mut clu, 0, &mut TrafficAccountant::new(WORKERS));
    assert_eq!(clu.quarantined(), vec![EVIL_RANK as u32]);
    handle.set(FaultPlan::none());

    let frames = tap.snapshot().frames;
    for active in [true, false] {
        let asked = Instant::now();
        let err = clu.set_worker_active(EVIL_RANK, active).unwrap_err();
        assert!(
            asked.elapsed().as_millis() < 100,
            "refusal took {:?}",
            asked.elapsed()
        );
        let msg = err.to_string();
        assert!(msg.contains("worker 3 is quarantined"), "{msg}");
    }
    assert_eq!(
        tap.snapshot().frames,
        frames,
        "a refused request was framed"
    );
    assert_eq!(clu.fleet().active_ranks(), vec![0, 1, 2]);

    // Scheduled through the experiment driver, the same request ends
    // the run as an error naming the quarantine — not a panic.
    let err = refused_rejoin_run(attack, Recorder::disabled());
    assert!(err.to_string().contains("quarantined"), "{err}");
}

/// SAPS-PSGD under the experiment driver over `attack`, with worker 3's
/// rejoin scheduled before round 2 — after the quarantine expelled it in
/// round 0.
fn refused_rejoin_run(attack: FaultPlan, telemetry: Recorder) -> ConfigError {
    let mut reg = AlgorithmRegistry::empty();
    register_saps(&mut reg, move || faulty_fabric(attack, 7));
    let (train, val) = SyntheticSpec::tiny()
        .samples(800)
        .generate(5)
        .split(0.25, 0);
    Experiment::new(AlgorithmSpec::parse("saps").unwrap().with_compression(4.0))
        .train(train)
        .validation(val)
        .workers(4)
        .batch_size(16)
        .seed(SEED)
        .model(model)
        .rounds(4)
        .eval_every(4)
        .eval_samples(50)
        .event(2, ScenarioEvent::WorkerJoin { rank: 3 })
        .telemetry(telemetry)
        .run(&reg)
        .expect_err("the expelled rank cannot rejoin")
}

/// A run that leaves through its failed exit says so last in its trail:
/// one `run.failed` event, at the round that failed, with the reason.
/// Observing it changes nothing — the run fails the same way with the
/// recorder off.
#[test]
fn a_failed_run_closes_its_trail_with_the_failure() {
    let attack = FaultPlan::none()
        .with_corrupt(1.0)
        .scoped(FaultScope::PayloadsFrom(Addr::Worker(3)));
    let rec = Recorder::new();
    let err = refused_rejoin_run(attack, rec.clone());
    assert_eq!(err, refused_rejoin_run(attack, Recorder::disabled()));
    let events = rec.events();
    let last = events.last().expect("a trail");
    assert_eq!((last.kind.as_str(), last.round), ("run.failed", Some(2)));
    let detail = format!("{:?}", last.fields);
    assert!(detail.contains("quarantined"), "{detail}");
    let failures = events.iter().filter(|e| e.kind == "run.failed").count();
    assert_eq!(failures, 1);
}

/// An unsolicited `FinalModel` — a duplicate, or a reply racing its
/// sender's `Leave` — is dropped with a counter, never an error that
/// kills the run.
#[test]
fn unsolicited_final_model_does_not_kill_a_round() {
    let workers = 4;
    let tap = WireTap::new();
    let mut transport = LoopbackTransport::new(tap.clone());
    let stray = Message::FinalModel {
        rank: 2,
        checkpoint: vec![1, 2, 3],
    };
    transport
        .send(Addr::Worker(2), Addr::Coordinator, frame::encode(&stray))
        .unwrap();
    let mut clu = saps_over(workers, Framed::new(transport, tap));
    let mut clean = clean_trainer(workers);
    let (mut tc, mut ts) = (
        TrafficAccountant::new(workers),
        TrafficAccountant::new(workers),
    );
    for round in 0..2 {
        let l = step(&mut clu, round, &mut ts);
        assert_eq!(l.to_bits(), step(&mut clean, round, &mut tc).to_bits());
    }
    assert_eq!(clu.fabric().late_models(), 1);
    assert_eq!(clean.fabric().late_models(), 0);
}
