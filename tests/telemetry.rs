//! The unified telemetry plane's contracts (`docs/OBSERVABILITY.md`):
//!
//! 1. **Bit-identity** — attaching a [`Recorder`] to a run changes
//!    *nothing* about training: for all eight algorithms, under the
//!    in-memory and the cluster driver, the recorder-on trajectory is
//!    bit-identical to the recorder-off trajectory. Telemetry observes;
//!    it never participates. Runs inside the CI determinism matrix
//!    (`SAPS_THREADS ∈ {1, 2}`), so the invariant holds at every
//!    round-engine width.
//! 2. **Flight recorder on typed failures** — a Byzantine quarantine
//!    and a stalled wire each dump a parseable structured trail that
//!    names the offender (rank) / the stalled round, preceded by the
//!    round events leading up to the failure.
//! 3. **Reconciliation** — the recorder's `wire.*` gauges equal the
//!    [`WireTap`] snapshot exactly, and the tap's planes reconcile with
//!    the [`TrafficAccountant`]: masked payload values on the worker
//!    rows (`data_bytes`), everything else on the server row
//!    (`control_bytes`).
//! 4. **Serving** — the same holds on the inference plane: a
//!    [`ServeCluster`] answers a seeded request / announce schedule
//!    bit-identically with the recorder on or off at any executor
//!    width, and the trail accounts for every announce, swap and
//!    completed request.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps::cluster::{
    cluster_registry, Addr, ClusterError, ClusterTrainer, FaultPlan, FaultScope, FaultyTransport,
    Framed, LoopbackTransport, WireTap,
};
use saps::core::checkpoint;
use saps::core::{
    AlgorithmSpec, Experiment, Recorder, RoundCtx, RunHistory, SapsConfig, SapsPsgd, ScenarioEvent,
    Trainer,
};
use saps::data::{partition, Dataset, SyntheticSpec};
use saps::netsim::workload::{ArrivalProcess, RequestArrivals};
use saps::netsim::{BandwidthMatrix, TrafficAccountant};
use saps::nn::zoo;
use saps::runtime::{Executor, ParallelismPolicy};
use saps::serve::{CompletedRequest, ReplicaNode, ServeCluster, ServeStats};
use saps::telemetry::validate_jsonl;
use saps::tensor::rng::{derive_seed, streams};

const SEED: u64 = 23;

/// The eight registry keys, paper spelling via [`AlgorithmSpec::parse`].
const ALGORITHMS: [&str; 8] = [
    "saps", "psgd", "dpsgd", "dcd", "topk", "fedavg", "sfedavg", "random",
];

fn run(algo: &str, driver: &str, recorder: Option<Recorder>) -> RunHistory {
    let ds = SyntheticSpec::tiny().samples(900).generate(5);
    let (train, val) = ds.split(0.25, 0);
    let spec = AlgorithmSpec::parse(algo).unwrap().with_compression(4.0);
    let mut exp = Experiment::new(spec)
        .train(train)
        .validation(val)
        .workers(4)
        .batch_size(16)
        .seed(SEED)
        .bandwidth_matrix(BandwidthMatrix::constant(4, 1.0))
        .model(|rng| zoo::mlp(&[16, 16, 4], rng))
        .rounds(6)
        .eval_every(3)
        .eval_samples(100);
    if let Some(rec) = recorder {
        exp = exp.telemetry(rec);
    }
    let reg = match driver {
        "cluster" => cluster_registry(WireTap::new()),
        _ => saps::baselines::registry(),
    };
    exp.run(&reg).unwrap()
}

/// The hard constraint of the telemetry plane: recorder on vs off is
/// bit-identical, for every algorithm, under both drivers.
#[test]
fn recorder_on_off_is_bit_identical_for_all_algorithms_and_drivers() {
    for driver in ["memory", "cluster"] {
        for algo in ALGORITHMS {
            let rec = Recorder::new();
            let on = run(algo, driver, Some(rec.clone()));
            let off = run(algo, driver, None);
            assert_eq!(on.points.len(), off.points.len());
            for (a, b) in on.points.iter().zip(&off.points) {
                assert_eq!(
                    a.train_loss.to_bits(),
                    b.train_loss.to_bits(),
                    "{algo}/{driver} round {}: loss drifted with the recorder attached",
                    a.round
                );
                assert_eq!(
                    a.val_acc.to_bits(),
                    b.val_acc.to_bits(),
                    "{algo}/{driver} round {}: accuracy drifted",
                    a.round
                );
                assert_eq!(a.epoch.to_bits(), b.epoch.to_bits());
            }
            assert_eq!(on.final_acc.to_bits(), off.final_acc.to_bits());
            // The recorder actually observed the run it rode along on.
            assert_eq!(rec.counter("train.rounds"), Some(6), "{algo}/{driver}");
            assert!(
                rec.histogram("round.total_s").is_some(),
                "{algo}/{driver} missing round timing histogram"
            );
        }
    }
}

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

fn model(rng: &mut StdRng) -> saps::nn::Model {
    zoo::mlp(&[16, 20, 4], rng)
}

type FaultyTrainer = SapsPsgd<Framed<FaultyTransport<LoopbackTransport>>>;

/// SAPS-PSGD over a faulty wire that stalls out after 50 idle sweeps.
fn faulty_trainer(
    workers: usize,
    plan: FaultPlan,
    seed: u64,
) -> (FaultyTrainer, saps::cluster::PlanHandle) {
    let tap = WireTap::new();
    let transport = FaultyTransport::new(LoopbackTransport::new(tap.clone()), plan, seed);
    let handle = transport.plan_handle();
    let clu = SapsPsgd::over(
        cfg(workers),
        parts(workers),
        &BandwidthMatrix::constant(workers, 1.0),
        model,
        Framed::new(transport, tap).with_stall_limit(50),
    )
    .unwrap();
    (clu, handle)
}

fn step_with(
    trainer: &mut FaultyTrainer,
    round: usize,
    traffic: &mut TrafficAccountant,
    rec: &Recorder,
) -> Result<(), ClusterError> {
    let bw = BandwidthMatrix::constant(trainer.worker_count(), 1.0);
    let mut ctx = RoundCtx::new(round, &bw, traffic, SEED).with_telemetry(rec.clone());
    trainer.try_step(&mut ctx).map(|_| ())
}

/// A Byzantine quarantine dumps the flight recorder: the dump names the
/// offender's rank and carries the round events that led up to the
/// attack, and the whole trail serializes as parseable JSONL.
#[test]
fn byzantine_quarantine_dumps_a_parseable_trail_naming_the_offender() {
    const WORKERS: usize = 4;
    const EVIL_RANK: usize = 3;
    const ATTACK_ROUND: usize = 3;

    let rec = Recorder::new();
    let (mut clu, handle) = faulty_trainer(WORKERS, FaultPlan::none(), 7);
    let mut traffic = TrafficAccountant::new(WORKERS);
    for round in 0..6 {
        if round == ATTACK_ROUND {
            handle.set(
                FaultPlan::none()
                    .with_corrupt(1.0)
                    .scoped(FaultScope::PayloadsFrom(Addr::Worker(EVIL_RANK as u32))),
            );
        }
        step_with(&mut clu, round, &mut traffic, &rec).unwrap();
    }
    assert_eq!(clu.quarantined(), vec![EVIL_RANK as u32]);

    let dumps = rec.dumps();
    assert_eq!(dumps.len(), 1, "exactly one quarantine dump");
    let dump = &dumps[0];
    assert_eq!(dump.reason, "byzantine quarantine");
    // The dump's trail contains the quarantine event naming the rank…
    let quarantine = dump
        .events
        .iter()
        .find(|e| e.kind == "byzantine.quarantine")
        .expect("dump carries the quarantine event");
    assert_eq!(
        quarantine.field("rank"),
        Some(&saps::telemetry::Value::U64(EVIL_RANK as u64))
    );
    // …preceded by the round events leading up to the attack.
    let prior_rounds = dump
        .events
        .iter()
        .filter(|e| e.kind == "cluster.round" && e.round < Some(ATTACK_ROUND as u64))
        .count();
    assert_eq!(prior_rounds, ATTACK_ROUND, "preceding rounds in the ring");
    // The whole dump (header + events) is parseable JSONL.
    let lines = validate_jsonl(&dump.to_jsonl()).unwrap();
    assert_eq!(lines, dump.events.len() + 1);
    // And the quarantine landed in the metric registry.
    assert_eq!(rec.counter("cluster.quarantines"), Some(1));
}

/// A wire that eats every frame stalls the round; the typed stall dumps
/// a trail that names the stalled round.
#[test]
fn stalled_run_dumps_a_trail_naming_the_round() {
    const WORKERS: usize = 4;
    let rec = Recorder::new();
    let (mut clu, handle) = faulty_trainer(WORKERS, FaultPlan::none(), 3);
    let mut traffic = TrafficAccountant::new(WORKERS);
    // One healthy round so the dump has context, then the wire dies.
    step_with(&mut clu, 0, &mut traffic, &rec).unwrap();
    handle.set(FaultPlan::none().with_drop(1.0));
    match step_with(&mut clu, 1, &mut traffic, &rec) {
        Err(ClusterError::Stalled { .. }) => {}
        other => panic!("expected a stall, got {other:?}"),
    }

    let dumps = rec.dumps();
    assert_eq!(dumps.len(), 1);
    assert_eq!(dumps[0].reason, "stall");
    let stall = dumps[0]
        .events
        .iter()
        .find(|e| e.kind == "stall")
        .expect("dump carries the stall event");
    assert_eq!(
        stall.field("round"),
        Some(&saps::telemetry::Value::U64(1)),
        "the stall event names the stalled round"
    );
    assert!(validate_jsonl(&dumps[0].to_jsonl()).is_ok());
    assert_eq!(rec.counter("cluster.stalls"), Some(1));
}

/// Satellite 1: three byte meters, one truth. The recorder's `wire.*`
/// gauges are the tap snapshot, and the tap reconciles with the
/// accountant: payload values on worker rows, the rest on the server
/// row.
#[test]
fn wire_gauges_reconcile_with_tap_and_accountant() {
    const WORKERS: usize = 5;
    const ROUNDS: usize = 6;
    let rec = Recorder::new();
    let tap = WireTap::new();
    let clu = ClusterTrainer::loopback(
        cfg(WORKERS),
        parts(WORKERS),
        &BandwidthMatrix::constant(WORKERS, 1.0),
        model,
        tap.clone(),
    )
    .unwrap();
    let mut clu = clu;
    let bw = BandwidthMatrix::constant(WORKERS, 1.0);
    let mut traffic = TrafficAccountant::new(WORKERS);
    for round in 0..ROUNDS {
        let mut ctx = RoundCtx::new(round, &bw, &mut traffic, SEED).with_telemetry(rec.clone());
        clu.try_step(&mut ctx).unwrap();
    }

    let wire = tap.snapshot();
    // Recorder gauges == tap snapshot, per plane.
    let gauge = |name: &str| rec.gauge(name).unwrap() as u64;
    assert_eq!(gauge("wire.data_bytes"), wire.data_bytes);
    assert_eq!(gauge("wire.control_bytes"), wire.control_bytes);
    assert_eq!(gauge("wire.model_bytes"), wire.model_bytes);
    assert_eq!(gauge("wire.serve_bytes"), wire.serve_bytes);
    assert_eq!(gauge("wire.total_bytes"), wire.total_bytes);
    assert_eq!(rec.counter("cluster.rounds"), Some(ROUNDS as u64));

    // Tap == accountant: masked payload values land on worker rows,
    // every other byte on the server (control) row.
    let worker_sum: u64 = (0..WORKERS).map(|w| traffic.worker_sent(w)).sum();
    assert_eq!(worker_sum, wire.data_bytes, "worker rows == data plane");
    assert_eq!(
        traffic.server_total(),
        wire.control_bytes,
        "server row == control plane"
    );
    assert_eq!(
        traffic.grand_total_sent(),
        wire.data_bytes,
        "grand total sums exactly the worker rows (the data plane)"
    );
    assert_eq!(
        traffic.grand_total_sent() + traffic.server_total(),
        wire.data_bytes + wire.control_bytes,
        "worker rows + server row cover exactly the data + control planes"
    );
}

/// Satellite 2 backstop: resync reports surface as structured events on
/// the baseline cluster driver when a worker churns out and back.
#[test]
fn baseline_churn_emits_resync_events() {
    let rec = Recorder::new();
    let ds = SyntheticSpec::tiny().samples(900).generate(5);
    let (train, val) = ds.split(0.25, 0);
    let hist = Experiment::new(AlgorithmSpec::parse("psgd").unwrap())
        .train(train)
        .validation(val)
        .workers(4)
        .batch_size(16)
        .seed(SEED)
        .model(|rng| zoo::mlp(&[16, 16, 4], rng))
        .rounds(8)
        .eval_every(8)
        .eval_samples(100)
        .event(3, ScenarioEvent::WorkerLeave { rank: 2 })
        .event(5, ScenarioEvent::WorkerJoin { rank: 2 })
        .telemetry(rec.clone())
        .run(&cluster_registry(WireTap::new()))
        .unwrap();
    assert_eq!(hist.points.len(), 8);
    let events = rec.events();
    let resync = events
        .iter()
        .find(|e| e.kind == "resync")
        .expect("rejoin must surface a resync event");
    assert_eq!(resync.field("rank"), Some(&saps::telemetry::Value::U64(2)));
    assert!(resync.field("wire_bytes").is_some());
    assert!(resync.field("chunks").is_some());
    assert_eq!(rec.counter("cluster.resyncs"), Some(1));
    // The whole trail round-trips as JSONL.
    assert!(validate_jsonl(&rec.events_jsonl()).unwrap() >= events.len());
}

const SERVE_DIMS: [usize; 3] = [16, 16, 4];
const SERVE_REPLICAS: u32 = 3;
const SERVE_ANNOUNCES: u64 = 4;

/// One seeded serving schedule: Poisson arrivals every tick, a fresh
/// checkpoint announced every third tick, drained at the end.
fn serve_schedule(exec: Executor, recorder: Recorder) -> (Vec<CompletedRequest>, ServeStats) {
    let ckpt = |round: u64| {
        let mut rng = StdRng::seed_from_u64(SEED + round);
        checkpoint::encode(&zoo::mlp(&SERVE_DIMS, &mut rng).flat_params(), round)
    };
    let replicas = (0..SERVE_REPLICAS)
        .map(|id| {
            let mut rng = StdRng::seed_from_u64(SEED);
            ReplicaNode::new(id, zoo::mlp(&SERVE_DIMS, &mut rng), &ckpt(0), 4).unwrap()
        })
        .collect();
    let mut fleet = ServeCluster::loopback(replicas)
        .unwrap()
        .with_executor(exec)
        .with_telemetry(recorder);
    let mut arrivals = RequestArrivals::new(ArrivalProcess::Poisson { rate: 5.0 }, SEED);
    let mut submitted = 0u32;
    for tick in 0..3 * SERVE_ANNOUNCES {
        if tick % 3 == 0 {
            fleet.announce(ckpt(1 + tick / 3).to_vec()).unwrap();
        }
        for _ in 0..arrivals.next_tick() {
            let features = vec![0.01 * submitted as f32; SERVE_DIMS[0]];
            fleet.submit(submitted % 3, features).unwrap();
            submitted += 1;
        }
        fleet.tick().unwrap();
    }
    fleet.drain_in_flight(32).unwrap();
    (fleet.take_completed(), fleet.stats())
}

/// The serving half of the bit-identity contract, plus the trail's
/// bookkeeping: one `model.announce` per announce, one `model.swap` per
/// replica per accepted version, one latency observation per completed
/// request.
#[test]
fn serving_recorder_on_off_is_bit_identical_and_the_trail_adds_up() {
    let two_threads = Executor::new(ParallelismPolicy::Threads(2));
    let (reference, ref_stats) = serve_schedule(Executor::sequential(), Recorder::disabled());
    assert!(reference.len() > 20, "the schedule must carry real load");
    assert!(reference.iter().any(|c| c.model_version == SERVE_ANNOUNCES));
    assert_eq!(ref_stats.completed, ref_stats.submitted, "no request lost");
    // Ids, clients, model tags, logits (bitwise) and latency ticks.
    let (off, _) = serve_schedule(two_threads, Recorder::disabled());
    assert_eq!(off, reference, "2 threads, recorder off");
    for exec in [Executor::sequential(), two_threads] {
        let rec = Recorder::new();
        let (on, stats) = serve_schedule(exec, rec.clone());
        assert_eq!(on, reference, "{} thread(s), recorder on", exec.threads());
        assert_eq!(stats, ref_stats);

        let events = rec.events();
        let count = |kind: &str| events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(stats.announces, SERVE_ANNOUNCES);
        assert_eq!(count("model.announce"), stats.announces);
        assert_eq!(stats.swaps, u64::from(SERVE_REPLICAS) * SERVE_ANNOUNCES);
        assert_eq!(count("model.swap"), stats.swaps);
        assert_eq!(count("swap.rejected"), 0);
        let latency = rec.histogram("serve.latency_ticks").unwrap();
        assert_eq!(latency.count, stats.completed);
        assert_eq!(
            latency.sum,
            on.iter().map(|c| c.latency_ticks as f64).sum::<f64>()
        );
        assert_eq!(rec.counter("serve.completed"), Some(stats.completed));
        assert!(validate_jsonl(&rec.events_jsonl()).unwrap() >= events.len());
    }
}
