//! Cross-algorithm conformance: every algorithm in the registry honours
//! the shared [`Trainer`] contract when driven through the public
//! [`Experiment`] API and through raw [`RoundCtx`] stepping.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps::baselines::registry;
use saps::core::{
    AlgorithmSpec, BuildCtx, Experiment, ParallelismPolicy, PartitionStrategy, RoundCtx,
    ScenarioEvent, TimeModel,
};
use saps::data::{Dataset, SyntheticSpec};
use saps::netsim::{BandwidthMatrix, TrafficAccountant};
use saps::nn::zoo;
use std::sync::Arc;

const N: usize = 6;
const ROUNDS: usize = 5;

fn dataset() -> (Dataset, Dataset) {
    SyntheticSpec::tiny()
        .samples(1_200)
        .generate(2)
        .split(0.25, 0)
}

/// Test-scale hyper-parameters for all eight algorithms (the paper's
/// compression settings assume million-parameter models).
fn all_specs() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec::Saps {
            compression: 8.0,
            tthres: 4,
            bthres: None,
        },
        AlgorithmSpec::Psgd,
        AlgorithmSpec::TopK { compression: 10.0 },
        AlgorithmSpec::FedAvg {
            participation: 0.5,
            local_steps: 3,
        },
        AlgorithmSpec::SFedAvg {
            participation: 0.5,
            local_steps: 3,
            compression: 10.0,
        },
        AlgorithmSpec::DPsgd,
        AlgorithmSpec::DcdPsgd { compression: 4.0 },
        AlgorithmSpec::RandomChoose { compression: 8.0 },
    ]
}

const SERVERFUL: [&str; 2] = ["FedAvg", "S-FedAvg"];

/// Drive all 8 algorithms through the `Experiment` driver and assert the
/// invariants every `RunHistory` must satisfy.
#[test]
fn all_algorithms_satisfy_history_invariants() {
    let (train, val) = dataset();
    let reg = registry();
    let mut seen = Vec::new();
    for spec in all_specs() {
        let hist = Experiment::new(spec)
            .train(train.clone())
            .validation(val.clone())
            .workers(N)
            .batch_size(16)
            .lr(0.1)
            .seed(4)
            .model(|rng| zoo::mlp(&[16, 20, 4], rng))
            .rounds(ROUNDS)
            .eval_every(2)
            .eval_samples(200)
            .run(&reg)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
        assert_eq!(hist.algorithm, spec.label());
        assert_eq!(hist.points.len(), ROUNDS, "{}", hist.algorithm);

        // Finite loss and accuracy in range at every point.
        for p in &hist.points {
            assert!(p.train_loss.is_finite(), "{} loss", hist.algorithm);
            assert!(
                (0.0..=1.0).contains(&p.val_acc),
                "{} val_acc {}",
                hist.algorithm,
                p.val_acc
            );
            assert_eq!(p.evaluated, (p.round + 1) % 2 == 0 || p.round + 1 == ROUNDS);
        }
        // Monotone epochs / traffic / time.
        for w in hist.points.windows(2) {
            assert!(w[1].epoch > w[0].epoch, "{} epochs", hist.algorithm);
            assert!(
                w[1].worker_traffic_mb >= w[0].worker_traffic_mb,
                "{} traffic",
                hist.algorithm
            );
            assert!(
                w[1].comm_time_s >= w[0].comm_time_s,
                "{} time",
                hist.algorithm
            );
        }
        assert!(hist.total_worker_traffic_mb > 0.0, "{}", hist.algorithm);
        assert!(hist.total_comm_time_s > 0.0, "{}", hist.algorithm);

        // Serverless algorithms charge zero server traffic.
        if SERVERFUL.contains(&hist.algorithm.as_str()) {
            assert!(
                hist.total_server_traffic_mb > 0.0,
                "{} must bill its server",
                hist.algorithm
            );
        } else {
            assert_eq!(
                hist.total_server_traffic_mb, 0.0,
                "{} billed a server",
                hist.algorithm
            );
        }
        seen.push(hist.algorithm);
    }
    assert_eq!(seen.len(), 8);
}

/// Drive all 8 trainers directly through `RoundCtx` stepping (the layer
/// below `Experiment`) and assert the per-trainer contract: stable
/// `worker_count`/`model_len`, sane per-round reports.
#[test]
fn all_trainers_keep_shape_stable_under_stepping() {
    let (train, val) = dataset();
    let reg = registry();
    let bw = BandwidthMatrix::constant(N, 1.0);
    for spec in all_specs() {
        let partitions = PartitionStrategy::Iid.apply(&train, N, 4);
        let mut trainer = reg
            .build(
                &spec,
                BuildCtx {
                    partitions,
                    bw: &bw,
                    batch_size: 16,
                    lr: 0.1,
                    seed: 4,
                    factory: Arc::new(|rng| zoo::mlp(&[16, 20, 4], rng)),
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
        let (n0, m0) = (trainer.worker_count(), trainer.model_len());
        assert_eq!(n0, N);
        assert!(m0 > 0);
        let mut traffic = TrafficAccountant::new(N);
        for round in 0..ROUNDS {
            let rep = {
                let mut ctx = RoundCtx::new(round, &bw, &mut traffic, 4);
                trainer.step(&mut ctx)
            };
            assert!(rep.mean_loss.is_finite(), "{} loss", spec.label());
            assert!(
                (0.0..=1.0).contains(&rep.mean_acc),
                "{} acc {}",
                spec.label(),
                rep.mean_acc
            );
            assert!(rep.epochs_advanced > 0.0, "{}", spec.label());
            assert!(
                rep.comm_time_s.is_finite() && rep.comm_time_s >= 0.0,
                "{}",
                spec.label()
            );
            // Shape must not drift across rounds.
            assert_eq!(trainer.worker_count(), n0, "{}", spec.label());
            assert_eq!(trainer.model_len(), m0, "{}", spec.label());
        }
        assert_eq!(traffic.rounds().len(), ROUNDS, "{}", spec.label());
        let acc = trainer.evaluate(&val, 200);
        assert!((0.0..=1.0).contains(&acc), "{}", spec.label());
    }
}

/// The round engine's determinism contract: for every algorithm, a run
/// whose compute phase fans out over 4 threads produces the
/// bit-identical `RunHistory` of a sequential run — same losses, same
/// accuracies, same traffic, same simulated communication time — even
/// while churn events reshape the fleet mid-run. This is what makes
/// `ParallelismPolicy::Auto` safe as the default.
#[test]
fn parallel_runs_are_bit_identical_to_sequential_for_all_algorithms() {
    let (train, val) = dataset();
    let reg = registry();
    for spec in all_specs() {
        let run = |policy: ParallelismPolicy| {
            Experiment::new(spec)
                .train(train.clone())
                .validation(val.clone())
                .workers(N)
                .batch_size(16)
                .lr(0.1)
                .seed(4)
                .model(|rng| zoo::mlp(&[16, 20, 4], rng))
                .rounds(6)
                .eval_every(2)
                .eval_samples(200)
                // Churn mid-run: a worker leaves and later rejoins, so
                // the fan-out also has to be deterministic while the
                // active set shrinks and grows.
                .event(2, ScenarioEvent::WorkerLeave { rank: N - 1 })
                .event(4, ScenarioEvent::WorkerJoin { rank: N - 1 })
                .parallelism(policy)
                .run(&reg)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.label()))
        };
        let seq = run(ParallelismPolicy::Sequential);
        let par = run(ParallelismPolicy::Threads(4));
        assert_eq!(seq.points, par.points, "{} diverged", spec.label());
        assert_eq!(seq.final_acc, par.final_acc, "{}", spec.label());
        assert_eq!(
            seq.total_worker_traffic_mb,
            par.total_worker_traffic_mb,
            "{}",
            spec.label()
        );
        assert_eq!(
            seq.total_comm_time_s,
            par.total_comm_time_s,
            "{}",
            spec.label()
        );
        assert_eq!(
            seq.total_server_traffic_mb,
            par.total_server_traffic_mb,
            "{}",
            spec.label()
        );
    }
}

/// The time model is accounting, never dynamics: for every algorithm, a
/// run priced by the discrete-event simulator (with latency, contention,
/// modeled compute and a mid-run straggler) produces the bit-identical
/// *training state* — losses, accuracies, evaluated checkpoints, final
/// consensus accuracy, traffic — of the analytic run. Only the
/// time/idle columns may (and, with positive latency, must somewhere)
/// differ. This is what makes `Experiment::time_model` safe to flip on
/// any existing experiment.
#[test]
fn time_model_never_changes_training_state_for_any_algorithm() {
    let (train, val) = dataset();
    let reg = registry();
    let mut rng = StdRng::seed_from_u64(11);
    let bw = BandwidthMatrix::uniform_random(N, 5.0, &mut rng);
    for spec in all_specs() {
        let run = |model: TimeModel| {
            Experiment::new(spec)
                .train(train.clone())
                .validation(val.clone())
                .workers(N)
                .batch_size(16)
                .lr(0.1)
                .seed(4)
                .bandwidth_matrix(bw.clone())
                .model(|rng| zoo::mlp(&[16, 20, 4], rng))
                .rounds(6)
                .eval_every(2)
                .eval_samples(200)
                .compute_time(0.2)
                .event(
                    2,
                    ScenarioEvent::Straggler {
                        rank: 1,
                        slowdown: 5.0,
                    },
                )
                .time_model(model)
                .run(&reg)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.label()))
        };
        let analytic = run(TimeModel::Analytic);
        let des = run(TimeModel::event_driven(0.01));
        assert_eq!(analytic.points.len(), des.points.len(), "{}", spec.label());
        let mut any_time_diff = false;
        for (a, d) in analytic.points.iter().zip(&des.points) {
            // Training state: bit-identical.
            assert_eq!(a.train_loss, d.train_loss, "{} loss", spec.label());
            assert_eq!(a.val_acc, d.val_acc, "{} val_acc", spec.label());
            assert_eq!(a.evaluated, d.evaluated, "{} cadence", spec.label());
            assert_eq!(a.epoch, d.epoch, "{} epochs", spec.label());
            assert_eq!(
                a.worker_traffic_mb,
                d.worker_traffic_mb,
                "{} traffic",
                spec.label()
            );
            any_time_diff |= a.comm_time_s != d.comm_time_s;
        }
        assert_eq!(analytic.final_acc, des.final_acc, "{}", spec.label());
        assert_eq!(
            analytic.total_worker_traffic_mb,
            des.total_worker_traffic_mb,
            "{}",
            spec.label()
        );
        assert_eq!(
            analytic.total_server_traffic_mb,
            des.total_server_traffic_mb,
            "{}",
            spec.label()
        );
        assert!(
            any_time_diff,
            "{}: 10 ms latency left every round's comm time unchanged",
            spec.label()
        );
        // Both runs modeled the same compute phase: 0.2 s/round nominal,
        // the rank-1 straggler gating rounds 2.. at 1.0 s.
        assert_eq!(
            analytic.total_compute_time_s,
            des.total_compute_time_s,
            "{}",
            spec.label()
        );
        assert!(
            (analytic.total_compute_time_s - (2.0 * 0.2 + 4.0 * 1.0)).abs() < 1e-9,
            "{}: compute critical path {}",
            spec.label(),
            analytic.total_compute_time_s
        );
    }
}

/// Churn is part of the shared contract now: every algorithm accepts a
/// leave + rejoin cycle through `Trainer::set_worker_active` and keeps
/// producing finite rounds (the inactive worker moving no bytes).
#[test]
fn all_trainers_accept_basic_churn() {
    let (train, _val) = dataset();
    let reg = registry();
    let bw = BandwidthMatrix::constant(N, 1.0);
    for spec in all_specs() {
        let partitions = PartitionStrategy::Iid.apply(&train, N, 4);
        let mut trainer = reg
            .build(
                &spec,
                BuildCtx {
                    partitions,
                    bw: &bw,
                    batch_size: 16,
                    lr: 0.1,
                    seed: 4,
                    factory: Arc::new(|rng| zoo::mlp(&[16, 20, 4], rng)),
                },
            )
            .unwrap();
        let mut traffic = TrafficAccountant::new(N);
        trainer.round(&mut traffic, &bw);
        trainer
            .set_worker_active(N - 1, false)
            .unwrap_or_else(|e| panic!("{} rejects churn: {e}", spec.label()));
        let before = traffic.worker_total(N - 1);
        for _ in 0..3 {
            let rep = trainer.round(&mut traffic, &bw);
            assert!(rep.mean_loss.is_finite(), "{}", spec.label());
        }
        assert_eq!(
            traffic.worker_total(N - 1),
            before,
            "{} moved bytes for an inactive worker",
            spec.label()
        );
        trainer.set_worker_active(N - 1, true).unwrap();
        let rep = trainer.round(&mut traffic, &bw);
        assert!(rep.mean_loss.is_finite(), "{}", spec.label());
    }
}
