//! Robustness integration tests: time-varying bandwidth, link failures
//! and worker churn — the "R." column of Table I, exercised end to end
//! through the event-driven [`Experiment`] driver.

use saps::baselines::registry;
use saps::core::{AlgorithmSpec, BandwidthModel, Experiment, RunHistory, ScenarioEvent, Trainer};
use saps::data::{Dataset, SyntheticSpec};
use saps::netsim::BandwidthMatrix;
use saps::nn::zoo;

const N: usize = 8;

fn dataset() -> (Dataset, Dataset) {
    SyntheticSpec::tiny()
        .samples(2_000)
        .generate(1)
        .split(0.2, 0)
}

fn saps_spec() -> AlgorithmSpec {
    AlgorithmSpec::Saps {
        compression: 8.0,
        tthres: 6,
        bthres: None,
    }
}

fn experiment(spec: AlgorithmSpec, train: &Dataset, val: &Dataset) -> Experiment {
    Experiment::new(spec)
        .train(train.clone())
        .validation(val.clone())
        .workers(N)
        .batch_size(16)
        .lr(0.1)
        .seed(11)
        .model(|rng| zoo::mlp(&[16, 24, 4], rng))
        .eval_samples(300)
}

#[test]
fn training_survives_bandwidth_drift() {
    let (train, val) = dataset();
    // The coordinator refreshes its measurements every 25 rounds, as the
    // paper's footnote describes ("regularly reported").
    let hist = experiment(saps_spec(), &train, &val)
        .bandwidth(BandwidthModel::Drifting {
            baseline: BandwidthMatrix::constant(N, 2.0),
            volatility: 0.3,
            range: 8.0,
            seed: 5,
            refresh_every: 25,
        })
        .rounds(150)
        .eval_every(30)
        .run(&registry())
        .unwrap();
    for p in &hist.points {
        assert!(p.train_loss.is_finite());
        assert!(p.comm_time_s.is_finite());
    }
    assert!(
        hist.final_acc > 0.5,
        "accuracy under drift {}",
        hist.final_acc
    );
}

#[test]
fn checkpoint_round_stamps_are_monotone_under_bandwidth_reports() {
    // Every refresh used to restart the coordinator at round 0, so the
    // stamp on an exported checkpoint ran backwards every 5 rounds.
    use saps::core::checkpoint;
    use std::cell::RefCell;
    use std::rc::Rc;
    let (train, val) = dataset();
    let spec = AlgorithmSpec::Saps {
        compression: 100.0,
        tthres: 6,
        bthres: None,
    };
    let stamps = Rc::new(RefCell::new(Vec::new()));
    let seen = Rc::clone(&stamps);
    experiment(spec, &train, &val)
        .bandwidth(BandwidthModel::Drifting {
            baseline: BandwidthMatrix::constant(N, 2.0),
            volatility: 0.3,
            range: 8.0,
            seed: 5,
            refresh_every: 5,
        })
        .rounds(30)
        .eval_every(30)
        .after_round(move |trainer, _| {
            let blob = trainer.export_checkpoint().unwrap();
            let (_, round) = checkpoint::decode(blob.into()).unwrap();
            seen.borrow_mut().push(round);
        })
        .run(&registry())
        .unwrap();
    let stamps = stamps.borrow();
    assert_eq!(stamps.len(), 30);
    for w in stamps.windows(2) {
        assert!(w[0] < w[1], "checkpoint stamps ran backwards: {stamps:?}");
    }
    assert_eq!(*stamps.last().unwrap(), 30);
}

#[test]
fn training_survives_link_failures() {
    let (train, val) = dataset();
    // Cut all of worker 7's links except one lifeline mid-run; SAPS must
    // keep converging. The driver refreshes the trainer's bandwidth view
    // after every LinkChange, so peer selection steers around dead links.
    let mut exp = experiment(saps_spec(), &train, &val)
        .bandwidth_matrix(BandwidthMatrix::constant(N, 2.0))
        .rounds(120)
        .eval_every(30);
    for peer in 0..6 {
        exp = exp.event(
            60,
            ScenarioEvent::LinkChange {
                a: 7,
                b: peer,
                mbps: 0.0,
            },
        );
    }
    let hist = exp.run(&registry()).unwrap();
    for p in &hist.points {
        // The round may be slow but never infinitely so: peer selection
        // avoids dead links (they are absent from the PC graph after
        // refresh).
        assert!(
            p.comm_time_s.is_finite(),
            "round scheduled over a dead link"
        );
    }
    assert!(
        hist.final_acc > 0.5,
        "accuracy after link failures {}",
        hist.final_acc
    );
}

#[test]
fn churn_with_drift_combined() {
    let (train, val) = dataset();
    let hist = experiment(saps_spec(), &train, &val)
        .bandwidth(BandwidthModel::Drifting {
            baseline: BandwidthMatrix::constant(N, 2.0),
            volatility: 0.2,
            range: 4.0,
            seed: 7,
            refresh_every: 20,
        })
        .rounds(140)
        .eval_every(35)
        .event(40, ScenarioEvent::WorkerLeave { rank: 0 })
        .event(40, ScenarioEvent::WorkerLeave { rank: 3 })
        .event(80, ScenarioEvent::WorkerJoin { rank: 0 })
        .event(80, ScenarioEvent::WorkerJoin { rank: 3 })
        .run(&registry())
        .unwrap();
    assert!(
        hist.final_acc > 0.5,
        "accuracy after churn + drift {}",
        hist.final_acc
    );
}

/// The acceptance scenario: one churn + bandwidth-shift schedule, reused
/// verbatim against SAPS-PSGD, D-PSGD and FedAvg. The driver applies the
/// identical events to each; every run completes with finite metrics,
/// full length, and (per algorithm) bit-identical repeats.
#[test]
fn one_scenario_runs_identically_across_algorithms() {
    let (train, val) = dataset();
    let reg = registry();
    let scenario = |spec: AlgorithmSpec| {
        experiment(spec, &train, &val)
            .rounds(60)
            .eval_every(15)
            .event(15, ScenarioEvent::WorkerLeave { rank: 6 })
            .event(15, ScenarioEvent::WorkerLeave { rank: 7 })
            .event(25, ScenarioEvent::BandwidthShift { scale: 0.25 })
            .event(40, ScenarioEvent::WorkerJoin { rank: 6 })
            .event(40, ScenarioEvent::WorkerJoin { rank: 7 })
            .event(40, ScenarioEvent::BandwidthShift { scale: 4.0 })
    };
    let specs = [
        saps_spec(),
        AlgorithmSpec::DPsgd,
        AlgorithmSpec::FedAvg {
            participation: 0.5,
            local_steps: 5,
        },
    ];
    let check = |h: &RunHistory| {
        assert_eq!(h.points.len(), 60, "{} truncated", h.algorithm);
        for p in &h.points {
            assert!(
                p.train_loss.is_finite(),
                "{} round {}",
                h.algorithm,
                p.round
            );
            assert!(
                p.comm_time_s.is_finite(),
                "{} round {}",
                h.algorithm,
                p.round
            );
        }
        assert!(h.final_acc > 0.25, "{} below chance", h.algorithm);
    };
    for spec in specs {
        let a = scenario(spec).run(&reg).unwrap();
        let b = scenario(spec).run(&reg).unwrap();
        check(&a);
        assert_eq!(a.points, b.points, "{} not deterministic", a.algorithm);
        assert_eq!(a.final_acc, b.final_acc);
    }
}

/// The congestion window is visible in the measured round times: the
/// same rounds cost ~4x more communication time while the shift is in
/// effect.
#[test]
fn bandwidth_shift_is_reflected_in_round_times() {
    let (train, val) = dataset();
    let hist = experiment(saps_spec(), &train, &val)
        .rounds(30)
        .eval_every(30)
        .event(10, ScenarioEvent::BandwidthShift { scale: 0.25 })
        .event(20, ScenarioEvent::BandwidthShift { scale: 4.0 })
        .run(&registry())
        .unwrap();
    let round_time = |p0: usize, p1: usize| {
        (hist.points[p1].comm_time_s - hist.points[p0].comm_time_s) / (p1 - p0) as f64
    };
    let before = round_time(0, 9);
    let during = round_time(10, 19);
    let after = round_time(20, 29);
    assert!(
        during > before * 3.0,
        "congestion invisible: {before:.4} -> {during:.4}"
    );
    assert!(
        after < during / 3.0,
        "recovery invisible: {during:.4} -> {after:.4}"
    );
}

#[test]
fn checkpoint_roundtrip_through_training() {
    use saps::core::checkpoint;
    use saps::core::{SapsConfig, SapsPsgd};
    use saps::netsim::TrafficAccountant;
    let n = 4;
    let ds = SyntheticSpec::tiny().samples(2_000).generate(1);
    let (train, val) = ds.split(0.2, 0);
    let bw = BandwidthMatrix::constant(n, 2.0);
    let cfg = SapsConfig {
        workers: n,
        compression: 8.0,
        lr: 0.1,
        batch_size: 16,
        tthres: 6,
        seed: 11,
        ..SapsConfig::default()
    };
    let mk = || SapsPsgd::new(cfg.clone(), &train, &bw, |rng| zoo::mlp(&[16, 24, 4], rng)).unwrap();
    let mut algo = mk();
    let mut traffic = TrafficAccountant::new(n);
    for _ in 0..50 {
        algo.round(&mut traffic, &bw);
    }
    let acc_before = algo.evaluate(&val, 300);
    // Coordinator collects the final model (Algorithm 1 line 8) and
    // checkpoints it.
    let final_model = algo.fleet().average_model();
    let blob = checkpoint::encode(&final_model, 50);
    let (restored, round) = checkpoint::decode(blob).unwrap();
    assert_eq!(round, 50);
    assert_eq!(restored, final_model);
    // A fresh fleet restored from the checkpoint evaluates identically.
    let mut fresh = mk();
    for r in 0..n {
        fresh.set_worker_model(r, &restored);
    }
    let acc_after = fresh.evaluate(&val, 300);
    assert_eq!(acc_before, acc_after);
}
