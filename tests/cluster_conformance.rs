//! Fabric equivalence: all eight algorithms, `Framed` vs `Direct`.
//!
//! Every algorithm — SAPS-PSGD and the seven baselines — is one trainer
//! generic over the exchange fabric, so "the wire run equals the
//! in-memory run" is true by construction of the trainers. What is left
//! to check is the codec boundary, and these tests check it for all
//! eight:
//!
//! 1. **The matrix** — over `Framed` (every value through real
//!    serialized `saps-proto` frames on the loopback transport) each
//!    algorithm produces bit-identical per-round loss/accuracy, link
//!    statistics, worker-row traffic, consensus evaluation and
//!    checkpoint bytes to the same trainer over `Direct`, across a
//!    leave, a bandwidth refresh and a rejoin.
//! 2. **Sharded planning** — the same for SAPS-PSGD with `shard_size`
//!    set, 64 workers and heterogeneous links, down to every worker's
//!    parameters.
//! 3. **Wire ↔ accountant reconciliation** — per round, the bytes
//!    `Framed` put on the wire equal the `TrafficAccountant`'s Table I
//!    accounting exactly: each masked payload's values section
//!    (`4·nnz`) on the worker rows, all control-plane bytes (control
//!    frames + envelopes) on the server row.
//! 4. **Checkpoint reuse** — a model collected through
//!    `FetchModel`/`FinalModel` (a nested `core::checkpoint` blob)
//!    arrives equal to the worker's flat parameters, on the model
//!    plane, never billed.
//!
//! This test runs inside the CI determinism matrix (`SAPS_THREADS ∈
//! {1, 2}`), so the invariants hold at every round-engine width.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps::cluster::{cluster_registry, ClusterTrainer, Framed, LoopbackTransport, WireTap};
use saps::core::{
    checkpoint, AlgorithmRegistry, AlgorithmSpec, BuildCtx, Experiment, RoundCtx, SapsConfig,
    SapsPsgd, ScenarioEvent, Trainer,
};
use saps::data::{partition, Dataset, SyntheticSpec};
use saps::netsim::{BandwidthMatrix, TrafficAccountant};
use saps::nn::zoo;
use saps::tensor::rng::{derive_seed, streams};
use std::sync::Arc;

const SEED: u64 = 11;

fn dataset() -> (Dataset, Dataset) {
    SyntheticSpec::tiny()
        .samples(1_800)
        .generate(7)
        .split(0.2, 0)
}

fn parts(train: &Dataset, workers: usize) -> Vec<Dataset> {
    partition::iid(train, workers, derive_seed(SEED, 0, streams::DATA))
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

fn pair(workers: usize) -> (SapsPsgd, SapsPsgd<Framed<LoopbackTransport>>, WireTap) {
    let (train, _) = dataset();
    let bw = BandwidthMatrix::constant(workers, 1.0);
    let mem = SapsPsgd::with_partitions(cfg(workers), parts(&train, workers), &bw, |rng| {
        zoo::mlp(&[16, 20, 4], rng)
    })
    .unwrap();
    let tap = WireTap::new();
    let clu = ClusterTrainer::loopback(
        cfg(workers),
        parts(&train, workers),
        &bw,
        |rng| zoo::mlp(&[16, 20, 4], rng),
        tap.clone(),
    )
    .unwrap();
    (mem, clu, tap)
}

#[test]
fn wire_bytes_reconcile_with_the_accountant_exactly() {
    let workers = 5; // odd fleet: one unmatched worker per round
    let (_, mut clu, tap) = pair(workers);
    let bw = BandwidthMatrix::constant(workers, 1.0);
    let mut traffic = TrafficAccountant::new(workers);

    let mut billed_data = 0u64;
    let mut billed_control = 0u64;
    for round in 0..6 {
        let before = tap.snapshot();
        {
            let mut ctx = RoundCtx::new(round, &bw, &mut traffic, SEED);
            clu.step(&mut ctx);
        }
        let after = tap.snapshot();
        let snap = *traffic.rounds().last().unwrap();
        // Worker rows carry exactly the values sections framed this
        // round (4·nnz per payload, both directions of each pair)…
        assert_eq!(
            snap.total_sent,
            after.data_bytes - before.data_bytes,
            "round {round} data plane"
        );
        // …and the server row carries every other byte framed: control
        // frames (NotifyTrain, RoundEnd) plus all envelopes.
        assert_eq!(
            snap.server_bytes,
            after.control_bytes - before.control_bytes,
            "round {round} control plane"
        );
        billed_data += snap.total_sent;
        billed_control += snap.server_bytes;
        // No eval ran, so nothing was metered on the model plane.
        assert_eq!(after.model_bytes, before.model_bytes);
    }
    // Cumulative: every byte framed on the wire is accounted for.
    let total = tap.snapshot();
    assert_eq!(
        total.total_bytes,
        billed_data + billed_control + total.model_bytes
    );
    assert_eq!(total.data_bytes, billed_data);
    assert_eq!(total.control_bytes, billed_control);
}

#[test]
fn final_model_checkpoint_decodes_to_the_in_memory_params() {
    let workers = 4;
    let (mut mem, mut clu, tap) = pair(workers);
    let bw = BandwidthMatrix::constant(workers, 1.0);
    let mut t_mem = TrafficAccountant::new(workers);
    let mut t_clu = TrafficAccountant::new(workers);
    for round in 0..5 {
        let mut ctx = RoundCtx::new(round, &bw, &mut t_mem, SEED);
        mem.step(&mut ctx);
        let mut ctx = RoundCtx::new(round, &bw, &mut t_clu, SEED);
        clu.step(&mut ctx);
    }
    // Every worker's model crosses the wire as a `FinalModel` frame
    // nesting a checkpoint blob; what the coordinator averages is what
    // the in-memory run reads straight from its workers.
    let model_plane_before = tap.snapshot().model_bytes;
    let consensus = clu.consensus_model().unwrap();
    assert_eq!(consensus, mem.average_model());
    for r in 0..workers {
        assert_eq!(clu.worker(r).flat(), mem.worker(r).flat(), "worker {r}");
    }
    let framed = tap.snapshot().model_bytes - model_plane_before;
    let blob = checkpoint::encode(&consensus, 0).len() as u64;
    assert!(
        framed >= workers as u64 * blob,
        "{framed} model-plane bytes for {workers} checkpoints of {blob} B"
    );
    // The exported consensus is that average under the round stamp.
    let exported = clu.export_checkpoint().unwrap();
    assert_eq!(exported, mem.export_checkpoint().unwrap());
    let (params, stamp) = checkpoint::decode(exported.into()).unwrap();
    assert_eq!((params, stamp), (consensus, 5));
    // Model collection is metered on its own plane, never billed to the
    // training accountant.
    assert_eq!(
        t_clu.server_total(),
        t_clu.rounds().iter().map(|r| r.server_bytes).sum()
    );
    assert_eq!(t_clu.server_total(), tap.snapshot().control_bytes);
}

#[test]
fn reused_registry_does_not_rebill_prior_runs_control_plane() {
    // cluster_registry clones one WireTap handle into every trainer it
    // builds; a second experiment through the same registry must bill
    // only its own control bytes, not the first run's backlog.
    let (train, val) = dataset();
    let tap = WireTap::new();
    let reg = cluster_registry(tap.clone());
    let run = || {
        Experiment::new(AlgorithmSpec::Saps {
            compression: 4.0,
            tthres: 4,
            bthres: None,
        })
        .train(train.clone())
        .validation(val.clone())
        .workers(4)
        .batch_size(16)
        .seed(SEED)
        .model(|rng| zoo::mlp(&[16, 20, 4], rng))
        .rounds(6)
        .eval_every(6)
        .eval_samples(100)
        .run(&reg)
        .unwrap()
    };
    let first = run();
    let second = run();
    // Identical spec + seed → identical frames → identical server rows.
    assert_eq!(
        first.total_server_traffic_mb,
        second.total_server_traffic_mb
    );
    assert!(first.total_server_traffic_mb > 0.0);
}

#[test]
fn experiment_driver_runs_cluster_and_memory_to_the_same_history() {
    let (train, val) = dataset();
    let build = |registry: &AlgorithmRegistry| {
        Experiment::new(AlgorithmSpec::Saps {
            compression: 4.0,
            tthres: 4,
            bthres: None,
        })
        .train(train.clone())
        .validation(val.clone())
        .workers(6)
        .batch_size(16)
        .lr(0.1)
        .seed(SEED)
        .model(|rng| zoo::mlp(&[16, 20, 4], rng))
        .rounds(20)
        .eval_every(5)
        .eval_samples(200)
        .event(6, ScenarioEvent::WorkerLeave { rank: 5 })
        .event(9, ScenarioEvent::BandwidthShift { scale: 0.5 })
        .event(14, ScenarioEvent::WorkerJoin { rank: 5 })
        .run(registry)
        .unwrap()
    };
    let mem = build(&AlgorithmRegistry::core());
    let tap = WireTap::new();
    let clu = build(&cluster_registry(tap.clone()));

    assert_eq!(mem.algorithm, clu.algorithm);
    assert_eq!(mem.points.len(), clu.points.len());
    for (a, b) in mem.points.iter().zip(&clu.points) {
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "round {}",
            a.round
        );
        assert_eq!(
            a.val_acc.to_bits(),
            b.val_acc.to_bits(),
            "round {}",
            a.round
        );
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(
            a.worker_traffic_mb, b.worker_traffic_mb,
            "round {}",
            a.round
        );
        // Time is priced on the full framed bytes, so the cluster pays
        // the envelope overhead (31 bytes per payload frame) on top of
        // the payload time — noticeable on this deliberately tiny test
        // model (~100 masked values/payload), bounded well under the
        // ~7.5% it costs here.
        assert!(b.comm_time_s >= a.comm_time_s, "round {}", a.round);
        assert!(
            b.comm_time_s <= a.comm_time_s * 1.15,
            "round {}: envelope overhead out of bounds ({} vs {})",
            a.round,
            b.comm_time_s,
            a.comm_time_s
        );
    }
    assert_eq!(mem.final_acc, clu.final_acc);
    assert_eq!(mem.total_worker_traffic_mb, clu.total_worker_traffic_mb);
    assert_eq!(mem.total_server_traffic_mb, 0.0);
    assert!(clu.total_server_traffic_mb > 0.0);
    let wire = tap.snapshot();
    assert!(wire.data_bytes > 0 && wire.control_bytes > 0 && wire.model_bytes > 0);
}

#[test]
fn sharded_planning_is_bit_identical_on_the_wire() {
    // Sharded SAPS-PSGD (Algorithm 1's matching planned per
    // bandwidth-partition shard) over `Framed` against `Direct`: 64
    // workers, heterogeneous links so thresholding yields real
    // partitions, one leave + rejoin so the sharded planner is rebuilt
    // twice mid-run.
    let workers = 64;
    let (train, _) = dataset();
    let bw = BandwidthMatrix::uniform_random(workers, 100.0, &mut StdRng::seed_from_u64(17));
    let sharded = SapsConfig {
        shard_size: Some(8),
        ..cfg(workers)
    };
    let model = |rng: &mut StdRng| zoo::mlp(&[16, 20, 4], rng);
    let mut mem =
        SapsPsgd::with_partitions(sharded.clone(), parts(&train, workers), &bw, model).unwrap();
    let tap = WireTap::new();
    let mut clu =
        ClusterTrainer::loopback(sharded, parts(&train, workers), &bw, model, tap.clone()).unwrap();
    let mut t_mem = TrafficAccountant::new(workers);
    let mut t_clu = TrafficAccountant::new(workers);
    for round in 0..9 {
        if round == 3 || round == 6 {
            mem.set_worker_active(40, round == 6).unwrap();
            clu.set_worker_active(40, round == 6).unwrap();
        }
        let rep_mem = mem.step(&mut RoundCtx::new(round, &bw, &mut t_mem, SEED));
        let rep_clu = clu.step(&mut RoundCtx::new(round, &bw, &mut t_clu, SEED));
        assert_eq!(
            rep_mem.mean_loss.to_bits(),
            rep_clu.mean_loss.to_bits(),
            "round {round} loss"
        );
        assert_eq!(rep_mem.min_link_bandwidth, rep_clu.min_link_bandwidth);
    }
    let paired = (0..workers).filter(|&r| t_mem.worker_sent(r) > 0).count();
    assert!(
        paired >= workers / 2,
        "only {paired} workers ever exchanged"
    );
    for r in 0..workers {
        assert_eq!(mem.worker(r).flat(), clu.worker(r).flat(), "worker {r}");
        assert_eq!(
            t_mem.worker_sent(r),
            t_clu.worker_sent(r),
            "worker {r} sent"
        );
        assert_eq!(
            t_mem.worker_recv(r),
            t_clu.worker_recv(r),
            "worker {r} recv"
        );
    }
    assert_eq!(tap.snapshot().data_bytes, t_clu.grand_total_sent());
}

/// One spec per registered algorithm — the full conformance matrix.
fn spec_matrix() -> Vec<AlgorithmSpec> {
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

fn build_ctx<'a>(train: &Dataset, workers: usize, bw: &'a BandwidthMatrix) -> BuildCtx<'a> {
    BuildCtx {
        partitions: parts(train, workers),
        bw,
        batch_size: 16,
        lr: 0.1,
        seed: SEED,
        factory: Arc::new(|rng| zoo::mlp(&[16, 20, 4], rng)),
    }
}

#[test]
fn all_eight_algorithms_are_bit_identical_on_the_wire() {
    // The matrix: every registered algorithm over the wire against the
    // same spec in memory — bit-identical per-round loss/accuracy, link
    // stats, per-worker traffic rows, consensus evaluation, and
    // checkpoint bytes, across a leave, a bandwidth refresh and a
    // rejoin. Both sides are the *same trainer*; what this checks is the
    // `Framed` fabric against `Direct`: that f32/f64 values, plans and
    // acknowledgements survive the frame round-trip, that selective
    // receive preserves each fold order, that churn and bandwidth
    // reports reach the coordinator as sent, that the chunked resync
    // installs what a plain copy does, and that worker rows are billed
    // alike while the wire adds only its control plane. Runs inside the
    // CI determinism matrix (`SAPS_THREADS ∈ {1, 2}`).
    let workers = 6;
    let (train, val) = dataset();
    let bw = BandwidthMatrix::constant(workers, 1.0);
    let mem_reg = saps::baselines::registry();
    for spec in spec_matrix() {
        let key = spec.key();
        let tap = WireTap::new();
        let clu_reg = cluster_registry(tap.clone());
        let mut mem = mem_reg
            .build(&spec, build_ctx(&train, workers, &bw))
            .unwrap();
        let mut clu = clu_reg
            .build(&spec, build_ctx(&train, workers, &bw))
            .unwrap();
        assert_eq!(mem.name(), clu.name(), "{key}: label");
        assert_eq!(mem.model_len(), clu.model_len(), "{key}: model size");
        assert_eq!(mem.worker_count(), clu.worker_count(), "{key}: fleet");

        let mut t_mem = TrafficAccountant::new(workers);
        let mut t_clu = TrafficAccountant::new(workers);
        let mut bw = bw.clone();
        for round in 0..10 {
            // Mid-run churn, identical on both paths: rank 5 leaves
            // before round 4 and rejoins before round 8; in between the
            // measured bandwidths change (SAPS-PSGD replans from the
            // report, the others re-rank their catch-up sources).
            if round == 4 {
                mem.set_worker_active(5, false).unwrap();
                clu.set_worker_active(5, false).unwrap();
            }
            if round == 6 {
                bw = BandwidthMatrix::uniform_random(workers, 2.0, &mut StdRng::seed_from_u64(3));
                mem.refresh_bandwidth(&bw);
                clu.refresh_bandwidth(&bw);
            }
            if round == 8 {
                mem.set_worker_active(5, true).unwrap();
                clu.set_worker_active(5, true).unwrap();
            }
            let rep_mem = {
                let mut ctx = RoundCtx::new(round, &bw, &mut t_mem, SEED);
                mem.step(&mut ctx)
            };
            let rep_clu = {
                let mut ctx = RoundCtx::new(round, &bw, &mut t_clu, SEED);
                clu.step(&mut ctx)
            };
            assert_eq!(
                rep_mem.mean_loss.to_bits(),
                rep_clu.mean_loss.to_bits(),
                "{key}: round {round} loss"
            );
            assert_eq!(
                rep_mem.mean_acc.to_bits(),
                rep_clu.mean_acc.to_bits(),
                "{key}: round {round} acc"
            );
            assert_eq!(
                rep_mem.epochs_advanced, rep_clu.epochs_advanced,
                "{key}: round {round} epochs"
            );
            assert_eq!(
                rep_mem.mean_link_bandwidth, rep_clu.mean_link_bandwidth,
                "{key}: round {round} mean link"
            );
            assert_eq!(
                rep_mem.min_link_bandwidth, rep_clu.min_link_bandwidth,
                "{key}: round {round} min link"
            );
            // comm_time is deliberately NOT compared: the wire prices
            // full framed bytes, the in-memory path prices value bytes.
        }

        // Consensus evaluation and exported checkpoint: bit-equal.
        let acc_mem = mem.evaluate(&val, 200);
        let acc_clu = clu.evaluate(&val, 200);
        assert_eq!(
            acc_mem.to_bits(),
            acc_clu.to_bits(),
            "{key}: final consensus accuracy"
        );
        assert_eq!(
            mem.export_checkpoint().unwrap(),
            clu.export_checkpoint().unwrap(),
            "{key}: checkpoint bytes"
        );

        // Per-worker traffic rows: the Table I value-byte accounting is
        // identical; the wire additionally bills its control plane to
        // the server row, which the in-memory path models as free.
        for r in 0..workers {
            assert_eq!(
                t_mem.worker_sent(r),
                t_clu.worker_sent(r),
                "{key}: worker {r} sent"
            );
            assert_eq!(
                t_mem.worker_recv(r),
                t_clu.worker_recv(r),
                "{key}: worker {r} recv"
            );
        }
        // (For the PS algorithms the in-memory server row already
        // carries download/upload bytes; the wire adds its control
        // plane on top. For everything else it starts from zero.)
        assert!(
            t_clu.server_total() > t_mem.server_total(),
            "{key}: the wire must bill its control plane on top ({} vs {})",
            t_clu.server_total(),
            t_mem.server_total()
        );
        let wire = tap.snapshot();
        assert!(wire.total_bytes > 0, "{key}: nothing crossed the wire");
    }
}
