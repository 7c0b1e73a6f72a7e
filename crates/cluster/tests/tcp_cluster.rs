//! End-to-end cluster run over real localhost TCP sockets (`--features
//! tcp`): the same rounds of the same trainer, with frames crossing the
//! kernel — and still bit-identical to the loopback run.

#![cfg(feature = "tcp")]

use saps_cluster::tcp::TcpTransport;
use saps_cluster::{ClusterTrainer, WireTap};
use saps_core::{RoundCtx, SapsConfig, Trainer};
use saps_data::{partition, Dataset, SyntheticSpec};
use saps_netsim::{BandwidthMatrix, TrafficAccountant};
use saps_nn::zoo;
use saps_tensor::rng::{derive_seed, streams};

const SEED: u64 = 5;

fn parts(train: &Dataset, workers: usize) -> Vec<Dataset> {
    partition::iid(train, workers, derive_seed(SEED, 0, streams::DATA))
}

#[test]
fn tcp_cluster_matches_loopback_bit_for_bit() {
    let workers = 4;
    let train = SyntheticSpec::tiny().samples(800).generate(3);
    let bw = BandwidthMatrix::constant(workers, 1.0);
    let cfg = SapsConfig {
        workers,
        compression: 4.0,
        lr: 0.1,
        batch_size: 16,
        bthres: None,
        tthres: 4,
        seed: SEED,
        shard_size: None,
    };

    let loop_tap = WireTap::new();
    let mut over_loopback = ClusterTrainer::loopback(
        cfg.clone(),
        parts(&train, workers),
        &bw,
        |rng| zoo::mlp(&[16, 12, 4], rng),
        loop_tap.clone(),
    )
    .unwrap();

    let tcp_tap = WireTap::new();
    let transport = TcpTransport::for_cluster(workers, tcp_tap.clone()).unwrap();
    let mut over_tcp = ClusterTrainer::with_transport(
        cfg,
        parts(&train, workers),
        &bw,
        |rng| zoo::mlp(&[16, 12, 4], rng),
        transport,
        tcp_tap.clone(),
    )
    .unwrap();

    let mut t_loop = TrafficAccountant::new(workers);
    let mut t_tcp = TrafficAccountant::new(workers);
    for round in 0..4 {
        let a = {
            let mut ctx = RoundCtx::new(round, &bw, &mut t_loop, SEED);
            over_loopback.step(&mut ctx)
        };
        let b = {
            let mut ctx = RoundCtx::new(round, &bw, &mut t_tcp, SEED);
            over_tcp.step(&mut ctx)
        };
        assert_eq!(
            a.mean_loss.to_bits(),
            b.mean_loss.to_bits(),
            "round {round}"
        );
    }
    for r in 0..workers {
        assert_eq!(
            over_loopback.worker(r).flat(),
            over_tcp.worker(r).flat(),
            "worker {r}"
        );
        assert_eq!(t_loop.worker_total(r), t_tcp.worker_total(r));
    }
    // Identical frames crossed both transports.
    assert_eq!(loop_tap.snapshot(), tcp_tap.snapshot());
    over_tcp.fabric_mut().shutdown(workers).unwrap();
}
