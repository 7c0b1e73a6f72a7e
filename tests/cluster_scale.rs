//! 1 000-worker loopback smoke: the sharded coordinator at fleet scale.
//!
//! Algorithm 1's maximum-weight matching is O(n³); at n = 1000 the
//! monolithic pass is minutes of planning per round. With
//! `shard_size: Some(64)` the coordinator plans per bandwidth-partition
//! shard (O(s³) each), which is what makes a 1k-worker round complete in
//! seconds. This test drives three full rounds — real frames over the
//! loopback transport, heterogeneous bandwidth, sharded planning — and
//! checks the run is sane end to end:
//!
//! * every round reports a finite loss over all 1000 workers,
//! * the wire tap metered both data- and control-plane bytes,
//! * the matching actually paired workers (traffic on worker rows).
//!
//! The test is `#[ignore]`d — CI runs it as a dedicated step
//! (`cargo test --test cluster_scale -- --ignored`) outside the tier-1
//! suite so the default `cargo test` stays fast. Its speed is measured
//! by `bench/`'s `saps1k-wire` workload, not here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps::cluster::{ClusterTrainer, WireTap};
use saps::core::{RoundCtx, SapsConfig, Trainer};
use saps::data::{partition, SyntheticSpec};
use saps::netsim::{BandwidthMatrix, TrafficAccountant};
use saps::nn::zoo;
use saps::tensor::rng::{derive_seed, streams};

const SEED: u64 = 41;
const WORKERS: usize = 1_000;
const ROUNDS: usize = 3;
const SHARD: usize = 64;

#[test]
#[ignore = "1k-worker smoke; run explicitly (CI scale step) with --ignored"]
fn thousand_worker_sharded_round_trip() {
    let train = SyntheticSpec::tiny().samples(4 * WORKERS).generate(13);
    let parts = partition::iid(&train, WORKERS, derive_seed(SEED, 0, streams::DATA));
    // Heterogeneous links so bandwidth thresholding yields real
    // partitions for the sharded planner to split.
    let mut rng = StdRng::seed_from_u64(derive_seed(SEED, 1, streams::MATCHING));
    let bw = BandwidthMatrix::uniform_random(WORKERS, 100.0, &mut rng);
    let cfg = SapsConfig {
        workers: WORKERS,
        compression: 50.0,
        lr: 0.05,
        batch_size: 4,
        bthres: None,
        tthres: 5,
        seed: SEED,
        shard_size: Some(SHARD),
    };
    let tap = WireTap::new();
    let mut clu = ClusterTrainer::loopback(
        cfg,
        parts,
        &bw,
        |rng| zoo::mlp(&[16, 8, 4], rng),
        tap.clone(),
    )
    .unwrap();
    assert_eq!(clu.worker_count(), WORKERS);

    let mut traffic = TrafficAccountant::new(WORKERS);
    for round in 0..ROUNDS {
        let rep = {
            let mut ctx = RoundCtx::new(round, &bw, &mut traffic, SEED);
            Trainer::step(&mut clu, &mut ctx)
        };
        assert!(
            rep.mean_loss.is_finite() && rep.mean_loss > 0.0,
            "round {round}: loss {}",
            rep.mean_loss
        );
        assert!(rep.mean_acc.is_finite(), "round {round}");
    }

    let wire = tap.snapshot();
    assert!(wire.data_bytes > 0, "no data-plane bytes framed");
    assert!(wire.control_bytes > 0, "no control-plane bytes framed");
    // The sharded matching must actually pair workers: masked payload
    // values land on the worker rows of the accountant.
    let paired = (0..WORKERS).filter(|&r| traffic.worker_sent(r) > 0).count();
    assert!(
        paired >= WORKERS / 2,
        "only {paired}/{WORKERS} workers exchanged data"
    );
}
