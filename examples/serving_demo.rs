//! Train and serve at the same time: a SAPS-PSGD cluster run exports
//! its consensus every round, and a two-replica inference fleet
//! hot-swaps each checkpoint in while answering a steady request
//! stream — no request is dropped across a swap, and every response is
//! tagged with the exact model (round, version) that produced it.
//!
//! Both planes run over in-process loopback transports and share one
//! wire tap, so the final report shows all four traffic planes side by
//! side: the training data plane (masked values), the control plane
//! (frame envelopes), the model plane (checkpoint announces +
//! evaluation collection), and the serving plane (requests +
//! responses). The serving plane's transfers are then placed on the
//! training fleet's nodes ([`ServePlacement`]) and priced on the same
//! bandwidth matrix the trainer ran over, under the fluid and the
//! packet-level time model.
//!
//! ```sh
//! cargo run --release --example serving_demo
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps::cluster::{cluster_registry, WireTap};
use saps::core::{checkpoint, AlgorithmSpec, Experiment};
use saps::data::SyntheticSpec;
use saps::netsim::workload::{ArrivalProcess, RequestArrivals};
use saps::netsim::{BandwidthMatrix, PacketConfig, TimeModel};
use saps::nn::zoo;
use saps::serve::{ReplicaNode, ServeCluster, ServePlacement};
use std::cell::RefCell;
use std::rc::Rc;

const DIMS: [usize; 3] = [16, 24, 4];
const REPLICAS: u32 = 2;
const WORKERS: usize = 8;
const ROUNDS: usize = 20;

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

fn main() {
    println!("SAPS-PSGD training with a live inference plane");
    println!("{REPLICAS} replicas hot-swapping the consensus while {ROUNDS} rounds train\n");

    let ds = SyntheticSpec::tiny().samples(2_000).generate(33);
    let (train, val) = ds.split(0.2, 0);
    // One fabric for both planes: heterogeneous (0, 5] MB/s links.
    let bw = BandwidthMatrix::uniform_random(WORKERS, 5.0, &mut StdRng::seed_from_u64(33));

    // Boot the fleet from an untrained checkpoint: it serves (badly)
    // from round zero and improves as announces land.
    let mut rng = StdRng::seed_from_u64(33);
    let boot = checkpoint::encode(&zoo::mlp(&DIMS, &mut rng).flat_params(), 0);
    let replicas: Vec<ReplicaNode> = (0..REPLICAS)
        .map(|id| {
            let mut rng = StdRng::seed_from_u64(33);
            ReplicaNode::new(id, zoo::mlp(&DIMS, &mut rng), &boot, 16).expect("boot replica")
        })
        .collect();
    let fleet = Rc::new(RefCell::new(
        ServeCluster::loopback(replicas).expect("boot fleet"),
    ));

    // A Poisson request stream keeps flowing while training runs: each
    // round's hook announces the fresh consensus, submits the round's
    // arrivals, and ticks the fleet once.
    let arrivals = Rc::new(RefCell::new(RequestArrivals::new(
        ArrivalProcess::Poisson { rate: 12.0 },
        33,
    )));
    let tap = WireTap::new();
    let hook_fleet = Rc::clone(&fleet);
    let hook_arrivals = Rc::clone(&arrivals);
    let mut submitted = 0u64;
    let hist = Experiment::new(AlgorithmSpec::parse("saps").unwrap().with_compression(8.0))
        .train(train)
        .validation(val)
        .workers(WORKERS)
        .batch_size(32)
        .lr(0.1)
        .seed(33)
        .bandwidth_matrix(bw.clone())
        .model(|rng| zoo::mlp(&DIMS, rng))
        .rounds(ROUNDS)
        .eval_every(10)
        .eval_samples(400)
        .after_round(move |trainer, _point| {
            let ckpt = trainer.export_checkpoint().expect("cluster export");
            let mut fleet = hook_fleet.borrow_mut();
            fleet.announce(ckpt).expect("announce consensus");
            for _ in 0..hook_arrivals.borrow_mut().next_tick() {
                let client = (submitted % 4) as u32;
                fleet
                    .submit(client, vec![0.1; DIMS[0]])
                    .expect("submit request");
                submitted += 1;
            }
            fleet.tick().expect("serve tick");
        })
        .run(&cluster_registry(tap.clone()))
        .expect("train-and-serve run");

    let mut fleet = Rc::try_unwrap(fleet).ok().expect("sole owner").into_inner();
    fleet.drain_in_flight(32).expect("drain in-flight requests");

    let stats = fleet.stats();
    let completed = fleet.take_completed();
    println!(
        "training:  final acc {:5.1}% over {} rounds",
        hist.final_acc * 100.0,
        hist.points.len()
    );
    println!(
        "serving:   {} requests answered, {} announces, {} swaps, 0 lost",
        stats.completed, stats.announces, stats.swaps
    );
    assert_eq!(stats.completed, stats.submitted, "no request dropped");

    // The hot-swap contract, visible from the client side: response
    // tags never regress in submission order, and the tail was served
    // by the final consensus.
    let mut tagged = completed;
    tagged.sort_by_key(|c| c.id);
    let mut last = (0u64, 0u64);
    for c in &tagged {
        let tag = (c.model_round, c.model_version);
        assert!(tag >= last, "model tags must be monotone");
        last = tag;
    }
    println!(
        "hot swap:  response tags climbed monotonically to (round {}, version {})",
        last.0, last.1
    );
    for rep in fleet.replicas() {
        assert_eq!(rep.model_version(), ROUNDS as u64);
        assert_eq!(rep.rejected_announces(), 0);
    }

    // Where every byte went, all four planes on the shared tap (the
    // serving plane has its own tap inside the fleet's loopback).
    let wire = tap.snapshot();
    let serve_wire = fleet.tap().snapshot();
    println!("\non the wire:");
    println!(
        "  data plane (masked values)       {:10.4} MB",
        mb(wire.data_bytes)
    );
    println!(
        "  control plane (frame envelopes)  {:10.4} MB",
        mb(wire.control_bytes)
    );
    println!(
        "  model plane (eval collection)    {:10.4} MB",
        mb(wire.model_bytes)
    );
    println!(
        "  serving plane (announces + rpc)  {:10.4} MB",
        mb(serve_wire.serve_bytes + serve_wire.model_bytes)
    );

    // Mixed load: the serving transfers that rode along, placed on the
    // training fleet's nodes and priced on its matrix.
    let served = ServePlacement { nodes: WORKERS }.map(&fleet.take_transfers());
    let fluid = TimeModel::Analytic.price_p2p(&bw, &served, &[]);
    let packet = TimeModel::packet(PacketConfig::ideal().with_rtt(0.005).with_seed(7)).price_p2p(
        &bw,
        &served,
        &[],
    );
    println!(
        "\nmixed load: {} serve transfers on the training matrix take {:.3} s fluid, {:.3} s packet-priced",
        served.len(),
        fluid.total_s,
        packet.total_s
    );
}
