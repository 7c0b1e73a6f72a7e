//! Serving-plane benchmark: requests/second and latency percentiles for
//! the `saps-serve` inference fleet, plus the mixed training + serving
//! scenario where both planes share the Fig. 1 `citydata` bandwidth
//! matrix.
//!
//! ```sh
//! cargo run -p saps-bench --release --bin bench_serving -- \
//!     --replicas 2,4 --threads auto
//! ```
//!
//! Options:
//! * `--replicas A,B,…` — fleet sizes to sweep (default `2,4`)
//! * `--threads seq|auto|N` — executor width (results are bit-identical
//!   at any setting; only wall-clock moves)
//! * `--requests N` — requests per serve-only sweep point (default 4000)
//! * `--rounds N` — training rounds in the mixed scenario (default 10)
//! * `--smoke` — tiny volumes for CI (a few hundred requests, 3 rounds)
//! * `--telemetry <path>` — attach the `saps-telemetry` recorder to
//!   both scenarios and write the structured event trail to `<path>`
//!   (JSONL) plus a Prometheus-style metric snapshot to `<path>.prom`;
//!   tick-based latency percentiles, batch occupancy, and hot-swap
//!   latency land in the registry (`docs/OBSERVABILITY.md`). Results
//!   are bit-identical with or without it.
//!
//! Two scenarios land in `BENCH_serving.json`:
//!
//! 1. **serve-only** — per replica count: a Poisson request stream is
//!    submitted tick by tick and drained through the fleet; requests/s
//!    is completed requests over wall-clock time, latencies are
//!    wall-clock submit→completion.
//! 2. **mixed-training** — a cluster-driven SAPS-PSGD run on the
//!    14-city matrix exports its consensus every round; the fleet
//!    hot-swaps it while serving the same request stream. The serving
//!    transfers that rode along are priced on the shared matrix under
//!    the fluid (analytic) and packet-level time models.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_bench::serving::{self, ServingEntry, SERVING_FILE};
use saps_bench::throughput::parse_policy;
use saps_cluster::{cluster_registry, WireTap};
use saps_core::{checkpoint, AlgorithmSpec, Executor, Experiment, ParallelismPolicy, Recorder};
use saps_data::SyntheticSpec;
use saps_netsim::workload::{ArrivalProcess, RequestArrivals};
use saps_netsim::{citydata, to_mb, PacketConfig, TimeModel};
use saps_nn::zoo;
use saps_serve::{ReplicaNode, ServeCluster, ServePlacement};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Model served by the serve-only sweep: a 32→64→10 MLP.
const DIMS: [usize; 3] = [32, 64, 10];
/// Model trained *and* served by the mixed scenario (must match, since
/// the fleet hot-swaps the trainer's consensus checkpoints).
const MIXED_DIMS: [usize; 3] = [16, 16, 4];
const CLIENTS: u32 = 4;

struct Args {
    replicas: Vec<usize>,
    threads: ParallelismPolicy,
    requests: usize,
    rounds: usize,
    smoke: bool,
    telemetry: Option<String>,
}

fn parse_args() -> Args {
    let mut a = Args {
        replicas: vec![2, 4],
        threads: ParallelismPolicy::Auto,
        requests: 4000,
        rounds: 10,
        smoke: false,
        telemetry: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--replicas" => {
                let v = it.next().expect("--replicas A,B,…");
                a.replicas = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("replica count"))
                    .collect();
            }
            "--threads" => {
                let v = it.next().expect("--threads seq|auto|N");
                a.threads = parse_policy(&v).expect("seq|auto|N");
            }
            "--requests" => {
                let v = it.next().expect("--requests N");
                a.requests = v.parse().expect("request count");
            }
            "--rounds" => {
                let v = it.next().expect("--rounds N");
                a.rounds = v.parse().expect("round count");
            }
            "--smoke" => a.smoke = true,
            "--telemetry" => a.telemetry = Some(it.next().expect("--telemetry <path>")),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if a.smoke {
        a.requests = a.requests.min(300);
        a.rounds = a.rounds.min(3);
    }
    assert!(!a.replicas.is_empty(), "need at least one replica count");
    a
}

fn fleet(n: usize, dims: &[usize], ckpt: &[u8], max_batch: usize) -> Vec<ReplicaNode> {
    (0..n as u32)
        .map(|id| {
            let mut rng = StdRng::seed_from_u64(11);
            ReplicaNode::new(id, zoo::mlp(dims, &mut rng), ckpt, max_batch).unwrap()
        })
        .collect()
}

/// Serve-only sweep point: a Poisson stream through `n` replicas.
fn serve_only(
    n: usize,
    requests: usize,
    threads: ParallelismPolicy,
    recorder: &Recorder,
) -> ServingEntry {
    let mut rng = StdRng::seed_from_u64(11);
    let ckpt = checkpoint::encode(&zoo::mlp(&DIMS, &mut rng).flat_params(), 0);
    let mut fleet = ServeCluster::loopback(fleet(n, &DIMS, &ckpt, 32))
        .unwrap()
        .with_executor(Executor::new(threads))
        .with_telemetry(recorder.clone());
    let mut arrivals = RequestArrivals::new(ArrivalProcess::Poisson { rate: 64.0 }, 5);

    let mut submitted_at: HashMap<u64, Instant> = HashMap::new();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(requests);
    let start = Instant::now();
    let mut submitted = 0usize;
    while submitted < requests {
        for _ in 0..arrivals.next_tick().min(requests - submitted) {
            let client = (submitted as u32) % CLIENTS;
            let id = fleet.submit(client, vec![0.1; DIMS[0]]).unwrap();
            submitted_at.insert(id, Instant::now());
            submitted += 1;
        }
        fleet.tick().unwrap();
        for c in fleet.take_completed() {
            let t0 = submitted_at.remove(&c.id).expect("submitted");
            latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    fleet.drain_in_flight(64).unwrap();
    for c in fleet.take_completed() {
        let t0 = submitted_at.remove(&c.id).expect("submitted");
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

    let stats = fleet.stats();
    assert_eq!(stats.completed as usize, requests, "no request lost");
    ServingEntry {
        scenario: "serve-only".into(),
        replicas: n,
        threads: fleet_threads(threads),
        requests: latencies_ms.len(),
        requests_per_sec: latencies_ms.len() as f64 / elapsed,
        p50_ms: serving::quantile_ms(&mut latencies_ms, 0.5),
        p99_ms: serving::quantile_ms(&mut latencies_ms, 0.99),
        serve_mb: to_mb(fleet.tap().snapshot().serve_bytes),
        swaps: 0,
        fluid_round_s: 0.0,
        packet_round_s: 0.0,
    }
}

/// Mixed scenario: training + serving sharing the 14-city matrix.
fn mixed_training(
    replicas: usize,
    rounds: usize,
    threads: ParallelismPolicy,
    recorder: &Recorder,
) -> ServingEntry {
    let bw = citydata::fig1_bandwidth();
    let workers = bw.len();
    let ds = SyntheticSpec::tiny().samples(700).generate(1);
    let (train, val) = ds.split(0.25, 0);

    let mut rng = StdRng::seed_from_u64(11);
    let boot = checkpoint::encode(&zoo::mlp(&MIXED_DIMS, &mut rng).flat_params(), 0);
    let serve = Rc::new(RefCell::new(
        ServeCluster::loopback(fleet(replicas, &MIXED_DIMS, &boot, 32))
            .unwrap()
            .with_executor(Executor::new(threads))
            .with_telemetry(recorder.clone()),
    ));
    let arrivals = Rc::new(RefCell::new(RequestArrivals::new(
        ArrivalProcess::Diurnal {
            rate: 24.0,
            swing: 0.5,
            period: 8,
        },
        5,
    )));

    let submitted_at = Rc::new(RefCell::new(HashMap::<u64, Instant>::new()));
    let latencies_ms = Rc::new(RefCell::new(Vec::<f64>::new()));

    // Training spec: SAPS through the message-driven cluster runtime, so
    // the consensus the fleet swaps in crossed a real wire.
    let tap = WireTap::new();
    let (hook_fleet, hook_arr) = (Rc::clone(&serve), Rc::clone(&arrivals));
    let (hook_sub, hook_lat) = (Rc::clone(&submitted_at), Rc::clone(&latencies_ms));
    let mut total_submitted = 0u64;
    let start = Instant::now();
    let hist = Experiment::new(AlgorithmSpec::parse("saps").unwrap().with_compression(4.0))
        .train(train)
        .validation(val)
        .workers(workers)
        .batch_size(16)
        .bandwidth_matrix(bw.clone())
        .model(|rng| zoo::mlp(&MIXED_DIMS, rng))
        .rounds(rounds)
        .eval_every(rounds)
        .eval_samples(50)
        .telemetry(recorder.clone())
        .after_round(move |trainer, _point| {
            let ckpt = trainer.export_checkpoint().expect("cluster export");
            let mut fleet = hook_fleet.borrow_mut();
            fleet.announce(ckpt).unwrap();
            for _ in 0..hook_arr.borrow_mut().next_tick() {
                let client = (total_submitted as u32) % CLIENTS;
                let id = fleet.submit(client, vec![0.1; MIXED_DIMS[0]]).unwrap();
                hook_sub.borrow_mut().insert(id, Instant::now());
                total_submitted += 1;
            }
            fleet.tick().unwrap();
            for c in fleet.take_completed() {
                let t0 = hook_sub.borrow_mut().remove(&c.id).expect("submitted");
                hook_lat.borrow_mut().push(t0.elapsed().as_secs_f64() * 1e3);
            }
        })
        .run(&cluster_registry(tap.clone()))
        .unwrap();
    assert_eq!(hist.points.len(), rounds);

    let mut fleet = Rc::try_unwrap(serve).ok().expect("sole owner").into_inner();
    fleet.drain_in_flight(64).unwrap();
    for c in fleet.take_completed() {
        let t0 = submitted_at.borrow_mut().remove(&c.id).expect("submitted");
        latencies_ms
            .borrow_mut()
            .push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

    // Price the serving plane's transfers on the shared matrix, placed
    // on the same 14 physical nodes the training fleet runs on.
    let placement = ServePlacement { nodes: workers };
    let served = placement.map(&fleet.take_transfers());
    let fluid = TimeModel::Analytic.price_p2p(&bw, &served, &[]);
    let packet = TimeModel::packet(PacketConfig::ideal().with_rtt(0.005).with_seed(7)).price_p2p(
        &bw,
        &served,
        &[],
    );

    let stats = fleet.stats();
    let mut lat = latencies_ms.borrow_mut();
    assert_eq!(stats.completed, stats.submitted, "no request lost");
    assert!(
        fleet
            .replicas()
            .iter()
            .all(|r| r.model_version() == rounds as u64),
        "every replica must end on the final consensus"
    );
    ServingEntry {
        scenario: "mixed-training".into(),
        replicas,
        threads: fleet_threads(threads),
        requests: lat.len(),
        requests_per_sec: lat.len() as f64 / elapsed,
        p50_ms: serving::quantile_ms(&mut lat, 0.5),
        p99_ms: serving::quantile_ms(&mut lat, 0.99),
        serve_mb: to_mb(fleet.tap().snapshot().serve_bytes),
        swaps: stats.swaps,
        fluid_round_s: fluid.total_s,
        packet_round_s: packet.total_s,
    }
}

fn fleet_threads(policy: ParallelismPolicy) -> usize {
    Executor::new(policy).threads()
}

fn main() {
    let args = parse_args();
    let recorder = if args.telemetry.is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let mut entries = Vec::new();
    for &n in &args.replicas {
        let e = serve_only(n, args.requests, args.threads, &recorder);
        println!(
            "serve-only      replicas={:2}  {:>9.1} req/s  p50 {:.3} ms  p99 {:.3} ms",
            e.replicas, e.requests_per_sec, e.p50_ms, e.p99_ms
        );
        entries.push(e);
    }
    let mixed = mixed_training(
        *args.replicas.last().unwrap(),
        args.rounds,
        args.threads,
        &recorder,
    );
    println!(
        "mixed-training  replicas={:2}  {:>9.1} req/s  p50 {:.3} ms  p99 {:.3} ms  \
         swaps {}  fluid {:.3} s  packet {:.3} s",
        mixed.replicas,
        mixed.requests_per_sec,
        mixed.p50_ms,
        mixed.p99_ms,
        mixed.swaps,
        mixed.fluid_round_s,
        mixed.packet_round_s
    );
    entries.push(mixed);
    serving::write_json(Path::new(SERVING_FILE), &entries).expect("write BENCH_serving.json");
    println!("wrote {SERVING_FILE}");
    if let Some(dest) = &args.telemetry {
        let q = |q| recorder.quantile("serve.latency_ticks", q).unwrap_or(0.0);
        println!(
            "telemetry: latency ticks p50 {:.2} | p90 {:.2} | p99 {:.2}  \
             batch occupancy {:.2}  swap latency ticks p50 {:.2}",
            q(0.50),
            q(0.90),
            q(0.99),
            recorder.gauge("serve.batch_occupancy").unwrap_or(0.0),
            recorder
                .quantile("serve.swap_latency_ticks", 0.50)
                .unwrap_or(0.0),
        );
        let path = Path::new(dest);
        let prom = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
            Some(ext) => format!("{ext}.prom"),
            None => "prom".to_string(),
        });
        recorder.write_jsonl(path).expect("write telemetry JSONL");
        recorder
            .write_prometheus(&prom)
            .expect("write telemetry snapshot");
        println!(
            "telemetry written to {} and {}",
            path.display(),
            prom.display()
        );
    }
}
