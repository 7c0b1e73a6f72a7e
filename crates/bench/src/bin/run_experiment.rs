//! General experiment runner: one algorithm, one workload, CSV output.
//!
//! The figure/table binaries print the paper's exact views; this binary
//! is the downstream-user tool — pick any algorithm/workload/network and
//! get the full trajectory as CSV for your own plotting. The algorithm
//! name goes straight through [`AlgorithmSpec::parse`] and the
//! eight-algorithm registry; the trajectory is streamed by a
//! [`saps_core::CsvSink`] observer as the run progresses.
//!
//! ```sh
//! cargo run -p saps-bench --release --bin run_experiment -- \
//!     --algo saps --workload mnist --workers 32 --c 10 \
//!     --rounds 200 --network random --seed 42 > run.csv
//! ```
//!
//! Options:
//! * `--algo` — saps | psgd | topk | fedavg | sfedavg | dpsgd | dcd | random
//! * `--workload` — mnist | cifar | resnet
//! * `--network` — constant | random | cities (14 workers, Fig. 1)
//! * `--workers`, `--rounds`, `--epochs`, `--seed`, `--eval-every`
//! * `--c F` — compression ratio; omit to use the algorithm's paper
//!   default (SAPS 100, TopK 1000, S-FedAvg 100, DCD 4)
//! * `--target-acc F` — stop early at the first evaluation reaching `F`
//! * `--threads seq|auto|N` — round-engine thread count (default auto;
//!   every setting produces the bit-identical trajectory)
//! * `--time-model analytic|des` — price rounds on the discrete-event
//!   network simulator at zero latency (default) or with 5 ms per-link
//!   latency (fair-share contention either way; see
//!   `docs/NETWORK_SIM.md`) — losses and traffic stay bit-identical
//! * `--driver memory|cluster` — run the algorithm in-memory (default)
//!   or through the `saps-cluster` message-driven runtime, where every
//!   round crosses the wire as serialized `saps-proto` frames
//!   (`docs/PROTOCOL.md`; all eight algorithms). Losses and worker-row
//!   traffic are
//!   bit-identical; round time additionally prices the frame envelopes,
//!   and the control plane lands on the server row.
//! * `--telemetry on|off|<path>` — attach the `saps-telemetry` recorder
//!   (default `on`). The run's trajectory is bit-identical either way
//!   (pinned by `tests/telemetry.rs`); with the recorder on, a round
//!   timing breakdown (p50/p90/p99 of total/compute/comm), resync
//!   reports, and crash-dump counts print to stderr after the run. A
//!   path argument additionally writes the structured event trail as
//!   JSONL to `<path>` and a Prometheus-style metric snapshot to
//!   `<path>.prom` (see `docs/OBSERVABILITY.md`).
//!
//! The CSV goes to stdout and the summary to stderr; no file is written
//! unless `--telemetry <path>` asks for one.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_bench::{experiment, registry, AlgorithmSpec, ParallelismPolicy, TimeModel, Workload};
use saps_cluster::{cluster_registry, WireTap};
use saps_core::{CsvSink, Recorder};
use saps_netsim::{citydata, BandwidthMatrix};
use std::path::Path;

#[derive(Debug)]
struct Args {
    algo: String,
    workload: String,
    network: String,
    workers: usize,
    rounds: usize,
    epochs: f64,
    c: Option<f64>,
    seed: u64,
    eval_every: usize,
    target_acc: Option<f32>,
    threads: ParallelismPolicy,
    time_model: TimeModel,
    driver: String,
    telemetry: String,
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            algo: "saps".into(),
            workload: "mnist".into(),
            network: "constant".into(),
            workers: 32,
            rounds: 200,
            epochs: f64::INFINITY,
            c: None,
            seed: 42,
            eval_every: 10,
            target_acc: None,
            threads: ParallelismPolicy::Auto,
            time_model: TimeModel::Analytic,
            driver: "memory".into(),
            telemetry: "on".into(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i].as_str();
            let val = argv
                .get(i + 1)
                .unwrap_or_else(|| usage(&format!("missing value for {key}")));
            match key {
                "--algo" => a.algo = val.clone(),
                "--workload" => a.workload = val.clone(),
                "--network" => a.network = val.clone(),
                "--workers" => a.workers = val.parse().unwrap_or_else(|_| usage("bad --workers")),
                "--rounds" => a.rounds = val.parse().unwrap_or_else(|_| usage("bad --rounds")),
                "--epochs" => a.epochs = val.parse().unwrap_or_else(|_| usage("bad --epochs")),
                "--c" => a.c = Some(val.parse().unwrap_or_else(|_| usage("bad --c"))),
                "--seed" => a.seed = val.parse().unwrap_or_else(|_| usage("bad --seed")),
                "--eval-every" => {
                    a.eval_every = val.parse().unwrap_or_else(|_| usage("bad --eval-every"))
                }
                "--target-acc" => {
                    a.target_acc = Some(val.parse().unwrap_or_else(|_| usage("bad --target-acc")))
                }
                "--threads" => a.threads = val.parse().unwrap_or_else(|_| usage("bad --threads")),
                "--time-model" => {
                    a.time_model = match val.as_str() {
                        "analytic" => TimeModel::Analytic,
                        "des" => {
                            TimeModel::event_driven(saps_bench::commtime::DES_DEFAULT_LATENCY_S)
                        }
                        _ => usage("bad --time-model (use analytic|des)"),
                    }
                }
                "--driver" => {
                    a.driver = match val.as_str() {
                        "memory" | "cluster" => val.clone(),
                        _ => usage("bad --driver (use memory|cluster)"),
                    }
                }
                "--telemetry" => a.telemetry = val.clone(),
                other => usage(&format!("unknown option {other}")),
            }
            i += 2;
        }
        a
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: run_experiment [--algo saps|psgd|topk|fedavg|sfedavg|dpsgd|dcd|random]\n\
         \u{20}                     [--workload mnist|cifar|resnet] [--network constant|random|cities]\n\
         \u{20}                     [--workers N] [--rounds N] [--epochs F] [--c F] [--seed N]\n\
         \u{20}                     [--eval-every N] [--target-acc F] [--threads seq|auto|N]\n\
         \u{20}                     [--time-model analytic|des] [--driver memory|cluster]\n\
         \u{20}                     [--telemetry on|off|<path>]"
    );
    std::process::exit(2);
}

fn main() {
    let args = Args::parse();
    let workload = Workload::by_name(&args.workload)
        .unwrap_or_else(|| usage(&format!("unknown workload {}", args.workload)));
    let mut spec = AlgorithmSpec::parse(&args.algo).unwrap_or_else(|e| usage(&e.to_string()));
    if let Some(c) = args.c {
        spec = spec.with_compression(c);
    }
    let (workers, bw) = match args.network.as_str() {
        "constant" => (args.workers, BandwidthMatrix::constant(args.workers, 1.0)),
        "random" => {
            let mut rng = StdRng::seed_from_u64(args.seed);
            (
                args.workers,
                BandwidthMatrix::uniform_random(args.workers, 5.0, &mut rng),
            )
        }
        "cities" => (citydata::NUM_CITIES, citydata::fig1_bandwidth()),
        other => usage(&format!("unknown network {other}")),
    };

    // The cluster registry covers every algorithm key (SAPS plus the
    // seven wire baselines), so any --algo runs under either driver.
    let tap = WireTap::new();
    let reg = match args.driver.as_str() {
        "cluster" => cluster_registry(tap.clone()),
        _ => registry(),
    };

    let recorder = if args.telemetry == "off" {
        Recorder::disabled()
    } else {
        Recorder::new()
    };
    let mut exp = experiment(spec, &workload, &bw, workers, args.seed)
        .rounds(args.rounds)
        .eval_every(args.eval_every)
        .eval_samples(1_000)
        .max_epochs(args.epochs)
        .parallelism(args.threads)
        .time_model(args.time_model)
        .telemetry(recorder.clone())
        .observer(Box::new(CsvSink::new(std::io::stdout())));
    if let Some(t) = args.target_acc {
        exp = exp.target_accuracy(t);
    }
    eprintln!(
        "# {} on {} — {} workers, network = {}, {} thread(s), {} driver",
        spec.label(),
        workload.name,
        workers,
        args.network,
        args.threads.resolve(),
        args.driver,
    );
    let hist = exp.run(&reg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    let wire = tap.snapshot();
    eprintln!(
        "# final acc {:.2}% | worker traffic {:.4} MB | server {:.4} MB | comm time {:.2} s | {:.2} rounds/s wall",
        hist.final_acc * 100.0,
        hist.total_worker_traffic_mb,
        hist.total_server_traffic_mb,
        hist.total_comm_time_s,
        hist.points.len() as f64 / hist.wall_time_s.max(f64::MIN_POSITIVE),
    );
    if args.driver == "cluster" {
        eprintln!(
            "# on the wire: {:.4} MB total ({:.4} MB payload values, {:.4} MB control plane, {:.4} MB model plane)",
            wire.total_bytes as f64 / 1e6,
            wire.data_bytes as f64 / 1e6,
            wire.control_bytes as f64 / 1e6,
            wire.model_bytes as f64 / 1e6,
        );
    }
    if recorder.is_enabled() {
        report_telemetry(&recorder, &args.telemetry);
    }
}

/// Prints the recorder's round-timing breakdown, resync reports, and
/// failure-dump counts to stderr; a path-valued `--telemetry` also
/// writes the JSONL event trail and a Prometheus snapshot to disk.
fn report_telemetry(recorder: &Recorder, dest: &str) {
    let pct = |name: &str| {
        let q = |q| recorder.quantile(name, q).unwrap_or(0.0);
        (q(0.50), q(0.90), q(0.99))
    };
    for (label, metric) in [
        ("round total", "round.total_s"),
        ("  compute", "round.compute_s"),
        ("  comm", "round.comm_s"),
    ] {
        let (p50, p90, p99) = pct(metric);
        eprintln!("# {label:<12} p50 {p50:.6} s | p90 {p90:.6} s | p99 {p99:.6} s");
    }
    if let Some(rt) = recorder.counter("net.retransmit_segments") {
        eprintln!(
            "# packet model: {rt} retransmitted segments, peak queue {:.0} bytes",
            recorder.gauge("net.peak_queue_bytes").unwrap_or(0.0),
        );
    }
    for ev in recorder.events() {
        if ev.kind == "resync" || ev.kind == "resync.failed" {
            eprintln!("# {}", ev.to_json());
        }
    }
    let dumps = recorder.dumps();
    if !dumps.is_empty() {
        eprintln!("# {} flight-recorder dump(s):", dumps.len());
        for d in &dumps {
            eprintln!(
                "#   {} at vtime {:.3} s ({} events)",
                d.reason,
                d.vtime_s,
                d.events.len()
            );
        }
    }
    if dest != "on" {
        let path = Path::new(dest);
        let prom = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
            Some(ext) => format!("{ext}.prom"),
            None => "prom".to_string(),
        });
        match recorder.write_jsonl(path) {
            Ok(()) => eprintln!("# telemetry events written to {}", path.display()),
            Err(e) => eprintln!("# warning: could not write {}: {e}", path.display()),
        }
        match recorder.write_prometheus(&prom) {
            Ok(()) => eprintln!("# metric snapshot written to {}", prom.display()),
            Err(e) => eprintln!("# warning: could not write {}: {e}", prom.display()),
        }
    }
}
