//! Fig. 6: validation accuracy vs communication time with randomly
//! generated bandwidths for 32 workers.
//!
//! The same runs as Fig. 4, but charged against the (0, 5] MB/s random
//! bandwidth matrix through each algorithm's time model (pairwise
//! bottleneck for decentralized algorithms, best-server for FedAvg,
//! slowest ring link for all-reduce).
//!
//! ```sh
//! cargo run -p saps-bench --release --bin fig6_comm_time -- \
//!     [--time-model=analytic|des] [mnist|cifar|resnet] [rounds]
//! ```
//!
//! Every round is priced on the discrete-event network simulator
//! (fair-share contention — see `docs/NETWORK_SIM.md`): at zero latency
//! by default, with 5 ms per-link latency under `--time-model=des`;
//! losses and traffic are bit-identical between the two, so
//! the records are directly comparable. Either way the per-algorithm
//! numbers are merged into `BENCH_comm_time.json`, keyed by
//! `(algorithm, workload, workers, time_model)`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_bench::commtime::{self, CommTimeEntry};
use saps_bench::{paper_lineup, run_algorithms, table, TimeModel, Workload};
use saps_netsim::BandwidthMatrix;
use std::path::Path;

/// Extracts `--time-model=NAME` / `--time-model NAME` from `args`
/// (both forms, matching `run_experiment`'s space-separated style).
fn parse_time_model(args: &mut Vec<String>) -> TimeModel {
    let mut model = TimeModel::Analytic;
    let mut resolve = |name: &str| match name {
        "analytic" => model = TimeModel::Analytic,
        "des" => model = TimeModel::event_driven(commtime::DES_DEFAULT_LATENCY_S),
        other => {
            eprintln!("unknown time model {other}; use --time-model=analytic|des");
            std::process::exit(2);
        }
    };
    let mut kept = Vec::with_capacity(args.len());
    let mut it = std::mem::take(args).into_iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--time-model=") {
            resolve(name);
        } else if a == "--time-model" {
            match it.next() {
                Some(name) => resolve(&name),
                None => {
                    eprintln!("missing value for --time-model (analytic|des)");
                    std::process::exit(2);
                }
            }
        } else {
            kept.push(a);
        }
    }
    *args = kept;
    model
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let time_model = parse_time_model(&mut args);
    let workloads: Vec<Workload> = match args.first().map(String::as_str) {
        Some(name) => vec![Workload::by_name(name).unwrap_or_else(|| {
            eprintln!("unknown workload {name}; use mnist|cifar|resnet");
            std::process::exit(2);
        })],
        None => Workload::all(),
    };
    let rounds_override: Option<usize> = args.get(1).map(|s| s.parse().expect("rounds"));
    let workers = 32;
    let mut rng = StdRng::seed_from_u64(7);
    let bw = BandwidthMatrix::uniform_random(workers, 5.0, &mut rng);

    for w in &workloads {
        let rounds = rounds_override.unwrap_or(w.default_rounds);
        let max_epochs = if rounds_override.is_some() {
            f64::INFINITY
        } else {
            w.epochs
        };
        println!(
            "\n=== Fig. 6: {} — accuracy vs communication time [{}] ===",
            w.name,
            time_model.label()
        );
        let hists = run_algorithms(
            &paper_lineup(w.c_scale, Some(bw.percentile(0.6))),
            w,
            &bw,
            workers,
            42,
            |e| {
                e.rounds(rounds)
                    .eval_every((rounds / 20).max(1))
                    .eval_samples(1_000)
                    .max_epochs(max_epochs)
                    .time_model(time_model)
            },
        );
        for h in &hists {
            let series: Vec<(f64, f64)> = h
                .points
                .iter()
                .map(|p| (p.comm_time_s, p.val_acc as f64 * 100.0))
                .collect();
            table::print_series(
                &format!("{} / {}", w.name, h.algorithm),
                "comm time [s]",
                "top-1 val acc [%]",
                &table::downsample(&series, 12),
            );
        }
        println!(
            "\ncommunication time to reach {:.0}% accuracy on {}:",
            w.target_acc * 100.0,
            w.name
        );
        for h in &hists {
            match h.first_reaching(w.target_acc) {
                Some(p) => println!("  {:12} {:>12.2} s", h.algorithm, p.comm_time_s),
                None => println!(
                    "  {:12} did not reach target (final {:.1}%)",
                    h.algorithm,
                    h.final_acc * 100.0
                ),
            }
        }

        let entries: Vec<CommTimeEntry> = hists
            .iter()
            .map(|h| CommTimeEntry::from_run(h, w.name, workers, time_model.label(), w.target_acc))
            .collect();
        let path = Path::new(commtime::BENCH_FILE);
        match commtime::record(path, &entries) {
            Ok(()) => println!("recorded {} entries to {}", entries.len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}
