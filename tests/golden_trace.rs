//! Golden-trace regression tests.
//!
//! A small canonical workload (the quickstart shape, shrunk) is run for
//! SAPS-PSGD and two baselines under both time models, and the
//! per-round `(loss, traffic, comm_time)` trajectory is compared
//! against the committed traces in `tests/golden/`. Any drift — a
//! changed RNG stream, a reordered reduction, a time-model tweak —
//! fails with a readable row-by-row diff instead of a silent behavior
//! change.
//!
//! When a change is *intentional*, regenerate the traces and commit the
//! diff:
//!
//! ```sh
//! SAPS_GOLDEN_REGEN=1 cargo test --test golden_trace
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps::baselines::registry;
use saps::core::{AlgorithmSpec, Experiment, TimeModel};
use saps::data::{Dataset, SyntheticSpec};
use saps::netsim::BandwidthMatrix;
use saps::nn::zoo;
use std::fmt::Write as _;
use std::path::PathBuf;

const WORKERS: usize = 6;
const ROUNDS: usize = 12;
/// Absolute and relative tolerance when comparing against the parsed
/// golden values: wide enough for cross-platform float printing, far
/// below any real behavioral drift.
const ABS_TOL: f64 = 5e-6;
const REL_TOL: f64 = 1e-4;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn dataset() -> (Dataset, Dataset) {
    SyntheticSpec::tiny()
        .samples(1_200)
        .generate(2)
        .split(0.25, 0)
}

/// The three traced algorithms: the paper's contribution plus one
/// decentralized and one centralized baseline.
fn lineup() -> Vec<(&'static str, AlgorithmSpec)> {
    vec![
        (
            "saps",
            AlgorithmSpec::Saps {
                compression: 8.0,
                tthres: 4,
                bthres: None,
            },
        ),
        ("dpsgd", AlgorithmSpec::DPsgd),
        (
            "fedavg",
            AlgorithmSpec::FedAvg {
                participation: 0.5,
                local_steps: 3,
            },
        ),
    ]
}

fn time_models() -> Vec<(&'static str, TimeModel)> {
    vec![
        ("analytic", TimeModel::Analytic),
        ("des", TimeModel::event_driven(0.01)),
    ]
}

/// Runs one (algorithm, time model) cell and renders its trace.
fn render_trace(spec: AlgorithmSpec, model: TimeModel) -> String {
    let (train, val) = dataset();
    // A fixed heterogeneous matrix so the two time models actually
    // disagree on round times.
    let mut rng = StdRng::seed_from_u64(9);
    let bw = BandwidthMatrix::uniform_random(WORKERS, 5.0, &mut rng);
    let hist = Experiment::new(spec)
        .train(train)
        .validation(val)
        .workers(WORKERS)
        .batch_size(16)
        .lr(0.1)
        .seed(4)
        .bandwidth_matrix(bw)
        .model(|rng| zoo::mlp(&[16, 20, 4], rng))
        .rounds(ROUNDS)
        .eval_every(4)
        .eval_samples(200)
        .time_model(model)
        .run(&registry())
        .expect("golden workload must run");
    let mut out = String::from("round,train_loss,worker_traffic_mb,comm_time_s\n");
    for p in &hist.points {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6},{:.6}",
            p.round + 1,
            p.train_loss,
            p.worker_traffic_mb,
            p.comm_time_s
        );
    }
    out
}

/// Parses one rendered/golden CSV into numeric rows.
fn parse(text: &str, path: &str) -> Vec<(u32, f64, f64, f64)> {
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let mut it = line.split(',');
            let mut next = || -> f64 {
                it.next()
                    .unwrap_or_else(|| panic!("{path}: short row {line:?}"))
                    .trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("{path}: bad number in {line:?}: {e}"))
            };
            (next() as u32, next(), next(), next())
        })
        .collect()
}

fn drifted(golden: f64, got: f64) -> bool {
    (golden - got).abs() > ABS_TOL + REL_TOL * golden.abs()
}

#[test]
fn golden_traces_are_stable() {
    let dir = golden_dir();
    let regen = std::env::var("SAPS_GOLDEN_REGEN").is_ok_and(|v| v == "1");
    if regen {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut diffs: Vec<String> = Vec::new();
    for (algo, spec) in lineup() {
        for (model_name, model) in time_models() {
            let name = format!("{algo}_{model_name}.csv");
            let path = dir.join(&name);
            let fresh = render_trace(spec, model);
            if regen {
                std::fs::write(&path, &fresh).unwrap_or_else(|e| panic!("write {name}: {e}"));
                eprintln!("regenerated {name}");
                continue;
            }
            let golden_text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden trace {name} ({e}); regenerate with \
                     `SAPS_GOLDEN_REGEN=1 cargo test --test golden_trace`"
                )
            });
            let golden = parse(&golden_text, &name);
            let got = parse(&fresh, &name);
            if golden.len() != got.len() {
                diffs.push(format!(
                    "{name}: {} golden rounds vs {} fresh rounds",
                    golden.len(),
                    got.len()
                ));
                continue;
            }
            for (g, f) in golden.iter().zip(&got) {
                let fields = [
                    ("train_loss", g.1, f.1),
                    ("worker_traffic_mb", g.2, f.2),
                    ("comm_time_s", g.3, f.3),
                ];
                for (field, gv, fv) in fields {
                    if drifted(gv, fv) {
                        diffs.push(format!(
                            "{name} round {}: {field} golden={gv:.6} got={fv:.6} (Δ={:+.2e})",
                            g.0,
                            fv - gv
                        ));
                    }
                }
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "golden traces drifted in {} place(s) — if intentional, regenerate with \
         `SAPS_GOLDEN_REGEN=1 cargo test --test golden_trace` and commit the diff:\n  {}",
        diffs.len(),
        diffs.join("\n  ")
    );
}

/// The two time models must agree on everything except time: same
/// losses, same traffic, different comm-time columns (positive latency
/// over a heterogeneous matrix cannot coincide).
#[test]
fn golden_pairs_differ_only_in_time() {
    for (algo, spec) in lineup() {
        let analytic = render_trace(spec, TimeModel::Analytic);
        let des = render_trace(spec, TimeModel::event_driven(0.01));
        let a = parse(&analytic, "analytic");
        let d = parse(&des, "des");
        assert_eq!(a.len(), d.len(), "{algo}");
        let mut any_time_diff = false;
        for (ra, rd) in a.iter().zip(&d) {
            assert_eq!(ra.1, rd.1, "{algo} round {}: loss drifted", ra.0);
            assert_eq!(ra.2, rd.2, "{algo} round {}: traffic drifted", ra.0);
            any_time_diff |= ra.3 != rd.3;
        }
        assert!(any_time_diff, "{algo}: DES priced identically to analytic");
    }
}
