//! The paper's figures and tables, as binaries.
//!
//! Each table/figure of the paper has a binary in `src/bin/` that prints
//! the same rows/series the paper reports (`fig*`, `table*`,
//! `ablation_peer_strategy`; Fig. 6's numbers are also merged into
//! `BENCH_comm_time.json` by [`commtime`]), and `run_experiment` is the
//! free-form CSV / telemetry-trail runner. This library holds what they
//! share: the three scaled workloads standing in for MNIST-CNN,
//! CIFAR10-CNN and ResNet-20 (DESIGN.md §6 explains the substitution),
//! the [`experiment`] helper that turns an [`AlgorithmSpec`] + workload
//! into a configured [`Experiment`], and plain-text table helpers.
//!
//! Nothing here measures wall-clock performance: that is the standalone
//! `bench/` package's job (see `bench/README.md` and `BENCHMARK.json`).
//!
//! Algorithms are never constructed directly here — everything goes
//! through [`registry`] (re-exported from `saps-baselines`), so adding
//! an algorithm is a registry change, not a 10-binary rewire.

#![warn(missing_docs)]

pub mod commtime;
pub mod table;
pub mod workload;

pub use saps_baselines::registry;
pub use saps_core::{AlgorithmSpec, Experiment, ParallelismPolicy, TimeModel};
pub use workload::Workload;

use saps_core::experiment::RunHistory;
use saps_netsim::BandwidthMatrix;

/// A configured [`Experiment`] for one algorithm over one workload: the
/// workload supplies dataset, model factory and hyper-parameters; the
/// caller layers rounds/eval cadence/events on top with the builder's
/// setters.
pub fn experiment(
    spec: AlgorithmSpec,
    workload: &Workload,
    bw: &BandwidthMatrix,
    workers: usize,
    seed: u64,
) -> Experiment {
    let (train, val) = workload.dataset(seed);
    experiment_with_data(spec, workload, train, val, bw, workers, seed)
}

/// [`experiment`] with a pre-generated `(train, val)` split — lets
/// multi-algorithm sweeps generate the workload's dataset once.
pub fn experiment_with_data(
    spec: AlgorithmSpec,
    workload: &Workload,
    train: saps_data::Dataset,
    val: saps_data::Dataset,
    bw: &BandwidthMatrix,
    workers: usize,
    seed: u64,
) -> Experiment {
    Experiment::new(spec)
        .train(train)
        .validation(val)
        .workers(workers)
        .batch_size(workload.batch_size)
        .lr(workload.lr)
        .seed(seed)
        .bandwidth_matrix(bw.clone())
        .model(workload.factory())
}

/// Runs a set of algorithms on one workload over the same bandwidth
/// matrix and validation set (generated once). `configure` layers run
/// settings (rounds, eval cadence, epoch budget, events) onto each
/// experiment.
pub fn run_algorithms(
    specs: &[AlgorithmSpec],
    workload: &Workload,
    bw: &BandwidthMatrix,
    workers: usize,
    seed: u64,
    configure: impl Fn(Experiment) -> Experiment,
) -> Vec<RunHistory> {
    let reg = registry();
    let (train, val) = workload.dataset(seed);
    specs
        .iter()
        .map(|&spec| {
            configure(experiment_with_data(
                spec,
                workload,
                train.clone(),
                val.clone(),
                bw,
                workers,
                seed,
            ))
            .run(&reg)
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", spec.label()))
        })
        .collect()
}

/// The paper's full algorithm line-up with its per-algorithm compression
/// settings (Section IV-A): TopK `c = 1000`, S-FedAvg `c = 100`,
/// DCD `c = 4`, SAPS `c = 100`. Scaled-down models use proportionally
/// smaller `c` so that `N/c` stays meaningful; pass the workload's
/// `c_scale` to shrink them uniformly. `saps_bthres` is SAPS-PSGD's
/// `B_thres`; the figure binaries pass the 60th percentile of their
/// bandwidth matrix (Section IV-D), `None` auto-connects.
pub fn paper_lineup(c_scale: f64, saps_bthres: Option<f64>) -> Vec<AlgorithmSpec> {
    let c = |v: f64| (v / c_scale).max(1.0);
    vec![
        AlgorithmSpec::Psgd,
        AlgorithmSpec::TopK {
            compression: c(1000.0),
        },
        AlgorithmSpec::FedAvg {
            participation: 0.5,
            local_steps: 5,
        },
        AlgorithmSpec::SFedAvg {
            participation: 0.5,
            local_steps: 5,
            compression: c(100.0),
        },
        AlgorithmSpec::DPsgd,
        AlgorithmSpec::DcdPsgd {
            compression: 4.0_f64.min(c(4.0)).max(1.5),
        },
        AlgorithmSpec::Saps {
            compression: c(100.0),
            tthres: 8,
            bthres: saps_bthres,
        },
    ]
}
