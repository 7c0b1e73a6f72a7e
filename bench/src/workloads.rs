//! The six workloads as data. Every workload is the same three-phase
//! lifecycle — train (per-algorithm legs), churn (leave / rejoin waves on a
//! P-SGD fleet, the only algorithm that resyncs a joiner's model) and serve
//! (replicas answering requests under hot swaps) — at its own shapes and
//! with its own split of the measured time, so every end-to-end metric is a
//! real measurement on every workload while one phase dominates each.

use crate::adapter::AlgorithmSpec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `saps::baselines::registry()`: shared-memory exchanges, no framing.
    Memory,
    /// `saps::cluster::cluster_registry(tap)`: framed `saps-proto` messages
    /// over the loopback transport.
    Wire,
}

impl Fabric {
    pub fn label(self) -> &'static str {
        match self {
            Fabric::Memory => "memory",
            Fabric::Wire => "wire",
        }
    }
}

/// One algorithm of the train phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegSpec {
    pub algo: AlgorithmSpec,
    /// Untimed rounds run during set-up.
    pub warmup: usize,
    /// Timed rounds every run makes whatever the time budget; the
    /// seed-deterministic metrics (traffic, simulated time, loss) are taken
    /// over exactly these, so they do not depend on the machine's speed.
    pub fixed_rounds: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeShape {
    pub replicas: usize,
    pub clients: u32,
    /// Mean of the Poisson arrivals submitted per tick, over all replicas.
    pub mean_per_tick: f64,
    pub max_batch: usize,
    /// Requests between two checkpoint announces; one such block (announce
    /// included) is the unit whose median time gives `req_per_s`.
    pub swap_every: usize,
    /// Blocks every run serves whatever the time budget.
    pub fixed_blocks: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub fabric: Fabric,
    pub workers: usize,
    /// MLP layer widths; input features and classes follow from the ends.
    pub dims: &'static [usize],
    pub batch: usize,
    pub lr: f32,
    pub samples: usize,
    /// `SyntheticSpec` noise, class separation and mixing taps.
    pub data: (f32, f32, usize),
    /// Pairwise bandwidths are drawn uniformly from `(lo, hi]` MB/s.
    pub bandwidth: (f64, f64),
    pub legs: Vec<LegSpec>,
    /// Index into `legs` of the leg the traced run attributes time on.
    pub focus: usize,
    /// `SapsConfig::shard_size` for the SAPS leg (needs `ClusterTrainer`
    /// directly; the registry builder has no such field).
    pub shard_size: Option<usize>,
    /// Size of the churn phase's P-SGD fleet: the leading ranks of the
    /// workload's own (a dense ring all-reduce over 1 000 ranks costs 0.7 s
    /// a round to price, which would measure the DES, not the chunk plane).
    pub churn_workers: usize,
    /// Ranks that leave and rejoin in every churn wave.
    pub churn_ranks: std::ops::Range<usize>,
    /// Waves every run makes whatever the time budget.
    pub fixed_waves: usize,
    pub serve: ServeShape,
    /// Shares of `--seconds` given to train, churn and serve.
    pub shares: [f64; 3],
    /// Verification fails when `final_loss` reaches this.
    pub loss_ceiling: f64,
}

impl WorkloadSpec {
    pub fn model_len(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }
}

/// The paper's seven algorithms at `c_scale` 10 with `B_thres` auto, plus
/// the RandomChoose ablation: eight registry keys.
fn lineup8() -> Vec<LegSpec> {
    let c = |paper: f64| (paper / 10.0_f64).max(1.0);
    [
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
        AlgorithmSpec::DcdPsgd { compression: 1.5 },
        AlgorithmSpec::RandomChoose {
            compression: c(100.0),
        },
        AlgorithmSpec::Saps {
            compression: c(100.0),
            tthres: 8,
            bthres: None,
        },
    ]
    .into_iter()
    .map(|algo| LegSpec {
        algo,
        warmup: 5,
        fixed_rounds: 20,
    })
    .collect()
}

const SMALL_SERVE: ServeShape = ServeShape {
    replicas: 4,
    clients: 4,
    mean_per_tick: 16.0,
    max_batch: 8,
    swap_every: 20_000,
    fixed_blocks: 3,
};

/// Both lineup workloads come from here, so their inputs and legs cannot
/// drift apart; only the fabric differs.
fn lineup(name: &'static str, why: &'static str, fabric: Fabric) -> WorkloadSpec {
    WorkloadSpec {
        name,
        why,
        fabric,
        workers: 32,
        dims: &[64, 128, 10],
        batch: 50,
        lr: 0.05,
        samples: 8_000,
        data: (1.6, 0.8, 4),
        bandwidth: (2.0, 5.0),
        legs: lineup8(),
        focus: 7,
        shard_size: None,
        churn_workers: 32,
        churn_ranks: 8..24,
        fixed_waves: 3,
        serve: SMALL_SERVE,
        shares: [0.75, 0.10, 0.15],
        loss_ceiling: 2.3,
    }
}

const BIG: &[usize] = &[256, 2048, 256, 10];

pub fn all() -> Vec<WorkloadSpec> {
    vec![
        lineup(
            "lineup8-mem",
            "Compute-bound reference: 8 algorithms x 32 workers in memory; local SGD (nn/tensor) is ~90% of a round, no framing",
            Fabric::Memory,
        ),
        lineup(
            "lineup8-wire",
            "Same inputs and legs through framed saps-proto messages; the pair is the wire tax per algorithm (dense collectives pay most)",
            Fabric::Wire,
        ),
        WorkloadSpec {
            name: "bigmodel-wire",
            why: "Exchange-bound: 1.05M-param MLP, batch 2, 8 workers on the wire; mask/encode/checksum/decode dominate, compute is little",
            fabric: Fabric::Wire,
            workers: 8,
            dims: BIG,
            batch: 2,
            lr: 0.01,
            samples: 2_000,
            data: (1.6, 0.8, 4),
            bandwidth: (4.0, 5.0),
            legs: vec![
                LegSpec {
                    algo: AlgorithmSpec::Saps {
                        compression: 4.0,
                        tthres: 8,
                        bthres: None,
                    },
                    warmup: 3,
                    fixed_rounds: 12,
                },
                LegSpec {
                    algo: AlgorithmSpec::DPsgd,
                    warmup: 2,
                    fixed_rounds: 6,
                },
            ],
            focus: 0,
            shard_size: None,
            churn_workers: 8,
            churn_ranks: 2..6,
            fixed_waves: 1,
            serve: ServeShape {
                replicas: 2,
                clients: 2,
                mean_per_tick: 8.0,
                max_batch: 8,
                swap_every: 96,
                fixed_blocks: 2,
            },
            shares: [0.70, 0.15, 0.15],
            loss_ceiling: 2.6,
        },
        WorkloadSpec {
            name: "saps1k-wire",
            why: "Scale-bound: 1000 workers, tiny model, sharded planning; DES pricing, Algorithm 3 planning and control frames dominate, compute ~3%",
            fabric: Fabric::Wire,
            workers: 1_000,
            dims: &[16, 32, 4],
            batch: 4,
            lr: 0.05,
            samples: 4_000,
            data: (3.0, 0.6, 4),
            bandwidth: (20.0, 100.0),
            legs: vec![LegSpec {
                algo: AlgorithmSpec::Saps {
                    compression: 50.0,
                    tthres: 5,
                    bthres: Some(60.0),
                },
                warmup: 2,
                fixed_rounds: 20,
            }],
            focus: 0,
            shard_size: Some(64),
            churn_workers: 32,
            churn_ranks: 8..24,
            fixed_waves: 2,
            serve: SMALL_SERVE,
            shares: [0.80, 0.10, 0.10],
            loss_ceiling: 1.2,
        },
        WorkloadSpec {
            name: "resync-chunked",
            why: "Chunk plane: P-SGD x 16 workers, 4.2 MB checkpoint in 64 KiB chunks; flash-crowd waves of 8 joiners, served one after another",
            fabric: Fabric::Wire,
            workers: 16,
            dims: BIG,
            batch: 2,
            lr: 0.01,
            samples: 2_000,
            data: (1.6, 0.8, 4),
            bandwidth: (4.0, 5.0),
            legs: vec![LegSpec {
                algo: AlgorithmSpec::Psgd,
                warmup: 1,
                fixed_rounds: 2,
            }],
            focus: 0,
            shard_size: None,
            churn_workers: 16,
            churn_ranks: 4..12,
            fixed_waves: 2,
            serve: ServeShape {
                replicas: 2,
                clients: 2,
                mean_per_tick: 8.0,
                max_batch: 8,
                swap_every: 96,
                fixed_blocks: 2,
            },
            shares: [0.15, 0.70, 0.15],
            loss_ceiling: 2.9,
        },
        WorkloadSpec {
            name: "serve-swap",
            why: "Inference plane: 4 replicas, MLP [32,64,10], Poisson arrivals in micro-batches 1-8, hot swap every 50k requests; nn forward + tiny frames",
            fabric: Fabric::Memory,
            workers: 8,
            dims: &[32, 64, 10],
            batch: 16,
            lr: 0.05,
            samples: 24_000,
            data: (1.6, 0.8, 4),
            bandwidth: (3.0, 5.0),
            legs: vec![LegSpec {
                algo: AlgorithmSpec::Saps {
                    compression: 10.0,
                    tthres: 8,
                    bthres: None,
                },
                warmup: 5,
                fixed_rounds: 40,
            }],
            focus: 0,
            shard_size: None,
            churn_workers: 8,
            churn_ranks: 2..6,
            fixed_waves: 3,
            serve: ServeShape {
                replicas: 4,
                clients: 4,
                mean_per_tick: 16.0,
                max_batch: 8,
                swap_every: 50_000,
                fixed_blocks: 3,
            },
            shares: [0.10, 0.10, 0.80],
            loss_ceiling: 2.6,
        },
    ]
}

pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|w| w.name == name)
}
