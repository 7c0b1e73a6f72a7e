//! Table II: experimental settings.
//!
//! Prints the paper's three models with their published parameter counts
//! next to our full-size reconstructions' counts, plus the scaled
//! workloads the convergence benches actually train (DESIGN.md §6).
//!
//! ```sh
//! cargo run -p saps-bench --release --bin table2_settings
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use saps_bench::{table, Workload};
use saps_nn::zoo;

fn main() {
    println!("=== Table II: experimental settings ===\n");
    let mut rng = StdRng::seed_from_u64(0);
    let full_size: Vec<(&str, usize, usize, usize, f32, usize)> = vec![
        (
            "MNIST-CNN",
            zoo::mnist_cnn(&mut rng).num_params(),
            6_653_628,
            50,
            0.05,
            100,
        ),
        (
            "CIFAR10-CNN",
            zoo::cifar10_cnn(&mut rng).num_params(),
            7_025_886,
            100,
            0.04,
            320,
        ),
        (
            "ResNet-20",
            zoo::resnet20(&mut rng).num_params(),
            269_722,
            64,
            0.1,
            160,
        ),
    ];
    let rows: Vec<Vec<String>> = full_size
        .iter()
        .map(|(name, ours, paper, batch, lr, epochs)| {
            vec![
                name.to_string(),
                table::thousands(*ours as f64),
                table::thousands(*paper as f64),
                format!("{:+.1}%", (*ours as f64 / *paper as f64 - 1.0) * 100.0),
                batch.to_string(),
                format!("{lr}"),
                epochs.to_string(),
            ]
        })
        .collect();
    table::print_table(
        &[
            "Model",
            "# Params (ours)",
            "# Params (paper)",
            "delta",
            "Batch Size",
            "LR",
            "# Epochs",
        ],
        &rows,
    );

    println!("\n=== Scaled workloads used by the convergence benches ===\n");
    let rows: Vec<Vec<String>> = Workload::all()
        .iter()
        .map(|w| {
            let mut rng = StdRng::seed_from_u64(0);
            let params = (w.factory())(&mut rng).num_params();
            vec![
                w.name.to_string(),
                w.paper_model.to_string(),
                table::thousands(params as f64),
                w.batch_size.to_string(),
                format!("{}", w.lr),
                w.default_rounds.to_string(),
                format!("{:.0}%", w.target_acc * 100.0),
            ]
        })
        .collect();
    table::print_table(
        &[
            "Workload",
            "stands in for",
            "# Params",
            "Batch",
            "LR",
            "Rounds",
            "Target Acc",
        ],
        &rows,
    );
    println!(
        "\nfull-size architectures are exercised by unit tests; convergence curves use \
         the scaled workloads (DESIGN.md §6)."
    );
}
