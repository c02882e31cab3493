//! E8 (extension) — execution-less relative-performance prediction, the
//! paper's stated future work: train a class predictor on the measured
//! clusters and grade it by leave-one-out validation.
//!
//! Training data: the Table I experiment plus a 5-stage digital-twin
//! hierarchy (32 placements) on the same platform; features are purely
//! static (FLOPs per device, bytes, crossings — no execution needed at
//! prediction time).

use relperf_bench::{header, paper_comparator, SEED};
use relperf_core::cluster::{ClusterConfig, Parallelism};
use relperf_core::predict::KnnClassModel;
use relperf_workloads::digital_twin::{self, MultiScaleConfig};
use relperf_workloads::experiment::{cluster_measurements_seeded, measure_all_seeded, Experiment};
use relperf_workloads::features::training_set;

fn evaluate(name: &str, exp: &Experiment, n: usize, k: usize) {
    let measured = measure_all_seeded(exp, n, SEED, Parallelism::auto());
    let clustering = cluster_measurements_seeded(
        &measured,
        &paper_comparator(SEED),
        ClusterConfig::with_repetitions(50),
        SEED,
    )
    .final_assignment();

    let train = training_set(&exp.tasks, &measured, &clustering);
    let model = KnnClassModel::fit(train, k).unwrap();
    let (exact, within_one) = model.leave_one_out();
    println!(
        "{name:<28} algorithms={:<3} classes={:<2} kNN(k={k}): exact LOO = {:.2}, ±1 class = {:.2}",
        measured.len(),
        clustering.num_classes(),
        exact,
        within_one
    );
}

fn main() {
    header("Execution-less class prediction (paper future work, extension)");
    evaluate("table1 (8 placements)", &Experiment::table1(10), 30, 3);

    let config = MultiScaleConfig {
        stages: 5,
        base_size: 30,
        growth: 1.8,
        iters_per_stage: 3,
    };
    let twin = Experiment {
        platform: relperf_sim::presets::table1_platform(),
        tasks: digital_twin::tasks(&config),
        placements: digital_twin::placements(&config),
    };
    evaluate("digital-twin (32 placements)", &twin, 15, 3);

    let big = MultiScaleConfig {
        stages: 7,
        base_size: 25,
        growth: 1.6,
        iters_per_stage: 3,
    };
    let twin_big = Experiment {
        platform: relperf_sim::presets::table1_platform(),
        tasks: digital_twin::tasks(&big),
        placements: digital_twin::placements(&big),
    };
    evaluate("digital-twin (128 placements)", &twin_big, 15, 5);

    println!("\nbaseline: uniform guessing over k classes scores 1/k exact.");
    println!("the ±1-class criterion is the relevant one for algorithm selection");
    println!("(adjacent classes are near-equivalent performance).");
}
