//! Integration tests of the extension features: multi-accelerator
//! platforms, budgeted tournament search, and execution-less prediction.

use rand::prelude::*;
use relative_performance::core::search::{tournament_search, SearchConfig};
use relative_performance::measure::stream_seed;
use relative_performance::prelude::*;
use relative_performance::sim::{enumerate_placements, placement_label};
use relative_performance::workloads::scientific_code;

fn two_accel_platform() -> Platform {
    let mut platform = presets::table1_platform();
    platform
        .accelerators
        .extend(presets::raspberry_platform().accelerators);
    platform
}

#[test]
fn multi_accelerator_clustering_puts_pi_placements_last() {
    let platform = two_accel_platform();
    platform.validate();
    let tasks = scientific_code::tasks(10);
    let placements = enumerate_placements(3, 2);
    assert_eq!(placements.len(), 27);

    let seed = 41;
    let samples: Vec<(String, Sample)> = placements
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, i as u64));
            (placement_label(p), platform.measure(&tasks, p, 20, &mut rng).unwrap())
        })
        .collect();

    let comparator = BootstrapComparator::new(42);
    let clustering = relative_scores_seeded(
        samples.len(),
        ClusterConfig::with_repetitions(30),
        seed,
        |stream, a, b| comparator.compare_seeded(&samples[a].1, &samples[b].1, stream),
    )
    .final_assignment();

    // Placing the big L3 on the Raspberry-Pi-class accelerator (labels
    // ending in 'B') must always rank in the worse half.
    let mid = clustering.num_classes() / 2;
    for (i, (label, _)) in samples.iter().enumerate() {
        if label.ends_with('B') {
            assert!(
                clustering.assignment(i).rank > mid,
                "{label} ranked {} of {}",
                clustering.assignment(i).rank,
                clustering.num_classes()
            );
        }
    }
    // The single-accelerator winner DDA must stay in the best class.
    let dda = samples.iter().position(|(l, _)| l == "DDA").unwrap();
    assert_eq!(clustering.assignment(dda).rank, 1);
}

#[test]
fn tournament_search_recovers_the_exhaustive_winner() {
    // Search the 8-placement Table I space with lazy measurement and check
    // the champion matches the exhaustive clustering's top class.
    let exp = Experiment::table1(10);
    let seed = 43;
    let measured = measure_all_seeded(&exp, 30, seed, Parallelism::auto());
    let comparator = BootstrapComparator::new(44);

    let result = tournament_search(
        measured.len(),
        SearchConfig {
            round_size: 4,
            repetitions: 10,
            comparison_budget: 2_000,
        },
        seed,
        |stream, a, b| comparator.compare_seeded(&measured[a].sample, &measured[b].sample, stream),
    );
    assert!(!result.champions.is_empty());
    let champion_labels: Vec<&str> = result
        .champions
        .iter()
        .map(|&c| measured[c].label.as_str())
        .collect();
    assert!(
        champion_labels.contains(&"DDA"),
        "search champions {champion_labels:?} must include DDA"
    );
}

#[test]
fn prediction_generalizes_to_unmeasured_placements() {
    use relative_performance::core::predict::KnnClassModel;
    use relative_performance::workloads::digital_twin::{self, MultiScaleConfig};
    use relative_performance::workloads::features::{placement_features, training_set};

    let config = MultiScaleConfig {
        stages: 5,
        base_size: 30,
        growth: 1.8,
        iters_per_stage: 3,
    };
    let exp = Experiment {
        platform: presets::table1_platform(),
        tasks: digital_twin::tasks(&config),
        placements: digital_twin::placements(&config),
    };
    let seed = 45;
    let measured = measure_all_seeded(&exp, 15, seed, Parallelism::auto());
    let comparator = MedianComparator::new(0.05);
    let clustering = cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(20),
        seed,
    )
    .final_assignment();

    // Train on 24 of the 32 placements; predict the held-out 8.
    let all = training_set(&exp.tasks, &measured, &clustering);
    let (train, test): (Vec<_>, Vec<_>) = all
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % 4 != 0);
    let model = KnnClassModel::fit(train.into_iter().map(|(_, e)| e).collect(), 3).unwrap();

    let mut soft_hits = 0usize;
    let total = test.len();
    for (i, example) in test {
        let features = placement_features(&exp.tasks, &measured[i].placement);
        let pred = model.predict(&features).unwrap();
        if pred.abs_diff(example.class) <= 1 {
            soft_hits += 1;
        }
    }
    let rate = soft_hits as f64 / total as f64;
    assert!(
        rate >= 0.5,
        "held-out ±1-class accuracy {rate} below the useful-signal bar"
    );
}
