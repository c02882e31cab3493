//! Ablation: the clustering must be robust to the comparator choice.
//!
//! The bootstrap quantile-dominance rule (`BootstrapComparator`) is *our*
//! canonical reading of ref. [15]; these tests check that swapping it for
//! the Mann–Whitney or median comparators preserves the paper's cluster
//! structure on well-separated data (and therefore that the headline
//! results do not hinge on comparator minutiae).

use relative_performance::core::similarity::rand_index;
use relative_performance::measure::ranksum::MannWhitneyComparator;
use relative_performance::prelude::*;

fn clustering_with(
    comparator: &(dyn SeededThreeWayComparator + Sync),
    measured: &[MeasuredAlgorithm],
    seed: u64,
) -> Clustering {
    relative_scores_seeded(measured.len(), ClusterConfig::with_repetitions(40), seed, |s, a, b| {
        comparator.compare_seeded(&measured[a].sample, &measured[b].sample, s)
    })
    .final_assignment()
}

#[test]
fn comparators_agree_on_fig1_at_n500() {
    let experiment = Experiment::fig1();
    let measured = measure_all_seeded(&experiment, 500, 31, Parallelism::auto());

    let bootstrap = clustering_with(&BootstrapComparator::new(32), &measured, 1);
    // Match the practical-equivalence margin to the bootstrap's 2% so the
    // comparators answer the same question.
    let mw = MannWhitneyComparator {
        alpha: 0.05,
        min_effect: 0.02,
    };
    let mann_whitney = clustering_with(&mw, &measured, 1);
    let median = clustering_with(&MedianComparator::new(0.02), &measured, 1);

    // ARI degenerates on 4-element partitions, so use the plain Rand index.
    let ri_bm = rand_index(&bootstrap, &mann_whitney);
    let ri_bd = rand_index(&bootstrap, &median);
    assert!(ri_bm > 0.8, "bootstrap vs Mann-Whitney Rand index = {ri_bm}");
    assert!(ri_bd > 0.8, "bootstrap vs median Rand index = {ri_bd}");

    // All three must crown AD.
    let idx_ad = measured.iter().position(|m| m.label == "AD").unwrap();
    for c in [&bootstrap, &mann_whitney, &median] {
        assert_eq!(c.assignment(idx_ad).rank, 1);
    }
}

#[test]
fn mean_ci_comparator_also_crowns_ad() {
    use relative_performance::measure::compare::MeanCiComparator;
    let experiment = Experiment::fig1();
    let measured = measure_all_seeded(&experiment, 200, 33, Parallelism::auto());
    let clustering = clustering_with(&MeanCiComparator::new(34), &measured, 2);
    let idx_ad = measured.iter().position(|m| m.label == "AD").unwrap();
    assert_eq!(clustering.assignment(idx_ad).rank, 1);
}

#[test]
fn comparator_parameters_trade_resolution_for_stability() {
    // A wider equivalence margin must produce no more classes than a
    // narrow one on the same data.
    use relative_performance::measure::compare::BootstrapConfig;
    let experiment = Experiment::table1(10);
    let measured = measure_all_seeded(&experiment, 30, 35, Parallelism::auto());

    let narrow = BootstrapComparator::with_config(
        36,
        BootstrapConfig {
            margin: 0.005,
            ..Default::default()
        },
    );
    let wide = BootstrapComparator::with_config(
        36,
        BootstrapConfig {
            margin: 0.10,
            ..Default::default()
        },
    );
    let c_narrow = clustering_with(&narrow, &measured, 3);
    let c_wide = clustering_with(&wide, &measured, 3);
    assert!(
        c_wide.num_classes() <= c_narrow.num_classes(),
        "wide margin gave {} classes vs narrow {}",
        c_wide.num_classes(),
        c_narrow.num_classes()
    );
    // An extreme margin collapses everything into one class.
    let extreme = BootstrapComparator::with_config(
        36,
        BootstrapConfig {
            margin: 10.0,
            ..Default::default()
        },
    );
    let c_one = clustering_with(&extreme, &measured, 3);
    assert_eq!(c_one.num_classes(), 1);
}
