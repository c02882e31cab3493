//! Machine-readable benchmark of the bootstrap comparison engine and the
//! clustering pipeline around it. Writes `BENCH_comparator.json` with two
//! tables:
//!
//! * `entries` — before/after medians on the same machine and build: the
//!   sort-based **reference oracle** (the pre-fast-path implementation,
//!   kept in-tree as `BootstrapComparator::compare_seeded_reference`)
//!   against the allocation-free count-based fast path, a fresh scratch
//!   arena per comparison against a reused one, and the clustering
//!   repetition loop on one thread against all cores (asserted
//!   bit-identical before timing);
//! * `timings` — single medians of the layers the pipeline is built from:
//!   bootstrap resampling, the median comparator, the platform simulator,
//!   the three-way sort and Procedure 4, and the full
//!   measure → compare → cluster pipeline of both paper experiments.
//!
//! Run from the workspace root:
//!
//! ```bash
//! cargo run --release -p relperf-bench --bin bench_comparator
//! ```

use rand::prelude::*;
use relperf_bench::report::{Report, Row};
use relperf_bench::{median_pair, median_secs, noisy_sample, paper_comparator, row, run_pipeline};
use relperf_core::cluster::{relative_scores_seeded, ClusterConfig, Parallelism};
use relperf_core::sort::sort;
use relperf_measure::bootstrap::{mean_ci, resample};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig, MedianComparator, Scratch};
use relperf_measure::{
    Outcome, ScratchThreeWayComparator, SeededThreeWayComparator, ThreeWayComparator,
};
use relperf_workloads::experiment::{cluster_measurements_seeded, measure_all_seeded, Experiment};
use std::hint::black_box;

/// Median seconds per call of `f`, timed over batches of `calls` calls so
/// sub-microsecond operations stay above the timer's resolution.
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    median_secs(9, || (0..calls).for_each(|_| f())) / calls as f64
}

fn pair(name: String, (before_s, after_s): (f64, f64)) -> Row {
    row![
        "name" => name,
        "before_median_s" => before_s,
        "after_median_s" => after_s,
        "speedup" => before_s / after_s,
    ]
}

fn timing(name: String, median_s: f64) -> Row {
    row!["name" => name, "median_s" => median_s]
}

/// Comparator answering by a fixed quality level per algorithm.
fn by_level(levels: &[usize]) -> impl Fn(usize, usize) -> Outcome + Sync + '_ {
    move |a, b| match levels[a].cmp(&levels[b]) {
        std::cmp::Ordering::Less => Outcome::Better,
        std::cmp::Ordering::Greater => Outcome::Worse,
        std::cmp::Ordering::Equal => Outcome::Equivalent,
    }
}

fn main() {
    let mut entries: Vec<Row> = Vec::new();
    let mut timings: Vec<Row> = Vec::new();

    // Single-comparison cost at the borderline the clustering engine
    // lives on (5% gap, N-sized samples, stream-addressed comparisons).
    let streams = 64u64;
    for &(n, reps) in &[(30usize, 30usize), (30, 100), (100, 100), (500, 100)] {
        let a = noisy_sample(1.00, n, 4);
        let b = noisy_sample(1.05, n, 5);
        let cmp = BootstrapComparator::with_config(
            6,
            BootstrapConfig {
                reps,
                ..Default::default()
            },
        );
        let before_s = median_secs(9, || {
            for s in 0..streams {
                black_box(cmp.compare_seeded_reference(&a, &b, s));
            }
        }) / streams as f64;
        let mut scratch = Scratch::new();
        let after_s = median_secs(9, || {
            for s in 0..streams {
                black_box(cmp.compare_seeded_scratch(&mut scratch, &a, &b, s));
            }
        }) / streams as f64;
        entries.push(pair(
            format!("compare/n{n}_reps{reps}"),
            (before_s, after_s),
        ));
        if reps == 100 {
            // The allocation-cost share: a fresh arena per comparison.
            let mut scratch = Scratch::new();
            let (fresh_s, reused_s) = median_pair(
                9,
                || {
                    (0..streams).for_each(|s| {
                        black_box(cmp.compare_seeded(&a, &b, s));
                    })
                },
                || {
                    (0..streams).for_each(|s| {
                        black_box(cmp.compare_seeded_scratch(&mut scratch, &a, &b, s));
                    })
                },
            );
            let per_stream = (fresh_s / streams as f64, reused_s / streams as f64);
            entries.push(pair(format!("scratch/n{n}_reps{reps}"), per_stream));
        }
    }

    // End to end: the Table I pipeline's clustering stage (measurements
    // are shared; the comparator dominates). Before = same engine with
    // every comparison answered by the reference oracle.
    let exp = Experiment::table1(2);
    let measured = measure_all_seeded(&exp, 30, 31, Parallelism::serial());
    let comparator = BootstrapComparator::with_config(
        7,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    );
    let config = ClusterConfig {
        repetitions: 40,
        parallelism: Parallelism::serial(),
    };
    let before_s = median_secs(9, || {
        black_box(relative_scores_seeded(
            measured.len(),
            config,
            3,
            |stream, x, y| {
                comparator.compare_seeded_reference(
                    &measured[x].sample,
                    &measured[y].sample,
                    stream,
                )
            },
        ));
    });
    let after_s = median_secs(9, || {
        black_box(cluster_measurements_seeded(
            &measured,
            &comparator,
            config,
            3,
        ));
    });
    entries.push(pair(
        "end_to_end/table1_cluster_rep40".to_string(),
        (before_s, after_s),
    ));

    // Procedure 4's repetition loop on one thread vs all cores. The two
    // are bit-identical by construction; check that before timing.
    let measured = measure_all_seeded(&exp, 30, 1234, Parallelism::auto());
    let comparator = paper_comparator(1234);
    let cluster = |repetitions, parallelism| {
        let config = ClusterConfig {
            repetitions,
            parallelism,
        };
        cluster_measurements_seeded(&measured, &comparator, config, 7)
    };
    assert_eq!(
        cluster(20, Parallelism::serial()),
        cluster(20, Parallelism::auto()),
        "parallel clustering must be bit-identical"
    );
    entries.push(pair(
        "parallel/table1_cluster_rep50".to_string(),
        median_pair(
            9,
            || {
                black_box(cluster(50, Parallelism::serial()));
            },
            || {
                black_box(cluster(50, Parallelism::auto()));
            },
        ),
    ));
    let serial20 = ClusterConfig {
        repetitions: 20,
        parallelism: Parallelism::serial(),
    };
    timings.push(timing(
        "procedure4/table1_cached_rep20".to_string(),
        median_secs(9, || {
            black_box(relative_scores_seeded(
                measured.len(),
                serial20,
                7,
                |stream, x, y| {
                    comparator.compare_seeded(&measured[x].sample, &measured[y].sample, stream)
                },
            ));
        }),
    ));

    // Bootstrap resampling and the median comparator.
    for n in [30usize, 100, 500] {
        let s = noisy_sample(1.0, n, 1);
        let mut rng = StdRng::seed_from_u64(2);
        timings.push(timing(
            format!("bootstrap/resample_n{n}"),
            per_call(256, || {
                black_box(resample(&mut rng, black_box(&s)));
            }),
        ));
        let mut rng = StdRng::seed_from_u64(3);
        timings.push(timing(
            format!("bootstrap/mean_ci_200_n{n}"),
            per_call(4, || {
                black_box(mean_ci(&mut rng, black_box(&s), 200, 0.95));
            }),
        ));
    }
    let (a, b) = (noisy_sample(1.00, 30, 4), noisy_sample(1.05, 30, 5));
    let median = MedianComparator::new(0.02);
    timings.push(timing(
        "three-way-compare/median_n30".to_string(),
        per_call(1024, || {
            black_box(median.compare(black_box(&a), black_box(&b)));
        }),
    ));

    // The platform simulator: one execution and one N-sample.
    let exp = Experiment::table1(10);
    let placement = &exp.placements[1].1; // DDA
    let mut rng = StdRng::seed_from_u64(1);
    timings.push(timing(
        "simulate/one_execution".to_string(),
        per_call(1024, || {
            black_box(
                exp.platform
                    .execute(black_box(&exp.tasks), black_box(placement), &mut rng),
            );
        }),
    ));
    for n in [30usize, 500] {
        let mut rng = StdRng::seed_from_u64(2);
        timings.push(timing(
            format!("simulate/measure_n{n}"),
            per_call(16, || {
                black_box(
                    exp.platform
                        .measure(&exp.tasks, placement, n, &mut rng)
                        .expect("measures"),
                );
            }),
        ));
    }

    // The three-way sort and Procedure 4 on synthetic level comparators,
    // as the algorithm count p grows.
    for p in [8usize, 32, 128] {
        let mut rng = StdRng::seed_from_u64(p as u64);
        let levels: Vec<usize> = (0..p).map(|_| rng.random_range(0..p / 2)).collect();
        timings.push(timing(
            format!("three-way-sort/p{p}"),
            per_call(16, || {
                black_box(sort(black_box(p), by_level(&levels)));
            }),
        ));
    }
    for p in [8usize, 16] {
        let mut rng = StdRng::seed_from_u64(p as u64);
        let levels: Vec<usize> = (0..p).map(|_| rng.random_range(0..4)).collect();
        let cmp = by_level(&levels);
        timings.push(timing(
            format!("procedure4/p{p}_rep100"),
            median_secs(9, || {
                let config = ClusterConfig::with_repetitions(100);
                black_box(relative_scores_seeded(
                    black_box(p),
                    config,
                    9,
                    |_, a, b| cmp(a, b),
                ));
            }),
        ));
    }

    // The full measure → compare → cluster pipeline of both experiments.
    for (name, exp) in [
        ("fig1", Experiment::fig1()),
        ("table1", Experiment::table1(10)),
    ] {
        timings.push(timing(
            format!("pipeline/{name}_n30_rep20"),
            median_secs(9, || {
                black_box(run_pipeline(&exp, 30, 20, 3).1.final_assignment());
            }),
        ));
    }

    Report::new("comparator", row!["units" => "seconds"])
        .table("entries", entries)
        .table("timings", timings)
        .write();
}
