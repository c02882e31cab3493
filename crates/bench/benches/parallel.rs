//! B5 — Serial vs. parallel execution of the clustering hot path.
//!
//! Two groups, both on the Table I experiment:
//!
//! * `relative_scores/{serial,parallel}` — Procedure 4's repetition loop
//!   through the one-wave session (`cluster_measurements_seeded`), one
//!   thread vs. all cores. The acceptance target is ≥ 2× with ≥ 4
//!   threads on a multi-core host (the two configurations are
//!   bit-identical by construction, which the assert below re-checks
//!   before timing).
//! * `procedure4/cached` — the memoizing `relative_scores_seeded` engine
//!   called directly on one thread.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relperf_core::cluster::{relative_scores_seeded, ClusterConfig, Parallelism};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
use relperf_measure::SeededThreeWayComparator;
use relperf_workloads::experiment::{
    cluster_measurements_seeded, measure_all_seeded, Experiment, MeasuredAlgorithm,
};
use std::hint::black_box;

const SEED: u64 = 1234;

fn measured() -> Vec<MeasuredAlgorithm> {
    let exp = Experiment::table1(2);
    measure_all_seeded(&exp, 30, SEED, Parallelism::auto())
}

fn comparator() -> BootstrapComparator {
    BootstrapComparator::with_config(
        SEED,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    )
}

fn cluster_config(repetitions: usize, parallelism: Parallelism) -> ClusterConfig {
    ClusterConfig {
        repetitions,
        parallelism,
    }
}

fn bench_parallel_clustering(c: &mut Criterion) {
    let measured = measured();
    let cmp = comparator();

    // Sanity first: identical tables whatever the parallelism.
    let serial = cluster_measurements_seeded(
        &measured,
        &cmp,
        cluster_config(20, Parallelism::serial()),
        7,
    );
    let parallel = cluster_measurements_seeded(
        &measured,
        &cmp,
        cluster_config(20, Parallelism::auto()),
        7,
    );
    assert_eq!(serial, parallel, "parallel clustering must be bit-identical");

    let mut group = c.benchmark_group("relative_scores");
    for (label, par) in [
        ("serial", Parallelism::serial()),
        ("parallel", Parallelism::auto()),
    ] {
        group.bench_with_input(BenchmarkId::new(label, 50), &par, |b, &par| {
            b.iter(|| {
                cluster_measurements_seeded(
                    black_box(&measured),
                    &cmp,
                    cluster_config(50, par),
                    7,
                )
            })
        });
    }
    group.finish();
}

fn bench_cache_effect(c: &mut Criterion) {
    let measured = measured();
    let cmp = comparator();
    let p = measured.len();

    let mut group = c.benchmark_group("procedure4");
    group.bench_function(BenchmarkId::new("cached", 20), |b| {
        b.iter(|| {
            relative_scores_seeded(
                p,
                cluster_config(20, Parallelism::serial()),
                7,
                |stream, x, y| cmp.compare_seeded(&measured[x].sample, &measured[y].sample, stream),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_parallel_clustering, bench_cache_effect);
criterion_main!(benches);
