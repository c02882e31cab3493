//! B5 — Serial vs. parallel execution of the clustering hot path.
//!
//! Three comparisons, all on the Table I experiment:
//!
//! * `relative_scores/{serial,parallel}` — Procedure 4's repetition loop
//!   through `relative_scores_seeded`, one thread vs. all cores. The
//!   acceptance target is ≥ 2× with ≥ 4 threads on a multi-core host
//!   (the two configurations are bit-identical by construction, which
//!   the assert below re-checks before timing).
//! * `compare_batch/{serial,parallel}` — the batched bootstrap comparator
//!   over all p(p-1)/2 sample pairs.
//! * `procedure4/{uncached,cached}` — the legacy rng-threaded
//!   `relative_scores` vs. the memoizing engine at equal thread count
//!   (1), isolating the `ComparisonCache` win from the threading win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relperf_core::cluster::{relative_scores, relative_scores_seeded, ClusterConfig, Parallelism};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
use relperf_measure::{Sample, SeededThreeWayComparator, ThreeWayComparator};
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

fn bench_relative_scores(c: &mut Criterion) {
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

fn bench_compare_batch(c: &mut Criterion) {
    let measured = measured();
    let samples: Vec<&Sample> = measured.iter().map(|m| &m.sample).collect();
    let mut pairs: Vec<(&Sample, &Sample)> = Vec::new();
    for i in 0..samples.len() {
        for j in (i + 1)..samples.len() {
            pairs.push((samples[i], samples[j]));
        }
    }

    let mut group = c.benchmark_group("compare_batch");
    for (label, par) in [
        ("serial", Parallelism::serial()),
        ("parallel", Parallelism::auto()),
    ] {
        group.bench_with_input(BenchmarkId::new(label, pairs.len()), &par, |b, &par| {
            let cmp = comparator();
            b.iter(|| cmp.compare_batch(black_box(&pairs), par))
        });
    }
    group.finish();
}

fn bench_cache_effect(c: &mut Criterion) {
    let measured = measured();
    let cmp = comparator();
    let p = measured.len();

    let mut group = c.benchmark_group("procedure4");
    group.bench_function(BenchmarkId::new("uncached", 20), |b| {
        b.iter(|| {
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(7);
            relative_scores(
                p,
                cluster_config(20, Parallelism::serial()),
                &mut rng,
                |x, y| cmp.compare(&measured[x].sample, &measured[y].sample),
            )
        })
    });
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

criterion_group!(
    benches,
    bench_relative_scores,
    bench_compare_batch,
    bench_cache_effect
);
criterion_main!(benches);
