//! B3 — Criterion benchmarks of the clustering core: the three-way bubble
//! sort and Procedure 4 (relative scores) as the algorithm count grows.
//! The paper notes the sort "is not optimized for performance"; these
//! benches quantify its quadratic comparison count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use relperf_core::cluster::{relative_scores_seeded, ClusterConfig};
use relperf_core::sort::sort;
use relperf_measure::Outcome;
use std::hint::black_box;

fn synthetic_cmp(levels: &[usize]) -> impl Fn(usize, usize) -> Outcome + Sync + '_ {
    move |a, b| match levels[a].cmp(&levels[b]) {
        std::cmp::Ordering::Less => Outcome::Better,
        std::cmp::Ordering::Greater => Outcome::Worse,
        std::cmp::Ordering::Equal => Outcome::Equivalent,
    }
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("three-way-sort");
    for &p in &[8usize, 32, 128] {
        let mut rng = StdRng::seed_from_u64(p as u64);
        let levels: Vec<usize> = (0..p).map(|_| rng.random_range(0..p / 2)).collect();
        group.bench_with_input(BenchmarkId::new("sort", p), &p, |bench, _| {
            bench.iter(|| sort(black_box(p), synthetic_cmp(&levels)))
        });
    }
    group.finish();
}

fn bench_procedure4(c: &mut Criterion) {
    let mut group = c.benchmark_group("procedure4");
    for &p in &[8usize, 16] {
        let mut rng = StdRng::seed_from_u64(p as u64);
        let levels: Vec<usize> = (0..p).map(|_| rng.random_range(0..4)).collect();
        let cmp = synthetic_cmp(&levels);
        group.bench_with_input(BenchmarkId::new("rep100", p), &p, |bench, _| {
            bench.iter(|| {
                relative_scores_seeded(
                    black_box(p),
                    ClusterConfig::with_repetitions(100),
                    9,
                    |_, a, b| cmp(a, b),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sort, bench_procedure4);
criterion_main!(benches);
