//! B4 — End-to-end benchmarks: simulating one execution, collecting a full
//! N-measurement sample, and the complete measure→compare→cluster pipeline
//! for both paper experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use relperf_bench::run_pipeline;
use relperf_workloads::experiment::Experiment;
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    let exp = Experiment::table1(10);
    let placement = &exp.placements[1].1; // DDA
    group.bench_function("one-execution", |bench| {
        let mut rng = StdRng::seed_from_u64(1);
        bench.iter(|| {
            exp.platform
                .execute(black_box(&exp.tasks), black_box(placement), &mut rng)
        })
    });
    for &n in &[30usize, 500] {
        group.bench_with_input(BenchmarkId::new("measure", n), &n, |bench, &n| {
            let mut rng = StdRng::seed_from_u64(2);
            bench.iter(|| exp.platform.measure(&exp.tasks, placement, n, &mut rng).unwrap())
        });
    }
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for (name, exp, n) in [
        ("fig1-N30", Experiment::fig1(), 30usize),
        ("table1-N30", Experiment::table1(10), 30),
    ] {
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let (_, table) = run_pipeline(&exp, n, 20, 3);
                black_box(table.final_assignment())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation, bench_full_pipeline);
criterion_main!(benches);
