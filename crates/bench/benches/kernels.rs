//! B1 — Criterion micro-benchmarks of the linear algebra substrate: the
//! GEMM variants (the "equivalent algorithms" situation in miniature), the
//! factorizations, and the full RLS `MathTask` iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use relperf_linalg::cholesky::Cholesky;
use relperf_linalg::gemm::{gemm_blocked, gemm_naive, gemm_parallel_with};
use relperf_linalg::qr::Qr;
use relperf_linalg::random::{random_matrix, random_spd};
use relperf_linalg::rls::{solve_rls_cholesky, solve_rls_qr};
use relperf_linalg::Parallelism;
use std::hint::black_box;

fn bench_gemm_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[64usize, 128, 256] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| gemm_naive(black_box(&a), black_box(&b)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| gemm_blocked(black_box(&a), black_box(&b)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("parallel4", n), &n, |bench, _| {
            bench.iter(|| {
                gemm_parallel_with(black_box(&a), black_box(&b), Parallelism::with_threads(4))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_factorizations(c: &mut Criterion) {
    let mut group = c.benchmark_group("factorizations");
    for &n in &[64usize, 128] {
        let mut rng = StdRng::seed_from_u64(2);
        let spd = random_spd(&mut rng, n);
        let rect = random_matrix(&mut rng, n + 16, n);
        group.bench_with_input(BenchmarkId::new("cholesky", n), &n, |bench, _| {
            bench.iter(|| Cholesky::factor(black_box(&spd)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("qr", n), &n, |bench, _| {
            bench.iter(|| Qr::factor(black_box(&rect)).unwrap())
        });
    }
    group.finish();
}

fn bench_rls_paths(c: &mut Criterion) {
    // The two mathematically equivalent RLS solvers — exactly the paper's
    // "equivalent algorithms with different performance" situation.
    let mut group = c.benchmark_group("rls");
    for &n in &[50usize, 75] {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        group.bench_with_input(BenchmarkId::new("normal-cholesky", n), &n, |bench, _| {
            bench.iter(|| solve_rls_cholesky(black_box(&a), black_box(&b), 0.1).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("stacked-qr", n), &n, |bench, _| {
            bench.iter(|| solve_rls_qr(black_box(&a), black_box(&b), 0.1).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm_variants, bench_factorizations, bench_rls_paths);
criterion_main!(benches);
