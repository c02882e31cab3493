//! Machine-readable benchmark of the blocked, parallel linalg kernel
//! engine: times the naive reference kernels against the packed
//! microkernel engine (serial and row-block-parallel) on the same machine
//! and build, verifies bit-identity before every timing, and writes the
//! medians to `BENCH_linalg.json`.
//!
//! Sections:
//!
//! * `gemm/*` — square products at the sizes the experiments measure;
//! * `factor/*` — Cholesky, blocked vs unblocked reference;
//! * `table1/*` — the end-to-end *measurement phase* of the Table I
//!   workload (Procedure 5 run for real): the dominant pipeline cost this
//!   engine exists to cut.
//!
//! Run from the workspace root:
//!
//! ```bash
//! cargo run --release -p relperf-bench --bin bench_linalg
//! ```

use rand::prelude::*;
use relperf_bench::report::{Report, Row};
use relperf_bench::{median_pair, row};
use relperf_linalg::cholesky::Cholesky;
use relperf_linalg::gemm::{gemm_blocked, gemm_naive, gemm_parallel_with};
use relperf_linalg::random::{random_matrix, random_spd};
use relperf_linalg::{KernelEngine, Parallelism};
use relperf_workloads::scientific_code::{run_real_custom_with, SIZES};
use std::hint::black_box;

fn entry(name: String, (before_s, after_s): (f64, f64), note: &str) -> Row {
    row![
        "name" => name,
        "before_median_s" => before_s,
        "after_median_s" => after_s,
        "speedup" => before_s / after_s,
        "note" => note,
    ]
}

fn runs_for(n: usize) -> usize {
    (40_000_000 / (n * n * n / 64).max(1)).clamp(5, 21)
}

fn main() {
    let mut entries: Vec<Row> = Vec::new();
    let mut rng = StdRng::seed_from_u64(42);

    // — GEMM: naive vs blocked vs blocked+parallel —
    for n in [128usize, 256, 512] {
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        let reference = gemm_naive(&a, &b).unwrap();
        assert_eq!(gemm_blocked(&a, &b).unwrap(), reference, "bit-identity");
        assert_eq!(
            gemm_parallel_with(&a, &b, Parallelism::auto()).unwrap(),
            reference,
            "bit-identity (parallel)"
        );
        let runs = runs_for(n);
        let (naive_s, blocked_s) = median_pair(
            runs,
            || {
                black_box(gemm_naive(black_box(&a), black_box(&b)).unwrap());
            },
            || {
                black_box(gemm_blocked(black_box(&a), black_box(&b)).unwrap());
            },
        );
        let (_, parallel_s) = median_pair(
            runs,
            || {
                black_box(gemm_naive(black_box(&a), black_box(&b)).unwrap());
            },
            || {
                black_box(
                    gemm_parallel_with(black_box(&a), black_box(&b), Parallelism::auto()).unwrap(),
                );
            },
        );
        entries.push(entry(
            format!("gemm/n{n}/blocked"),
            (naive_s, blocked_s),
            "naive ikj vs packed microkernel engine, bit-identical",
        ));
        entries.push(entry(
            format!("gemm/n{n}/parallel"),
            (naive_s, parallel_s),
            "naive ikj vs row-block-parallel engine, bit-identical",
        ));
    }

    // — Factorization: blocked vs unblocked reference —
    {
        let n = 768;
        let spd = random_spd(&mut rng, n);
        assert_eq!(
            Cholesky::factor(&spd).unwrap(),
            Cholesky::factor_reference(&spd).unwrap()
        );
        let (before_s, after_s) = median_pair(
            runs_for(n),
            || {
                black_box(Cholesky::factor_reference(black_box(&spd)).unwrap());
            },
            || {
                black_box(Cholesky::factor(black_box(&spd)).unwrap());
            },
        );
        entries.push(entry(
            format!("factor/cholesky_n{n}"),
            (before_s, after_s),
            "right-looking rank-1 vs panel-blocked, bit-identical",
        ));
    }

    // — End to end: the Table I measurement phase (Procedure 5 for real) —
    // One repetition of the paper's three chained MathTasks (sizes
    // 50/75/300) with a reduced loop count; the measurement phase of the
    // Table I campaign is N repetitions of exactly this.
    {
        let iters = 2;
        let seed = 7;
        let runs = 7;
        let (before_s, after_s) = median_pair(
            runs,
            || {
                let mut rng = StdRng::seed_from_u64(seed);
                black_box(
                    run_real_custom_with(&mut rng, &SIZES, iters, KernelEngine::Reference).unwrap(),
                );
            },
            || {
                let mut rng = StdRng::seed_from_u64(seed);
                black_box(
                    run_real_custom_with(&mut rng, &SIZES, iters, KernelEngine::Blocked).unwrap(),
                );
            },
        );
        // Sanity: identical penalties, whichever engine measured.
        let p_ref =
            run_real_custom_with(&mut StdRng::seed_from_u64(seed), &SIZES, iters, KernelEngine::Reference)
                .unwrap();
        let p_blk =
            run_real_custom_with(&mut StdRng::seed_from_u64(seed), &SIZES, iters, KernelEngine::Blocked)
                .unwrap();
        assert_eq!(p_ref.to_bits(), p_blk.to_bits(), "engine goldens");
        entries.push(entry(
            "table1/measurement_phase".to_string(),
            (before_s, after_s),
            "one Procedure-5 repetition (sizes 50/75/300), naive vs blocked kernels",
        ));
    }

    Report::new("linalg", row!["units" => "seconds"])
        .table("entries", entries)
        .write();
}
