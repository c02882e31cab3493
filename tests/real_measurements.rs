//! Integration tests on *real* wall-clock measurements: the methodology
//! must work on actual timings from this machine, not only on simulated
//! distributions.

use rand::prelude::*;
use relative_performance::linalg::gemm::gemm_blocked;
#[cfg(not(debug_assertions))]
use relative_performance::linalg::gemm::gemm_naive;
use relative_performance::linalg::random::random_matrix;
#[cfg(not(debug_assertions))]
use relative_performance::linalg::rls::solve_rls_cholesky_with;
#[cfg(not(debug_assertions))]
use relative_performance::linalg::KernelEngine;
use relative_performance::measure::timer::{measure, MeasureConfig};
use relative_performance::prelude::*;

// Only meaningful with optimizations, for the same reason as
// `naive_gemm_not_faster_than_blocked_class` below.
#[cfg(not(debug_assertions))]
#[test]
fn real_rls_paths_cluster_sensibly() {
    // The paper's RLS solve (Procedure 6) on the naive reference kernels
    // and on the blocked engine: bit-identical results, so only the time
    // differs, and the clustering must never rank the blocked engine worse.
    let n = 160;
    let mut rng = StdRng::seed_from_u64(21);
    let a = random_matrix(&mut rng, n, n);
    let b = random_matrix(&mut rng, n, n);
    let cfg = MeasureConfig {
        warmup: 1,
        repetitions: 15,
    };
    let engines = [KernelEngine::Reference, KernelEngine::Blocked];
    let samples = engines.map(|engine| {
        measure(cfg, || {
            std::hint::black_box(solve_rls_cholesky_with(&a, &b, 0.1, engine).unwrap());
        })
        .unwrap()
    });

    let comparator = MedianComparator::new(0.05);
    let clustering =
        relative_scores_seeded(2, ClusterConfig::with_repetitions(20), 22, |_, i, j| {
            comparator.compare(&samples[i], &samples[j])
        })
        .final_assignment();

    let reference_rank = clustering.assignment(0).rank;
    let blocked_rank = clustering.assignment(1).rank;
    assert!(
        blocked_rank <= reference_rank,
        "blocked engine ranked worse ({blocked_rank}) than the reference ({reference_rank})"
    );
}

#[test]
fn real_gemm_sizes_produce_ordered_classes() {
    // Same algorithm at three problem sizes: a trivially ordered family
    // that real timings must rank correctly (small < medium < large).
    let cfg = MeasureConfig {
        warmup: 1,
        repetitions: 12,
    };
    let mut rng = StdRng::seed_from_u64(23);
    let samples: Vec<Sample> = [24usize, 96, 192]
        .iter()
        .map(|&n| {
            let a = random_matrix(&mut rng, n, n);
            let b = random_matrix(&mut rng, n, n);
            measure(cfg, || {
                std::hint::black_box(gemm_blocked(&a, &b).unwrap());
            })
            .unwrap()
        })
        .collect();

    let comparator = MedianComparator::new(0.05);
    let clustering = relative_scores_seeded(3, ClusterConfig::with_repetitions(20), 24, |_, i, j| {
        comparator.compare(&samples[i], &samples[j])
    })
    .final_assignment();

    assert_eq!(clustering.num_classes(), 3, "sizes 24/96/192 must separate");
    assert_eq!(clustering.assignment(0).rank, 1);
    assert_eq!(clustering.assignment(1).rank, 2);
    assert_eq!(clustering.assignment(2).rank, 3);
}

// Only meaningful with optimizations: in debug builds the blocked kernel's
// extra index arithmetic genuinely makes it slower than the naive loop.
#[cfg(not(debug_assertions))]
#[test]
fn naive_gemm_not_faster_than_blocked_class() {
    let n = 160;
    let mut rng = StdRng::seed_from_u64(25);
    let a = random_matrix(&mut rng, n, n);
    let b = random_matrix(&mut rng, n, n);
    let cfg = MeasureConfig {
        warmup: 1,
        repetitions: 10,
    };
    let s_naive = measure(cfg, || {
        std::hint::black_box(gemm_naive(&a, &b).unwrap());
    })
    .unwrap();
    let s_blocked = measure(cfg, || {
        std::hint::black_box(gemm_blocked(&a, &b).unwrap());
    })
    .unwrap();
    let comparator = MedianComparator::new(0.05);
    let outcome = comparator.compare(&s_blocked, &s_naive);
    assert_ne!(
        outcome,
        Outcome::Worse,
        "blocked GEMM must not be a class slower than naive"
    );
}
