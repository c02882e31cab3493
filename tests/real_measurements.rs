//! Integration tests on *real* wall-clock measurements: the methodology
//! must work on actual timings from this machine, not only on simulated
//! distributions.

use rand::prelude::*;
use relative_performance::linalg::gemm::gemm_blocked;
#[cfg(not(debug_assertions))]
use relative_performance::linalg::gemm::gemm_naive;
use relative_performance::linalg::random::random_matrix;
use relative_performance::linalg::rls::{solve_rls_cholesky, solve_rls_qr};
use relative_performance::measure::timer::{measure, MeasureConfig};
use relative_performance::prelude::*;

#[test]
fn real_rls_paths_cluster_sensibly() {
    // The stacked-QR path does ~4x the FLOPs of the normal-equations path;
    // on real hardware the clustering must never rank QR strictly better.
    let n = 60;
    let mut rng = StdRng::seed_from_u64(21);
    let a = random_matrix(&mut rng, n, n);
    let b = random_matrix(&mut rng, n, n);
    let cfg = MeasureConfig {
        warmup: 1,
        repetitions: 15,
    };
    let s_chol = measure(cfg, || {
        std::hint::black_box(solve_rls_cholesky(&a, &b, 0.1).unwrap());
    })
    .unwrap();
    let s_qr = measure(cfg, || {
        std::hint::black_box(solve_rls_qr(&a, &b, 0.1).unwrap());
    })
    .unwrap();

    let samples = [s_chol, s_qr];
    let comparator = MedianComparator::new(0.05);
    let clustering = relative_scores_seeded(2, ClusterConfig::with_repetitions(20), 22, |_, i, j| {
        comparator.compare(&samples[i], &samples[j])
    })
    .final_assignment();

    let chol_rank = clustering.assignment(0).rank;
    let qr_rank = clustering.assignment(1).rank;
    assert!(
        chol_rank <= qr_rank,
        "normal-equations path ranked worse ({chol_rank}) than QR ({qr_rank})"
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
