//! Property-based tests of the linear algebra substrate.
//!
//! Every GEMM variant must agree with the naive reference on arbitrary
//! shapes; factorizations must reconstruct their inputs; solves must
//! invert multiplications — for *any* well-formed random input, not just
//! the hand-picked cases of the unit tests.

use proptest::prelude::*;
use rand::prelude::*;
use relperf_linalg::cholesky::Cholesky;
use relperf_linalg::gemm::{gemm_blocked, gemm_naive, gemm_parallel_with, syrk_ata};
use relperf_linalg::random::{random_matrix, random_spd, random_vector};
use relperf_linalg::triangular::{solve_lower, solve_upper};
use relperf_linalg::Matrix;

fn close(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.approx_eq(b, tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_engine_bit_identical_to_naive(seed in 0u64..1_000, m in 0usize..40, k in 0usize..40, n in 0usize..40) {
        // Rectangular and degenerate shapes: every engine variant must
        // reproduce the naive reference bit for bit.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let reference = gemm_naive(&a, &b).unwrap();
        prop_assert_eq!(gemm_blocked(&a, &b).unwrap(), reference);
    }

    #[test]
    fn gemm_bit_identical_across_block_boundaries(seed in 0u64..1_000, dm in 0usize..20, dk in 0usize..20, dn in 0usize..20) {
        // Shapes straddling the microtile / panel / row-block / k-chunk
        // boundaries of the packed engine.
        use relperf_linalg::gemm::{BLOCK, KC, MR, NR};
        let mut rng = StdRng::seed_from_u64(seed);
        let m = (BLOCK - 10) + dm;
        let k = (KC - 10) + dk;
        let n = (2 * NR - 10) + dn;
        let _ = MR;
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let reference = gemm_naive(&a, &b).unwrap();
        prop_assert_eq!(gemm_blocked(&a, &b).unwrap(), reference);
    }

    #[test]
    fn gemm_parallel_bit_identical_for_any_parallelism(seed in 0u64..1_000, m in 0usize..150, k in 0usize..30, n in 0usize..30, threads in 0usize..8, chunk in 0usize..4) {
        use relperf_linalg::Parallelism;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let reference = gemm_naive(&a, &b).unwrap();
        let par = gemm_parallel_with(&a, &b, Parallelism { threads, chunk }).unwrap();
        prop_assert_eq!(par, reference.clone());
        let three = gemm_parallel_with(&a, &b, Parallelism::with_threads(3)).unwrap();
        prop_assert_eq!(three, reference);
    }

    #[test]
    fn syrk_blocked_bit_identical_to_reference(seed in 0u64..1_000, m in 0usize..60, n in 0usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, n);
        prop_assert_eq!(relperf_linalg::gemm::syrk_ata_blocked(&a), syrk_ata(&a));
    }

    #[test]
    fn cholesky_blocked_bit_identical_to_reference(seed in 0u64..1_000, n in 1usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_spd(&mut rng, n);
        prop_assert_eq!(
            Cholesky::factor(&a).unwrap(),
            Cholesky::factor_reference(&a).unwrap()
        );
    }

    #[test]
    fn triangular_matrix_solves_bit_identical_to_columnwise(seed in 0u64..1_000, n in 1usize..80, cols in 0usize..6) {
        use relperf_linalg::triangular::{solve_lower_matrix, solve_upper_matrix};
        let mut rng = StdRng::seed_from_u64(seed);
        let l = relperf_linalg::random::random_lower_triangular(&mut rng, n);
        let b = random_matrix(&mut rng, n, cols);
        let x = solve_lower_matrix(&l, &b).unwrap();
        for c in 0..cols {
            prop_assert_eq!(x.col(c), solve_lower(&l, &b.col(c)).unwrap());
        }
        let u = l.transpose();
        let xu = solve_upper_matrix(&u, &b).unwrap();
        for c in 0..cols {
            prop_assert_eq!(xu.col(c), solve_upper(&u, &b.col(c)).unwrap());
        }
    }

    #[test]
    fn kernel_engines_agree_on_rls(seed in 0u64..300, n in 1usize..24, lambda in 0.01f64..10.0) {
        use relperf_linalg::{KernelEngine, Parallelism};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        let reference = relperf_linalg::rls::solve_rls_cholesky_with(&a, &b, lambda, KernelEngine::Reference).unwrap();
        for engine in [
            KernelEngine::Blocked,
            KernelEngine::Parallel(Parallelism::with_threads(2)),
        ] {
            prop_assert_eq!(
                relperf_linalg::rls::solve_rls_cholesky_with(&a, &b, lambda, engine).unwrap(),
                reference.clone()
            );
        }
    }

    #[test]
    fn gemm_distributes_over_addition(seed in 0u64..1_000, n in 1usize..25) {
        // A(B + C) = AB + AC up to rounding.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        let c = random_matrix(&mut rng, n, n);
        let lhs = gemm_blocked(&a, &b.try_add(&c).unwrap()).unwrap();
        let rhs = gemm_blocked(&a, &b).unwrap().try_add(&gemm_blocked(&a, &c).unwrap()).unwrap();
        prop_assert!(close(&lhs, &rhs, 1e-8));
    }

    #[test]
    fn transpose_is_involution_and_reverses_products(seed in 0u64..1_000, m in 1usize..30, n in 1usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, n);
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let b = random_matrix(&mut rng, n, m);
        // (AB)ᵀ = BᵀAᵀ
        let ab_t = gemm_naive(&a, &b).unwrap().transpose();
        let bt_at = gemm_naive(&b.transpose(), &a.transpose()).unwrap();
        prop_assert!(close(&ab_t, &bt_at, 1e-9));
    }

    #[test]
    fn syrk_matches_explicit_product(seed in 0u64..1_000, m in 1usize..30, n in 1usize..25) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(&mut rng, m, n);
        let explicit = gemm_naive(&a.transpose(), &a).unwrap();
        prop_assert!(close(&syrk_ata(&a), &explicit, 1e-9));
    }

    #[test]
    fn cholesky_reconstructs(seed in 0u64..1_000, n in 1usize..25) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_spd(&mut rng, n);
        let ch = Cholesky::factor(&a).unwrap();
        let rec = gemm_naive(ch.l(), &ch.l().transpose()).unwrap();
        prop_assert!(close(&rec, &a, 1e-6));
    }

    #[test]
    fn cholesky_solve_inverts_multiply(seed in 0u64..1_000, n in 1usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_spd(&mut rng, n);
        let x = random_vector(&mut rng, n);
        let b = relperf_linalg::blas::gemv(&a, &x).unwrap();
        let solved = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        for (s, e) in solved.iter().zip(&x) {
            prop_assert!((s - e).abs() < 1e-4, "{s} vs {e}");
        }
    }

    #[test]
    fn triangular_solves_roundtrip(seed in 0u64..1_000, n in 1usize..25) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = relperf_linalg::random::random_lower_triangular(&mut rng, n);
        let x = random_vector(&mut rng, n);
        let b = relperf_linalg::blas::gemv(&l, &x).unwrap();
        let solved = solve_lower(&l, &b).unwrap();
        for (s, e) in solved.iter().zip(&x) {
            prop_assert!((s - e).abs() < 1e-5);
        }
        let u = l.transpose();
        let bu = relperf_linalg::blas::gemv(&u, &x).unwrap();
        let solved_u = solve_upper(&u, &bu).unwrap();
        for (s, e) in solved_u.iter().zip(&x) {
            prop_assert!((s - e).abs() < 1e-5);
        }
    }

    #[test]
    fn norms_satisfy_triangle_inequality(seed in 0u64..1_000, n in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = random_vector(&mut rng, n);
        let y = random_vector(&mut rng, n);
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        use relperf_linalg::blas::norm2;
        prop_assert!(norm2(&sum) <= norm2(&x) + norm2(&y) + 1e-12);
    }
}
