//! Regularized Least Squares — the paper's `MathTask` kernel.
//!
//! Procedure 6 of the paper solves, for random square `A`, `B`:
//!
//! ```text
//! Z = (AᵀA + λI)⁻¹ AᵀB
//! penalty = ‖A·Z − B‖²
//! ```
//!
//! [`solve_rls_cholesky_with`] solves it through the normal equations and
//! Cholesky on any [`KernelEngine`]; [`math_task_with`] chains the solve
//! and the penalty into one `MathTask`.

use crate::engine::KernelEngine;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use rand::Rng;

/// Solves `Z = (AᵀA + λI)⁻¹ AᵀB` via the normal equations and Cholesky
/// on `engine`. Every engine returns bit-identical `Z` — the choice only
/// affects speed.
///
/// Requires `a.rows() == b.rows()`; `λ` must make `AᵀA + λI` positive
/// definite (any `λ > 0` does for real `A`).
pub fn solve_rls_cholesky_with(
    a: &Matrix,
    b: &Matrix,
    lambda: f64,
    engine: KernelEngine,
) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(LinalgError::ShapeMismatch {
            op: "rls",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut gram = engine.gram(a);
    gram.add_diag_mut(lambda);
    let atb = engine.gemm(&a.transpose(), b)?;
    engine.cholesky(&gram)?.solve_matrix(&atb)
}

/// The squared-Frobenius penalty `‖A·Z − B‖²` of Procedure 6 on `engine`.
fn rls_penalty_with(a: &Matrix, z: &Matrix, b: &Matrix, engine: KernelEngine) -> Result<f64> {
    let az = engine.gemm(a, z)?;
    let resid = az.try_sub(b)?;
    let norm = resid.frobenius_norm();
    Ok(norm * norm)
}

/// One full `MathTask` (Procedure 6) on `engine`: `iters` iterations of
/// generate-solve-penalize, threading the penalty from each iteration into
/// the regularizer of the next. Returns the final penalty.
///
/// The initial `penalty` plays the role of `λ`; the paper seeds it with the
/// output of the previous task (0 for the first). A floor of `1e-6` keeps
/// the Gram matrix positive definite on the first iteration.
///
/// The RNG draw sequence and every kernel result are engine-independent,
/// so all engines return the **same penalty bit for bit** from the same
/// seed — golden-tested in `relperf-workloads`.
pub fn math_task_with<R: Rng + ?Sized>(
    rng: &mut R,
    size: usize,
    iters: usize,
    mut penalty: f64,
    engine: KernelEngine,
) -> Result<f64> {
    if size == 0 {
        return Err(LinalgError::EmptyDimension { op: "math_task" });
    }
    for _ in 0..iters {
        let a = crate::random::random_matrix(rng, size, size);
        let b = crate::random::random_matrix(rng, size, size);
        let lambda = penalty.max(1e-6);
        let z = solve_rls_cholesky_with(&a, &b, lambda, engine)?;
        penalty = rls_penalty_with(&a, &z, &b, engine)?;
    }
    Ok(penalty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_blocked, syrk_ata};
    use crate::random::random_matrix;
    use rand::prelude::*;

    #[test]
    fn cholesky_path_satisfies_normal_equations() {
        let mut rng = StdRng::seed_from_u64(51);
        let a = random_matrix(&mut rng, 12, 12);
        let b = random_matrix(&mut rng, 12, 12);
        let lambda = 0.5;
        let z = solve_rls_cholesky_with(&a, &b, lambda, KernelEngine::default()).unwrap();
        // Check (AᵀA + λI)·Z = AᵀB.
        let mut gram = syrk_ata(&a);
        gram.add_diag_mut(lambda);
        let lhs = gemm_blocked(&gram, &z).unwrap();
        let rhs = gemm_blocked(&a.transpose(), &b).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-7), "max diff {}", lhs.try_sub(&rhs).unwrap().max_abs());
    }

    #[test]
    fn larger_lambda_shrinks_solution() {
        let mut rng = StdRng::seed_from_u64(54);
        let a = random_matrix(&mut rng, 15, 15);
        let b = random_matrix(&mut rng, 15, 15);
        let z_small = solve_rls_cholesky_with(&a, &b, 1e-3, KernelEngine::default()).unwrap();
        let z_large = solve_rls_cholesky_with(&a, &b, 1e3, KernelEngine::default()).unwrap();
        assert!(z_large.frobenius_norm() < z_small.frobenius_norm());
    }

    #[test]
    fn penalty_nonnegative_and_zero_for_exact_fit() {
        let mut rng = StdRng::seed_from_u64(55);
        let a = crate::random::random_diag_dominant(&mut rng, 9);
        let b = random_matrix(&mut rng, 9, 9);
        // With λ → 0 and invertible A, Z → A⁻¹B and the penalty → 0.
        let z = solve_rls_cholesky_with(&a, &b, 1e-12, KernelEngine::default()).unwrap();
        let p = rls_penalty_with(&a, &z, &b, KernelEngine::default()).unwrap();
        assert!(p >= 0.0);
        assert!(p < 1e-6, "penalty {p}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(5, 4);
        assert!(solve_rls_cholesky_with(&a, &b, 0.1, KernelEngine::default()).is_err());
    }

    #[test]
    fn math_task_runs_and_is_deterministic() {
        let engine = KernelEngine::default();
        let p1 = math_task_with(&mut StdRng::seed_from_u64(56), 10, 3, 0.0, engine).unwrap();
        let p2 = math_task_with(&mut StdRng::seed_from_u64(56), 10, 3, 0.0, engine).unwrap();
        assert_eq!(p1, p2);
        assert!(p1.is_finite() && p1 >= 0.0);
    }

    #[test]
    fn math_task_zero_iters_returns_input_penalty() {
        let engine = KernelEngine::default();
        let p = math_task_with(&mut StdRng::seed_from_u64(57), 10, 0, 2.5, engine).unwrap();
        assert_eq!(p, 2.5);
    }

    #[test]
    fn math_task_zero_size_rejected() {
        let engine = KernelEngine::default();
        assert!(math_task_with(&mut StdRng::seed_from_u64(58), 0, 1, 0.0, engine).is_err());
    }

    #[test]
    fn math_task_penalty_chains_between_iterations() {
        // Different initial penalties must lead to different trajectories.
        let engine = KernelEngine::default();
        let p_a = math_task_with(&mut StdRng::seed_from_u64(59), 8, 2, 0.0, engine).unwrap();
        let p_b = math_task_with(&mut StdRng::seed_from_u64(59), 8, 2, 100.0, engine).unwrap();
        assert_ne!(p_a, p_b);
    }
}
