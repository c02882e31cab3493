//! Seeded random matrix generation.
//!
//! The paper's `MathTask` (Procedure 6) randomly generates the matrices `A`
//! and `B` inside the loop. Everything here takes an explicit `Rng` so that
//! whole experiments are reproducible from a single seed.

use crate::gemm::syrk_ata;
use crate::matrix::Matrix;
use rand::Rng;

/// Uniform random matrix with entries in `[-1, 1)`.
pub fn random_matrix<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(-1.0..1.0))
}

/// Uniform random vector with entries in `[-1, 1)`.
pub fn random_vector<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
}

/// Random symmetric positive-definite matrix `MᵀM + εI`.
///
/// The `εI` shift (with `ε = n · 1e-6`) keeps the spectrum safely away from
/// zero so Cholesky succeeds for any draw.
pub fn random_spd<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Matrix {
    let m = random_matrix(rng, n, n);
    let mut s = syrk_ata(&m);
    s.add_diag_mut(n as f64 * 1e-6 + 1e-6);
    s
}

/// Random lower-triangular matrix with unit-magnitude-bounded off-diagonal
/// entries and diagonal entries in `[0.5, 1.5)` (guaranteed non-singular).
pub fn random_lower_triangular<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            rng.random_range(0.5..1.5)
        } else if j < i {
            rng.random_range(-1.0..1.0)
        } else {
            0.0
        }
    })
}

/// Random diagonally-dominant matrix (each diagonal entry exceeds the sum of
/// absolute off-diagonal entries in its row), guaranteed non-singular.
pub fn random_diag_dominant<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Matrix {
    let mut m = random_matrix(rng, n, n);
    for i in 0..n {
        let row_sum: f64 = m.row(i).iter().map(|v| v.abs()).sum();
        m[(i, i)] = row_sum + rng.random_range(0.5..1.5);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn random_matrix_in_range_and_seeded() {
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let a = random_matrix(&mut rng1, 10, 10);
        let b = random_matrix(&mut rng2, 10, 10);
        assert_eq!(a, b, "same seed must give the same matrix");
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_matrix(&mut StdRng::seed_from_u64(1), 5, 5);
        let b = random_matrix(&mut StdRng::seed_from_u64(2), 5, 5);
        assert_ne!(a, b);
    }

    #[test]
    fn random_vector_length() {
        let v = random_vector(&mut StdRng::seed_from_u64(3), 7);
        assert_eq!(v.len(), 7);
    }

    #[test]
    fn spd_is_symmetric_with_positive_diagonal() {
        let s = random_spd(&mut StdRng::seed_from_u64(4), 12);
        assert!(s.is_symmetric(1e-12));
        for i in 0..12 {
            assert!(s[(i, i)] > 0.0);
        }
    }

    #[test]
    fn lower_triangular_structure() {
        let l = random_lower_triangular(&mut StdRng::seed_from_u64(5), 8);
        for i in 0..8 {
            assert!(l[(i, i)] >= 0.5);
            for j in (i + 1)..8 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn diag_dominant_property_holds() {
        let m = random_diag_dominant(&mut StdRng::seed_from_u64(7), 10);
        for i in 0..10 {
            let off: f64 = (0..10)
                .filter(|&j| j != i)
                .map(|j| m[(i, j)].abs())
                .sum();
            assert!(m[(i, i)].abs() > off);
        }
    }
}
