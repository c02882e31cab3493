//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! [`Cholesky::factor`] is a right-looking **blocked** factorization whose
//! trailing updates run through the packed microkernel engine in
//! [`crate::gemm`]; [`Cholesky::factor_reference`] is the unblocked
//! right-looking loop. Both apply, per element, the same fused operations
//! in the same order, so they are **bit-identical** (property-tested) —
//! which is what lets the RLS workload swap kernel engines without
//! perturbing seeded experiment outputs.

use crate::error::{LinalgError, Result};
use crate::gemm::{gemm_region_parallel, Acc, PackArena, BLOCK};
use crate::matrix::Matrix;
use relperf_parallel::Parallelism;
use crate::triangular::{solve_lower, solve_lower_matrix, solve_upper, solve_upper_matrix};

/// Panel width of the blocked factorization: the number of columns
/// factored with the scalar loops before one microkernel-rich trailing
/// update is applied.
const PANEL: usize = 32;

/// The Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix, stored as the lower factor `L`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

/// Copies the lower triangle of `a` into a fresh all-zero matrix.
fn lower_triangle_of(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
    }
    l
}

/// Factors the panel columns `j0..j1` (rows `j0..n`) in place with the
/// unblocked right-looking loops, updating only columns inside the panel.
///
/// The rank-1 update sweeps **rows** (contiguous memory) rather than
/// columns; per element it is the same fused multiply-add in the same
/// pivot order as the column sweep of [`Cholesky::factor_reference`], so
/// the results are bit-identical — only the traversal differs.
fn factor_panel(l: &mut Matrix, j0: usize, j1: usize) -> Result<()> {
    let n = l.rows();
    let mut colk = vec![0.0; j1 - j0];
    for k in j0..j1 {
        let d = l[(k, k)];
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::Singular {
                op: "cholesky",
                pivot: k,
            });
        }
        let djj = d.sqrt();
        l[(k, k)] = djj;
        for i in (k + 1)..n {
            l[(i, k)] /= djj;
        }
        // Stage column k's panel segment contiguously: the rank-1 update of
        // element (i, j) subtracts l[i][k]·l[j][k], and j < j1 always.
        let colk = &mut colk[..j1 - k - 1];
        for (j, v) in ((k + 1)..j1).zip(colk.iter_mut()) {
            *v = l[(j, k)];
        }
        for i in (k + 1)..n {
            let lik = l[(i, k)];
            // Lower triangle only: row i holds elements for j ≤ i.
            let jmax = j1.min(i + 1);
            if jmax > k + 1 {
                let row = &mut l.row_mut(i)[k + 1..jmax];
                crate::blas::axpy(-lik, &colk[..row.len()], row);
            }
        }
    }
    Ok(())
}

impl Cholesky {
    /// Factors `a` as `L·Lᵀ` with the blocked right-looking algorithm:
    /// panels of 32 columns are factored with the scalar reference
    /// loops, then the trailing submatrix absorbs `−L21·L21ᵀ` through the
    /// packed microkernel engine (lower triangle only; the diagonal blocks
    /// fall back to the scalar loop).
    ///
    /// Bit-identical to [`Cholesky::factor_reference`]: per element every
    /// update is the same fused multiply-add applied in the same pivot
    /// order, only batched differently.
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular inputs and
    /// [`LinalgError::Singular`] when a pivot is non-positive (the matrix is
    /// not positive definite).
    ///
    /// Only the lower triangle of `a` is read, so callers holding a matrix
    /// that is symmetric only up to rounding (e.g. `AᵀA` assembled with a
    /// non-symmetric kernel) get a well-defined result.
    pub fn factor(a: &Matrix) -> Result<Self> {
        Self::factor_parallel_with(a, Parallelism::serial())
    }

    /// [`Cholesky::factor`] with the off-diagonal trailing updates fanned
    /// out over row blocks (`gemm_region_parallel`) — panels and the
    /// diagonal blocks stay serial (lower-order work). Bit-identical to
    /// [`Cholesky::factor`] and [`Cholesky::factor_reference`] for any
    /// [`Parallelism`], [`Parallelism::serial`] included: per element
    /// the fused update sequence is unchanged, only which thread computes
    /// its row band differs.
    pub fn factor_parallel_with(a: &Matrix, parallelism: Parallelism) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                op: "cholesky",
                shape: a.shape(),
            });
        }
        let n = a.rows();
        let mut l = lower_triangle_of(a);
        let mut arena = PackArena::new();
        for j0 in (0..n).step_by(PANEL) {
            let j1 = (j0 + PANEL).min(n);
            factor_panel(&mut l, j0, j1)?;
            if j1 >= n {
                break;
            }
            // Trailing update: A22 −= L21·L21ᵀ, lower triangle only, with
            // the panel multipliers read from a private copy (the engine
            // may not alias its output region).
            let nb = j1 - j0;
            let rows = n - j1;
            let mut p = vec![0.0; rows * nb];
            for (dst, src) in p
                .chunks_exact_mut(nb)
                .zip(l.tile_rows(j1, j0, rows, nb))
            {
                dst.copy_from_slice(src);
            }
            for c0 in (j1..n).step_by(BLOCK) {
                let c1 = (c0 + BLOCK).min(n);
                // Diagonal block (rows c0..c1, cols c0..c1): lower-triangle
                // row sweeps, pivot (panel column) order per element —
                // bit-identical to the reference's column sweep.
                let mut colv = vec![0.0; c1 - c0];
                for lcol in 0..nb {
                    for (j, v) in (c0..c1).zip(colv.iter_mut()) {
                        *v = p[(j - j1) * nb + lcol];
                    }
                    for i in c0..c1 {
                        let li = colv[i - c0];
                        let row = &mut l.row_mut(i)[c0..=i];
                        crate::blas::axpy(-li, &colv[..row.len()], row);
                    }
                }
                // Off-diagonal block (rows c1..n, cols c0..c1): one
                // microkernel-driven `C −= P · P_blockᵀ`.
                if c1 < n {
                    gemm_region_parallel(
                        l.as_mut_slice(), n, c1, c0, n - c1, c1 - c0, nb, &p, nb,
                        c1 - j1, 0, false, &p, nb, c0 - j1, 0, true, Acc::Sub,
                        &mut arena, parallelism,
                    );
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// The unblocked right-looking reference factorization: for each pivot
    /// column, scale it and immediately apply its rank-1 update to the
    /// whole trailing lower triangle. Kept as the oracle the blocked
    /// [`Cholesky::factor`] is property-tested against, and as the
    /// `Reference` engine path of the measured workloads.
    pub fn factor_reference(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                op: "cholesky",
                shape: a.shape(),
            });
        }
        let n = a.rows();
        let mut l = lower_triangle_of(a);
        factor_panel(&mut l, 0, n)?;
        Ok(Cholesky { l })
    }

    /// Borrow the lower factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A·x = b` via the two triangular solves `L·y = b`, `Lᵀ·x = y`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = solve_lower(&self.l, b)?;
        solve_upper(&self.l.transpose(), &y)
    }

    /// Solves `A·X = B` for a matrix right-hand side.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let y = solve_lower_matrix(&self.l, b)?;
        solve_upper_matrix(&self.l.transpose(), &y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemv;
    use crate::gemm::gemm_naive;
    use crate::random::{random_spd, random_vector};
    use rand::prelude::*;

    #[test]
    fn factor_known_matrix() {
        // A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.l()[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((ch.l()[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((ch.l()[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(ch.l()[(0, 1)], 0.0);
    }

    #[test]
    fn reconstruction_l_lt() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = random_spd(&mut rng, 25);
        let ch = Cholesky::factor(&a).unwrap();
        let rec = gemm_naive(ch.l(), &ch.l().transpose()).unwrap();
        assert!(rec.approx_eq(&a, 1e-7), "max diff {}", rec.try_sub(&a).unwrap().max_abs());
    }

    #[test]
    fn solve_roundtrip() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = random_spd(&mut rng, 30);
        let x_true = random_vector(&mut rng, 30);
        let b = gemv(&a, &x_true).unwrap();
        let x = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        for (got, exp) in x.iter().zip(&x_true) {
            assert!((got - exp).abs() < 1e-5, "{got} vs {exp}");
        }
    }

    #[test]
    fn solve_matrix_roundtrip() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_spd(&mut rng, 16);
        let x_true = crate::random::random_matrix(&mut rng, 16, 3);
        let b = gemm_naive(&a, &x_true).unwrap();
        let x = Cholesky::factor(&a).unwrap().solve_matrix(&b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-5));
    }

    #[test]
    fn rejects_rectangular() {
        let err = Cholesky::factor(&Matrix::zeros(2, 3)).unwrap_err();
        assert!(matches!(err, LinalgError::NotSquare { .. }));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        let err = Cholesky::factor(&a).unwrap_err();
        assert!(matches!(err, LinalgError::Singular { op: "cholesky", .. }));
    }

    #[test]
    fn rejects_zero_matrix() {
        let err = Cholesky::factor(&Matrix::zeros(3, 3)).unwrap_err();
        assert!(matches!(err, LinalgError::Singular { pivot: 0, .. }));
    }

    #[test]
    fn blocked_bit_identical_to_reference_across_panels() {
        let mut rng = StdRng::seed_from_u64(25);
        for n in [1usize, 7, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 3, 100] {
            let a = random_spd(&mut rng, n);
            let blocked = Cholesky::factor(&a).unwrap();
            let reference = Cholesky::factor_reference(&a).unwrap();
            assert_eq!(blocked, reference, "n={n}");
        }
    }

    #[test]
    fn parallel_trailing_update_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(26);
        for n in [1usize, PANEL + 3, 100, 2 * BLOCK + PANEL + 5] {
            let a = random_spd(&mut rng, n);
            let serial = Cholesky::factor(&a).unwrap();
            for threads in [1usize, 2, 3, 0] {
                let par =
                    Cholesky::factor_parallel_with(&a, Parallelism::with_threads(threads))
                        .unwrap();
                assert_eq!(par, serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[9.0]]).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        assert_eq!(ch.l()[(0, 0)], 3.0);
        assert_eq!(ch.solve(&[18.0]).unwrap(), vec![2.0]);
    }
}
