//! Sparse linear algebra: COO assembly, CSR kernels, and a deterministic
//! Conjugate Gradient solver.
//!
//! Every workload the paper's clustering classifies elsewhere in this
//! workspace is dense and compute-bound. This module adds the
//! bandwidth-bound family: a [`CooMatrix`] triplet builder (the natural
//! output of FEM scatter-assembly) with a duplicate-summing
//! [`CooMatrix::to_csr`], a [`CsrMatrix`] with SpMV, and the deterministic
//! Conjugate Gradient solver ([`CsrMatrix::cg`] / [`CsrMatrix::cg_fixed`])
//! that fails with the typed [`SparseError::NotConverged`] instead of
//! returning garbage.
//!
//! ## Bit-identity contract with the dense kernels
//!
//! [`CsrMatrix::spmv`] accumulates each output row left to right through
//! [`crate::fmadd`] starting from `+0.0` — the same fused operations in
//! the same order as a dense per-row fused loop over the full row, with
//! the structurally-zero entries *skipped*.
//!
//! Skipping a structural zero is *exactly* a no-op for the accumulator —
//! `fmadd(±0·x, s) == s` — **except** when the accumulator is `-0.0` or a
//! product underflows to `-0.0`. Starting the accumulator from `+0.0`
//! rules the first case out; the property tests pin the contract on data
//! away from the underflow range. This is the same "equivalent algorithms
//! stay bit-equal" discipline the dense engine variants follow.
//!
//! ## Cost model
//!
//! Sparse kernels are bandwidth-bound: [`crate::flops`] prices them both in
//! FLOPs ([`crate::flops::spmv`], [`crate::flops::cg_iter`], …) and in
//! bytes moved ([`crate::flops::csr_bytes`], [`crate::flops::spmv_bytes`]),
//! and the simulator feeds the byte traffic into the device's working-set
//! roofline so offloading a sparse task is throttled by memory, not FLOPs.

use crate::blas::{dot, norm2};
use crate::matrix::Matrix;
use relperf_parallel::{parallel_map_indexed, Parallelism};

/// Typed errors for the sparse kernels and iterative solvers.
///
/// Kept separate from [`crate::LinalgError`] (which is `Eq`) because the
/// solver variants carry the achieved `f64` residual.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Operand shapes are incompatible for `op`.
    ShapeMismatch {
        /// The operation that failed.
        op: &'static str,
        /// Shape of the matrix operand.
        lhs: (usize, usize),
        /// Shape (or length, as `(len, 1)`) of the other operand.
        rhs: (usize, usize),
    },
    /// `op` requires a square matrix.
    NotSquare {
        /// The operation that failed.
        op: &'static str,
        /// The offending shape.
        shape: (usize, usize),
    },
    /// The iterative solver exhausted its iteration budget above the
    /// requested tolerance. Carries the achieved residual so callers can
    /// decide whether "close" is close enough.
    NotConverged {
        /// The solver that failed.
        op: &'static str,
        /// Iterations actually performed.
        iterations: usize,
        /// Residual measure at the last iteration (2-norm of the CG
        /// recurrence residual `b − A·x`).
        residual: f64,
        /// The tolerance that was requested.
        tol: f64,
    },
    /// Conjugate Gradient observed non-positive curvature `pᵀA·p ≤ 0`:
    /// the matrix is not positive definite.
    IndefiniteBreakdown {
        /// The solver that failed.
        op: &'static str,
        /// Iteration at which the breakdown occurred.
        iteration: usize,
        /// The offending curvature value.
        curvature: f64,
    },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: shape mismatch {lhs:?} vs {rhs:?}")
            }
            SparseError::NotSquare { op, shape } => {
                write!(f, "{op}: matrix must be square, got {shape:?}")
            }
            SparseError::NotConverged {
                op,
                iterations,
                residual,
                tol,
            } => write!(
                f,
                "{op}: not converged after {iterations} iterations \
                 (residual {residual:.3e} > tol {tol:.3e})"
            ),
            SparseError::IndefiniteBreakdown {
                op,
                iteration,
                curvature,
            } => write!(
                f,
                "{op}: indefinite breakdown at iteration {iteration} \
                 (pᵀAp = {curvature:.3e} ≤ 0)"
            ),
        }
    }
}

impl std::error::Error for SparseError {}

/// Result alias for the sparse kernels.
pub type SparseResult<T> = std::result::Result<T, SparseError>;

/// Coordinate-format (triplet) sparse matrix builder.
///
/// The natural target of FEM scatter-assembly: push `(row, col, value)`
/// triplets in any order — duplicates allowed — then convert once with
/// [`CooMatrix::to_csr`], which sums duplicates deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Empty builder for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Empty builder with room for `cap` triplets.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (duplicates counted individually).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records `value` at `(row, col)`. Duplicates accumulate additively
    /// at [`CooMatrix::to_csr`] time.
    ///
    /// # Panics
    /// Panics when the position is out of bounds (a programming error,
    /// like dense [`Matrix`] indexing).
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "CooMatrix::push: ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Converts to CSR, **summing duplicate positions**.
    ///
    /// Triplets are stably sorted by `(row, col)`, so duplicates at one
    /// position are summed left to right in *insertion order* — the
    /// conversion is deterministic for a deterministic assembly loop, which
    /// is what keeps FEM assembly bit-identical across kernel engines.
    /// Explicit (and summed-to-) zeros are kept: they are part of the
    /// pattern the caller assembled.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        // Stable by construction: ties broken by the original index.
        order.sort_by_key(|&i| {
            let (r, c, _) = self.entries[i];
            (r, c, i)
        });
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut last: Option<(usize, usize)> = None;
        for &i in &order {
            let (r, c, v) = self.entries[i];
            if last == Some((r, c)) {
                // Duplicate position: sum onto the previously kept entry.
                *vals.last_mut().expect("duplicate implies a kept entry") += v;
                continue;
            }
            last = Some((r, c));
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            vals.push(v);
        }
        // Prefix-sum the per-row counts into offsets.
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            vals,
        }
    }
}

/// Compressed-sparse-row matrix: the kernel-facing format.
///
/// Per row, column indices are strictly ascending (guaranteed by every
/// constructor), which is what makes the kernels' left-to-right fused
/// accumulation match the dense reference order — see the
/// [module docs](crate::sparse) for the bit-identity contract.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx` / `vals`.
    row_ptr: Vec<usize>,
    /// Column index of each stored entry, ascending within a row.
    col_idx: Vec<usize>,
    /// Value of each stored entry.
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// The `rows x cols` matrix with no stored entries (all zero).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Builds a CSR matrix from a dense one, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut coo = CooMatrix::new(m.rows(), m.cols());
        for (i, row) in m.rows_iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Densifies: stored entries land at their positions, the rest is zero.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let row = m.row_mut(i);
            let (cols, vals) = self.row_entries(i);
            for (&j, &v) in cols.iter().zip(vals) {
                row[j] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when `rows == cols`.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Column indices and values of row `i`, each ascending in column.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    pub fn row_entries(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// The stored value at `(i, j)`, or `0.0` when the position is not in
    /// the pattern.
    ///
    /// # Panics
    /// Panics when the position is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "CsrMatrix::get: ({i}, {j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let (cols, vals) = self.row_entries(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    fn check_vec(&self, op: &'static str, len: usize) -> SparseResult<()> {
        if len != self.cols {
            return Err(SparseError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: (len, 1),
            });
        }
        Ok(())
    }

    fn check_square(&self, op: &'static str) -> SparseResult<()> {
        if !self.is_square() {
            return Err(SparseError::NotSquare {
                op,
                shape: self.shape(),
            });
        }
        Ok(())
    }

    #[inline]
    fn spmv_row(&self, i: usize, x: &[f64]) -> f64 {
        let (cols, vals) = self.row_entries(i);
        let mut s = 0.0;
        for (&j, &v) in cols.iter().zip(vals) {
            s = crate::fmadd(v, x[j], s);
        }
        s
    }

    /// Sparse matrix–vector product `y = A·x`.
    ///
    /// Each output element is accumulated left to right through
    /// [`crate::fmadd`] from `+0.0` — the dense per-row fused loop with the
    /// structural zeros skipped, bit-identical to it for inputs free of
    /// `-0.0` and products that underflow (see the module docs).
    pub fn spmv(&self, x: &[f64]) -> SparseResult<Vec<f64>> {
        self.check_vec("spmv", x.len())?;
        Ok((0..self.rows).map(|i| self.spmv_row(i, x)).collect())
    }

    /// [`CsrMatrix::spmv`] with the output rows fanned over worker threads.
    ///
    /// Rows are independent, so any [`Parallelism`] — including
    /// [`Parallelism::serial`] — produces **bit-identical** output.
    pub fn spmv_with(&self, x: &[f64], parallelism: Parallelism) -> SparseResult<Vec<f64>> {
        self.check_vec("spmv", x.len())?;
        Ok(parallel_map_indexed(self.rows, parallelism, |i| {
            self.spmv_row(i, x)
        }))
    }

    /// Conjugate Gradient for symmetric positive-definite `A·x = b` from
    /// `x₀ = 0`.
    ///
    /// Stops when the recurrence residual satisfies
    /// `‖r‖₂ ≤ tol · ‖b‖₂`; returns [`SparseError::NotConverged`]
    /// carrying the achieved residual otherwise, and
    /// [`SparseError::IndefiniteBreakdown`] when `pᵀA·p ≤ 0` exposes an
    /// indefinite matrix. Entirely serial and seeded by nothing — the
    /// same inputs give the same iterates on every build. One iteration
    /// costs [`crate::flops::cg_iter`] FLOPs.
    pub fn cg(&self, b: &[f64], max_iters: usize, tol: f64) -> SparseResult<IterSolve> {
        let (solve, converged) = self.cg_inner(b, max_iters, Some(tol))?;
        if converged {
            Ok(solve)
        } else {
            Err(SparseError::NotConverged {
                op: "cg",
                iterations: solve.iterations,
                residual: solve.residual,
                tol,
            })
        }
    }

    /// Conjugate Gradient run for **exactly** `iters` iterations (no
    /// tolerance test), from `x₀ = 0`.
    ///
    /// This is the FEM workload's solver: a fixed iteration count makes the
    /// work — and therefore the FLOP/byte price,
    /// `iters ·` [`crate::flops::cg_iter`] — a deterministic function of
    /// the mesh, so the simulator and the real run price the task
    /// identically. Only an exact-zero residual (the solution was reached
    /// in exact arithmetic) ends the loop early; the returned
    /// [`IterSolve::iterations`] reports the sweeps actually run.
    pub fn cg_fixed(&self, b: &[f64], iters: usize) -> SparseResult<IterSolve> {
        let (solve, _) = self.cg_inner(b, iters, None)?;
        Ok(solve)
    }

    /// Shared CG loop. `tol = None` disables the convergence test (fixed
    /// iteration count). Returns the solve and whether it converged (always
    /// `true` without a tolerance).
    fn cg_inner(
        &self,
        b: &[f64],
        max_iters: usize,
        tol: Option<f64>,
    ) -> SparseResult<(IterSolve, bool)> {
        self.check_square("cg")?;
        self.check_vec("cg", b.len())?;
        let n = self.rows;
        let bnorm = norm2(b);
        if bnorm == 0.0 {
            // b = 0 ⇒ x = 0 exactly; nothing to iterate.
            return Ok((
                IterSolve {
                    x: vec![0.0; n],
                    iterations: 0,
                    residual: 0.0,
                },
                true,
            ));
        }
        let threshold = tol.map(|t| t * bnorm);
        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let mut p = r.clone();
        let mut q = vec![0.0; n];
        let mut rz = dot(&r, &r);
        let mut residual = rz.sqrt();
        for iter in 1..=max_iters {
            // q = A·p
            for (i, qi) in q.iter_mut().enumerate() {
                *qi = self.spmv_row(i, &p);
            }
            let pq = dot(&p, &q);
            if pq <= 0.0 {
                return Err(SparseError::IndefiniteBreakdown {
                    op: "cg",
                    iteration: iter,
                    curvature: pq,
                });
            }
            let alpha = rz / pq;
            for (xi, &pi) in x.iter_mut().zip(&p) {
                *xi = crate::fmadd(alpha, pi, *xi);
            }
            for (ri, &qi) in r.iter_mut().zip(&q) {
                *ri = crate::fmadd(-alpha, qi, *ri);
            }
            let rz_next = dot(&r, &r);
            residual = rz_next.sqrt();
            let done = match threshold {
                Some(th) => residual <= th,
                // Fixed-count mode: only an exactly-solved system stops early.
                None => rz_next == 0.0,
            };
            if done {
                return Ok((
                    IterSolve {
                        x,
                        iterations: iter,
                        residual,
                    },
                    true,
                ));
            }
            let beta = rz_next / rz;
            for (pi, &ri) in p.iter_mut().zip(&r) {
                *pi = crate::fmadd(beta, *pi, ri);
            }
            rz = rz_next;
        }
        Ok((
            IterSolve {
                x,
                iterations: max_iters,
                residual,
            },
            tol.is_none(),
        ))
    }
}

/// The result of a successful iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSolve {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Residual measure at the final iteration (2-norm of the CG
    /// recurrence residual).
    pub residual: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;
    use crate::random::{random_matrix, random_spd, random_vector};
    use rand::prelude::*;

    /// Dense per-row fused mat-vec: the bit-identity oracle for SpMV.
    fn dense_fmadd_gemv(a: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|i| {
                let mut s = 0.0;
                for (j, &v) in a.row(i).iter().enumerate() {
                    s = crate::fmadd(v, x[j], s);
                }
                s
            })
            .collect()
    }

    fn random_sparse(rng: &mut StdRng, rows: usize, cols: usize, fill: f64) -> CooMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.random_range(0.0..1.0) < fill {
                    coo.push(i, j, rng.random_range(-1.0..1.0));
                }
            }
        }
        coo
    }

    #[test]
    fn coo_to_csr_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(1, 2, 1.5);
        coo.push(0, 0, 1.0);
        coo.push(1, 2, 0.25);
        coo.push(0, 0, -3.0);
        coo.push(1, 0, 2.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 0), 1.0 + -3.0);
        assert_eq!(csr.get(1, 2), 1.5 + 0.25);
        assert_eq!(csr.get(1, 0), 2.0);
        assert_eq!(csr.get(0, 1), 0.0);
    }

    #[test]
    fn csr_columns_ascend_within_rows() {
        let mut rng = StdRng::seed_from_u64(11);
        let csr = random_sparse(&mut rng, 20, 17, 0.3).to_csr();
        for i in 0..20 {
            let (cols, _) = csr.row_entries(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i}: {cols:?}");
        }
    }

    #[test]
    fn dense_round_trip() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut d = random_matrix(&mut rng, 9, 13);
        // Punch some exact zeros into the pattern.
        for i in 0..9 {
            d.row_mut(i)[(i * 5) % 13] = 0.0;
        }
        let csr = CsrMatrix::from_dense(&d);
        assert!(csr.nnz() < 9 * 13);
        assert_eq!(csr.to_dense(), d);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let z = CsrMatrix::zeros(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.spmv(&[1.0; 4]).unwrap(), vec![0.0; 3]);
        let e = CooMatrix::new(0, 0).to_csr();
        assert_eq!(e.spmv(&[]).unwrap(), Vec::<f64>::new());
        // 1x1.
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 2.0);
        let m = coo.to_csr();
        assert_eq!(m.spmv(&[3.0]).unwrap(), vec![6.0]);
    }

    #[test]
    fn spmv_matches_dense_fused_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(rows, cols, fill) in &[(17, 17, 0.2), (40, 23, 0.1), (8, 31, 0.9)] {
            let csr = random_sparse(&mut rng, rows, cols, fill).to_csr();
            let dense = csr.to_dense();
            let x = random_vector(&mut rng, cols);
            let sparse_y = csr.spmv(&x).unwrap();
            assert_eq!(sparse_y, dense_fmadd_gemv(&dense, &x));
        }
    }

    #[test]
    fn spmv_parallel_is_bit_identical() {
        let mut rng = StdRng::seed_from_u64(14);
        let csr = random_sparse(&mut rng, 64, 64, 0.15).to_csr();
        let x = random_vector(&mut rng, 64);
        let serial = csr.spmv(&x).unwrap();
        for threads in [1, 2, 3, 7] {
            let par = csr
                .spmv_with(&x, Parallelism::with_threads(threads))
                .unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn diagonal_only_matrix_solves_everywhere() {
        let d = Matrix::from_diag(&[2.0, 4.0, 8.0]);
        let csr = CsrMatrix::from_dense(&d);
        let b = [2.0, 4.0, 8.0];
        let cg = csr.cg(&b, 5, 1e-12).unwrap();
        assert!(cg.x.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn cg_matches_cholesky_solution() {
        let mut rng = StdRng::seed_from_u64(18);
        for n in [1usize, 2, 10, 32] {
            let spd = random_spd(&mut rng, n);
            let b = random_vector(&mut rng, n);
            let csr = CsrMatrix::from_dense(&spd);
            let cg = csr.cg(&b, 10 * n + 10, 1e-12).unwrap();
            let direct = Cholesky::factor(&spd).unwrap().solve(&b).unwrap();
            for (c, d) in cg.x.iter().zip(&direct) {
                assert!(
                    crate::approx_eq(*c, *d, 1e-7),
                    "n = {n}: cg {c} vs cholesky {d}"
                );
            }
        }
    }

    #[test]
    fn cg_not_converged_is_typed() {
        let mut rng = StdRng::seed_from_u64(19);
        let spd = random_spd(&mut rng, 30);
        let csr = CsrMatrix::from_dense(&spd);
        let b = random_vector(&mut rng, 30);
        match csr.cg(&b, 1, 1e-14) {
            Err(SparseError::NotConverged { op, iterations, .. }) => {
                assert_eq!(op, "cg");
                assert_eq!(iterations, 1);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn cg_indefinite_breakdown_is_typed() {
        let d = Matrix::from_diag(&[1.0, -1.0]);
        let csr = CsrMatrix::from_dense(&d);
        // b aligned with the negative eigendirection trips pᵀAp < 0.
        match csr.cg(&[0.0, 1.0], 10, 1e-10) {
            Err(SparseError::IndefiniteBreakdown { op, iteration, curvature }) => {
                assert_eq!(op, "cg");
                assert_eq!(iteration, 1);
                assert!(curvature <= 0.0);
            }
            other => panic!("expected IndefiniteBreakdown, got {other:?}"),
        }
    }

    #[test]
    fn cg_fixed_runs_exactly_the_requested_iterations() {
        let mut rng = StdRng::seed_from_u64(20);
        let spd = random_spd(&mut rng, 40);
        let csr = CsrMatrix::from_dense(&spd);
        let b = random_vector(&mut rng, 40);
        let s = csr.cg_fixed(&b, 17).unwrap();
        assert_eq!(s.iterations, 17);
        // And the fixed run's iterates match the tolerance run's prefix:
        // same loop, so a converged cg() at k iterations equals cg_fixed(k).
        let conv = csr.cg(&b, 400, 1e-10).unwrap();
        let fixed = csr.cg_fixed(&b, conv.iterations).unwrap();
        assert_eq!(fixed.x, conv.x);
        assert_eq!(fixed.residual, conv.residual);
    }

    #[test]
    fn cg_zero_rhs_short_circuits() {
        let csr = CsrMatrix::from_dense(&Matrix::identity(4));
        let s = csr.cg(&[0.0; 4], 10, 1e-12).unwrap();
        assert_eq!(s.x, vec![0.0; 4]);
        assert_eq!(s.iterations, 0);
    }

    #[test]
    fn shape_errors_are_typed() {
        let csr = CsrMatrix::zeros(3, 4);
        assert!(matches!(
            csr.spmv(&[1.0; 3]),
            Err(SparseError::ShapeMismatch { op: "spmv", .. })
        ));
        assert!(matches!(
            csr.cg(&[1.0; 4], 1, 1e-3),
            Err(SparseError::NotSquare { op: "cg", .. })
        ));
        let sq = CsrMatrix::zeros(4, 4);
        assert!(matches!(
            sq.cg(&[1.0; 3], 1, 1e-3),
            Err(SparseError::ShapeMismatch { op: "cg", .. })
        ));
    }

    #[test]
    fn errors_display() {
        let e = SparseError::NotConverged {
            op: "cg",
            iterations: 9,
            residual: 0.5,
            tol: 1e-9,
        };
        let s = format!("{e}");
        assert!(s.contains("cg") && s.contains("9"), "{s}");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn coo_push_out_of_bounds_panics() {
        CooMatrix::new(2, 2).push(2, 0, 1.0);
    }
}
