//! Exact floating-point-operation counts for every kernel in this crate.
//!
//! The paper's Sec. IV selects algorithms under a budget on "the number of
//! floating point operations (FLOPs) performed by the scientific code on
//! that device"; these counts feed the simulator's timing and energy models
//! and the decision models in `relperf-core`.

/// FLOPs of a general `m x k · k x n` matrix product (one multiply and one
/// add per inner-loop step): `2·m·k·n`.
///
/// This is the **shared formula** for every dense-product path: the naive
/// loop, the blocked microkernel engine, and the parallel engine execute
/// exactly the same multiply-adds (that is the bit-identity contract of
/// [`crate::gemm`]), so one count serves them all — and the simulator's
/// flops-driven executor prices tasks with the same number the real
/// kernels perform.
pub fn gemm(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

/// FLOPs of `AᵀA` for an `m x n` matrix exploiting symmetry:
/// `m·n·(n+1)` (half of the general product plus the diagonal).
pub fn syrk(m: usize, n: usize) -> u64 {
    (m as u64) * (n as u64) * (n as u64 + 1)
}

/// FLOPs of a Cholesky factorization of an `n x n` SPD matrix: `n³/3`
/// to leading order (the conventional `(1/3)n³ + O(n²)` count, rounded).
pub fn cholesky(n: usize) -> u64 {
    let n = n as u64;
    (n * n * n) / 3 + n * n
}

/// FLOPs of one triangular solve with an `n x n` factor and a single
/// right-hand side: `n²`.
pub fn trsv(n: usize) -> u64 {
    let n = n as u64;
    n * n
}

/// FLOPs of a triangular solve with an `n x n` factor and `k` right-hand
/// sides: `k·n²`.
pub fn trsm(n: usize, k: usize) -> u64 {
    (k as u64) * trsv(n)
}

/// FLOPs of the Frobenius norm of an `m x n` matrix: `2·m·n` (square and
/// accumulate) plus one square root.
pub fn frobenius(m: usize, n: usize) -> u64 {
    2 * (m as u64) * (n as u64) + 1
}

/// FLOPs of an elementwise matrix addition / subtraction: `m·n`.
pub fn elementwise(m: usize, n: usize) -> u64 {
    (m as u64) * (n as u64)
}

/// FLOPs of one iteration of the paper's `MathTask` body (Procedure 6) with
/// `size x size` matrices, solving `Z = (AᵀA + λI)⁻¹ AᵀB` via the
/// normal-equations/Cholesky path and computing the penalty
/// `‖A·Z − B‖²`:
///
/// * `AᵀA` (symmetric rank-k update),
/// * `+ λI` (n adds),
/// * Cholesky factorization,
/// * `AᵀB` (general product),
/// * two triangular solves with `n` right-hand sides,
/// * `A·Z` and the residual norm.
pub fn rls_iteration(size: usize) -> u64 {
    let s = size;
    syrk(s, s)
        + s as u64
        + cholesky(s)
        + gemm(s, s, s)
        + 2 * trsm(s, s)
        + gemm(s, s, s)
        + elementwise(s, s)
        + frobenius(s, s)
}

/// Total FLOPs of a `MathTask` of `iters` iterations at the given size.
pub fn rls_task(size: usize, iters: usize) -> u64 {
    (iters as u64) * rls_iteration(size)
}

/// FLOPs of a CSR sparse matrix–vector product with `nnz` stored entries:
/// `2·nnz` (one fused multiply-add per entry).
///
/// Shared by [`crate::sparse::CsrMatrix::spmv`] and the simulator's sparse
/// task models — same contract as [`gemm`] for the dense paths. Note what
/// is *not* here: SpMV performs ~`2·nnz` FLOPs while touching
/// [`spmv_bytes`] bytes, an arithmetic intensity of roughly 1/8 FLOP per
/// byte, which is why the sparse family is priced by memory traffic, not
/// FLOPs, on any device with a working-set roofline.
pub fn spmv(nnz: usize) -> u64 {
    2 * nnz as u64
}

/// FLOPs of one Conjugate-Gradient iteration on an `n x n` SPD CSR matrix
/// with `nnz` stored entries: the SpMV `q = A·p` ([`spmv`]), two dot
/// products and three fused vector updates (`2·n` each), one residual
/// square root, and two scalar divisions — `2·nnz + 10·n + 3`.
///
/// The one-time setup (`r = b`, `rz = rᵀr`) costs a further `2·n` and is
/// excluded; multiply by the iteration count for a whole solve, as
/// [`crate::sparse::CsrMatrix::cg_fixed`]'s deterministic pricing does.
pub fn cg_iter(n: usize, nnz: usize) -> u64 {
    spmv(nnz) + 10 * n as u64 + 3
}

/// Bytes of one dense `rows x cols` `f64` matrix.
pub fn matrix_bytes(rows: usize, cols: usize) -> u64 {
    8 * (rows as u64) * (cols as u64)
}

/// In-memory bytes of a `rows`-row CSR matrix with `nnz` stored entries:
/// `8·nnz` values + `8·nnz` column indices + `8·(rows + 1)` row offsets
/// (this crate stores indices as `usize`, 8 bytes on every supported
/// target).
///
/// This is the **bytes-moved model** for the sparse kernels: one SpMV
/// streams the whole structure exactly once, so where the dense tasks feed
/// [`matrix_bytes`] working sets into the simulator's roofline, the sparse
/// tasks feed `csr_bytes`-derived traffic — a sparse task's price is set by
/// this number, not by its (tiny) FLOP count.
pub fn csr_bytes(rows: usize, nnz: usize) -> u64 {
    16 * nnz as u64 + 8 * (rows as u64 + 1)
}

/// Bytes moved by one SpMV `y = A·x` on a `rows x cols` CSR matrix with
/// `nnz` entries: the CSR structure streams once ([`csr_bytes`]), `x` is
/// read (`8·cols`, counting each element once — the streaming-friendly
/// lower bound; a cache-hostile column pattern can re-read up to `8·nnz`),
/// and `y` is written (`8·rows`).
pub fn spmv_bytes(rows: usize, cols: usize, nnz: usize) -> u64 {
    csr_bytes(rows, nnz) + 8 * (cols as u64) + 8 * (rows as u64)
}

/// Bytes moved by one CG iteration on an `n x n` CSR matrix with `nnz`
/// entries: the SpMV streams the matrix once ([`csr_bytes`]), and the
/// dense vector work makes 14 length-`n` sweeps — SpMV reads `p` and
/// writes `q` (2), `pᵀq` reads both (2), the `x` and `r` updates
/// read-modify-write against a second stream (3 each), `rᵀr` re-reads `r`
/// (1), and the direction update `p ← r + β·p` is another
/// read-modify-write (3).
pub fn cg_iter_bytes(n: usize, nnz: usize) -> u64 {
    csr_bytes(n, nnz) + 14 * 8 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_count() {
        assert_eq!(gemm(2, 3, 4), 48);
        assert_eq!(gemm(0, 3, 4), 0);
    }

    /// Pins the closed-form counts against instrumented replicas of the
    /// naive kernel loops: exact for the loops whose trip counts the
    /// formulas enumerate, leading-order (≤ 5 %) for Cholesky, whose
    /// formula keeps only the conventional cubic + quadratic terms.
    #[test]
    fn formulas_match_counted_naive_loops() {
        // gemm: one fused multiply-add = 2 FLOPs per (i, l, j) triple.
        let (m, k, n) = (7, 5, 9);
        let mut count = 0u64;
        for _i in 0..m {
            for _l in 0..k {
                for _j in 0..n {
                    count += 2;
                }
            }
        }
        assert_eq!(count, gemm(m, k, n));

        // syrk: upper triangle incl. diagonal, 2 FLOPs per contribution.
        let (m, n) = (11, 6);
        let mut count = 0u64;
        for _i in 0..m {
            for p in 0..n {
                for _q in p..n {
                    count += 2;
                }
            }
        }
        assert_eq!(count, syrk(m, n));

        // trsv: per row i, i multiply-subtracts and one division.
        let n = 13;
        let mut count = 0u64;
        for i in 0..n {
            count += 2 * i as u64 + 1;
        }
        // n² counts n(n−1) mul-subs + n divisions exactly.
        assert_eq!(count, trsv(n));

        // cholesky: count the right-looking reference loops exactly and
        // require the n³/3 + n² formula to sit within 5 %.
        let n = 48usize;
        let mut count = 0u64;
        for kcol in 0..n {
            count += 1; // sqrt
            count += (n - kcol - 1) as u64; // column divide
            for j in (kcol + 1)..n {
                count += 2 * (n - j) as u64; // fused update
            }
        }
        let formula = cholesky(n);
        let err = (formula as f64 - count as f64).abs() / count as f64;
        assert!(err < 0.05, "cholesky: formula {formula} vs counted {count}");
    }

    /// Pins the sparse closed forms against instrumented replicas of the
    /// CSR kernel loops, exact to the operation — same exercise as
    /// `formulas_match_counted_naive_loops`, on a synthetic pattern with
    /// ragged rows (including an empty one).
    #[test]
    fn sparse_formulas_match_counted_loops() {
        // A 6x6 pattern: per-row off-diagonal counts 0..=4, diagonal always
        // present ⇒ n = 6, nnz = 6 + (0+1+2+3+4+0) = 16.
        let n = 6usize;
        let offdiag = [0usize, 1, 2, 3, 4, 0];
        let nnz = n + offdiag.iter().sum::<usize>();

        // spmv: one fused multiply-add = 2 FLOPs per stored entry.
        let mut count = 0u64;
        for &k in &offdiag {
            for _ in 0..(k + 1) {
                count += 2;
            }
        }
        assert_eq!(count, spmv(nnz));

        // cg iteration, step by step as `CsrMatrix::cg` executes it.
        let mut count = 0u64;
        count += spmv(nnz); // q = A·p
        count += 2 * n as u64; // pᵀq
        count += 1; // α = rz / pᵀq
        count += 2 * n as u64; // x ← x + α·p
        count += 2 * n as u64; // r ← r − α·q
        count += 2 * n as u64; // rᵀr
        count += 1; // residual sqrt
        count += 1; // β = rz'/rz
        count += 2 * n as u64; // p ← r + β·p
        assert_eq!(count, cg_iter(n, nnz));
    }

    #[test]
    fn sparse_bytes_model() {
        // 8-byte values, 8-byte indices, rows+1 offsets.
        assert_eq!(csr_bytes(3, 10), 16 * 10 + 8 * 4);
        // SpMV adds one x read and one y write per element.
        assert_eq!(spmv_bytes(3, 5, 10), csr_bytes(3, 10) + 8 * 5 + 8 * 3);
        // CG adds 14 dense sweeps over length-n vectors.
        assert_eq!(cg_iter_bytes(4, 10), csr_bytes(4, 10) + 14 * 8 * 4);
        // The family is bandwidth-bound: arithmetic intensity below 1
        // FLOP/byte wherever the pattern is actually sparse.
        let (n, nnz) = (1000, 5000);
        assert!((spmv(nnz) as f64) < spmv_bytes(n, n, nnz) as f64);
    }

    #[test]
    fn syrk_is_half_of_gemm_plus_diagonal() {
        // For square m = n = s: syrk = s·s·(s+1), gemm = 2·s³.
        let s = 10;
        assert!(syrk(s, s) < gemm(s, s, s));
        assert_eq!(syrk(s, s), 10 * 10 * 11);
    }

    #[test]
    fn cholesky_leading_order() {
        // n=30: n³/3 = 9000; the n² correction adds 900.
        assert_eq!(cholesky(30), 9900);
    }

    #[test]
    fn trsm_scales_with_rhs_count() {
        assert_eq!(trsm(10, 3), 300);
    }

    #[test]
    fn rls_iteration_dominated_by_cubic_terms() {
        let s = 100;
        let total = rls_iteration(s);
        // Two GEMMs (4·s³) + syrk (≈s³) + cholesky (≈s³/3) + trsm (2·s³).
        let cubic_estimate = 4 * (s as u64).pow(3)
            + syrk(s, s)
            + cholesky(s)
            + 2 * trsm(s, s);
        assert!(total >= cubic_estimate);
        assert!(total < cubic_estimate + 10 * (s as u64).pow(2) + 10);
    }

    #[test]
    fn rls_task_is_linear_in_iterations() {
        assert_eq!(rls_task(50, 10), 10 * rls_iteration(50));
        assert_eq!(rls_task(50, 0), 0);
    }

    #[test]
    fn bytes_counts() {
        assert_eq!(matrix_bytes(2, 3), 48);
    }

    #[test]
    fn monotonicity_in_size() {
        for s in 1..50 {
            assert!(rls_iteration(s + 1) > rls_iteration(s));
        }
    }
}
