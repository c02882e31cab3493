//! Dense linear algebra substrate for the relative-performance reproduction.
//!
//! The paper's workloads are built from TensorFlow 2.1 linear algebra; this
//! crate replaces that dependency with a self-contained, pure-Rust stack:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with checked and unchecked
//!   access, views, and elementwise helpers.
//! * [`gemm`] — matrix-matrix multiplication in four flavours (naive, blocked,
//!   packed, and thread-parallel), all bit-agreeing up to floating-point
//!   reassociation and property-tested against the naive reference.
//! * [`KernelEngine`] — selects the naive reference or the blocked/parallel kernels.
//! * [`cholesky`], [`triangular`] — the factorization and solves needed to
//!   solve the paper's Regularized Least Squares (RLS) task. The crate
//!   carries only kernels that a workload runs.
//! * [`rls`] — the RLS solver `Z = (AᵀA + λI)⁻¹ AᵀB` (Procedure 6 of the
//!   paper) through the normal equations and Cholesky.
//! * [`sparse`] — the bandwidth-bound family: COO assembly, a [`CsrMatrix`]
//!   with SpMV (pinned bit-identical to the dense fused loop), and the
//!   deterministic Conjugate-Gradient solver the FEM workload runs.
//! * [`flops`] — exact floating-point-operation counts for every kernel,
//!   consumed by the simulator's energy model.
//!
//! All kernels are deterministic given their inputs; randomness only enters
//! through [`random`] which is fully seeded.

#![warn(missing_docs)]

pub mod blas;
pub mod cholesky;
pub mod engine;
pub mod error;
pub mod flops;
pub mod gemm;
pub mod matrix;
pub mod random;
pub mod rls;
pub mod sparse;
pub mod triangular;

pub use engine::KernelEngine;
pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use sparse::{CooMatrix, CsrMatrix, IterSolve, SparseError};
pub use relperf_parallel::Parallelism;

/// The shared fused multiply-add `a·b + acc` every kernel element update
/// in this crate goes through.
///
/// [`f64::mul_add`] rounds once, and that semantics is *exact* — the result
/// does not depend on whether the target lowers it to a hardware FMA
/// instruction or to the software fallback. Routing the naive references,
/// the packed microkernel, and the factorization inner loops through this
/// one function is what makes "blocked ≡ naive, bit for bit" hold on every
/// build. (The workspace `.cargo/config.toml` compiles with
/// `-C target-cpu=native`, so on FMA-capable hardware this is a single
/// instruction.)
#[inline(always)]
pub fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    a.mul_add(b, acc)
}

/// Returns `true` when `a` and `b` agree to within `tol` absolutely or
/// relatively (whichever is looser), the standard mixed criterion for
/// comparing results of reassociated floating-point computations.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_relative_for_large_values() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }

    #[test]
    fn approx_eq_zero() {
        assert!(approx_eq(0.0, 0.0, 1e-9));
        assert!(approx_eq(0.0, 1e-12, 1e-9));
    }
}
