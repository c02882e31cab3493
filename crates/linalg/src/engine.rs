//! Kernel-engine selection for the measured workloads.
//!
//! The paper measures *mathematically equivalent* algorithm variants; this
//! workspace goes one step further and keeps its variants **bit-equal**:
//! every engine below produces identical output for identical input, so
//! swapping engines changes how fast an experiment runs but never what it
//! computes. The seeded workload goldens in `relperf-workloads` pin that
//! guarantee end to end.

use crate::cholesky::Cholesky;
use crate::error::Result;
use crate::gemm::{gemm_blocked, gemm_naive, gemm_parallel_with, syrk_ata, syrk_ata_blocked};
use crate::matrix::Matrix;
use relperf_parallel::Parallelism;

/// Which implementation of the hot kernels a workload runs on.
///
/// All three produce **bit-identical** results (property-tested in the
/// `relperf-linalg` test suite and golden-tested through the real
/// workloads); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum KernelEngine {
    /// Unblocked reference kernels: the naive `ikj` GEMM, the rank-1
    /// right-looking Cholesky. The oracle everything else is tested
    /// against — and the honest "before" side of the kernel benchmarks.
    Reference,
    /// The packed, cache-blocked microkernel engine (serial). The default.
    #[default]
    Blocked,
    /// The blocked engine with GEMM parallelized over row-block indices.
    /// Deterministic for any [`Parallelism`], [`Parallelism::serial`]
    /// included.
    Parallel(Parallelism),
}

impl KernelEngine {
    /// Short stable label, used by benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            KernelEngine::Reference => "reference",
            KernelEngine::Blocked => "blocked",
            KernelEngine::Parallel(_) => "blocked+parallel",
        }
    }

    /// Matrix product `A·B` on this engine.
    pub fn gemm(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        match self {
            KernelEngine::Reference => gemm_naive(a, b),
            KernelEngine::Blocked => gemm_blocked(a, b),
            KernelEngine::Parallel(par) => gemm_parallel_with(a, b, *par),
        }
    }

    /// Gram matrix `AᵀA` on this engine (the parallel engine uses the
    /// serial blocked symmetric kernel — the factorization consuming the
    /// Gram matrix dominates, and symmetry halves the work).
    pub fn gram(&self, a: &Matrix) -> Matrix {
        match self {
            KernelEngine::Reference => syrk_ata(a),
            KernelEngine::Blocked | KernelEngine::Parallel(_) => syrk_ata_blocked(a),
        }
    }

    /// Cholesky factorization on this engine (the parallel engine fans the
    /// trailing updates over row blocks — bit-identical, see
    /// [`Cholesky::factor_parallel_with`]).
    pub fn cholesky(&self, a: &Matrix) -> Result<Cholesky> {
        match self {
            KernelEngine::Reference => Cholesky::factor_reference(a),
            KernelEngine::Blocked => Cholesky::factor(a),
            KernelEngine::Parallel(par) => Cholesky::factor_parallel_with(a, *par),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{random_matrix, random_spd};
    use rand::prelude::*;

    #[test]
    fn engines_agree_bitwise_on_every_kernel() {
        let mut rng = StdRng::seed_from_u64(91);
        let a = random_matrix(&mut rng, 70, 40);
        let b = random_matrix(&mut rng, 40, 33);
        let spd = random_spd(&mut rng, 50);
        let engines = [
            KernelEngine::Reference,
            KernelEngine::Blocked,
            KernelEngine::Parallel(Parallelism::with_threads(3)),
        ];
        let gemm0 = engines[0].gemm(&a, &b).unwrap();
        let gram0 = engines[0].gram(&a);
        let chol0 = engines[0].cholesky(&spd).unwrap();
        for e in &engines[1..] {
            assert_eq!(e.gemm(&a, &b).unwrap(), gemm0, "{}", e.label());
            assert_eq!(e.gram(&a), gram0, "{}", e.label());
            assert_eq!(e.cholesky(&spd).unwrap(), chol0, "{}", e.label());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(KernelEngine::Reference.label(), "reference");
        assert_eq!(KernelEngine::Blocked.label(), "blocked");
        assert_eq!(
            KernelEngine::Parallel(Parallelism::auto()).label(),
            "blocked+parallel"
        );
    }
}
