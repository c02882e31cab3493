//! The `MathTask` of the paper's Procedure 6, in two forms:
//!
//! * [`simulated_task`] — a `relperf-sim` [`Task`] description whose FLOP
//!   and byte counts come from the exact kernel accounting in
//!   `relperf-linalg::flops`; this is what the Table I and Fig. 1b
//!   experiments execute on the simulated platform.
//! * [`run_real_with`] — the actual computation (random `A`, `B`; solve
//!   `Z = (AᵀA + λI)⁻¹AᵀB`; penalty `‖AZ − B‖²`) on this machine, used by
//!   the quickstart example and the real-measurement path.

use rand::Rng;
use relperf_linalg::flops;
use relperf_linalg::rls::math_task_with;
use relperf_linalg::KernelEngine;
use relperf_sim::Task;

/// Bytes a framework keeps live per `MathTask` iteration: the three
/// size²-matrices that dominate the footprint (`A`, `B`, and the factor /
/// result storage reuse one buffer each in a tight implementation).
pub fn working_set_bytes(size: usize) -> u64 {
    3 * flops::matrix_bytes(size, size)
}

/// Builds the simulated task description for a `MathTask(size)` loop of
/// `iters` iterations.
///
/// Byte counts model the TensorFlow placement behaviour the paper
/// describes: inputs `A`, `B` are generated host-side each iteration and
/// must cross the link when the task is offloaded; only the scalar penalty
/// returns.
pub fn simulated_task(name: &str, size: usize, iters: usize) -> Task {
    Task {
        name: name.to_string(),
        iterations: iters as u64,
        flops_per_iter: flops::rls_iteration(size),
        offload_bytes_per_iter: 2 * flops::matrix_bytes(size, size),
        return_bytes_per_iter: 8,
        working_set_bytes: working_set_bytes(size),
        handoff_bytes: 8, // the penalty scalar feeds the next task
    }
}

/// Runs the real `MathTask` on this machine (Procedure 6 verbatim) on an
/// explicit [`KernelEngine`] and returns the final penalty. Every engine
/// draws the same RNG stream and computes bit-identical kernels, so the
/// returned penalty is **the same, bit for bit**, whichever engine runs —
/// only the wall-clock (the thing the paper measures) changes.
/// Golden-tested in `tests/kernel_golden.rs`.
pub fn run_real_with<R: Rng + ?Sized>(
    rng: &mut R,
    size: usize,
    iters: usize,
    penalty: f64,
    engine: KernelEngine,
) -> Result<f64, relperf_linalg::LinalgError> {
    math_task_with(rng, size, iters, penalty, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn simulated_task_counts_match_flops_module() {
        let t = simulated_task("L3", 300, 10);
        assert_eq!(t.iterations, 10);
        assert_eq!(t.flops_per_iter, flops::rls_iteration(300));
        assert_eq!(t.offload_bytes_per_iter, 2 * 8 * 300 * 300);
        assert_eq!(t.working_set_bytes, 3 * 8 * 300 * 300);
        assert_eq!(t.return_bytes_per_iter, 8);
        assert_eq!(t.name, "L3");
    }

    #[test]
    fn working_set_grows_quadratically() {
        assert_eq!(working_set_bytes(100), 4 * working_set_bytes(50));
    }

    #[test]
    fn run_real_produces_finite_penalty() {
        let mut rng = StdRng::seed_from_u64(101);
        let p = run_real_with(&mut rng, 12, 2, 0.0, KernelEngine::default()).unwrap();
        assert!(p.is_finite() && p >= 0.0);
    }

    #[test]
    fn run_real_threads_penalty() {
        let engine = KernelEngine::default();
        let a = run_real_with(&mut StdRng::seed_from_u64(102), 10, 1, 0.0, engine).unwrap();
        let b = run_real_with(&mut StdRng::seed_from_u64(102), 10, 1, 50.0, engine).unwrap();
        assert_ne!(a, b, "initial penalty must influence the result");
    }
}
