//! The Sec. IV workload (Procedure 5): a scientific code calling three
//! `MathTask`s of sizes 50, 75, 300 — every task computes a penalty that
//! seeds the next, so the tasks are strictly sequential. With each task
//! placeable on `D` or `A` there are 8 equivalent algorithms (Table I).

use crate::mathtask::simulated_task;
use rand::Rng;
use relperf_linalg::KernelEngine;
use relperf_sim::{enumerate_placements, placement_label, Loc, Task};

/// Matrix sizes of the three `MathTask`s (paper Procedure 5).
pub const SIZES: [usize; 3] = [50, 75, 300];

/// Scaled-up task sizes for the blocked kernel engine: with the packed
/// microkernel under the RLS solver, the same seeded experiments reach
/// `n = 512` on real hardware in the time the naive kernels needed for
/// the paper's `n = 300`.
pub const LARGE_SIZES: [usize; 3] = [128, 256, 512];

/// The three tasks with `n` loop iterations each.
pub fn tasks(iters: usize) -> Vec<Task> {
    tasks_custom(&SIZES, iters)
}

/// The scaled-up [`LARGE_SIZES`] tasks with `n` loop iterations each.
pub fn tasks_large(iters: usize) -> Vec<Task> {
    tasks_custom(&LARGE_SIZES, iters)
}

/// Simulated task descriptions for arbitrary `MathTask` sizes — the FLOP
/// and byte counts come from the same shared formulas the real kernels
/// execute, whatever the size.
pub fn tasks_custom(sizes: &[usize], iters: usize) -> Vec<Task> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| simulated_task(&format!("L{}", i + 1), s, iters))
        .collect()
}

/// All 8 placements labelled in paper notation, `DDD` first, `AAA` last.
pub fn placements() -> Vec<(String, Vec<Loc>)> {
    enumerate_placements(3, 1)
        .into_iter()
        .map(|p| (placement_label(&p), p))
        .collect()
}

/// Runs the *real* scientific code (Procedure 5) on this machine: one
/// chained `MathTask` per entry of `sizes` (the paper's [`SIZES`], smaller
/// instances for tests, or [`LARGE_SIZES`] for the scaled-up campaign),
/// threading the penalty. The returned penalty is bit-identical across
/// engines (see [`crate::mathtask::run_real_with`]); the engine only
/// decides how fast the measured workload runs.
pub fn run_real_custom_with<R: Rng + ?Sized>(
    rng: &mut R,
    sizes: &[usize],
    iters: usize,
    engine: KernelEngine,
) -> Result<f64, relperf_linalg::LinalgError> {
    let mut penalty = 0.0;
    for &s in sizes {
        penalty = crate::mathtask::run_real_with(rng, s, iters, penalty, engine)?;
    }
    Ok(penalty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn three_tasks_with_growing_flops() {
        let ts = tasks(10);
        assert_eq!(ts.len(), 3);
        assert!(ts[0].flops_per_iter < ts[1].flops_per_iter);
        assert!(ts[1].flops_per_iter < ts[2].flops_per_iter);
    }

    #[test]
    fn eight_placements_paper_notation() {
        let ps = placements();
        assert_eq!(ps.len(), 8);
        assert_eq!(ps[0].0, "DDD");
        assert_eq!(ps[7].0, "AAA");
        let labels: std::collections::HashSet<&str> =
            ps.iter().map(|(l, _)| l.as_str()).collect();
        for expect in ["DDD", "DDA", "DAD", "DAA", "ADD", "ADA", "AAD", "AAA"] {
            assert!(labels.contains(expect), "missing {expect}");
        }
    }

    #[test]
    fn iterations_parameter_respected() {
        for &n in &[1, 10, 50] {
            assert!(tasks(n).iter().all(|t| t.iterations == n as u64));
        }
    }

    #[test]
    fn run_real_small_instance() {
        // A scaled-down instance keeps the test fast; the full-size run is
        // exercised by the examples and benches in release mode.
        let p = run_real_custom_with(
            &mut StdRng::seed_from_u64(111),
            &[8, 10, 12],
            2,
            KernelEngine::default(),
        )
        .unwrap();
        assert!(p.is_finite() && p >= 0.0);
    }
}
