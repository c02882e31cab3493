//! The Fig. 1 workload: a scientific code with two matrix-multiplication
//! loops `L1`, `L2` (L2 depends on L1's output), each placeable on the
//! device or the accelerator — four equivalent algorithms DD, DA, AD, AA.
//!
//! `L1` runs many iterations on moderate matrices (compute-dense, fits the
//! accelerator); `L2` runs few iterations on much larger matrices whose
//! working set blows past the accelerator's memory, so its offload gain is
//! eaten by data movement and memory pressure — the paper's observation
//! that "the overhead caused by the larger data-movement between CPU and
//! GPU is slightly more than the speed-up gain".

use relperf_linalg::flops;
use relperf_sim::{enumerate_placements, placement_label, Loc, Task};

/// Matrix size of the first loop.
pub const L1_SIZE: usize = 300;
/// Iterations of the first loop.
pub const L1_ITERS: usize = 500;
/// Matrix size of the second (larger) loop.
pub const L2_SIZE: usize = 1500;
/// Iterations of the second loop.
pub const L2_ITERS: usize = 2;

fn matmul_task(name: &str, size: usize, iters: usize) -> Task {
    Task {
        name: name.to_string(),
        iterations: iters as u64,
        flops_per_iter: flops::gemm(size, size, size),
        // Two input matrices cross per iteration, the product comes back.
        offload_bytes_per_iter: 2 * flops::matrix_bytes(size, size),
        return_bytes_per_iter: flops::matrix_bytes(size, size),
        working_set_bytes: 3 * flops::matrix_bytes(size, size),
        handoff_bytes: flops::matrix_bytes(size, size),
    }
}

/// The two tasks of the Fig. 1 code.
pub fn tasks() -> Vec<Task> {
    vec![
        matmul_task("L1", L1_SIZE, L1_ITERS),
        matmul_task("L2", L2_SIZE, L2_ITERS),
    ]
}

/// The four placements in the paper's order DD, DA, AD, AA.
pub fn placements() -> Vec<(String, Vec<Loc>)> {
    // enumerate_placements yields DD, DA, AD, AA for two tasks.
    enumerate_placements(2, 1)
        .into_iter()
        .map(|p| (placement_label(&p), p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tasks_defined() {
        let ts = tasks();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].name, "L1");
        assert_eq!(ts[1].name, "L2");
    }

    #[test]
    fn l1_has_more_total_compute_but_l2_has_bigger_working_set() {
        let ts = tasks();
        assert!(ts[0].total_flops() > ts[1].total_flops());
        assert!(ts[1].working_set_bytes > ts[0].working_set_bytes);
    }

    #[test]
    fn four_placements_in_paper_order() {
        let ps = placements();
        let labels: Vec<&str> = ps.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["DD", "DA", "AD", "AA"]);
    }

    #[test]
    fn flop_counts_match_gemm_formula() {
        let ts = tasks();
        assert_eq!(ts[0].flops_per_iter, 2 * (L1_SIZE as u64).pow(3));
        assert_eq!(ts[1].flops_per_iter, 2 * (L2_SIZE as u64).pow(3));
    }
}
