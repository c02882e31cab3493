//! Tasks, placements, and placement enumeration.

use std::fmt;

/// Where a task runs: the edge device `D` or accelerator `k` of the
/// platform (see [`crate::Platform::accelerators`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// The edge device (paper notation `D`).
    Device,
    /// Accelerator `k`, 0-based (paper notation `A` for the first).
    Accelerator(usize),
}

impl Loc {
    /// Accelerators that have a letter: `A`–`Z` without `D`.
    pub const MAX_ACCELERATORS: usize = 25;

    /// Single-letter paper notation: `D` for the device and `A`, `B`, `C`,
    /// `E`, … for accelerators 0, 1, 2, 3, … — the letters skip `D`, so
    /// every label stays unique. `'?'` past [`Loc::MAX_ACCELERATORS`].
    pub fn letter(self) -> char {
        match self {
            Loc::Device => 'D',
            Loc::Accelerator(k) if k < Self::MAX_ACCELERATORS => {
                let skip_d = u8::from(k >= 3);
                char::from(b'A' + k as u8 + skip_d)
            }
            Loc::Accelerator(_) => '?',
        }
    }

    /// Inverse of [`Loc::letter`] (case-insensitive).
    pub fn from_letter(c: char) -> Option<Loc> {
        match c.to_ascii_uppercase() {
            'D' => Some(Loc::Device),
            c @ 'A'..='Z' => {
                let k = c as usize - 'A' as usize;
                Some(Loc::Accelerator(if c > 'D' { k - 1 } else { k }))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// One loop of the scientific code (an `L_i` in the paper's Procedure 5): a
/// sequence of identical iterations, each with a fixed FLOP count and — when
/// placed on the accelerator — a per-iteration offload transfer.
///
/// The per-iteration transfer models the TensorFlow behaviour the paper
/// observes: the loop body generates fresh input matrices on the host, so an
/// accelerator placement ships them across the link every iteration ("the
/// overhead caused by the larger data-movement between CPU and GPU").
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Task name, e.g. `"L1"`.
    pub name: String,
    /// Number of loop iterations `n`.
    pub iterations: u64,
    /// FLOPs per iteration.
    pub flops_per_iter: u64,
    /// Host-to-device bytes per iteration when offloaded.
    pub offload_bytes_per_iter: u64,
    /// Device-to-host bytes per iteration when offloaded (the scalar
    /// penalty in the paper's RLS task).
    pub return_bytes_per_iter: u64,
    /// Peak working set of one iteration, bytes (drives memory-pressure
    /// throttling on the accelerator).
    pub working_set_bytes: u64,
    /// Bytes handed to the *next* task (the `penalty` scalar in Procedure
    /// 5); crosses the link when consecutive tasks run on different devices.
    pub handoff_bytes: u64,
}

impl Task {
    /// Total FLOPs of the task.
    pub fn total_flops(&self) -> u64 {
        self.iterations * self.flops_per_iter
    }

    /// Total bytes shipped to the accelerator if the task is offloaded.
    pub fn total_offload_bytes(&self) -> u64 {
        self.iterations * (self.offload_bytes_per_iter + self.return_bytes_per_iter)
    }

    /// A dense `n x n` matrix-product loop priced with the **same FLOP
    /// formula the real classical kernels execute**
    /// ([`relperf_linalg::flops::gemm`]) — the blocked engine performs
    /// exactly the naive loop's multiply-adds, so one count serves the
    /// simulator and the hardware measurement alike. Both input matrices
    /// cross the link per iteration when offloaded; the product returns.
    pub fn gemm_loop(name: &str, n: usize, iters: usize) -> Task {
        let bytes = relperf_linalg::flops::matrix_bytes(n, n);
        Task {
            name: name.to_string(),
            iterations: iters as u64,
            flops_per_iter: relperf_linalg::flops::gemm(n, n, n),
            offload_bytes_per_iter: 2 * bytes,
            return_bytes_per_iter: bytes,
            working_set_bytes: 3 * bytes,
            handoff_bytes: 8,
        }
    }

    /// A sparse matrix–vector product loop on an `n x n` CSR matrix with
    /// `nnz` stored entries — the simulator's entry into the
    /// **bandwidth-bound** regime.
    ///
    /// FLOPs come from [`relperf_linalg::flops::spmv`]; the working set is
    /// the kernel's *actual byte traffic*
    /// ([`relperf_linalg::flops::spmv_bytes`]: the CSR structure streams
    /// once per product, plus the dense vectors), so on a device with a
    /// working-set roofline the task is throttled by the bytes it moves,
    /// not by its (tiny) FLOP count. When offloaded, the CSR arrays and
    /// `x` cross the link each iteration and `y` returns.
    pub fn spmv_loop(name: &str, n: usize, nnz: usize, iters: usize) -> Task {
        let csr = relperf_linalg::flops::csr_bytes(n, nnz);
        let vec_bytes = 8 * n as u64;
        Task {
            name: name.to_string(),
            iterations: iters as u64,
            flops_per_iter: relperf_linalg::flops::spmv(nnz),
            offload_bytes_per_iter: csr + vec_bytes,
            return_bytes_per_iter: vec_bytes,
            working_set_bytes: relperf_linalg::flops::spmv_bytes(n, n, nnz),
            handoff_bytes: 8,
        }
    }

    /// A Conjugate-Gradient solve loop on an `n x n` SPD CSR system with
    /// `nnz` stored entries, running exactly `cg_iters` CG iterations per
    /// loop iteration — the simulated counterpart of
    /// [`relperf_linalg::sparse::CsrMatrix::cg_fixed`], whose fixed
    /// iteration count is what makes this price deterministic.
    ///
    /// FLOPs are `cg_iters ·` [`relperf_linalg::flops::cg_iter`]; the
    /// working set is the solve's cumulative byte traffic (`cg_iters ·`
    /// [`relperf_linalg::flops::cg_iter_bytes`]), the bandwidth-bound
    /// pricing described on [`Task::spmv_loop`]. When offloaded, the
    /// assembled system (CSR + right-hand side) crosses the link each
    /// iteration and the solution vector returns.
    pub fn cg_solve_loop(
        name: &str,
        n: usize,
        nnz: usize,
        cg_iters: usize,
        iters: usize,
    ) -> Task {
        let csr = relperf_linalg::flops::csr_bytes(n, nnz);
        let vec_bytes = 8 * n as u64;
        Task {
            name: name.to_string(),
            iterations: iters as u64,
            flops_per_iter: cg_iters as u64 * relperf_linalg::flops::cg_iter(n, nnz),
            offload_bytes_per_iter: csr + vec_bytes,
            return_bytes_per_iter: vec_bytes,
            working_set_bytes: cg_iters as u64 * relperf_linalg::flops::cg_iter_bytes(n, nnz),
            handoff_bytes: 8,
        }
    }
}

/// Human label of a placement vector in paper notation, e.g. `"DDA"`.
pub fn placement_label(placement: &[Loc]) -> String {
    placement.iter().map(|l| l.letter()).collect()
}

/// Parses a paper-notation label (e.g. `"DAD"`) into a placement vector.
/// Returns `None` on any character outside `A`–`Z`.
pub fn parse_placement(label: &str) -> Option<Vec<Loc>> {
    label.chars().map(Loc::from_letter).collect()
}

/// Enumerates all `(1 + accelerators)^n` placements of `n` tasks in a
/// stable order: lexicographic with `D < A < B < …`, so `DD…D` comes
/// first. With one accelerator this is the paper's Fig. 1a (n=2, four
/// algorithms) and Table I (n=3, eight algorithms) enumeration.
///
/// # Panics
/// Panics when the space exceeds 2^20 placements.
pub fn enumerate_placements(n: usize, accelerators: usize) -> Vec<Vec<Loc>> {
    let base = 1 + accelerators as u64;
    let total = u32::try_from(n)
        .ok()
        .and_then(|n| base.checked_pow(n))
        .filter(|&total| total <= 1 << 20)
        .expect("placement space too large to enumerate");
    (0..total)
        .map(|mut code| {
            let mut p = vec![Loc::Device; n];
            // The last task is the lowest digit, so the order is
            // lexicographic.
            for slot in p.iter_mut().rev() {
                let digit = (code % base) as usize;
                if digit > 0 {
                    *slot = Loc::Accelerator(digit - 1);
                }
                code /= base;
            }
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_letters_roundtrip() {
        assert_eq!(Loc::Device.letter(), 'D');
        assert_eq!(Loc::Accelerator(0).letter(), 'A');
        assert_eq!(Loc::from_letter('d'), Some(Loc::Device));
        assert_eq!(Loc::from_letter('A'), Some(Loc::Accelerator(0)));
        assert_eq!(Loc::from_letter('x'), Some(Loc::Accelerator(22)));
        assert_eq!(Loc::from_letter('?'), None);
        assert_eq!(Loc::Device.to_string(), "D");
        // Accelerator letters skip the device's `D`.
        assert_eq!(Loc::Accelerator(3).letter(), 'E');
        assert_eq!(Loc::Accelerator(24).letter(), 'Z');
        assert_eq!(Loc::Accelerator(25).letter(), '?');
        for k in 0..Loc::MAX_ACCELERATORS {
            let loc = Loc::Accelerator(k);
            assert_eq!(Loc::from_letter(loc.letter()), Some(loc));
        }
    }

    #[test]
    fn task_totals() {
        let t = Task {
            name: "L1".into(),
            iterations: 10,
            flops_per_iter: 100,
            offload_bytes_per_iter: 7,
            return_bytes_per_iter: 3,
            working_set_bytes: 0,
            handoff_bytes: 8,
        };
        assert_eq!(t.total_flops(), 1_000);
        assert_eq!(t.total_offload_bytes(), 100);
    }

    #[test]
    fn sparse_loops_are_priced_by_traffic_not_flops() {
        use relperf_linalg::flops;
        let (n, nnz) = (2_000, 18_000);
        let spmv = Task::spmv_loop("SpMV", n, nnz, 4);
        assert_eq!(spmv.flops_per_iter, flops::spmv(nnz));
        assert_eq!(spmv.working_set_bytes, flops::spmv_bytes(n, n, nnz));
        // The bandwidth-bound signature: well below 1 FLOP per working-set
        // byte, where the dense gemm loop sits far above it.
        assert!(spmv.flops_per_iter < spmv.working_set_bytes);
        let dense = Task::gemm_loop("G", 300, 4);
        assert_eq!(dense.flops_per_iter, flops::gemm(300, 300, 300));
        assert!(dense.flops_per_iter > dense.working_set_bytes);

        let cg = Task::cg_solve_loop("CG", n, nnz, 50, 4);
        assert_eq!(cg.flops_per_iter, 50 * flops::cg_iter(n, nnz));
        assert_eq!(cg.working_set_bytes, 50 * flops::cg_iter_bytes(n, nnz));
        // Offload ships the assembled system + rhs; the solution returns.
        assert_eq!(
            cg.offload_bytes_per_iter,
            flops::csr_bytes(n, nnz) + 8 * n as u64
        );
        assert_eq!(cg.return_bytes_per_iter, 8 * n as u64);
    }

    #[test]
    fn labels_roundtrip() {
        let p = vec![Loc::Device, Loc::Accelerator(0), Loc::Device];
        assert_eq!(placement_label(&p), "DAD");
        assert_eq!(parse_placement("DAD"), Some(p));
        assert_eq!(parse_placement("D-D"), None);
    }

    #[test]
    fn enumeration_count_and_order() {
        let all = enumerate_placements(3, 1);
        assert_eq!(all.len(), 8);
        let labels: Vec<String> = all.iter().map(|p| placement_label(p)).collect();
        assert_eq!(
            labels,
            vec!["DDD", "DDA", "DAD", "DAA", "ADD", "ADA", "AAD", "AAA"]
        );
    }

    #[test]
    fn enumeration_two_tasks_matches_fig1a() {
        let labels: Vec<String> = enumerate_placements(2, 1)
            .iter()
            .map(|p| placement_label(p))
            .collect();
        assert_eq!(labels, vec!["DD", "DA", "AD", "AA"]);
    }

    #[test]
    fn enumeration_zero_tasks() {
        let all = enumerate_placements(0, 1);
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }

    #[test]
    fn all_placements_unique() {
        let all = enumerate_placements(4, 1);
        let set: std::collections::HashSet<String> =
            all.iter().map(|p| placement_label(p)).collect();
        assert_eq!(set.len(), 16);
    }

    #[test]
    fn five_accelerator_labels_are_unique_and_parse_back() {
        let all = enumerate_placements(3, 5);
        assert_eq!(all.len(), 216);
        let labels: std::collections::HashSet<String> =
            all.iter().map(|p| placement_label(p)).collect();
        assert_eq!(labels.len(), 216);
        for p in &all {
            assert_eq!(parse_placement(&placement_label(p)).as_ref(), Some(p));
        }
    }
}
