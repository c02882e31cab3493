//! The sparse FEM workload: assemble a Poisson system on a structured 2D
//! mesh and solve it with Conjugate Gradient.
//!
//! The scenario is the classic model problem `−Δu = 1` on the unit square
//! with homogeneous Dirichlet boundary (`u = 0`), discretized with
//! bilinear quadrilateral elements on an `nx x ny` structured mesh:
//!
//! 1. **Element kernels** — each element's 4×4 local stiffness matrix is
//!    accumulated from `BᵀB` products at the four 2×2 Gauss points,
//!    computed through the existing [`KernelEngine`] microkernel (the
//!    same engine the dense workloads run on, so the whole workload is
//!    engine-swappable and **bit-identical** across engines).
//! 2. **Scatter-assembly** — element contributions scatter into a
//!    [`CooMatrix`] in deterministic element order; the duplicate-summing
//!    [`CooMatrix::to_csr`] produces the global sparse system over the
//!    interior (non-boundary) nodes.
//! 3. **Solve** — the SPD system is solved with
//!    [`CsrMatrix::cg_fixed`]: a *fixed* CG iteration count, so the work
//!    performed — and therefore the FLOP/byte price — is a deterministic
//!    function of the mesh, and the simulated task
//!    ([`FemScenario::simulated_task`]) and the real run
//!    ([`FemScenario::run_real_with`]) are priced identically.
//!
//! Where every dense workload in this crate is compute-bound, this one is
//! **bandwidth-bound**: its simulated working set is the solver's actual
//! byte traffic (see [`Task::cg_solve_loop`]), which is what gives the
//! FEM-extended experiment ([`Experiment::table1_fem`]) a genuinely new
//! relative-performance class to cluster.
//!
//! [`Experiment::table1_fem`]: crate::experiment::Experiment::table1_fem

use relperf_linalg::flops;
use relperf_linalg::sparse::{CooMatrix, CsrMatrix, IterSolve, SparseResult};
use relperf_linalg::{KernelEngine, Matrix};
use relperf_sim::Task;

/// The FEM assembly/solve scenario: mesh resolution and solver budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FemScenario {
    /// Elements along x.
    pub nx: usize,
    /// Elements along y.
    pub ny: usize,
    /// Fixed Conjugate-Gradient iteration count per solve.
    pub cg_iters: usize,
}

/// Result of one real FEM assembly + solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FemRun {
    /// Number of interior unknowns.
    pub unknowns: usize,
    /// Stored entries of the assembled system.
    pub nnz: usize,
    /// The CG solve (solution vector, iterations run, final residual).
    pub solve: IterSolve,
    /// Nodal-quadrature integral of the solution, `Σᵢ uᵢ · hx·hy` — the
    /// scalar "penalty" this workload hands to the next task in a
    /// Procedure-5-style chain.
    pub integral_u: f64,
}

/// FLOPs of assembling the global system on an `nx x ny` mesh, per the
/// counted element loop: each element visits 4 Gauss points, and each
/// Gauss point costs one `BᵀB` product
/// ([`flops::gemm`]`(4, 2, 4) = 64`), 16 fused scale-accumulates into the
/// 4×4 local stiffness matrix (32 FLOPs), and 4 fused right-hand-side
/// accumulates (8 FLOPs). Shape-function evaluation and index arithmetic
/// are excluded, as address math is in the dense formulas.
pub fn assembly_flops(nx: usize, ny: usize) -> u64 {
    (nx as u64) * (ny as u64) * 4 * (flops::gemm(4, 2, 4) + 2 * 16 + 2 * 4)
}

impl FemScenario {
    /// The scenario the FEM-extended Table-I experiment runs: a 32×32
    /// mesh (961 interior unknowns, 8 281 stored entries) solved with 150
    /// CG iterations (enough for full convergence at this condition
    /// number) — sized so one solve's byte traffic (~37 MB) is far past
    /// the Table-I accelerator's memory knee while the dense tasks stay
    /// under it, by a margin that dominates even a saved framework
    /// context switch.
    pub fn table1() -> Self {
        FemScenario {
            nx: 32,
            ny: 32,
            cg_iters: 150,
        }
    }

    /// Number of interior (non-boundary) nodes — the system dimension.
    pub fn unknowns(&self) -> usize {
        self.nx.saturating_sub(1) * self.ny.saturating_sub(1)
    }

    /// Exact stored-entry count of the assembled system: the 9-point
    /// stencil clipped at the boundary factorizes per axis into
    /// `(3·(nx−1) − 2) · (3·(ny−1) − 2)` (each interior grid line
    /// contributes 3 couplings per node minus the two clipped ends).
    pub fn nnz(&self) -> usize {
        let w = self.nx.saturating_sub(1);
        let h = self.ny.saturating_sub(1);
        if w == 0 || h == 0 {
            return 0;
        }
        (3 * w - 2) * (3 * h - 2)
    }

    /// FLOPs of one full assembly + solve, the price both the simulated
    /// task and the real run carry: [`assembly_flops`] plus
    /// `cg_iters ·` [`flops::cg_iter`].
    pub fn flops_per_iteration(&self) -> u64 {
        assembly_flops(self.nx, self.ny)
            + self.cg_iters as u64 * flops::cg_iter(self.unknowns(), self.nnz())
    }

    /// One CG solve's byte traffic, `cg_iters ·` [`flops::cg_iter_bytes`]
    /// — the number that prices this workload on a roofline device.
    pub fn solve_traffic_bytes(&self) -> u64 {
        self.cg_iters as u64 * flops::cg_iter_bytes(self.unknowns(), self.nnz())
    }

    /// The simulated task description: [`Task::cg_solve_loop`] over the
    /// assembled system's dimensions, with [`assembly_flops`] added to the
    /// per-iteration FLOPs (assembly runs wherever the task is placed).
    pub fn simulated_task(&self, name: &str, iters: usize) -> Task {
        let mut t = Task::cg_solve_loop(name, self.unknowns(), self.nnz(), self.cg_iters, iters);
        t.flops_per_iter += assembly_flops(self.nx, self.ny);
        t
    }

    /// Assembles the global CSR system and load vector through `engine`.
    ///
    /// Every element's 4×4 stiffness block is computed as Gauss-point
    /// `BᵀB` products on the engine and scattered in deterministic element
    /// order, so the assembled system is **bit-identical** across engines
    /// and thread counts.
    pub fn assemble_with(&self, engine: KernelEngine) -> SparseResult<(CsrMatrix, Vec<f64>)> {
        let n = self.unknowns();
        let (nx, ny) = (self.nx, self.ny);
        let hx = 1.0 / nx.max(1) as f64;
        let hy = 1.0 / ny.max(1) as f64;
        let det_j = hx * hy / 4.0;
        // Interior-node index, or None on the Dirichlet boundary.
        let wcols = nx.saturating_sub(1);
        let interior = |gx: usize, gy: usize| -> Option<usize> {
            if gx == 0 || gy == 0 || gx == nx || gy == ny {
                None
            } else {
                Some((gy - 1) * wcols + (gx - 1))
            }
        };

        // 2x2 Gauss rule on [-1, 1]^2, weights 1.
        let g = 1.0 / 3.0_f64.sqrt();
        let gauss = [(-g, -g), (g, -g), (g, g), (-g, g)];

        // Element contributions: ~16 entries per element.
        let mut coo = CooMatrix::with_capacity(n, n, 16 * nx * ny);
        let mut b = vec![0.0; n];
        for ey in 0..ny {
            for ex in 0..nx {
                let mut ke = [[0.0_f64; 4]; 4];
                let mut fe = [0.0_f64; 4];
                for &(xi, eta) in &gauss {
                    // Bilinear shape functions and their physical
                    // gradients on the hx x hy element.
                    let shape = [
                        (1.0 - xi) * (1.0 - eta) / 4.0,
                        (1.0 + xi) * (1.0 - eta) / 4.0,
                        (1.0 + xi) * (1.0 + eta) / 4.0,
                        (1.0 - xi) * (1.0 + eta) / 4.0,
                    ];
                    let dxi = [
                        -(1.0 - eta) / 4.0,
                        (1.0 - eta) / 4.0,
                        (1.0 + eta) / 4.0,
                        -(1.0 + eta) / 4.0,
                    ];
                    let deta = [
                        -(1.0 - xi) / 4.0,
                        -(1.0 + xi) / 4.0,
                        (1.0 + xi) / 4.0,
                        (1.0 - xi) / 4.0,
                    ];
                    let bmat = Matrix::from_fn(2, 4, |r, c| {
                        if r == 0 {
                            2.0 / hx * dxi[c]
                        } else {
                            2.0 / hy * deta[c]
                        }
                    });
                    // The element microkernel: Ke += detJ · BᵀB, with the
                    // product on the (bit-identical) engine and the
                    // accumulation fused per entry.
                    let btb = engine
                        .gemm(&bmat.transpose(), &bmat)
                        .expect("2x4 shapes always conform");
                    for (r, ke_row) in ke.iter_mut().enumerate() {
                        for (c, ke_rc) in ke_row.iter_mut().enumerate() {
                            *ke_rc = relperf_linalg::fmadd(det_j, btb.row(r)[c], *ke_rc);
                        }
                    }
                    // Load vector for f ≡ 1: fe += detJ · N.
                    for (a, fe_a) in fe.iter_mut().enumerate() {
                        *fe_a = relperf_linalg::fmadd(det_j, shape[a], *fe_a);
                    }
                }
                // Scatter: local nodes counterclockwise from (ex, ey).
                let nodes = [
                    (ex, ey),
                    (ex + 1, ey),
                    (ex + 1, ey + 1),
                    (ex, ey + 1),
                ];
                for (a, &(ax, ay)) in nodes.iter().enumerate() {
                    let Some(ia) = interior(ax, ay) else { continue };
                    b[ia] += fe[a];
                    for (c, &(cx, cy)) in nodes.iter().enumerate() {
                        if let Some(ic) = interior(cx, cy) {
                            coo.push(ia, ic, ke[a][c]);
                        }
                    }
                }
            }
        }
        Ok((coo.to_csr(), b))
    }

    /// Runs the real workload — assemble through `engine`, solve with
    /// exactly [`FemScenario::cg_iters`] CG iterations — and returns the
    /// run record. Bit-identical across engines and thread counts; no
    /// randomness enters anywhere.
    pub fn run_real_with(&self, engine: KernelEngine) -> SparseResult<FemRun> {
        let (a, b) = self.assemble_with(engine)?;
        let nnz = a.nnz();
        let solve = a.cg_fixed(&b, self.cg_iters)?;
        let hx = 1.0 / self.nx.max(1) as f64;
        let hy = 1.0 / self.ny.max(1) as f64;
        let integral_u: f64 = solve.x.iter().map(|&u| u * hx * hy).sum();
        Ok(FemRun {
            unknowns: self.unknowns(),
            nnz,
            solve,
            integral_u,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relperf_linalg::Parallelism;

    #[test]
    fn counts_match_formulas() {
        let s = FemScenario::table1();
        assert_eq!(s.unknowns(), 31 * 31);
        assert_eq!(s.nnz(), 91 * 91);
        let (a, b) = s.assemble_with(KernelEngine::default()).unwrap();
        assert_eq!(a.shape(), (961, 961));
        assert_eq!(a.nnz(), s.nnz(), "exact stencil count");
        assert_eq!(b.len(), 961);
    }

    #[test]
    fn assembly_flops_counted_loop() {
        // Replay the per-element accounting the formula's doc promises.
        let (nx, ny) = (5, 7);
        let mut count = 0u64;
        for _e in 0..nx * ny {
            for _g in 0..4 {
                count += flops::gemm(4, 2, 4); // BᵀB on the engine
                count += 2 * 16; // 16 fused scale-accumulates into Ke
                count += 2 * 4; // 4 fused load-vector accumulates
            }
        }
        assert_eq!(count, assembly_flops(nx, ny));
    }

    #[test]
    fn interior_row_is_the_nine_point_stencil() {
        // The assembled operator on a uniform mesh is the classic bilinear
        // 9-point stencil: 8/3 on the diagonal, −1/3 on all 8 neighbours,
        // zero row sum — independent of h (2D Laplacian scale invariance).
        let s = FemScenario {
            nx: 6,
            ny: 6,
            cg_iters: 1,
        };
        let (a, b) = s.assemble_with(KernelEngine::default()).unwrap();
        let w = 5; // interior grid is 5x5
        let center = 2 * w + 2; // node (3, 3)
        let (cols, vals) = a.row_entries(center);
        assert_eq!(cols.len(), 9);
        let mut sum = 0.0;
        for (&j, &v) in cols.iter().zip(vals) {
            sum += v;
            if j == center {
                assert!((v - 8.0 / 3.0).abs() < 1e-12, "diag {v}");
            } else {
                assert!((v + 1.0 / 3.0).abs() < 1e-12, "neighbour {v}");
            }
        }
        assert!(sum.abs() < 1e-12, "row sum {sum}");
        // Load vector: hx·hy per fully-interior node.
        assert!((b[center] - (1.0 / 36.0)).abs() < 1e-15);
    }

    #[test]
    fn assembly_and_run_bit_identical_across_engines() {
        let s = FemScenario {
            nx: 9,
            ny: 7,
            cg_iters: 12,
        };
        let reference = s.run_real_with(KernelEngine::Reference).unwrap();
        for engine in [
            KernelEngine::Blocked,
            KernelEngine::Parallel(Parallelism::with_threads(3)),
        ] {
            let run = s.run_real_with(engine).unwrap();
            assert_eq!(run, reference, "{}", engine.label());
        }
        assert_eq!(reference.solve.iterations, 12);
    }

    #[test]
    fn converged_solution_matches_poisson_physics() {
        // −Δu = 1 on the unit square, u = 0 on the boundary: the exact
        // peak is u(½, ½) ≈ 0.07367. A 16×16 mesh converged to 1e-10
        // must land within discretization error of it.
        let s = FemScenario {
            nx: 16,
            ny: 16,
            cg_iters: 0,
        };
        let (a, b) = s.assemble_with(KernelEngine::default()).unwrap();
        let solve = a.cg(&b, 2_000, 1e-10).unwrap();
        let center = (15 / 2) * 15 + 15 / 2; // node (8, 8) in the 15x15 grid
        let u_center = solve.x[center];
        assert!(
            (0.072..0.076).contains(&u_center),
            "center value {u_center}"
        );
        // And the solution is symmetric under x ↔ y (within rounding).
        let at = |gx: usize, gy: usize| solve.x[(gy - 1) * 15 + (gx - 1)];
        assert!((at(3, 8) - at(8, 3)).abs() < 1e-9);
    }

    #[test]
    fn degenerate_meshes_are_empty_not_wrong() {
        for (nx, ny) in [(1, 1), (1, 5), (5, 1)] {
            let s = FemScenario {
                nx,
                ny,
                cg_iters: 3,
            };
            assert_eq!(s.unknowns(), 0);
            assert_eq!(s.nnz(), 0);
            let run = s.run_real_with(KernelEngine::default()).unwrap();
            assert_eq!(run.unknowns, 0);
            assert_eq!(run.integral_u, 0.0);
        }
        // 2x2: a single interior node, diagonal-only 1x1 system.
        let s = FemScenario {
            nx: 2,
            ny: 2,
            cg_iters: 5,
        };
        assert_eq!(s.unknowns(), 1);
        assert_eq!(s.nnz(), 1);
        let run = s.run_real_with(KernelEngine::default()).unwrap();
        assert!(run.solve.x[0] > 0.0);
    }

    #[test]
    fn simulated_task_prices_match_scenario() {
        let s = FemScenario::table1();
        let t = s.simulated_task("L4", 3);
        assert_eq!(t.iterations, 3);
        assert_eq!(t.flops_per_iter, s.flops_per_iteration());
        assert_eq!(t.working_set_bytes, s.solve_traffic_bytes());
        assert_eq!(
            t.offload_bytes_per_iter,
            flops::csr_bytes(961, 8281) + 8 * 961
        );
        // The workload is sized past the Table-I accelerator's knee.
        assert!(t.working_set_bytes > 10_000_000);
    }
}
