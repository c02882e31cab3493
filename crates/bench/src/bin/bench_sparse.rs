//! Machine-readable benchmark of the sparse workload family: CSR SpMV
//! bandwidth against dense GEMM compute rate, fixed-iteration CG solve
//! rate, and FEM scatter-assembly throughput — every kernel verified
//! against its oracle (dense fused loops, Cholesky, cross-engine
//! bit-identity) *before* it is timed. Medians go to `BENCH_sparse.json`.
//!
//! Sections:
//!
//! * `spmv/*` — CSR mat-vec on FEM operators, reported in **GB/s** of the
//!   bytes-moved model ([`flops::spmv_bytes`]) — the number that shows the
//!   kernel is bandwidth-bound;
//! * `gemm/*` — the dense contrast, reported in **GFLOP/s** — the number
//!   that shows dense kernels are compute-bound;
//! * `cg/*` — fixed-iteration CG on the Table-I FEM system, in
//!   **iterations/s**;
//! * `fem/*` — scatter-assembly of the global CSR system, in
//!   **elements/s**.
//!
//! Run from the workspace root:
//!
//! ```bash
//! cargo run --release -p relperf-bench --bin bench_sparse
//! ```
//!
//! [`flops::spmv_bytes`]: relperf_linalg::flops::spmv_bytes

use rand::prelude::*;
use relperf_bench::report::{Report, Row};
use relperf_bench::{median_secs, row};
use relperf_linalg::cholesky::Cholesky;
use relperf_linalg::gemm::gemm_blocked;
use relperf_linalg::random::{random_matrix, random_vector};
use relperf_linalg::sparse::CsrMatrix;
use relperf_linalg::{flops, fmadd, KernelEngine, Parallelism};
use relperf_workloads::fem::FemScenario;
use std::hint::black_box;

/// Dense per-row fused mat-vec — the bit-identity oracle for SpMV.
fn dense_fmadd_gemv(a: &relperf_linalg::Matrix, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|i| {
            let mut s = 0.0;
            for (j, &v) in a.row(i).iter().enumerate() {
                s = fmadd(v, x[j], s);
            }
            s
        })
        .collect()
}

fn entry(name: String, median_s: f64, rate: f64, rate_unit: &str, note: &str) -> Row {
    row![
        "name" => name,
        "median_s" => median_s,
        "rate" => rate,
        "rate_unit" => rate_unit,
        "note" => note,
    ]
}

/// Assembles the FEM operator for an `m`×`m` mesh, asserting cross-engine
/// bit-identity first.
fn fem_system(m: usize, cg_iters: usize) -> (FemScenario, CsrMatrix, Vec<f64>) {
    let s = FemScenario {
        nx: m,
        ny: m,
        cg_iters,
    };
    let (a, b) = s.assemble_with(KernelEngine::Reference).expect("assembles");
    for engine in [
        KernelEngine::Blocked,
        KernelEngine::Parallel(Parallelism::auto()),
    ] {
        let (a2, b2) = s.assemble_with(engine).expect("assembles");
        assert_eq!(a2, a, "assembly bit-identity ({})", engine.label());
        assert_eq!(b2, b, "load-vector bit-identity ({})", engine.label());
    }
    (s, a, b)
}

fn main() {
    let mut entries: Vec<Row> = Vec::new();
    let mut rng = StdRng::seed_from_u64(42);

    // — SpMV bandwidth on FEM operators —
    // mesh32 is the Table-I FEM system; mesh128 is 16x more unknowns.
    for m in [32usize, 128] {
        let (_, a, _) = fem_system(m, 1);
        let x = random_vector(&mut rng, a.cols());
        let y = a.spmv(&x).expect("shapes conform");
        if m <= 32 {
            // Dense oracle only where densifying is cheap.
            assert_eq!(y, dense_fmadd_gemv(&a.to_dense(), &x), "spmv oracle");
        }
        assert_eq!(
            a.spmv_with(&x, Parallelism::auto()).expect("shapes conform"),
            y,
            "row-parallel spmv bit-identity"
        );
        let bytes = flops::spmv_bytes(a.rows(), a.cols(), a.nnz()) as f64;
        let t = median_secs(201, || {
            black_box(black_box(&a).spmv(black_box(&x)).expect("shapes conform"));
        });
        entries.push(entry(
            format!("spmv/mesh{m}_n{}", a.rows()),
            t,
            bytes / t / 1e9,
            "GB/s",
            "CSR mat-vec, bytes-moved model; oracle = dense fused loop",
        ));
    }

    // — Dense GEMM contrast: compute-bound GFLOP/s —
    {
        let n = 256usize;
        let a = random_matrix(&mut rng, n, n);
        let b = random_matrix(&mut rng, n, n);
        let t = median_secs(21, || {
            black_box(gemm_blocked(black_box(&a), black_box(&b)).expect("shapes conform"));
        });
        entries.push(entry(
            format!("gemm/n{n}"),
            t,
            flops::gemm(n, n, n) as f64 / t / 1e9,
            "GFLOP/s",
            "blocked dense engine — the compute-bound contrast",
        ));
    }

    // — CG solve rate on the Table-I FEM system —
    {
        let (s, a, b) = fem_system(32, 150);
        // Oracle: converged CG lands on the dense Cholesky solution.
        let converged = a.cg(&b, 2_000, 1e-12).expect("SPD system converges");
        let direct = Cholesky::factor(&a.to_dense())
            .expect("SPD")
            .solve(&b)
            .expect("shapes conform");
        for (c, d) in converged.x.iter().zip(&direct) {
            assert!(
                relperf_linalg::approx_eq(*c, *d, 1e-8),
                "cg oracle: {c} vs cholesky {d}"
            );
        }
        // And the fixed-iteration solve is deterministic run to run.
        let once = a.cg_fixed(&b, s.cg_iters).expect("runs");
        assert_eq!(a.cg_fixed(&b, s.cg_iters).expect("runs"), once);
        let t = median_secs(21, || {
            black_box(
                black_box(&a)
                    .cg_fixed(black_box(&b), s.cg_iters)
                    .expect("runs"),
            );
        });
        entries.push(entry(
            format!("cg/mesh32_{}iters", s.cg_iters),
            t,
            s.cg_iters as f64 / t,
            "iters/s",
            "fixed-iteration CG (the Table-I FEM budget); oracle = Cholesky",
        ));
    }

    // — FEM assembly throughput —
    {
        let (s, _, _) = fem_system(32, 1); // oracle: cross-engine identity
        let elements = (s.nx * s.ny) as f64;
        let t = median_secs(21, || {
            black_box(
                black_box(&s)
                    .assemble_with(KernelEngine::Blocked)
                    .expect("assembles"),
            );
        });
        entries.push(entry(
            "fem/assembly_mesh32".to_string(),
            t,
            elements / t,
            "elements/s",
            "Gauss-point BtB on the blocked engine + COO scatter + to_csr",
        ));
    }

    Report::new("sparse", row!["units" => "seconds"])
        .table("entries", entries)
        .write();
}
