//! Property-based tests of the sparse kernels against the dense oracles.
//!
//! The contract under test (see the `relperf_linalg::sparse` module docs):
//! CSR round-trips preserve dense values exactly, SpMV is *bit-identical*
//! to the dense fused loop with structural zeros skipped, and CG on SPD
//! systems reaches the dense Cholesky solution within a pinned tolerance —
//! for arbitrary patterns, including empty rows and 1×1 shapes.

use proptest::prelude::*;
use rand::prelude::*;
use relperf_linalg::cholesky::Cholesky;
use relperf_linalg::random::{random_spd, random_vector};
use relperf_linalg::sparse::{CooMatrix, CsrMatrix};
use relperf_linalg::{fmadd, Matrix, Parallelism};

/// Random COO with the given fill probability, duplicate triplets
/// included (each position is pushed 1–3 times with values that sum to
/// the intended entry) so `to_csr`'s duplicate summing is always on the
/// tested path.
fn random_coo(rng: &mut StdRng, rows: usize, cols: usize, fill: f64) -> (CooMatrix, Matrix) {
    let mut coo = CooMatrix::new(rows, cols);
    let mut dense = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            if rng.random_range(0.0..1.0) < fill {
                let v: f64 = rng.random_range(-1.0..1.0);
                let copies = rng.random_range(1usize..4);
                // Split v across `copies` duplicate pushes summing to v
                // exactly: k-1 halves plus the remainder.
                let mut rest = v;
                for _ in 1..copies {
                    let part = rest / 2.0;
                    coo.push(i, j, part);
                    rest -= part;
                }
                coo.push(i, j, rest);
                let mut acc = 0.0;
                // Replay the same summation order to land on the exact
                // floating-point sum the CSR entry will hold.
                let mut rest2 = v;
                for _ in 1..copies {
                    let part = rest2 / 2.0;
                    acc += part;
                    rest2 -= part;
                }
                acc += rest2;
                dense.row_mut(i)[j] = acc;
            }
        }
    }
    (coo, dense)
}

/// Dense per-row fused mat-vec — the bit-identity oracle for SpMV.
fn dense_fmadd_gemv(a: &Matrix, x: &[f64]) -> Vec<f64> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn coo_csr_dense_round_trip(seed in 0u64..1_000, rows in 0usize..30, cols in 0usize..30, fill in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (coo, dense) = random_coo(&mut rng, rows, cols, fill);
        let csr = coo.to_csr();
        // Duplicate-summed CSR densifies to the insertion-order dense sum.
        prop_assert_eq!(csr.to_dense(), dense.clone());
        // And from_dense(to_dense) preserves values and drops only zeros.
        let back = CsrMatrix::from_dense(&csr.to_dense());
        prop_assert_eq!(back.to_dense(), dense);
    }

    #[test]
    fn spmv_bit_identical_to_dense_fused_loop(seed in 0u64..1_000, rows in 0usize..40, cols in 0usize..40, fill in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (coo, _) = random_coo(&mut rng, rows, cols, fill);
        let csr = coo.to_csr();
        let dense = csr.to_dense();
        let x = random_vector(&mut rng, cols);
        let y = csr.spmv(&x).unwrap();
        prop_assert_eq!(y.clone(), dense_fmadd_gemv(&dense, &x));
        // Row-parallel SpMV is bit-identical for any thread count.
        let threads = (seed % 7) as usize;
        prop_assert_eq!(csr.spmv_with(&x, Parallelism::with_threads(threads)).unwrap(), y);
    }

    #[test]
    fn cg_reaches_cholesky_solution(seed in 0u64..1_000, n in 1usize..28) {
        // Dense-SPD systems are tiny and well-conditioned (MᵀM + εI), so
        // CG must land on the direct Cholesky solution within a pinned
        // mixed abs/rel tolerance.
        let mut rng = StdRng::seed_from_u64(seed);
        let spd = random_spd(&mut rng, n);
        let b = random_vector(&mut rng, n);
        let csr = CsrMatrix::from_dense(&spd);
        let cg = csr.cg(&b, 20 * n + 20, 1e-12).unwrap();
        let direct = Cholesky::factor(&spd).unwrap().solve(&b).unwrap();
        for (c, d) in cg.x.iter().zip(&direct) {
            prop_assert!(relperf_linalg::approx_eq(*c, *d, 1e-6), "cg {} vs cholesky {}", c, d);
        }
    }

    #[test]
    fn empty_rows_contribute_exact_zeros(seed in 0u64..1_000, rows in 1usize..30, cols in 1usize..30) {
        // Pattern with deliberately empty rows: SpMV must emit +0.0 there.
        let mut rng = StdRng::seed_from_u64(seed);
        let (coo, _) = random_coo(&mut rng, rows, cols, 0.3);
        let mut csr = coo.to_csr();
        // Rebuild with every even row wiped.
        let dense = csr.to_dense();
        let mut wiped = Matrix::zeros(rows, cols);
        for i in (1..rows).step_by(2) {
            wiped.row_mut(i).copy_from_slice(dense.row(i));
        }
        csr = CsrMatrix::from_dense(&wiped);
        let x = random_vector(&mut rng, cols);
        let y = csr.spmv(&x).unwrap();
        for i in (0..rows).step_by(2) {
            prop_assert!(y[i] == 0.0 && y[i].is_sign_positive(), "row {} -> {:?}", i, y[i]);
        }
        prop_assert_eq!(y, dense_fmadd_gemv(&wiped, &x));
    }
}
