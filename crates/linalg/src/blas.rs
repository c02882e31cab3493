//! BLAS level-1 and level-2 style kernels on slices and [`Matrix`].

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Dot product of two equally-long slices.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Unrolled by four to give LLVM an easy vectorization target; the
    // remainder loop handles lengths that are not multiples of four.
    let chunks = x.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for c in 0..chunks {
        let i = c * 4;
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y ← a·x + y` for slices, with the workspace-wide fused multiply-add
/// [`crate::fmadd`] per element — the same op the blocked kernel engine
/// uses, which is what keeps row-sweep solves and factorization updates
/// bit-identical to their per-element reference loops.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = crate::fmadd(a, xi, *yi);
    }
}

/// Euclidean (2-)norm of a slice, computed with scaling to avoid overflow.
pub fn norm2(x: &[f64]) -> f64 {
    let mut scale = 0.0_f64;
    let mut ssq = 1.0_f64;
    for &v in x {
        if v != 0.0 {
            let a = v.abs();
            if scale < a {
                ssq = 1.0 + ssq * (scale / a).powi(2);
                scale = a;
            } else {
                ssq += (a / scale).powi(2);
            }
        }
    }
    scale * ssq.sqrt()
}

/// Matrix-vector product `A·x`.
///
/// Returns [`LinalgError::ShapeMismatch`] when `x.len() != A.cols()`.
pub fn gemv(a: &Matrix, x: &[f64]) -> Result<Vec<f64>> {
    if x.len() != a.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "gemv",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    let mut y = Vec::with_capacity(a.rows());
    for i in 0..a.rows() {
        y.push(dot(a.row(i), x));
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_small() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_unrolled_path() {
        // Length 9 exercises both the unrolled body and the remainder loop.
        let x: Vec<f64> = (1..=9).map(|v| v as f64).collect();
        let y = vec![1.0; 9];
        assert_eq!(dot(&x, &y), 45.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norm2_scaled_against_naive() {
        let x = vec![3.0, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-12);
        // Values that would overflow a naive sum of squares.
        let big = vec![1e200, 1e200];
        assert!((norm2(&big) - (2.0_f64).sqrt() * 1e200).abs() < 1e186);
    }

    #[test]
    fn norms_of_zero_vector() {
        let z = vec![0.0; 5];
        assert_eq!(norm2(&z), 0.0);
    }

    #[test]
    fn gemv_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(gemv(&a, &[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn gemv_shape_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(gemv(&a, &[1.0, 2.0]).is_err());
    }
}
