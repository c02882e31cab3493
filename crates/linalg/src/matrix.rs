//! Row-major dense matrix of `f64`.

use crate::error::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// This is the single matrix type used by every kernel in the workspace.
/// Storage is a flat `Vec<f64>` of length `rows * cols`; element `(i, j)`
/// lives at offset `i * cols + j`.
///
/// # Examples
///
/// ```
/// use relperf_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// All rows must have the same length; returns
    /// [`LinalgError::ShapeMismatch`] otherwise and
    /// [`LinalgError::EmptyDimension`] for an empty row set.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::EmptyDimension { op: "from_rows" });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (i, cols),
                    rhs: (i, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a fresh vector.
    ///
    /// # Panics
    /// Panics when `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Iterates over the rows as borrowed slices, in order.
    ///
    /// The iterator is built on [`slice::chunks_exact`], so downstream loops
    /// over it compile without per-element bounds checks — this is the
    /// accessor the blocked kernels use to stream operands. A matrix with
    /// zero columns yields no rows.
    ///
    /// # Examples
    ///
    /// ```
    /// use relperf_linalg::Matrix;
    /// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
    /// let sums: Vec<f64> = m.rows_iter().map(|r| r.iter().sum()).collect();
    /// assert_eq!(sums, vec![3.0, 7.0]);
    /// ```
    #[inline]
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Splits the storage into the rows before `r` and the rows from `r`
    /// on, both as flat row-major slices.
    ///
    /// This is the borrow-splitting primitive the in-place triangular
    /// solves and factorizations use to read already-computed rows while
    /// writing the current one.
    ///
    /// # Panics
    /// Panics when `r > rows`.
    #[inline]
    pub fn split_rows_mut(&mut self, r: usize) -> (&mut [f64], &mut [f64]) {
        assert!(r <= self.rows, "split row {r} out of bounds ({})", self.rows);
        self.data.split_at_mut(r * self.cols)
    }

    /// Iterates over the rows of the `nr x nc` tile whose top-left corner
    /// is `(r0, c0)`, as borrowed sub-slices — a copy-free view of a tile.
    ///
    /// # Panics
    /// Panics when the tile exceeds the matrix bounds.
    ///
    /// # Examples
    ///
    /// ```
    /// use relperf_linalg::Matrix;
    /// let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
    /// let tile: Vec<&[f64]> = m.tile_rows(1, 2, 2, 2).collect();
    /// assert_eq!(tile, vec![&[6.0, 7.0][..], &[10.0, 11.0][..]]);
    /// ```
    #[inline]
    pub fn tile_rows(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> impl Iterator<Item = &[f64]> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "tile ({r0},{c0})+{nr}x{nc} out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r0 * self.cols..]
            .chunks_exact(self.cols.max(1))
            .take(nr)
            .map(move |row| &row[c0..c0 + nc])
    }

    /// Unchecked element access; caller must guarantee `i < rows && j < cols`.
    ///
    /// # Safety
    /// Undefined behaviour when the indices are out of bounds.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: forwarded to the caller's contract.
        unsafe { *self.data.get_unchecked(i * self.cols + j) }
    }

    /// Unchecked mutable element access.
    ///
    /// # Safety
    /// Undefined behaviour when the indices are out of bounds.
    #[inline]
    pub unsafe fn get_unchecked_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: forwarded to the caller's contract.
        unsafe { self.data.get_unchecked_mut(i * self.cols + j) }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                let imax = (ib + B).min(self.rows);
                let jmax = (jb + B).min(self.cols);
                for i in ib..imax {
                    for j in jb..jmax {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Adds `lambda` to every diagonal element in place (the `+ λI` step of
    /// the paper's RLS equation).
    ///
    /// # Panics
    /// Panics when the matrix is not square.
    pub fn add_diag_mut(&mut self, lambda: f64) {
        assert!(self.is_square(), "add_diag_mut requires a square matrix");
        for i in 0..self.rows {
            self.data[i * self.cols + i] += lambda;
        }
    }

    /// Frobenius norm `sqrt(Σ xᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// `true` when every element of `self` and `other` agrees to within
    /// `tol` (mixed absolute/relative criterion, see [`crate::approx_eq`]).
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| crate::approx_eq(a, b, tol))
    }

    /// `true` when the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if !crate::approx_eq(self.data[i * self.cols + j], self.data[j * self.cols + i], tol)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Checked elementwise addition.
    pub fn try_add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        })
    }

    /// Checked elementwise subtraction.
    pub fn try_sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.try_add(rhs).expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.try_sub(rhs).expect("matrix subtraction shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    /// Matrix product via the blocked GEMM kernel.
    fn mul(self, rhs: &Matrix) -> Matrix {
        crate::gemm::gemm_blocked(self, rhs).expect("matrix product shape mismatch")
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.map(|x| -x)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self.data[i * self.cols + j])?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        let err = Matrix::from_rows(&[]).unwrap_err();
        assert!(matches!(err, LinalgError::EmptyDimension { .. }));
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(0, 2)], 2.0);
        assert_eq!(m[(1, 1)], 11.0);
    }

    #[test]
    fn from_diag_matches() {
        let m = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(7, 13, |i, j| (i * 100 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (13, 7));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_large_blocked_path() {
        let m = Matrix::from_fn(65, 41, |i, j| (i as f64) - 3.0 * (j as f64));
        let t = m.transpose();
        for i in 0..65 {
            for j in 0..41 {
                assert_eq!(t[(j, i)], m[(i, j)]);
            }
        }
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "row index")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.row(2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(0, 2)];
    }

    #[test]
    fn add_sub_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_fn(2, 2, |_, _| 1.0);
        let sum = &a + &b;
        assert_eq!(sum[(1, 1)], 5.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled[(0, 1)], 4.0);
    }

    #[test]
    fn add_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(a.try_add(&b).is_err());
        assert!(a.try_sub(&b).is_err());
    }

    #[test]
    fn add_diag_mut_adds_lambda() {
        let mut m = Matrix::zeros(3, 3);
        m.add_diag_mut(2.5);
        assert_eq!(m[(1, 1)], 2.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_finds_extremum() {
        let m = Matrix::from_rows(&[&[-7.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.max_abs(), 7.0);
    }

    #[test]
    fn symmetry_detection() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        let ns = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 5.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn neg_negates() {
        let m = Matrix::from_fn(2, 2, |_, _| 3.0);
        assert_eq!((-&m)[(0, 0)], -3.0);
    }

    #[test]
    fn debug_format_truncates() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }
}
