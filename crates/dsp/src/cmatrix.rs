//! Dense complex matrices.
//!
//! Channel estimation in the paper only ever manipulates small dense
//! matrices: the `(N+M-1) × N` convolution matrix of the pilot samples
//! (Eq. 5), its `N × N` Gram matrix, and the `p × p` autoregressive state
//! matrices of the Kalman filter (p ≤ 20).  A simple row-major `Vec<Complex>`
//! backing store with O(n³) multiply/solve is more than adequate and keeps
//! the substrate auditable.

use crate::complex::Complex;
use crate::cvec::CVec;
use std::fmt;

/// A dense, row-major complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: dimension mismatch");
        CMatrix { rows, cols, data }
    }

    /// Creates a matrix from nested row slices.
    pub fn from_rows(rows: &[Vec<Complex>]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        CMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diag(d: &[Complex]) -> Self {
        let n = d.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable access to the row-major backing slice.
    pub fn data(&self) -> &[Complex] {
        &self.data
    }

    /// Returns row `i` as a [`CVec`].
    pub fn row(&self, i: usize) -> CVec {
        assert!(i < self.rows);
        CVec(self.data[i * self.cols..(i + 1) * self.cols].to_vec())
    }

    /// Returns column `j` as a [`CVec`].
    pub fn col(&self, j: usize) -> CVec {
        assert!(j < self.cols);
        CVec((0..self.rows).map(|i| self[(i, j)]).collect())
    }

    /// Hermitian (conjugate) transpose.
    pub fn hermitian(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == Complex::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// Panics if `self.cols != v.len()`.
    pub fn matvec(&self, v: &CVec) -> CVec {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        let mut out = CVec::zeros(self.rows);
        for i in 0..self.rows {
            let mut acc = Complex::ZERO;
            let base = i * self.cols;
            for j in 0..self.cols {
                acc += self.data[base + j] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Element-wise sum. Panics on dimension mismatch.
    pub fn add(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }

    /// Element-wise difference. Panics on dimension mismatch.
    pub fn sub(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }

    /// Scales every element by a real factor.
    pub fn scale(&self, k: f64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(k)).collect(),
        }
    }

    /// Gram matrix `AᴴA` used by the least-squares normal equations.
    pub fn gram(&self) -> CMatrix {
        // Computed directly to avoid materialising the Hermitian transpose.
        let mut out = CMatrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in 0..self.cols {
                let mut acc = Complex::ZERO;
                for k in 0..self.rows {
                    acc += self[(k, i)].conj() * self[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// `Aᴴ v` — the right-hand side of the least-squares normal equations.
    pub fn hermitian_matvec(&self, v: &CVec) -> CVec {
        assert_eq!(self.rows, v.len(), "hermitian_matvec: dimension mismatch");
        let mut out = CVec::zeros(self.cols);
        for j in 0..self.cols {
            let mut acc = Complex::ZERO;
            for i in 0..self.rows {
                acc += self[(i, j)].conj() * v[i];
            }
            out[j] = acc;
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute element value; 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn identity_is_neutral_for_matmul() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 1.0), c(2.0, 0.0)],
            vec![c(0.0, -1.0), c(3.0, 0.5)],
        ]);
        let i = CMatrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn hermitian_twice_is_identity_operation() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 1.0), c(2.0, -3.0), c(0.0, 0.5)],
            vec![c(4.0, 0.0), c(-1.0, 1.0), c(2.0, 2.0)],
        ]);
        assert_eq!(a.hermitian().hermitian(), a);
        assert_eq!(a.hermitian().rows(), 3);
        assert_eq!(a.hermitian().cols(), 2);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 1.0), c(2.0, -3.0)],
            vec![c(4.0, 0.0), c(-1.0, 1.0)],
            vec![c(0.5, 0.5), c(0.0, 2.0)],
        ]);
        let g1 = a.gram();
        let g2 = a.hermitian().matmul(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert!((g1[(i, j)] - g2[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gram_is_hermitian_positive_diagonal() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, -1.0), c(0.0, 2.0)],
            vec![c(3.0, 0.0), c(1.0, 1.0)],
        ]);
        let g = a.gram();
        for i in 0..2 {
            assert!(g[(i, i)].im.abs() < 1e-12);
            assert!(g[(i, i)].re > 0.0);
            for j in 0..2 {
                assert!((g[(i, j)] - g[(j, i)].conj()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_matches_manual() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.0), c(0.0, 1.0)],
            vec![c(2.0, 0.0), c(0.0, 0.0)],
        ]);
        let v = CVec(vec![c(1.0, 1.0), c(2.0, -1.0)]);
        let r = a.matvec(&v);
        assert!((r[0] - (c(1.0, 1.0) + c(0.0, 1.0) * c(2.0, -1.0))).abs() < 1e-12);
        assert!((r[1] - c(2.0, 2.0)).abs() < 1e-12);
    }

    #[test]
    fn hermitian_matvec_matches_explicit() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 1.0), c(2.0, -3.0)],
            vec![c(4.0, 0.0), c(-1.0, 1.0)],
            vec![c(0.5, 0.5), c(0.0, 2.0)],
        ]);
        let v = CVec(vec![c(1.0, 0.0), c(0.0, 1.0), c(2.0, 2.0)]);
        let r1 = a.hermitian_matvec(&v);
        let r2 = a.hermitian().matvec(&v);
        for i in 0..2 {
            assert!((r1[i] - r2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn diag_and_row_col_access() {
        let d = CMatrix::diag(&[c(1.0, 0.0), c(0.0, 2.0)]);
        assert_eq!(d.row(0)[0], c(1.0, 0.0));
        assert_eq!(d.col(1)[1], c(0.0, 2.0));
        assert_eq!(d.col(1)[0], Complex::ZERO);
    }

    #[test]
    #[should_panic]
    fn matmul_dimension_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
