//! Complex linear-system and least-squares solvers.
//!
//! The paper's estimators all reduce to one of two operations:
//!
//! * solving the least-squares normal equations
//!   `ĥ = (XᴴX)⁻¹ Xᴴ y`  (Eq. 4, channel estimation) and
//!   `ĉ = (HᴴH)⁻¹ Hᴴ u`  (Eq. 7, zero-forcing equalizer design), and
//! * inverting small autoregressive covariance systems for the Kalman filter
//!   (Yule–Walker, Eq. 14).
//!
//! Both are handled by a dense Gaussian elimination with partial pivoting on
//! complex matrices.  Matrix sizes never exceed a few tens of taps, so the
//! cubic cost is negligible and numerical behaviour is easy to reason about.
//!
//! Eq. 4 and Eq. 7 are least-squares fits over a *convolution* matrix, whose
//! normal equations [`convolution_least_squares`] forms from correlations in
//! O(N·M) without building the `(M + N − 1) × N` matrix.  The dense
//! [`least_squares`] stays as the general solver and as its reference.

use crate::cmatrix::CMatrix;
use crate::complex::Complex;
use crate::correlation::cross_correlation;
use crate::cvec::CVec;

/// Errors returned by the linear solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The coefficient matrix is (numerically) singular: no pivot with
    /// magnitude above the tolerance could be found.
    Singular,
    /// The dimensions of the system are inconsistent.
    DimensionMismatch,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular to working precision"),
            SolveError::DimensionMismatch => write!(f, "inconsistent system dimensions"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Relative pivot tolerance used to declare singularity.
const PIVOT_TOL: f64 = 1e-13;

/// Solves the square complex system `A x = b` by Gaussian elimination with
/// partial pivoting.
///
/// # Errors
/// Returns [`SolveError::DimensionMismatch`] if `A` is not square or `b` has
/// the wrong length, and [`SolveError::Singular`] if no acceptable pivot can
/// be found.
pub fn solve_linear(a: &CMatrix, b: &CVec) -> Result<CVec, SolveError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(SolveError::DimensionMismatch);
    }
    if n == 0 {
        return Ok(CVec::zeros(0));
    }

    // Augmented working copy.
    let mut m: Vec<Vec<Complex>> = (0..n)
        .map(|i| {
            let mut row: Vec<Complex> = (0..n).map(|j| a[(i, j)]).collect();
            row.push(b[i]);
            row
        })
        .collect();

    let scale = a.max_abs().max(1e-300);

    for col in 0..n {
        // Partial pivoting: pick the row with the largest magnitude in `col`.
        let mut pivot_row = col;
        let mut pivot_mag = m[col][col].abs();
        for (r, row) in m.iter().enumerate().skip(col + 1) {
            let mag = row[col].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if pivot_mag <= PIVOT_TOL * scale {
            return Err(SolveError::Singular);
        }
        m.swap(col, pivot_row);

        let pivot = m[col][col];
        let (pivot_rows, elim_rows) = m.split_at_mut(col + 1);
        let pivot_row_vals = &pivot_rows[col];
        for row in elim_rows {
            let factor = row[col] / pivot;
            if factor == Complex::ZERO {
                continue;
            }
            for (dst, &src) in row[col..=n].iter_mut().zip(&pivot_row_vals[col..=n]) {
                *dst -= factor * src;
            }
        }
    }

    // Back substitution.
    let mut x = CVec::zeros(n);
    for i in (0..n).rev() {
        let mut acc = m[i][n];
        for j in (i + 1)..n {
            acc -= m[i][j] * x[j];
        }
        x[i] = acc / m[i][i];
    }
    Ok(x)
}

/// Solves the (possibly overdetermined) least-squares problem
/// `min ‖A x − b‖²` via the normal equations `AᴴA x = Aᴴ b`.
///
/// This mirrors the paper's Eq. 4/7 exactly (the authors also use the
/// normal-equation form).  For the well-conditioned convolution matrices that
/// arise from pseudo-noise chip sequences this is numerically unproblematic.
///
/// # Errors
/// Returns [`SolveError::DimensionMismatch`] when `b.len() != A.rows()` and
/// [`SolveError::Singular`] when the Gram matrix cannot be inverted (e.g. if
/// the reference signal is all zeros or shorter than the requested number of
/// taps).
pub fn least_squares(a: &CMatrix, b: &CVec) -> Result<CVec, SolveError> {
    if b.len() != a.rows() {
        return Err(SolveError::DimensionMismatch);
    }
    let gram = a.gram();
    let rhs = a.hermitian_matvec(b);
    solve_linear(&gram, &rhs)
}

/// Least-squares fit of an `n_taps` FIR filter `h` to `observed ≈ reference * h`:
/// the same normal equations as
/// `least_squares(&convolution_matrix(reference, n_taps), observed)`, with
/// `observed` zero-padded or truncated to the matrix's `M + N − 1` rows
/// (`M = reference.len()`), solved without building the matrix.
///
/// The Gram `XᴴX` of a full-support convolution matrix is Hermitian
/// Toeplitz: entry `(i, j)` is the reference's lag-`(i − j)` correlation
/// `r[d] = Σ_t x[t + d]·conj(x[t])`, conjugated above the diagonal, and
/// `Xᴴy` is the sliding correlation of `observed` against the reference.
/// Both come from [`cross_correlation`] in O(N·M) instead of O(N²·M).
///
/// For finite inputs the result is bit-identical to the dense path.  Each
/// entry sums the same non-zero products in the same ascending order as
/// [`CMatrix::gram`] / [`CMatrix::hermitian_matvec`] (complex `*` commutes
/// bit for bit, and the skipped zero products add ±0 to a sum that is never
/// −0).  Above the diagonal, negating every term negates the sum exactly,
/// except that a zero imaginary part comes out −0 where the dense fold gives
/// +0; adding [`Complex::ZERO`] after the conjugate restores the +0.
///
/// # Errors
/// Returns [`SolveError::DimensionMismatch`] when `reference` is empty or
/// `n_taps == 0`, and [`SolveError::Singular`] when the Gram cannot be
/// inverted (an all-zero reference).
pub fn convolution_least_squares(
    reference: &[Complex],
    observed: &[Complex],
    n_taps: usize,
) -> Result<CVec, SolveError> {
    if reference.is_empty() || n_taps == 0 {
        return Err(SolveError::DimensionMismatch);
    }
    let rows = reference.len() + n_taps - 1;
    let mut padded = observed[..observed.len().min(rows)].to_vec();
    padded.resize(rows, Complex::ZERO);
    let rhs = cross_correlation(&padded, reference);
    solve_linear(&convolution_gram(reference, n_taps), &rhs)
}

/// `XᴴX` of `convolution_matrix(reference, n_taps)` from the reference's
/// lag correlations (see [`convolution_least_squares`]).
fn convolution_gram(reference: &[Complex], n_taps: usize) -> CMatrix {
    // The reference followed by N − 1 zeros yields lags 0..N.
    let mut signal = reference.to_vec();
    signal.resize(reference.len() + n_taps - 1, Complex::ZERO);
    let lags = cross_correlation(&signal, reference);
    let mut gram = CMatrix::zeros(n_taps, n_taps);
    for i in 0..n_taps {
        for j in 0..n_taps {
            gram[(i, j)] = if i >= j {
                lags[i - j]
            } else {
                lags[j - i].conj() + Complex::ZERO
            };
        }
    }
    gram
}

/// Inverts a square complex matrix by solving against the identity columns.
///
/// Used by the Kalman filter's gain computation `P (P + U)⁻¹`.
pub fn invert(a: &CMatrix) -> Result<CMatrix, SolveError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolveError::DimensionMismatch);
    }
    let mut out = CMatrix::zeros(n, n);
    for j in 0..n {
        let mut e = CVec::zeros(n);
        e[j] = Complex::ONE;
        let col = solve_linear(a, &e)?;
        for i in 0..n {
            out[(i, j)] = col[i];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn solves_real_system() {
        // [2 1; 1 3] x = [5; 10]  => x = [1; 3]
        let a = CMatrix::from_rows(&[
            vec![c(2.0, 0.0), c(1.0, 0.0)],
            vec![c(1.0, 0.0), c(3.0, 0.0)],
        ]);
        let b = CVec::from_real(&[5.0, 10.0]);
        let x = solve_linear(&a, &b).unwrap();
        assert!((x[0] - c(1.0, 0.0)).abs() < 1e-12);
        assert!((x[1] - c(3.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn solves_complex_system_and_verifies_residual() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 1.0), c(2.0, -1.0), c(0.0, 0.5)],
            vec![c(0.0, 2.0), c(1.0, 0.0), c(1.0, 1.0)],
            vec![c(3.0, 0.0), c(0.5, 0.5), c(2.0, -2.0)],
        ]);
        let x_true = CVec(vec![c(1.0, -1.0), c(0.5, 2.0), c(-1.0, 0.25)]);
        let b = a.matvec(&x_true);
        let x = solve_linear(&a, &b).unwrap();
        assert!(x.squared_error(&x_true) < 1e-20);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.0), c(2.0, 0.0)],
            vec![c(2.0, 0.0), c(4.0, 0.0)],
        ]);
        let b = CVec::from_real(&[1.0, 2.0]);
        assert_eq!(solve_linear(&a, &b), Err(SolveError::Singular));
    }

    #[test]
    fn dimension_mismatch_is_detected() {
        let a = CMatrix::zeros(2, 3);
        let b = CVec::zeros(2);
        assert_eq!(solve_linear(&a, &b), Err(SolveError::DimensionMismatch));
        assert_eq!(
            least_squares(&a, &CVec::zeros(3)),
            Err(SolveError::DimensionMismatch)
        );
    }

    #[test]
    fn least_squares_recovers_exact_solution_of_tall_system() {
        // Overdetermined but consistent system.
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.0), c(0.0, 1.0)],
            vec![c(2.0, 0.0), c(1.0, 0.0)],
            vec![c(0.0, -1.0), c(1.0, 1.0)],
            vec![c(1.0, 1.0), c(0.5, 0.0)],
        ]);
        let x_true = CVec(vec![c(0.7, -0.2), c(1.5, 0.5)]);
        let b = a.matvec(&x_true);
        let x = least_squares(&a, &b).unwrap();
        assert!(x.squared_error(&x_true) < 1e-18);
    }

    #[test]
    fn least_squares_projects_noisy_observations() {
        // With noise the LS residual must be orthogonal to the column space:
        // Aᴴ (b - A x̂) ≈ 0.
        let a = CMatrix::from_rows(&[
            vec![c(1.0, 0.0), c(0.0, 1.0)],
            vec![c(2.0, 0.0), c(1.0, 0.0)],
            vec![c(0.0, -1.0), c(1.0, 1.0)],
            vec![c(1.0, 1.0), c(0.5, 0.0)],
        ]);
        let x_true = CVec(vec![c(0.7, -0.2), c(1.5, 0.5)]);
        let mut b = a.matvec(&x_true);
        // deterministic "noise"
        b[0] += c(0.01, -0.02);
        b[2] += c(-0.015, 0.01);
        let x = least_squares(&a, &b).unwrap();
        let residual = b.sub(&a.matvec(&x));
        let grad = a.hermitian_matvec(&residual);
        assert!(grad.norm() < 1e-10);
    }

    #[test]
    fn invert_times_original_is_identity() {
        let a = CMatrix::from_rows(&[
            vec![c(2.0, 1.0), c(0.0, -1.0)],
            vec![c(1.0, 0.0), c(3.0, 2.0)],
        ]);
        let inv = invert(&a).unwrap();
        let prod = a.matmul(&inv);
        let eye = CMatrix::identity(2);
        assert!(prod.sub(&eye).frobenius_norm() < 1e-12);
    }

    #[test]
    fn convolution_gram_matches_dense_gram_bit_for_bit() {
        use crate::convolution::convolution_matrix;
        // Real and sparse references make zero imaginary parts, whose sign
        // the upper triangle must reproduce.
        let references: [&[Complex]; 4] = [
            &[c(1.0, 0.0), c(0.0, 0.0), c(0.0, 0.0), c(-2.0, 0.0)],
            &[
                c(0.5, -1.0),
                c(0.0, 0.0),
                c(0.25, 0.75),
                c(1.0, 1.0),
                c(0.0, -0.5),
            ],
            &[c(-0.0, 0.0), c(1.5, -0.0)],
            &[c(0.3, 0.2)],
        ];
        for reference in references {
            for n_taps in 1..=7 {
                let dense = convolution_matrix(reference, n_taps).gram();
                let fast = convolution_gram(reference, n_taps);
                let bits = |m: &CMatrix| -> Vec<(u64, u64)> {
                    m.data()
                        .iter()
                        .map(|z| (z.re.to_bits(), z.im.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&fast), bits(&dense), "{reference:?}, {n_taps} taps");
            }
        }
    }

    #[test]
    fn empty_system_is_ok() {
        let a = CMatrix::zeros(0, 0);
        let b = CVec::zeros(0);
        assert_eq!(solve_linear(&a, &b).unwrap().len(), 0);
    }
}
