//! Correlation utilities.
//!
//! Four users in the reproduction:
//!
//! * the receiver's preamble detector and symbol despreader correlate the
//!   received chips against the known PN sequences,
//! * the least-squares convolution fits (Eq. 4 and 7) form their normal
//!   equations from the reference's lag correlations and the observation's
//!   correlation against the reference
//!   ([`convolution_least_squares`](crate::solve::convolution_least_squares)),
//! * the mean-phase-offset estimator (Eq. 8) is a Hermitian correlation of
//!   two channel estimates, and
//! * the Kalman/AR estimator derives its AR coefficients from the
//!   autocorrelation coefficients of the perfect channel estimates
//!   (Yule–Walker, Eq. 12–14).

use crate::complex::Complex;
use crate::cvec::CVec;

/// Sliding cross-correlation of `signal` against `reference`.
///
/// Output index `k` holds `Σ_i signal[k + i] * conj(reference[i])`, i.e. the
/// correlation of the reference aligned at offset `k`.  The output has
/// `signal.len() - reference.len() + 1` entries (empty if the reference is
/// longer than the signal).
pub fn cross_correlation(signal: &[Complex], reference: &[Complex]) -> CVec {
    if reference.is_empty() || signal.len() < reference.len() {
        return CVec::zeros(0);
    }
    let n = signal.len() - reference.len() + 1;
    let mut out = CVec::zeros(n);
    for (k, out_k) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (s, r) in signal[k..].iter().zip(reference) {
            acc += *s * r.conj();
        }
        *out_k = acc;
    }
    out
}

/// Normalized correlation magnitude at a single offset, in `[0, 1]`.
///
/// Computes `|⟨s, r⟩| / (‖s‖‖r‖)` over the overlapping window starting at
/// `offset`.  Used by the preamble detector to make a threshold decision that
/// is independent of the receive power.
pub fn normalized_correlation_at(signal: &[Complex], reference: &[Complex], offset: usize) -> f64 {
    if reference.is_empty() || offset + reference.len() > signal.len() {
        return 0.0;
    }
    let window = &signal[offset..offset + reference.len()];
    let mut acc = Complex::ZERO;
    let mut es = 0.0;
    let mut er = 0.0;
    for (s, r) in window.iter().zip(reference.iter()) {
        acc += *s * r.conj();
        es += s.norm_sqr();
        er += r.norm_sqr();
    }
    if es == 0.0 || er == 0.0 {
        return 0.0;
    }
    acc.abs() / (es.sqrt() * er.sqrt())
}

/// Biased autocorrelation `R[τ] = (1/N) Σ_k x[k] * conj(x[k-τ])` for
/// `τ = 0..=max_lag`.
///
/// The biased (1/N) normalisation guarantees a positive semi-definite
/// autocorrelation sequence, which keeps the Yule–Walker system solvable.
pub fn autocorrelation(x: &[Complex], max_lag: usize) -> CVec {
    let n = x.len();
    let mut out = CVec::zeros(max_lag + 1);
    if n == 0 {
        return out;
    }
    for tau in 0..=max_lag {
        let mut acc = Complex::ZERO;
        for k in tau..n {
            acc += x[k] * x[k - tau].conj();
        }
        out[tau] = acc / n as f64;
    }
    out
}

/// Autocorrelation *coefficients* `r[τ] = R[τ] / R[0]` for `τ = 0..=max_lag`.
///
/// This is the normalisation used in Eq. 13 of the paper (the variance of the
/// tap process is `R[0]`).  Returns all zeros when the signal has zero
/// energy.
pub fn autocorrelation_coefficients(x: &[Complex], max_lag: usize) -> CVec {
    let r = autocorrelation(x, max_lag);
    let r0 = r[0];
    if r0.abs() == 0.0 {
        return CVec::zeros(max_lag + 1);
    }
    CVec(r.iter().map(|&v| v / r0).collect())
}

/// Mean phase offset between two channel estimates (Eq. 8):
/// `θ̂ = arg{ ĥ¹ · (ĥ²)ᴴ }`.
///
/// `current` is the newer estimate, `reference` the older one; rotating
/// `reference` by `exp(jθ̂)` aligns it with `current` in the mean-phase sense.
pub fn mean_phase_offset(current: &CVec, reference: &CVec) -> f64 {
    assert_eq!(
        current.len(),
        reference.len(),
        "mean_phase_offset: length mismatch"
    );
    current.dot_h(reference).arg()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn cross_correlation_peaks_at_embedded_offset() {
        let reference = [c(1.0, 0.0), c(-1.0, 0.0), c(1.0, 0.0), c(1.0, 0.0)];
        let mut signal = vec![Complex::ZERO; 10];
        for (i, r) in reference.iter().enumerate() {
            signal[3 + i] = *r;
        }
        let corr = cross_correlation(&signal, &reference);
        assert_eq!(corr.argmax_abs(), Some(3));
        assert!((corr[3].re - 4.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_correlation_is_one_for_scaled_copy() {
        let reference = [c(1.0, 1.0), c(-1.0, 0.5), c(0.25, -2.0)];
        let signal: Vec<Complex> = reference.iter().map(|z| z.scale(3.7)).collect();
        let rho = normalized_correlation_at(&signal, &reference, 0);
        assert!((rho - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_correlation_out_of_range_is_zero() {
        let reference = [Complex::ONE; 4];
        let signal = [Complex::ONE; 5];
        assert_eq!(normalized_correlation_at(&signal, &reference, 3), 0.0);
    }

    #[test]
    fn autocorrelation_lag_zero_is_power() {
        let x = [c(1.0, 0.0), c(0.0, 2.0), c(-1.0, -1.0)];
        let r = autocorrelation(&x, 2);
        let power = x.iter().map(|z| z.norm_sqr()).sum::<f64>() / 3.0;
        assert!((r[0].re - power).abs() < 1e-12);
        assert!(r[0].im.abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_coefficients_start_at_one() {
        let x = [c(1.0, 0.3), c(0.9, 0.2), c(0.8, 0.4), c(1.1, 0.1)];
        let r = autocorrelation_coefficients(&x, 3);
        assert!((r[0] - Complex::ONE).abs() < 1e-12);
        // Coefficients never exceed 1 in magnitude for a biased estimate.
        for tau in 1..=3 {
            assert!(r[tau].abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn autocorrelation_of_zero_signal_is_zero() {
        let x = [Complex::ZERO; 5];
        let r = autocorrelation_coefficients(&x, 2);
        assert!(r.iter().all(|z| *z == Complex::ZERO));
    }

    #[test]
    fn mean_phase_offset_recovers_applied_rotation() {
        let h = CVec(vec![c(0.8, 0.1), c(0.3, -0.4), c(0.05, 0.2)]);
        for &theta in &[-2.5f64, -0.7, 0.0, 0.3, 1.9] {
            let rotated = h.rotate(Complex::cis(theta));
            let est = mean_phase_offset(&rotated, &h);
            assert!((est - theta).abs() < 1e-12, "theta={theta}, est={est}");
        }
    }

    #[test]
    fn mean_phase_offset_correction_aligns_estimates() {
        let h = CVec(vec![c(0.8, 0.1), c(0.3, -0.4), c(0.05, 0.2)]);
        let rotated = h.rotate(Complex::cis(1.2));
        let theta = mean_phase_offset(&h, &rotated);
        let corrected = rotated.rotate(Complex::cis(theta));
        assert!(corrected.squared_error(&h) < 1e-24);
    }
}
