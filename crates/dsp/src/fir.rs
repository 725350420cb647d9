//! Complex FIR filters.
//!
//! Both the wireless channel (tapped delay line, Eq. 2–3) and its estimates
//! are represented as sample-spaced complex FIR filters; the zero-forcing
//! equalizer is yet another FIR filter.  [`FirFilter`] wraps the tap vector
//! with the filtering/normalisation helpers shared by those users.

use crate::complex::Complex;
use crate::convolution::{convolve, convolve_full};
use crate::cvec::CVec;

/// A finite impulse response filter with complex taps.
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    taps: CVec,
}

impl FirFilter {
    /// Creates a filter from its tap vector.
    pub fn new(taps: CVec) -> Self {
        FirFilter { taps }
    }

    /// Creates a filter from a slice of taps.
    pub fn from_taps(taps: &[Complex]) -> Self {
        FirFilter {
            taps: CVec(taps.to_vec()),
        }
    }

    /// The identity filter (a single unit tap).
    pub fn identity() -> Self {
        FirFilter {
            taps: CVec(vec![Complex::ONE]),
        }
    }

    /// A pure delay of `d` samples (unit tap at index `d`).
    pub fn delay(d: usize) -> Self {
        let mut taps = CVec::zeros(d + 1);
        taps[d] = Complex::ONE;
        FirFilter { taps }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` if the filter has no taps.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Borrow the tap vector.
    pub fn taps(&self) -> &CVec {
        &self.taps
    }

    /// Consumes the filter and returns the tap vector.
    pub fn into_taps(self) -> CVec {
        self.taps
    }

    /// Filters an input block, returning the full convolution
    /// (`input.len() + taps.len() - 1` samples).
    pub fn filter_full(&self, input: &[Complex]) -> CVec {
        convolve_full(input, &self.taps)
    }

    /// Filters an input block and returns `input.len()` samples aligned on
    /// the tap at index `cursor` (the "main" tap).  This mirrors how the
    /// equalized signal is re-aligned after zero-forcing equalization where
    /// `cursor` pre-cursor taps were allowed.
    pub fn filter_aligned(&self, input: &[Complex], cursor: usize) -> CVec {
        convolve(input, &self.taps, cursor)
    }

    /// Total tap energy `Σ|h_l|²`.
    pub fn energy(&self) -> f64 {
        self.taps.energy()
    }

    /// Index of the strongest tap, or `None` if the filter is empty.
    pub fn dominant_tap(&self) -> Option<usize> {
        self.taps.argmax_abs()
    }

    /// Returns a copy normalised to unit energy; the all-zero filter is
    /// returned unchanged.
    pub fn normalized(&self) -> FirFilter {
        let e = self.energy();
        if e == 0.0 {
            return self.clone();
        }
        FirFilter {
            taps: self.taps.scale(1.0 / e.sqrt()),
        }
    }

    /// Scales every tap by a real gain.
    pub fn scaled(&self, k: f64) -> FirFilter {
        FirFilter {
            taps: self.taps.scale(k),
        }
    }

    /// Rotates every tap by a common phasor (mean phase shift).
    pub fn rotated(&self, phasor: Complex) -> FirFilter {
        FirFilter {
            taps: self.taps.rotate(phasor),
        }
    }

    /// Cascades two filters (convolution of their impulse responses).
    pub fn cascade(&self, other: &FirFilter) -> FirFilter {
        FirFilter {
            taps: convolve_full(&self.taps, &other.taps),
        }
    }

    /// Zero-pads or truncates the tap vector to `n` taps.
    pub fn resized(&self, n: usize) -> FirFilter {
        FirFilter {
            taps: self.taps.resized(n),
        }
    }
}

impl From<CVec> for FirFilter {
    fn from(taps: CVec) -> Self {
        FirFilter { taps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn identity_filter_passes_through() {
        let x = [c(1.0, 2.0), c(-0.5, 0.25), c(3.0, 0.0)];
        let f = FirFilter::identity();
        assert_eq!(f.filter_full(&x).as_slice(), &x);
        assert_eq!(f.filter_aligned(&x, 0).as_slice(), &x);
    }

    #[test]
    fn delay_filter_shifts_and_aligns_back() {
        let x = [c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0)];
        let f = FirFilter::delay(2);
        let full = f.filter_full(&x);
        assert_eq!(full.len(), 5);
        assert_eq!(full[2], c(1.0, 0.0));
        // Aligning on the delayed tap recovers the input.
        let aligned = f.filter_aligned(&x, 2);
        assert!(aligned.squared_error(&CVec(x.to_vec())) < 1e-24);
    }

    #[test]
    fn cascade_equals_sequential_filtering() {
        let x = [c(1.0, 0.5), c(-2.0, 1.0), c(0.25, -0.75), c(3.0, 0.0)];
        let f1 = FirFilter::from_taps(&[c(0.5, 0.0), c(0.0, 1.0)]);
        let f2 = FirFilter::from_taps(&[c(1.0, 0.0), c(-0.25, 0.25), c(0.0, 0.5)]);
        let seq = f2.filter_full(f1.filter_full(&x).as_slice());
        let cascaded = f1.cascade(&f2).filter_full(&x);
        assert!(seq.squared_error(&cascaded) < 1e-22);
    }

    #[test]
    fn normalized_has_unit_energy() {
        let f = FirFilter::from_taps(&[c(3.0, 0.0), c(0.0, 4.0)]);
        assert!((f.normalized().energy() - 1.0).abs() < 1e-12);
        // Zero filter normalisation is a no-op (no NaNs).
        let z = FirFilter::from_taps(&[Complex::ZERO, Complex::ZERO]);
        assert_eq!(z.normalized(), z);
    }

    #[test]
    fn dominant_tap_index() {
        let f = FirFilter::from_taps(&[c(0.1, 0.0), c(0.0, 0.9), c(0.5, 0.0)]);
        assert_eq!(f.dominant_tap(), Some(1));
    }

    #[test]
    fn rotation_preserves_energy_and_dominant_tap() {
        let f = FirFilter::from_taps(&[c(0.1, 0.0), c(0.0, 0.9), c(0.5, 0.0)]);
        let r = f.rotated(Complex::cis(0.77));
        assert!((r.energy() - f.energy()).abs() < 1e-12);
        assert_eq!(r.dominant_tap(), f.dominant_tap());
    }

    #[test]
    fn resize_pads_with_zeros() {
        let f = FirFilter::from_taps(&[c(1.0, 0.0)]);
        let g = f.resized(4);
        assert_eq!(g.len(), 4);
        assert_eq!(g.taps()[3], Complex::ZERO);
    }
}
