//! Complex vector utilities.
//!
//! [`CVec`] is a thin newtype over `Vec<Complex>` providing the inner
//! products, norms and element-wise helpers that channel estimation needs:
//! the Hermitian inner product drives both the least-squares normal equations
//! (Eq. 4) and the mean-phase-offset estimator (Eq. 8), while energy/power
//! helpers are used for SNR scaling in the channel simulator.

use crate::complex::Complex;
use std::ops::{Deref, DerefMut, Index, IndexMut};

/// A dense complex vector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CVec(pub Vec<Complex>);

impl CVec {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        CVec(vec![Complex::ZERO; n])
    }

    /// Creates a vector from real samples (imaginary parts zero).
    pub fn from_real(xs: &[f64]) -> Self {
        CVec(xs.iter().map(|&x| Complex::from_real(x)).collect())
    }

    /// Creates a vector from interleaved `[re, im, re, im, ...]` pairs.
    ///
    /// Panics if the slice length is odd.
    pub fn from_interleaved(xs: &[f64]) -> Self {
        assert!(
            xs.len().is_multiple_of(2),
            "interleaved slice must have even length"
        );
        CVec(
            xs.chunks_exact(2)
                .map(|p| Complex::new(p[0], p[1]))
                .collect(),
        )
    }

    /// Flattens into interleaved `[re, im, ...]` representation.
    pub fn to_interleaved(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len() * 2);
        for z in &self.0 {
            out.push(z.re);
            out.push(z.im);
        }
        out
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Hermitian inner product `⟨self, other⟩ = Σ self[i] * conj(other[i])`.
    ///
    /// Panics if lengths differ.
    pub fn dot_h(&self, other: &CVec) -> Complex {
        assert_eq!(self.len(), other.len(), "dot_h: length mismatch");
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| *a * b.conj())
            .sum()
    }

    /// Plain (non-conjugated) inner product `Σ self[i] * other[i]`.
    pub fn dot(&self, other: &CVec) -> Complex {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| *a * *b)
            .sum()
    }

    /// Sum of squared magnitudes (signal energy).
    pub fn energy(&self) -> f64 {
        self.0.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Average power (energy divided by length); 0 for the empty vector.
    pub fn power(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.energy() / self.len() as f64
        }
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.energy().sqrt()
    }

    /// Largest magnitude among the elements; 0 for the empty vector.
    pub fn max_abs(&self) -> f64 {
        self.0.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Element-wise scaling by a real factor.
    pub fn scale(&self, k: f64) -> CVec {
        CVec(self.0.iter().map(|z| z.scale(k)).collect())
    }

    /// Element-wise multiplication by a complex factor (e.g. a phasor for
    /// phase-offset correction).
    pub fn rotate(&self, phasor: Complex) -> CVec {
        CVec(self.0.iter().map(|z| *z * phasor).collect())
    }

    /// Element-wise addition. Panics if lengths differ.
    pub fn add(&self, other: &CVec) -> CVec {
        assert_eq!(self.len(), other.len(), "add: length mismatch");
        CVec(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| *a + *b)
                .collect(),
        )
    }

    /// Element-wise subtraction. Panics if lengths differ.
    pub fn sub(&self, other: &CVec) -> CVec {
        assert_eq!(self.len(), other.len(), "sub: length mismatch");
        CVec(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| *a - *b)
                .collect(),
        )
    }

    /// Mean squared difference against another vector of the same length.
    ///
    /// This is the per-element squared error summed over real and imaginary
    /// parts, matching the paper's MSE definition (Eq. 9) when averaged over
    /// packets and taps by the caller.
    pub fn squared_error(&self, other: &CVec) -> f64 {
        assert_eq!(self.len(), other.len(), "squared_error: length mismatch");
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum()
    }

    /// Zero-pads (or truncates) to the requested length.
    pub fn resized(&self, n: usize) -> CVec {
        let mut v = self.0.clone();
        v.resize(n, Complex::ZERO);
        CVec(v)
    }

    /// Conjugates every element.
    pub fn conj(&self) -> CVec {
        CVec(self.0.iter().map(|z| z.conj()).collect())
    }

    /// Returns the index of the element with the largest magnitude, or `None`
    /// for an empty vector.
    pub fn argmax_abs(&self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let mut best = 0usize;
        let mut best_v = self.0[0].norm_sqr();
        for (i, z) in self.0.iter().enumerate().skip(1) {
            let v = z.norm_sqr();
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        Some(best)
    }

    /// Borrows the underlying slice.
    pub fn as_slice(&self) -> &[Complex] {
        &self.0
    }
}

impl Deref for CVec {
    type Target = Vec<Complex>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for CVec {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl Index<usize> for CVec {
    type Output = Complex;
    fn index(&self, i: usize) -> &Complex {
        &self.0[i]
    }
}

impl IndexMut<usize> for CVec {
    fn index_mut(&mut self, i: usize) -> &mut Complex {
        &mut self.0[i]
    }
}

impl From<Vec<Complex>> for CVec {
    fn from(v: Vec<Complex>) -> Self {
        CVec(v)
    }
}

impl FromIterator<Complex> for CVec {
    fn from_iter<T: IntoIterator<Item = Complex>>(iter: T) -> Self {
        CVec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_roundtrip() {
        let v = CVec(vec![Complex::new(1.0, 2.0), Complex::new(-0.5, 0.25)]);
        let flat = v.to_interleaved();
        assert_eq!(flat, vec![1.0, 2.0, -0.5, 0.25]);
        assert_eq!(CVec::from_interleaved(&flat), v);
    }

    #[test]
    fn hermitian_dot_of_self_is_energy() {
        let v = CVec(vec![Complex::new(1.0, 2.0), Complex::new(3.0, -1.0)]);
        let d = v.dot_h(&v);
        assert!((d.re - v.energy()).abs() < 1e-12);
        assert!(d.im.abs() < 1e-12);
    }

    #[test]
    fn energy_power_norm() {
        let v = CVec(vec![Complex::new(3.0, 4.0), Complex::ZERO]);
        assert_eq!(v.energy(), 25.0);
        assert_eq!(v.power(), 12.5);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.max_abs(), 5.0);
    }

    #[test]
    fn rotate_preserves_energy() {
        let v = CVec(vec![Complex::new(1.0, 1.0), Complex::new(0.2, -0.4)]);
        let r = v.rotate(Complex::cis(0.9));
        assert!((r.energy() - v.energy()).abs() < 1e-12);
    }

    #[test]
    fn squared_error_zero_for_identical() {
        let v = CVec::from_real(&[1.0, -2.0, 3.0]);
        assert_eq!(v.squared_error(&v), 0.0);
    }

    #[test]
    fn argmax_abs_finds_peak() {
        let v = CVec(vec![
            Complex::new(0.1, 0.0),
            Complex::new(0.0, -2.0),
            Complex::new(1.0, 1.0),
        ]);
        assert_eq!(v.argmax_abs(), Some(1));
        assert_eq!(CVec::zeros(0).argmax_abs(), None);
    }

    #[test]
    fn resized_pads_and_truncates() {
        let v = CVec::from_real(&[1.0, 2.0]);
        assert_eq!(v.resized(4).len(), 4);
        assert_eq!(v.resized(4)[3], Complex::ZERO);
        assert_eq!(v.resized(1).len(), 1);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        let a = CVec::zeros(2);
        let b = CVec::zeros(3);
        let _ = a.dot(&b);
    }
}
