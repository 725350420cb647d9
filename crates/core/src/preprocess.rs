//! Output-side preprocessing: complex CIR ⇄ real target vector (Fig. 6) and
//! the training-set normalisation of Sec. 4.
//!
//! Complex-valued CNNs are still a research topic (the paper cites deep
//! complex networks as open work), so VVD separates real and imaginary
//! parts: an 11-tap complex CIR becomes a 22-element real target vector.
//! Targets are normalised by the maximum absolute tap value observed in the
//! training set; the factor is stored so that predictions can be
//! denormalised before equalization.

use vvd_dsp::{CVec, Complex, FirFilter};

/// Packs a complex CIR into the real target layout of Fig. 6:
/// `[re(h₁) … re(h_N), im(h₁) … im(h_N)]`, scaled by `1 / norm`.
pub fn cir_to_targets(cir: &FirFilter, norm: f64) -> Vec<f32> {
    let n = cir.len();
    let mut out = vec![0.0f32; 2 * n];
    for (l, tap) in cir.taps().iter().enumerate() {
        out[l] = (tap.re / norm) as f32;
        out[n + l] = (tap.im / norm) as f32;
    }
    out
}

/// Unpacks a real target vector back into a complex CIR, multiplying by
/// `norm` to undo the normalisation.
///
/// # Panics
/// Panics if the vector length is odd.
pub fn targets_to_cir(targets: &[f32], norm: f64) -> FirFilter {
    assert!(
        targets.len().is_multiple_of(2),
        "target vector must have even length"
    );
    let n = targets.len() / 2;
    let mut taps = CVec::zeros(n);
    for l in 0..n {
        taps[l] = Complex::new(targets[l] as f64 * norm, targets[n + l] as f64 * norm);
    }
    FirFilter::new(taps)
}

/// Normalisation factor handling: "the normalization is performed by
/// dividing the CIR values by the maximum absolute valued CIR in the
/// training set for each set combination" (Sec. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CirNormalizer {
    /// Maximum absolute tap value over the training set.
    pub factor: f64,
}

vvd_dsp::wire_struct!(CirNormalizer { factor });

impl CirNormalizer {
    /// Computes the normaliser from a training set of CIRs.
    ///
    /// Falls back to 1.0 for an empty or all-zero training set so the
    /// pipeline stays well-defined.
    pub fn from_training_set(cirs: &[FirFilter]) -> Self {
        let factor = cirs
            .iter()
            .map(|c| c.taps().max_abs())
            .fold(0.0f64, f64::max);
        CirNormalizer {
            factor: if factor > 0.0 { factor } else { 1.0 },
        }
    }

    /// Normalises a CIR into target space.
    pub fn normalize(&self, cir: &FirFilter) -> Vec<f32> {
        cir_to_targets(cir, self.factor)
    }

    /// Denormalises a prediction back into a CIR.
    pub fn denormalize(&self, targets: &[f32]) -> FirFilter {
        targets_to_cir(targets, self.factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn cir() -> FirFilter {
        FirFilter::from_taps(&[c(1e-3, -2e-3), c(0.0, 5e-4), c(-7e-4, 0.0)])
    }

    #[test]
    fn packing_layout_matches_fig6() {
        let targets = cir_to_targets(&cir(), 1.0);
        assert_eq!(targets.len(), 6);
        // Real parts first, imaginary parts second.
        assert!((targets[0] - 1e-3).abs() < 1e-9);
        assert!((targets[2] - (-7e-4)).abs() < 1e-9);
        assert!((targets[3] - (-2e-3)).abs() < 1e-9);
        assert!((targets[5] - 0.0).abs() < 1e-9);
    }

    #[test]
    fn roundtrip_preserves_cir() {
        let original = cir();
        for &norm in &[1.0f64, 2.3e-3, 0.5] {
            let targets = cir_to_targets(&original, norm);
            let back = targets_to_cir(&targets, norm);
            let err = back.taps().squared_error(original.taps());
            assert!(err < 1e-16, "norm {norm}: err {err}");
        }
    }

    #[test]
    fn normalizer_uses_training_maximum() {
        let training = vec![
            FirFilter::from_taps(&[c(1e-3, 0.0)]),
            FirFilter::from_taps(&[c(0.0, -4e-3)]),
            FirFilter::from_taps(&[c(2e-3, 2e-3)]),
        ];
        let norm = CirNormalizer::from_training_set(&training);
        assert!((norm.factor - 4e-3).abs() < 1e-12);
        // Normalised targets are bounded by 1 in magnitude for the training set.
        for cir in &training {
            for v in norm.normalize(cir) {
                assert!(v.abs() <= 1.0 + 1e-6);
            }
        }
    }

    #[test]
    fn degenerate_training_set_falls_back_to_unity() {
        assert_eq!(CirNormalizer::from_training_set(&[]).factor, 1.0);
        let zero = vec![FirFilter::from_taps(&[Complex::ZERO; 3])];
        assert_eq!(CirNormalizer::from_training_set(&zero).factor, 1.0);
    }

    #[test]
    fn normalize_denormalize_roundtrip() {
        let training = vec![cir()];
        let norm = CirNormalizer::from_training_set(&training);
        let restored = norm.denormalize(&norm.normalize(&cir()));
        assert!(restored.taps().squared_error(cir().taps()) < 1e-16);
    }

    #[test]
    #[should_panic]
    fn odd_target_length_panics() {
        let _ = targets_to_cir(&[1.0, 2.0, 3.0], 1.0);
    }
}
