//! Least-squares FIR channel estimation (Eq. 4–5 of the paper).
//!
//! Every data-driven estimate in the paper is an LS fit of an `N`-tap FIR
//! filter to a stretch of received samples whose transmitted counterpart is
//! known: the whole packet for the "perfect" (ground-truth) estimate, the
//! synchronisation header for the preamble-based estimate.
//!
//! The fit never builds Eq. 5's `(M + N − 1) × N` convolution matrix.
//! [`convolution_least_squares`] forms the normal equations from the
//! reference's `N` lag correlations and the received samples' correlation
//! against the reference: O(N·M) work instead of O(N²·M).  Each Gram and
//! right-hand-side entry sums the same non-zero products in the same order
//! as the dense `XᴴX` / `Xᴴy`, so the estimate is bit-identical to
//! `least_squares(&convolution_matrix(..), ..)`
//! (`crates/dsp/tests/ls_parity.rs`).

use vvd_dsp::solve::{convolution_least_squares, SolveError};
use vvd_dsp::{Complex, FirFilter};
use vvd_phy::ModulatedFrame;

/// Number of channel taps the paper estimates.
pub const PAPER_TAPS: usize = 11;

/// Least-squares estimate of an `n_taps` FIR channel from a known reference
/// signal and the corresponding received samples.
///
/// `received` must contain at least `reference.len()` samples; ideally it
/// holds the full `reference.len() + n_taps - 1` convolution support, and it
/// is zero-padded if shorter (the trailing transient carries little energy).
///
/// # Errors
/// Returns [`SolveError::DimensionMismatch`] for an empty reference or
/// `n_taps == 0`, and [`SolveError::Singular`] for an all-zero reference.
pub fn ls_estimate(
    reference: &[Complex],
    received: &[Complex],
    n_taps: usize,
) -> Result<FirFilter, SolveError> {
    convolution_least_squares(reference, received, n_taps).map(FirFilter::new)
}

/// The paper's "perfect channel estimation" / ground truth: an LS fit using
/// the *entire* transmitted waveform as the reference (practically
/// impossible at a real receiver, implemented as the baseline).
pub fn perfect_estimate(
    tx: &ModulatedFrame,
    received: &[Complex],
    n_taps: usize,
) -> Result<FirFilter, SolveError> {
    ls_estimate(tx.full_waveform(), received, n_taps)
}

/// Preamble-based channel estimation: an LS fit using only the known
/// synchronisation header (preamble + SFD) as the reference — the practical
/// pilot-aided technique.
pub fn preamble_estimate(
    tx: &ModulatedFrame,
    received: &[Complex],
    n_taps: usize,
) -> Result<FirFilter, SolveError> {
    ls_estimate(tx.shr_waveform(), received, n_taps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vvd_dsp::convolution::convolve_full;
    use vvd_dsp::CVec;
    use vvd_phy::{modulate_frame, PhyConfig, PsduBuilder};

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn test_channel() -> FirFilter {
        let mut taps = vec![Complex::ZERO; 7];
        taps[2] = c(0.9, 0.3);
        taps[3] = c(0.25, -0.15);
        taps[5] = c(0.0, 0.1);
        FirFilter::from_taps(&taps)
    }

    #[test]
    fn recovers_known_channel_from_clean_signal() {
        let cfg = PhyConfig::short_packets(8);
        let tx = modulate_frame(&cfg, &PsduBuilder::new(&cfg).build(1));
        let channel = test_channel();
        let received = channel.filter_full(tx.full_waveform());
        let est = perfect_estimate(&tx, received.as_slice(), 7).unwrap();
        let err = est.taps().squared_error(channel.taps()) / channel.energy();
        assert!(err < 1e-18, "relative error {err}");
    }

    #[test]
    fn preamble_estimate_recovers_channel_too() {
        let cfg = PhyConfig::short_packets(8);
        let tx = modulate_frame(&cfg, &PsduBuilder::new(&cfg).build(1));
        let channel = test_channel();
        let received = channel.filter_full(tx.full_waveform());
        let est = preamble_estimate(&tx, received.as_slice(), 7).unwrap();
        // The last N-1 observation rows also contain energy from the first
        // data chips that follow the SHR, which the SHR-only reference cannot
        // model; the estimate is therefore close but not exact (same effect
        // as at a real receiver).
        let err = est.taps().squared_error(channel.taps()) / channel.energy();
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn perfect_estimate_is_closer_than_preamble_under_noise() {
        // With noise, more reference samples mean a better LS fit on average.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cfg = PhyConfig::short_packets(16);
        let tx = modulate_frame(&cfg, &PsduBuilder::new(&cfg).build(2));
        let channel = test_channel();
        let clean = channel.filter_full(tx.full_waveform());
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = CVec(
            clean
                .iter()
                .map(|&s| s + c(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5) * 0.05)
                .collect(),
        );
        let perfect = perfect_estimate(&tx, noisy.as_slice(), 7).unwrap();
        let preamble = preamble_estimate(&tx, noisy.as_slice(), 7).unwrap();
        let pe = perfect.taps().squared_error(channel.taps());
        let pre = preamble.taps().squared_error(channel.taps());
        assert!(pe < pre, "perfect {pe} should beat preamble {pre}");
    }

    #[test]
    fn short_received_vector_is_padded() {
        let reference = [c(1.0, 0.0), c(-1.0, 0.0), c(1.0, 0.0), c(1.0, 0.0)];
        let channel = [c(0.5, 0.5), c(0.1, 0.0)];
        let received = convolve_full(&reference, &channel);
        // Pass only the first few samples; estimation should still work
        // approximately because most of the energy is early.
        let est = ls_estimate(&reference, &received.as_slice()[..4], 2).unwrap();
        assert_eq!(est.len(), 2);
    }

    #[test]
    fn degenerate_reference_is_an_error() {
        let reference = [Complex::ZERO; 8];
        let received = [Complex::ZERO; 10];
        assert!(ls_estimate(&reference, &received, 3).is_err());
        assert_eq!(
            ls_estimate(&[], &received, 3),
            Err(SolveError::DimensionMismatch)
        );
        assert_eq!(
            ls_estimate(&[Complex::ONE; 8], &received, 0),
            Err(SolveError::DimensionMismatch)
        );
    }

    #[test]
    fn estimating_more_taps_than_needed_zero_pads() {
        let cfg = PhyConfig::short_packets(8);
        let tx = modulate_frame(&cfg, &PsduBuilder::new(&cfg).build(1));
        let channel = FirFilter::from_taps(&[c(1.0, 0.0)]);
        let received = channel.filter_full(tx.full_waveform());
        let est = perfect_estimate(&tx, received.as_slice(), PAPER_TAPS).unwrap();
        assert_eq!(est.len(), PAPER_TAPS);
        assert!((est.taps()[0] - Complex::ONE).abs() < 1e-9);
        for k in 1..PAPER_TAPS {
            assert!(est.taps()[k].abs() < 1e-9);
        }
    }
}
