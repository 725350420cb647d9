//! Zero-forcing equalization (Eq. 6–7 of the paper).
//!
//! Given an estimated channel `ĥ`, the equalizer is the LS solution of
//! `Hᵏ c = u` where `Hᵏ` is the convolution matrix of the estimate and `u`
//! selects the overall cascade delay (the number of pre-cursor and
//! post-cursor taps).  The equalized signal is then re-aligned by that
//! cascade delay before matched-filter demodulation.
//!
//! The design runs on every decode, and it never builds `Hᵏ`:
//! [`convolution_least_squares`] forms `HᴴH` from the estimate's lag
//! correlations and `Hᴴu` from its correlation with `u`, summing the same
//! non-zero products in the same order as the dense matrix products, so the
//! taps are bit-identical to the dense solve (`crates/dsp/tests/ls_parity.rs`
//! covers this 11 → 21 tap shape).

use vvd_dsp::solve::{convolution_least_squares, SolveError};
use vvd_dsp::{CVec, Complex, FirFilter};

/// A designed zero-forcing equalizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ZfEqualizer {
    filter: FirFilter,
    cascade_delay: usize,
}

impl ZfEqualizer {
    /// Designs a ZF equalizer of `equalizer_taps` taps for the given channel
    /// estimate.
    ///
    /// The cascade delay (position of the `1` in `u`) defaults to
    /// `dominant_tap(ĥ) + equalizer_taps / 2`, which centres the equalizer
    /// around the channel's main tap; it can be overridden with
    /// [`ZfEqualizer::design_with_delay`].
    ///
    /// # Errors
    /// Fails when the channel estimate is degenerate (all-zero taps).
    pub fn design(channel_estimate: &FirFilter, equalizer_taps: usize) -> Result<Self, SolveError> {
        let dom = channel_estimate.dominant_tap().unwrap_or(0);
        let delay = dom + equalizer_taps / 2;
        Self::design_with_delay(channel_estimate, equalizer_taps, delay)
    }

    /// Designs a ZF equalizer with an explicit cascade delay.
    ///
    /// # Errors
    /// Fails when the channel estimate is degenerate (all-zero taps) or the
    /// requested delay lies outside the cascade response.
    pub fn design_with_delay(
        channel_estimate: &FirFilter,
        equalizer_taps: usize,
        cascade_delay: usize,
    ) -> Result<Self, SolveError> {
        assert!(equalizer_taps >= 1, "equalizer needs at least one tap");
        let n = channel_estimate.len();
        let cascade_len = n + equalizer_taps - 1;
        if cascade_delay >= cascade_len {
            return Err(SolveError::DimensionMismatch);
        }
        // LS over H, the (L + N - 1) x L convolution matrix of the channel
        // estimate for an equalizer of length L.
        let mut u = CVec::zeros(cascade_len);
        u[cascade_delay] = Complex::ONE;
        let taps =
            convolution_least_squares(channel_estimate.taps().as_slice(), &u, equalizer_taps)?;
        Ok(ZfEqualizer {
            filter: FirFilter::new(taps),
            cascade_delay,
        })
    }

    /// The equalizer's FIR taps.
    pub fn filter(&self) -> &FirFilter {
        &self.filter
    }

    /// The overall cascade delay the equalizer was designed for.
    pub fn cascade_delay(&self) -> usize {
        self.cascade_delay
    }

    /// Equalizes a received block and re-aligns it to the transmitted-sample
    /// timeline, returning `output_len` samples.
    ///
    /// `received` is the raw captured block (full convolution of the
    /// transmitted waveform with the physical channel); the output is the
    /// estimate of the transmitted waveform.
    pub fn equalize(&self, received: &[Complex], output_len: usize) -> CVec {
        let filtered = self.filter.filter_full(received);
        let mut out = CVec::zeros(output_len);
        for k in 0..output_len {
            let idx = k + self.cascade_delay;
            if idx < filtered.len() {
                out[k] = filtered[idx];
            }
        }
        out
    }

    /// Residual inter-symbol interference of the cascade `ĥ * c` relative to
    /// the ideal delayed impulse: `Σ_{k≠d} |cascade[k]|² / |cascade[d]|²`.
    ///
    /// A perfectly invertible channel gives ~0; values near or above 1 mean
    /// the equalizer cannot concentrate the energy (deep spectral nulls).
    pub fn residual_isi(&self, channel: &FirFilter) -> f64 {
        let cascade = channel.cascade(&self.filter);
        let taps = cascade.taps();
        let main = taps[self.cascade_delay.min(taps.len().saturating_sub(1))].norm_sqr();
        if main == 0.0 {
            return f64::INFINITY;
        }
        let rest: f64 = taps
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != self.cascade_delay)
            .map(|(_, v)| v.norm_sqr())
            .sum();
        rest / main
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn multipath_channel() -> FirFilter {
        let mut taps = vec![Complex::ZERO; 9];
        taps[3] = c(0.8, 0.4);
        taps[4] = c(0.3, -0.2);
        taps[6] = c(-0.15, 0.1);
        FirFilter::from_taps(&taps)
    }

    #[test]
    fn identity_channel_yields_identity_like_equalizer() {
        let channel = FirFilter::identity();
        let eq = ZfEqualizer::design(&channel, 5).unwrap();
        let x: Vec<Complex> = (0..32)
            .map(|i| c((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let received = channel.filter_full(&x);
        let out = eq.equalize(received.as_slice(), x.len());
        assert!(out.squared_error(&CVec(x)) < 1e-18);
    }

    #[test]
    fn equalizer_inverts_multipath_channel() {
        let channel = multipath_channel();
        let eq = ZfEqualizer::design(&channel, 31).unwrap();
        let x: Vec<Complex> = (0..256)
            .map(|i| {
                c(
                    ((i * 7) % 13) as f64 / 13.0 - 0.5,
                    ((i * 5) % 11) as f64 / 11.0 - 0.5,
                )
            })
            .collect();
        let received = channel.filter_full(&x);
        let out = eq.equalize(received.as_slice(), x.len());
        // Interior samples (away from edge transients) must match closely.
        let interior_err: f64 = (20..236).map(|k| (out[k] - x[k]).norm_sqr()).sum::<f64>() / 216.0;
        let signal_power: f64 = x.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!(
            interior_err / signal_power < 1e-2,
            "residual error ratio {}",
            interior_err / signal_power
        );
        assert!(eq.residual_isi(&channel) < 0.05);
    }

    #[test]
    fn residual_isi_detects_poor_equalization() {
        let channel = multipath_channel();
        // A 3-tap equalizer cannot invert a 9-tap channel well.
        let short = ZfEqualizer::design(&channel, 3).unwrap();
        let long = ZfEqualizer::design(&channel, 31).unwrap();
        assert!(short.residual_isi(&channel) > long.residual_isi(&channel));
    }

    #[test]
    fn degenerate_channel_estimate_is_an_error() {
        let zero = FirFilter::from_taps(&[Complex::ZERO; 4]);
        assert!(ZfEqualizer::design(&zero, 7).is_err());
    }

    #[test]
    fn invalid_delay_is_rejected() {
        let channel = FirFilter::identity();
        assert!(ZfEqualizer::design_with_delay(&channel, 5, 100).is_err());
    }

    #[test]
    fn equalize_pads_when_output_longer_than_filtered() {
        let channel = FirFilter::identity();
        let eq = ZfEqualizer::design(&channel, 3).unwrap();
        let out = eq.equalize(&[Complex::ONE; 4], 10);
        assert_eq!(out.len(), 10);
        assert_eq!(out[9], Complex::ZERO);
    }

    #[test]
    fn scaled_channel_estimate_scales_output_inversely() {
        // ZF with a known gain error produces an output scaled by 1/gain —
        // the despreader is scale-invariant so this is harmless, but the
        // behaviour should be deterministic.
        let channel = multipath_channel();
        let eq_true = ZfEqualizer::design(&channel, 21).unwrap();
        let eq_scaled = ZfEqualizer::design(&channel.scaled(2.0), 21).unwrap();
        let x = vec![Complex::ONE; 64];
        let received = channel.filter_full(&x);
        let a = eq_true.equalize(received.as_slice(), 64);
        let b = eq_scaled.equalize(received.as_slice(), 64);
        for k in 10..50 {
            assert!((a[k] - b[k].scale(2.0)).abs() < 1e-6);
        }
    }
}
