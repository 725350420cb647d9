//! Application of a channel realisation to a transmitted waveform.
//!
//! Following the paper's block-fading assumption (Sec. 2.1), the channel is
//! constant for the duration of one packet and changes between packets.  A
//! [`ChannelRealization`] therefore bundles the per-packet FIR channel, the
//! per-packet crystal-induced mean phase offset, and the receiver noise
//! level; [`apply_channel`] produces the raw "sniffer capture" that the
//! estimation techniques work on.

use crate::noise::add_awgn;
use rand::Rng;
use vvd_dsp::{CVec, Complex, FirFilter};

/// Everything that distorts one transmitted packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelRealization {
    /// The block-fading FIR channel for this packet.
    pub fir: FirFilter,
    /// Mean phase offset (radians) caused by the imperfect crystals of the
    /// sensor nodes (Sec. 3.1): constant over the packet, random across
    /// packets.
    pub phase_offset: f64,
    /// Per-component standard deviation of the receiver AWGN.
    pub noise_std: f64,
}

impl ChannelRealization {
    /// A noiseless, offset-free realisation of the given channel (useful in
    /// tests).
    pub fn clean(fir: FirFilter) -> Self {
        ChannelRealization {
            fir,
            phase_offset: 0.0,
            noise_std: 0.0,
        }
    }

    /// The channel with the crystal phase offset folded into the taps — the
    /// "effective" channel the receiver actually has to invert.  This is
    /// also what the perfect (ground-truth) LS estimate converges to.
    pub fn effective_fir(&self) -> FirFilter {
        self.fir.rotated(Complex::cis(self.phase_offset))
    }
}

/// Passes a clean transmitted waveform through a channel realisation:
/// linear convolution with the FIR taps, rotation by the mean phase offset
/// and additive white Gaussian noise.
///
/// The output has `waveform.len() + fir.len() - 1` samples (full
/// convolution), i.e. it includes the pre-cursor transient; receivers
/// re-align via their synchroniser or equalizer delay.
pub fn apply_channel<R: Rng + ?Sized>(
    waveform: &CVec,
    realization: &ChannelRealization,
    rng: &mut R,
) -> CVec {
    let convolved = realization.fir.filter_full(waveform.as_slice());
    let rotated = convolved.rotate(Complex::cis(realization.phase_offset));
    add_awgn(&rotated, realization.noise_std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn clean_identity_channel_is_transparent() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = CVec(vec![c(1.0, 0.5), c(-0.5, 0.25), c(0.0, 1.0)]);
        let real = ChannelRealization::clean(FirFilter::identity());
        let y = apply_channel(&x, &real, &mut rng);
        assert_eq!(y.len(), x.len());
        assert!(y.squared_error(&x) < 1e-24);
    }

    #[test]
    fn output_length_includes_channel_memory() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = CVec::from_real(&[1.0; 100]);
        let fir = FirFilter::from_taps(&[c(0.0, 0.0), c(0.0, 0.0), c(1.0, 0.0), c(0.3, 0.1)]);
        let real = ChannelRealization::clean(fir);
        let y = apply_channel(&x, &real, &mut rng);
        assert_eq!(y.len(), 103);
    }

    #[test]
    fn phase_offset_rotates_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = CVec(vec![c(1.0, 0.0), c(0.0, 1.0)]);
        let real = ChannelRealization {
            fir: FirFilter::identity(),
            phase_offset: std::f64::consts::FRAC_PI_2,
            noise_std: 0.0,
        };
        let y = apply_channel(&x, &real, &mut rng);
        assert!((y[0] - c(0.0, 1.0)).abs() < 1e-12);
        assert!((y[1] - c(-1.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn effective_fir_includes_phase() {
        let fir = FirFilter::from_taps(&[c(1.0, 0.0), c(0.5, 0.0)]);
        let real = ChannelRealization {
            fir: fir.clone(),
            phase_offset: 1.0,
            noise_std: 0.0,
        };
        let eff = real.effective_fir();
        assert!((eff.taps()[0].arg() - 1.0).abs() < 1e-12);
        assert!((eff.energy() - fir.energy()).abs() < 1e-12);
    }

    #[test]
    fn noise_perturbs_output_by_expected_amount() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = CVec(vec![Complex::ONE; 20_000]);
        let real = ChannelRealization {
            fir: FirFilter::identity(),
            phase_offset: 0.0,
            noise_std: 0.1,
        };
        let y = apply_channel(&x, &real, &mut rng);
        let err = y.squared_error(&x.resized(y.len())) / y.len() as f64;
        // Expected noise power = 2 * std^2 = 0.02.
        assert!((err - 0.02).abs() < 0.003, "noise power {err}");
    }
}
