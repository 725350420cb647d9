//! The shared decoding pipeline: estimate → phase-align → zero-force →
//! despread → FCS check.
//!
//! Section 5 of the paper stresses that "the only difference between the
//! compared techniques stems from the estimation part": every technique
//! (except standard decoding) pushes its channel estimate through the same
//! ZF equalization and despreading.  [`decode_with_estimate`] is that common
//! path.

use crate::ls::preamble_estimate;
use crate::phase::align_mean_phase;
use crate::zf::ZfEqualizer;
use serde::{Deserialize, Serialize};
use vvd_dsp::{Complex, FirFilter};
use vvd_phy::{DecodeOutcome, ModulatedFrame, Receiver};

/// Configuration of the equalization stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EqualizerConfig {
    /// Number of taps of the zero-forcing equalizer (`L` in Eq. 6).
    pub equalizer_taps: usize,
    /// Number of channel taps every estimate is expressed in (`N`, 11 in the
    /// paper).
    pub channel_taps: usize,
    /// Whether to align the mean phase of the supplied estimate to the
    /// received block via the preamble (Eq. 8, footnote 4).  Blind estimates
    /// need this because the per-packet crystal offset is not part of their
    /// prediction.
    pub align_phase: bool,
}

impl Default for EqualizerConfig {
    fn default() -> Self {
        EqualizerConfig {
            equalizer_taps: 21,
            channel_taps: 11,
            align_phase: true,
        }
    }
}

/// Decodes one packet using an externally supplied channel estimate.
///
/// `received` is the raw captured block (full convolution support).  If the
/// estimate is degenerate (all zeros — e.g. an untrained predictor) the
/// packet is counted as lost.
pub fn decode_with_estimate(
    receiver: &Receiver,
    tx: &ModulatedFrame,
    received: &[Complex],
    estimate: &FirFilter,
    cfg: &EqualizerConfig,
) -> DecodeOutcome {
    let reference = if cfg.align_phase {
        preamble_estimate(tx, received, estimate.len()).ok()
    } else {
        None
    };
    decode_with_reference(receiver, tx, received, estimate, reference.as_ref(), cfg)
}

/// Like [`decode_with_estimate`], but with the preamble-based alignment
/// reference supplied by the caller instead of being re-estimated from the
/// received block.
///
/// A caller that holds one preamble estimate per packet reuses it across
/// every technique instead of refitting it inside each technique's decode.
/// Passing `None` while `cfg.align_phase` is set skips the alignment, which
/// mirrors an LS fit failure in [`decode_with_estimate`]; the streaming
/// evaluation pipeline aligns each estimate itself, once, and decodes it
/// with `align_phase` off, so the equalizer and the Eq.-9 MSE bookkeeping
/// see the same filter.
pub fn decode_with_reference(
    receiver: &Receiver,
    tx: &ModulatedFrame,
    received: &[Complex],
    estimate: &FirFilter,
    reference: Option<&FirFilter>,
    cfg: &EqualizerConfig,
) -> DecodeOutcome {
    let lost = || DecodeOutcome::lost(tx.psdu_chips().len(), tx.frame.psdu_symbols().len());

    if estimate.energy() == 0.0 {
        return lost();
    }

    // Mean phase alignment against a rough preamble-based estimate of the
    // current packet (always computable at the receiver since the SHR is
    // known a priori).
    let aligned = match (cfg.align_phase, reference) {
        (true, Some(reference)) => align_mean_phase(estimate, reference).0,
        _ => estimate.clone(),
    };

    let equalizer = match ZfEqualizer::design(&aligned, cfg.equalizer_taps) {
        Ok(eq) => eq,
        Err(_) => return lost(),
    };
    let equalized = equalizer.equalize(received, tx.full_waveform().len());
    receiver.decode_aligned(equalized.as_slice(), tx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vvd_channel::{apply_channel, ChannelRealization};
    use vvd_dsp::CVec;
    use vvd_phy::{modulate_frame, PhyConfig, PsduBuilder};

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn multipath_channel() -> FirFilter {
        let mut taps = vec![Complex::ZERO; 11];
        taps[5] = c(1.1e-3, 0.5e-3);
        taps[6] = c(0.5e-3, -0.4e-3);
        taps[7] = c(-0.2e-3, 0.15e-3);
        taps[3] = c(0.1e-3, 0.1e-3);
        FirFilter::from_taps(&taps)
    }

    fn setup(
        seed: u64,
        noise_std: f64,
        phase: f64,
    ) -> (PhyConfig, ModulatedFrame, CVec, FirFilter) {
        let cfg = PhyConfig::short_packets(24);
        let tx = modulate_frame(&cfg, &PsduBuilder::new(&cfg).build(7));
        let channel = multipath_channel();
        let realization = ChannelRealization {
            fir: channel.clone(),
            phase_offset: phase,
            noise_std,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let received = apply_channel(&tx.waveform, &realization, &mut rng);
        (cfg, tx, received, realization.effective_fir())
    }

    #[test]
    fn perfect_estimate_decodes_cleanly() {
        let (cfg, tx, received, effective) = setup(1, 0.0, 0.9);
        let receiver = Receiver::new(cfg);
        let out = decode_with_estimate(
            &receiver,
            &tx,
            received.as_slice(),
            &effective,
            &EqualizerConfig::default(),
        );
        assert!(out.crc_ok, "chip errors: {}", out.chip_errors);
        assert_eq!(out.chip_errors, 0);
    }

    #[test]
    fn standard_decoding_fails_where_equalization_succeeds() {
        // With this much multipath (relative tap ~0.45 of main) plus noise,
        // decoding without equalization produces chip errors while the
        // ZF-equalized path stays clean.
        let (cfg, tx, received, effective) = setup(3, 2.0e-5, 0.4);
        let receiver = Receiver::new(cfg);
        let standard = receiver.decode_standard(received.as_slice(), &tx);
        let equalized = decode_with_estimate(
            &receiver,
            &tx,
            received.as_slice(),
            &effective,
            &EqualizerConfig::default(),
        );
        assert!(
            equalized.chip_errors < standard.chip_errors,
            "equalized {} vs standard {}",
            equalized.chip_errors,
            standard.chip_errors
        );
    }

    #[test]
    fn stale_estimate_without_phase_alignment_is_worse() {
        // The estimate comes from "another packet" with a different crystal
        // phase; without Eq.-8 alignment the equalizer rotates the
        // constellation and chips break.
        let (cfg, tx, received, _) = setup(5, 0.0, 1.3);
        let receiver = Receiver::new(cfg);
        // Estimate with the *wrong* phase (e.g. from a previous packet).
        let stale = multipath_channel().rotated(Complex::cis(-0.8));
        let with_alignment = decode_with_estimate(
            &receiver,
            &tx,
            received.as_slice(),
            &stale,
            &EqualizerConfig::default(),
        );
        let without_alignment = decode_with_estimate(
            &receiver,
            &tx,
            received.as_slice(),
            &stale,
            &EqualizerConfig {
                align_phase: false,
                ..EqualizerConfig::default()
            },
        );
        assert!(with_alignment.chip_errors < without_alignment.chip_errors);
        assert!(with_alignment.crc_ok);
    }

    #[test]
    fn zero_estimate_counts_as_lost_packet() {
        let (cfg, tx, received, _) = setup(7, 0.0, 0.0);
        let receiver = Receiver::new(cfg);
        let zero = FirFilter::from_taps(&[Complex::ZERO; 11]);
        let out = decode_with_estimate(
            &receiver,
            &tx,
            received.as_slice(),
            &zero,
            &EqualizerConfig::default(),
        );
        assert!(out.is_packet_error());
        assert_eq!(out.chip_errors, out.chip_count);
    }

    #[test]
    fn noisy_channel_with_good_estimate_still_decodes() {
        let (cfg, tx, received, effective) = setup(11, 4.0e-5, -0.6);
        let receiver = Receiver::new(cfg);
        let out = decode_with_estimate(
            &receiver,
            &tx,
            received.as_slice(),
            &effective,
            &EqualizerConfig::default(),
        );
        // DSSS redundancy absorbs residual chip errors: the packet decodes.
        assert!(out.crc_ok, "chip errors {}", out.chip_errors);
    }
}
