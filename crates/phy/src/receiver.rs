//! Receiver-side primitives: synchronisation, preamble detection, mean
//! phase-offset correction and packet decoding.
//!
//! Every estimation technique in the paper shares the same receiver front
//! end ("frequency offset correction and packet frame synchronization are
//! performed in all techniques"); they differ only in how the channel
//! estimate fed to the zero-forcing equalizer is obtained.  [`Receiver`]
//! therefore exposes:
//!
//! * [`Receiver::synchronize`] — correlation-based frame sync against the
//!   known synchronisation header, returning the detection decision whose
//!   failures drive the preamble-based technique's losses,
//! * [`Receiver::estimate_mean_phase`] — the Eq.-8 style phase-offset
//!   estimate from the known SHR, used both by standard decoding and to
//!   align blind estimates with the received block,
//! * [`Receiver::decode_aligned`] — matched-filter demodulation, PN
//!   despreading and FCS check of an (equalized) waveform.

use crate::config::PhyConfig;
use crate::crc::check_fcs;
use crate::despread::ChipDecisions;
use crate::modulator::ModulatedFrame;
use crate::oqpsk::demodulate_chips;
use crate::symbols::symbols_to_octets;
use vvd_dsp::correlation::normalized_correlation_at;
use vvd_dsp::{CVec, Complex};

/// Result of frame synchronisation / preamble detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncResult {
    /// Sample offset (relative to the start of the search window) at which
    /// the preamble correlation peaks.
    pub offset: usize,
    /// Peak normalized correlation magnitude in `[0, 1]`.
    pub correlation: f64,
    /// Whether the correlation exceeded the detection threshold — packets
    /// whose preamble is not detected are lost for preamble-based
    /// estimation (Sec. 5.5).
    pub preamble_detected: bool,
}

/// Outcome of decoding one packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeOutcome {
    /// `true` when the FCS over the despread PSDU matches.
    pub crc_ok: bool,
    /// Number of erroneous PSDU chips (hard decisions).
    pub chip_errors: usize,
    /// Total number of PSDU chips considered.
    pub chip_count: usize,
    /// Number of erroneous despread PSDU symbols.
    pub symbol_errors: usize,
}

vvd_dsp::wire_struct!(DecodeOutcome {
    crc_ok,
    chip_errors,
    chip_count,
    symbol_errors
});

impl DecodeOutcome {
    /// Chip error rate of this packet.
    pub fn chip_error_rate(&self) -> f64 {
        if self.chip_count == 0 {
            0.0
        } else {
            self.chip_errors as f64 / self.chip_count as f64
        }
    }

    /// `true` if this packet counts as a packet error.
    pub fn is_packet_error(&self) -> bool {
        !self.crc_ok
    }

    /// An outcome representing a packet that was lost outright (e.g. the
    /// preamble was never detected): every chip and symbol is counted as
    /// erroneous, mirroring how the paper treats undetected packets.
    pub fn lost(chip_count: usize, symbol_count: usize) -> Self {
        DecodeOutcome {
            crc_ok: false,
            chip_errors: chip_count,
            chip_count,
            symbol_errors: symbol_count,
        }
    }
}

/// Receiver front end shared by all estimation techniques.
#[derive(Debug, Clone, Copy)]
pub struct Receiver {
    cfg: PhyConfig,
}

impl Receiver {
    /// Creates a receiver for the given PHY configuration.
    pub fn new(cfg: PhyConfig) -> Self {
        Receiver { cfg }
    }

    /// The PHY configuration this receiver was built with.
    pub fn config(&self) -> &PhyConfig {
        &self.cfg
    }

    /// Searches for the synchronisation header of `tx` in `received` within
    /// the configured search window around the nominal start (index 0) and
    /// performs the preamble detection threshold test.
    pub fn synchronize(&self, received: &[Complex], tx: &ModulatedFrame) -> SyncResult {
        let reference = tx.shr_waveform();
        let window = self.cfg.sync_search_window;
        let mut best_offset = 0usize;
        let mut best_corr = 0.0f64;
        for offset in 0..=window {
            let corr = normalized_correlation_at(received, reference, offset);
            if corr > best_corr {
                best_corr = corr;
                best_offset = offset;
            }
        }
        SyncResult {
            offset: best_offset,
            correlation: best_corr,
            preamble_detected: best_corr >= self.cfg.preamble_threshold,
        }
    }

    /// Estimates the mean phase rotation of the received synchronisation
    /// header relative to the clean reference (crystal offset plus the mean
    /// channel phase), following the correlation method of Eq. 8.
    pub fn estimate_mean_phase(&self, received: &[Complex], tx: &ModulatedFrame) -> f64 {
        let reference = tx.shr_waveform();
        let n = reference.len().min(received.len());
        let mut acc = Complex::ZERO;
        for i in 0..n {
            acc += received[i] * reference[i].conj();
        }
        acc.arg()
    }

    /// Demodulates soft chips from a waveform aligned to the PPDU start.
    pub fn demodulate(&self, waveform: &[Complex], n_chips: usize) -> Vec<f64> {
        demodulate_chips(waveform, n_chips, self.cfg.samples_per_chip)
    }

    /// Decodes an already equalized-and-aligned waveform of the packet `tx`:
    /// matched-filter chip demodulation, PN despreading, FCS check and error
    /// accounting against the known transmitted content.
    pub fn decode_aligned(&self, waveform: &[Complex], tx: &ModulatedFrame) -> DecodeOutcome {
        let n_chips = tx.n_chips();
        let soft = self.demodulate(waveform, n_chips);
        let decisions = ChipDecisions {
            soft_chips: soft,
            reference_chips: tx.chips.clone(),
            psdu_chip_offset: tx.psdu_chip_offset(),
        };
        let chip_errors = decisions.psdu_chip_errors();
        let chip_count = decisions.psdu_chip_count();
        let decoded_symbols = decisions.psdu_symbols();
        let reference_symbols = tx.frame.psdu_symbols();
        let symbol_errors = decisions.psdu_symbol_errors(&reference_symbols);
        let octets = symbols_to_octets(&decoded_symbols);
        let crc_ok = octets.len() == tx.frame.psdu.len() && check_fcs(&octets);
        DecodeOutcome {
            crc_ok,
            chip_errors,
            chip_count,
            symbol_errors,
        }
    }

    /// "Standard decoding" as defined in Sec. 5.1: no channel estimation and
    /// no equalization, only frame synchronisation and mean phase-offset
    /// correction before demodulation.
    pub fn decode_standard(&self, received: &[Complex], tx: &ModulatedFrame) -> DecodeOutcome {
        let theta = self.estimate_mean_phase(received, tx);
        let corrected = CVec(received.to_vec()).rotate(Complex::cis(-theta));
        self.decode_aligned(corrected.as_slice(), tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PsduBuilder;
    use crate::modulator::modulate_frame;

    fn test_tx(psdu: usize) -> (PhyConfig, ModulatedFrame) {
        let cfg = PhyConfig::short_packets(psdu);
        let frame = PsduBuilder::new(&cfg).build(9);
        let tx = modulate_frame(&cfg, &frame);
        (cfg, tx)
    }

    #[test]
    fn clean_waveform_decodes_without_errors() {
        let (cfg, tx) = test_tx(16);
        let rx = Receiver::new(cfg);
        let out = rx.decode_aligned(tx.full_waveform(), &tx);
        assert!(out.crc_ok);
        assert_eq!(out.chip_errors, 0);
        assert_eq!(out.symbol_errors, 0);
        assert_eq!(out.chip_count, cfg.psdu_chips());
        assert!(!out.is_packet_error());
    }

    #[test]
    fn synchronization_finds_clean_preamble() {
        let (cfg, tx) = test_tx(8);
        let rx = Receiver::new(cfg);
        let sync = rx.synchronize(tx.full_waveform(), &tx);
        assert_eq!(sync.offset, 0);
        assert!(sync.preamble_detected);
        assert!(sync.correlation > 0.99);
    }

    #[test]
    fn synchronization_fails_on_noise_only() {
        let (cfg, tx) = test_tx(8);
        let rx = Receiver::new(cfg);
        // A deterministic pseudo-noise signal uncorrelated with the preamble.
        let noise: Vec<Complex> = (0..tx.waveform.len())
            .map(|i| {
                let x = (i as f64 * 12.9898).sin() * 43758.5453;
                let y = (i as f64 * 78.233).sin() * 12543.1234;
                Complex::new(x.fract() - 0.5, y.fract() - 0.5)
            })
            .collect();
        let sync = rx.synchronize(&noise, &tx);
        assert!(!sync.preamble_detected, "correlation {}", sync.correlation);
    }

    #[test]
    fn phase_rotation_is_estimated_and_corrected() {
        let (cfg, tx) = test_tx(8);
        let rx = Receiver::new(cfg);
        for &theta in &[-2.0f64, -0.5, 0.4, 1.7] {
            let rotated = tx.waveform.rotate(Complex::cis(theta));
            let est = rx.estimate_mean_phase(rotated.as_slice(), &tx);
            assert!((est - theta).abs() < 1e-6, "theta={theta} est={est}");
            let out = rx.decode_standard(rotated.as_slice(), &tx);
            assert!(out.crc_ok);
            assert_eq!(out.chip_errors, 0);
        }
    }

    #[test]
    fn uncorrected_quarter_turn_breaks_decoding_but_standard_decoding_fixes_it() {
        let (cfg, tx) = test_tx(16);
        let rx = Receiver::new(cfg);
        let rotated = tx
            .waveform
            .rotate(Complex::cis(std::f64::consts::FRAC_PI_2));
        // Raw decode (no phase correction): I/Q rails are swapped, chips break.
        let raw = rx.decode_aligned(rotated.as_slice(), &tx);
        assert!(raw.chip_errors > 0);
        // Standard decoding corrects the mean phase first.
        let fixed = rx.decode_standard(rotated.as_slice(), &tx);
        assert!(fixed.crc_ok);
    }

    #[test]
    fn attenuation_alone_does_not_cause_errors() {
        let (cfg, tx) = test_tx(8);
        let rx = Receiver::new(cfg);
        let weak = tx.waveform.scale(1e-3);
        let out = rx.decode_aligned(weak.as_slice(), &tx);
        assert!(out.crc_ok);
        assert_eq!(out.chip_errors, 0);
    }

    #[test]
    fn lost_outcome_counts_everything_as_error() {
        let lost = DecodeOutcome::lost(8128, 254);
        assert!(lost.is_packet_error());
        assert_eq!(lost.chip_error_rate(), 1.0);
        assert_eq!(lost.symbol_errors, 254);
    }
}
