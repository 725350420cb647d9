//! PPDU framing.
//!
//! A transmitted packet (PPDU) consists of the synchronisation header
//! (4-octet all-zero preamble + SFD), the PHY header carrying the frame
//! length, and the PSDU.  The paper transmits 127-octet PSDUs whose payload
//! is identical across packets except for a sequence number and the CRC —
//! [`PsduBuilder`] reproduces exactly that construction so that consecutive
//! packets differ the same way they do in the original trace.

use crate::config::{PhyConfig, MAX_PSDU_OCTETS, PREAMBLE_OCTETS, SFD_OCTET};
use crate::crc::{append_fcs, check_fcs};
use crate::symbols::octets_to_symbols;

/// A fully assembled PHY frame (PPDU) ready for spreading and modulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sequence number embedded in the PSDU (mirrors the paper's per-packet
    /// sequence number).
    pub sequence_number: u16,
    /// PSDU octets, including the trailing 2-octet FCS.
    pub psdu: Vec<u8>,
}

impl Frame {
    /// Builds the complete over-the-air octet stream:
    /// preamble + SFD + PHR + PSDU.
    pub fn ppdu_octets(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PREAMBLE_OCTETS + 2 + self.psdu.len());
        out.extend(std::iter::repeat_n(0u8, PREAMBLE_OCTETS));
        out.push(SFD_OCTET);
        // PHR: 7-bit frame length; the reserved MSB is zero.
        out.push((self.psdu.len() as u8) & 0x7F);
        out.extend_from_slice(&self.psdu);
        out
    }

    /// The over-the-air stream as 4-bit data symbols.
    pub fn ppdu_symbols(&self) -> Vec<u8> {
        octets_to_symbols(&self.ppdu_octets())
    }

    /// The data symbols of the PSDU only (used for the chip-error-rate
    /// metric, which the paper computes over the 8128 PSDU chips).
    pub fn psdu_symbols(&self) -> Vec<u8> {
        octets_to_symbols(&self.psdu)
    }

    /// Verifies the FCS of this frame's PSDU.
    pub fn fcs_ok(&self) -> bool {
        check_fcs(&self.psdu)
    }
}

/// Builds PSDUs that mimic the measurement campaign: constant payload body,
/// varying sequence number, valid FCS.
#[derive(Debug, Clone, PartialEq)]
pub struct PsduBuilder {
    psdu_octets: usize,
}

impl PsduBuilder {
    /// Creates a builder for the PSDU length configured in `cfg`.
    ///
    /// # Panics
    /// Panics if the configured PSDU length is below 4 (sequence number +
    /// FCS) or above the standard's 127-octet maximum.
    pub fn new(cfg: &PhyConfig) -> Self {
        assert!(
            (4..=MAX_PSDU_OCTETS).contains(&cfg.psdu_octets),
            "PSDU length must be in 4..=127 octets"
        );
        PsduBuilder {
            psdu_octets: cfg.psdu_octets,
        }
    }

    /// Builds the frame carrying `sequence_number`.
    ///
    /// Layout: `[seq_lo, seq_hi, body ..., fcs_lo, fcs_hi]` where the body is
    /// a fixed counter pattern — "all of the transmitted packets ... have the
    /// same payload except the sequence number and the CRC".
    pub fn build(&self, sequence_number: u16) -> Frame {
        let body_len = self.psdu_octets - 4;
        let mut payload = Vec::with_capacity(self.psdu_octets - 2);
        payload.push((sequence_number & 0xFF) as u8);
        payload.push((sequence_number >> 8) as u8);
        payload.extend((0..body_len).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)));
        Frame {
            sequence_number,
            psdu: append_fcs(&payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppdu_layout() {
        let cfg = PhyConfig::short_packets(8);
        let frame = PsduBuilder::new(&cfg).build(7);
        let ppdu = frame.ppdu_octets();
        assert_eq!(&ppdu[..4], &[0, 0, 0, 0]);
        assert_eq!(ppdu[4], 0xA7);
        assert_eq!(ppdu[5], 8);
        assert_eq!(ppdu.len(), 4 + 1 + 1 + 8);
        assert!(frame.fcs_ok());
    }

    #[test]
    fn frames_differ_only_in_sequence_and_fcs() {
        let cfg = PhyConfig::short_packets(16);
        let b = PsduBuilder::new(&cfg);
        let f1 = b.build(1);
        let f2 = b.build(2);
        assert_ne!(f1.psdu, f2.psdu);
        // Body (between sequence number and FCS) is identical.
        assert_eq!(&f1.psdu[2..14], &f2.psdu[2..14]);
        assert!(f1.fcs_ok() && f2.fcs_ok());
    }

    #[test]
    fn full_length_frame_has_8128_psdu_chips_worth_of_symbols() {
        let cfg = PhyConfig::default();
        let frame = PsduBuilder::new(&cfg).build(0);
        assert_eq!(frame.psdu.len(), 127);
        assert_eq!(frame.psdu_symbols().len(), 254);
        assert_eq!(frame.ppdu_symbols().len(), cfg.total_symbols());
    }

    #[test]
    #[should_panic]
    fn too_small_psdu_is_rejected() {
        let cfg = PhyConfig::short_packets(2);
        let _ = PsduBuilder::new(&cfg);
    }

    #[test]
    fn symbol_stream_starts_with_preamble_zero_symbols() {
        let cfg = PhyConfig::short_packets(8);
        let frame = PsduBuilder::new(&cfg).build(3);
        let symbols = frame.ppdu_symbols();
        assert!(symbols[..8].iter().all(|&s| s == 0));
        // SFD 0xA7 -> nibbles 0x7, 0xA.
        assert_eq!(symbols[8], 0x7);
        assert_eq!(symbols[9], 0xA);
    }
}
