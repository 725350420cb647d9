//! PHY configuration.
//!
//! The paper samples the 2 Mchip/s O-QPSK signal at 8 MHz (4 samples per
//! chip) and transmits 127-byte PSDUs.  All of those knobs are collected in
//! [`PhyConfig`] so tests and the quick evaluation preset can scale the
//! packet size down without touching any code path.

/// Chip rate of the IEEE 802.15.4 2.4 GHz O-QPSK PHY in chips per second.
pub const CHIP_RATE_HZ: f64 = 2_000_000.0;

/// Number of chips that spread one 4-bit symbol.
pub const CHIPS_PER_SYMBOL: usize = 32;

/// Number of data bits carried by one spread symbol.
pub const BITS_PER_SYMBOL: usize = 4;

/// Preamble length in octets (all-zero octets per the standard).
pub const PREAMBLE_OCTETS: usize = 4;

/// Start-of-frame delimiter value.
pub const SFD_OCTET: u8 = 0xA7;

/// Maximum PSDU size in octets allowed by the standard.
pub const MAX_PSDU_OCTETS: usize = 127;

/// Static configuration of the simulated PHY.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyConfig {
    /// Baseband samples per chip (the paper's 8 MHz capture of the 2 Mchip/s
    /// signal corresponds to 4).
    pub samples_per_chip: usize,
    /// PSDU length in octets, including the 2-octet FCS (paper: 127).
    pub psdu_octets: usize,
    /// Normalized-correlation threshold above which the preamble is declared
    /// detected.  The paper reports up to 50 % of packets failing preamble
    /// detection in deep fades; the threshold controls where that cliff sits.
    pub preamble_threshold: f64,
    /// Search window (in samples) around the nominal frame start inside
    /// which the synchroniser looks for the preamble correlation peak.
    pub sync_search_window: usize,
}

vvd_dsp::wire_struct!(PhyConfig {
    samples_per_chip,
    psdu_octets,
    preamble_threshold,
    sync_search_window
});

impl Default for PhyConfig {
    fn default() -> Self {
        PhyConfig {
            samples_per_chip: 4,
            psdu_octets: MAX_PSDU_OCTETS,
            preamble_threshold: 0.35,
            sync_search_window: 8,
        }
    }
}

impl PhyConfig {
    /// Configuration used by unit tests and the quick evaluation preset:
    /// same sampling structure, much shorter payload.
    pub fn short_packets(psdu_octets: usize) -> Self {
        PhyConfig {
            psdu_octets,
            ..Self::default()
        }
    }

    /// Baseband sample rate implied by the chip rate and samples-per-chip.
    pub fn sample_rate_hz(&self) -> f64 {
        CHIP_RATE_HZ * self.samples_per_chip as f64
    }

    /// Chip duration in seconds.
    pub fn chip_duration_s(&self) -> f64 {
        1.0 / CHIP_RATE_HZ
    }

    /// Number of synchronisation-header octets (preamble + SFD).
    pub fn shr_octets(&self) -> usize {
        PREAMBLE_OCTETS + 1
    }

    /// Number of spread symbols in the synchronisation header.
    pub fn shr_symbols(&self) -> usize {
        self.shr_octets() * 2
    }

    /// Number of spread symbols in the PHY header (one octet → 2 symbols).
    pub fn phr_symbols(&self) -> usize {
        2
    }

    /// Number of spread symbols carrying the PSDU.
    pub fn psdu_symbols(&self) -> usize {
        self.psdu_octets * 2
    }

    /// Total number of spread symbols in one PPDU.
    pub fn total_symbols(&self) -> usize {
        self.shr_symbols() + self.phr_symbols() + self.psdu_symbols()
    }

    /// Total number of chips in one PPDU.
    pub fn total_chips(&self) -> usize {
        self.total_symbols() * CHIPS_PER_SYMBOL
    }

    /// Number of data chips (PSDU only), e.g. 8128 for a 127-octet PSDU as
    /// quoted in the paper's chip-error-rate metric.
    pub fn psdu_chips(&self) -> usize {
        self.psdu_symbols() * CHIPS_PER_SYMBOL
    }

    /// Number of baseband samples occupied by the chips of one PPDU
    /// (excluding the trailing half-pulse of the offset Q rail).
    pub fn ppdu_samples(&self) -> usize {
        self.total_chips() * self.samples_per_chip
    }

    /// Number of samples occupied by the synchronisation header (preamble +
    /// SFD), i.e. the part usable for preamble-based channel estimation.
    pub fn shr_samples(&self) -> usize {
        self.shr_symbols() * CHIPS_PER_SYMBOL * self.samples_per_chip
    }

    /// Packet duration in seconds (chips only).
    pub fn packet_duration_s(&self) -> f64 {
        self.total_chips() as f64 * self.chip_duration_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_dimensions() {
        let cfg = PhyConfig::default();
        assert_eq!(cfg.sample_rate_hz(), 8_000_000.0);
        assert_eq!(cfg.psdu_octets, 127);
        // 127 bytes -> 254 symbols -> 8128 chips, as quoted in Sec. 5.5.2.
        assert_eq!(cfg.psdu_chips(), 8128);
    }

    #[test]
    fn symbol_accounting_adds_up() {
        let cfg = PhyConfig::short_packets(16);
        // SHR: 5 octets -> 10 symbols, PHR: 1 octet -> 2 symbols, PSDU: 32.
        assert_eq!(cfg.shr_symbols(), 10);
        assert_eq!(cfg.total_symbols(), 10 + 2 + 32);
        assert_eq!(cfg.total_chips(), cfg.total_symbols() * 32);
        assert_eq!(cfg.ppdu_samples(), cfg.total_chips() * 4);
    }

    #[test]
    fn durations_are_consistent() {
        let cfg = PhyConfig::default();
        let d = cfg.packet_duration_s();
        // 127-byte packet: (10 + 2 + 254) symbols * 32 chips * 0.5 us = 4.256 ms.
        assert!((d - 0.004256).abs() < 1e-9);
        assert!(cfg.shr_samples() < cfg.ppdu_samples());
    }
}
