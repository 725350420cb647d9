//! Evaluation configuration and presets.
//!
//! All experiment harnesses are parameterised by [`EvalConfig`].  The
//! `paper()` preset matches the published campaign dimensions (15 sets,
//! ~1,500 packets per set, 127-byte PSDUs, the full Fig.-8 CNN); the
//! `quick()` preset shrinks everything so that tests and `cargo bench`
//! finish on a laptop while preserving the qualitative shape of the
//! results, and `smoke()` is a minimal configuration for unit tests.

use vvd_channel::CirConfig;
use vvd_core::VvdConfig;
use vvd_estimation::EqualizerConfig;
use vvd_phy::PhyConfig;

/// Full configuration of a simulated measurement campaign and its
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// PHY configuration (PSDU length, samples per chip, preamble
    /// threshold).
    pub phy: PhyConfig,
    /// Channel synthesis configuration.
    pub cir: CirConfig,
    /// VVD CNN / training configuration.
    pub vvd: VvdConfig,
    /// Equalization configuration shared by all techniques.
    pub equalizer: EqualizerConfig,
    /// Nominal SNR in dB, defined against the unblocked (nominal) channel.
    pub snr_db: f64,
    /// Number of measurement sets in the campaign (paper: 15).
    pub n_sets: usize,
    /// Number of packets per measurement set (paper: ~1,500 on average).
    pub packets_per_set: usize,
    /// Number of set combinations evaluated (paper: 15).
    pub n_combinations: usize,
    /// Packets at the start of each test set excluded while the Kalman
    /// filters converge (paper: 200).
    pub kalman_warmup_packets: usize,
    /// Cap on the number of training samples per VVD variant (0 = no cap);
    /// lets the quick preset bound CNN training time.
    pub max_vvd_training_samples: usize,
    /// Base RNG seed of the campaign.
    pub seed: u64,
}

vvd_dsp::wire_struct!(EvalConfig {
    phy,
    cir,
    vvd,
    equalizer,
    snr_db,
    n_sets,
    packets_per_set,
    n_combinations,
    kalman_warmup_packets,
    max_vvd_training_samples,
    seed
});

impl EvalConfig {
    /// Full-scale configuration matching the paper's campaign dimensions.
    pub fn paper() -> Self {
        EvalConfig {
            phy: PhyConfig::default(),
            cir: CirConfig::default(),
            vvd: VvdConfig::paper(),
            equalizer: EqualizerConfig::default(),
            snr_db: -5.0,
            n_sets: 15,
            packets_per_set: 1500,
            n_combinations: 15,
            kalman_warmup_packets: 200,
            max_vvd_training_samples: 0,
            seed: 2019,
        }
    }

    /// Laptop-scale configuration used by the reproduction benches: shorter
    /// packets, fewer sets/packets/combinations and the reduced CNN, chosen
    /// so a full figure regeneration stays in the minutes range.
    pub fn quick() -> Self {
        EvalConfig {
            phy: PhyConfig::short_packets(32),
            cir: CirConfig::default(),
            vvd: VvdConfig::quick(),
            equalizer: EqualizerConfig::default(),
            snr_db: -5.0,
            n_sets: 5,
            packets_per_set: 150,
            n_combinations: 3,
            kalman_warmup_packets: 20,
            max_vvd_training_samples: 360,
            seed: 2019,
        }
    }

    /// The `tiny` preset used by the bench smoke runs and the pipeline
    /// parity test: the smallest campaign that still exercises every code
    /// path of an experiment (3 sets, 60 packets/set, 2 combinations,
    /// reduced CNN).
    pub fn tiny() -> Self {
        let mut cfg = EvalConfig::quick();
        cfg.n_sets = 3;
        cfg.packets_per_set = 60;
        cfg.n_combinations = 2;
        cfg.kalman_warmup_packets = 10;
        cfg.max_vvd_training_samples = 120;
        cfg.vvd.epochs = 8;
        cfg
    }

    /// Minimal configuration for unit and integration tests.
    pub fn smoke() -> Self {
        let mut vvd = VvdConfig::quick();
        vvd.conv_filters = 4;
        vvd.dense_units = 24;
        vvd.epochs = 4;
        EvalConfig {
            phy: PhyConfig::short_packets(16),
            cir: CirConfig::default(),
            vvd,
            equalizer: EqualizerConfig::default(),
            snr_db: -5.0,
            n_sets: 3,
            packets_per_set: 40,
            n_combinations: 1,
            kalman_warmup_packets: 5,
            max_vvd_training_samples: 60,
            seed: 7,
        }
    }

    /// Packet transmission period (the paper sends one packet every 100 ms).
    pub fn packet_period_s(&self) -> f64 {
        0.1
    }

    /// Camera frame period (30 fps).
    pub fn frame_period_s(&self) -> f64 {
        1.0 / 30.0
    }

    /// Duration of one measurement set in seconds.
    pub fn set_duration_s(&self) -> f64 {
        self.packets_per_set as f64 * self.packet_period_s()
    }

    /// Total number of packets in the campaign.
    pub fn total_packets(&self) -> usize {
        self.n_sets * self.packets_per_set
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_campaign_dimensions() {
        let cfg = EvalConfig::paper();
        assert_eq!(cfg.n_sets, 15);
        assert_eq!(cfg.n_combinations, 15);
        assert_eq!(cfg.phy.psdu_octets, 127);
        assert_eq!(cfg.kalman_warmup_packets, 200);
        assert_eq!(cfg.total_packets(), 22_500);
    }

    #[test]
    fn quick_preset_is_smaller_in_every_dimension() {
        let quick = EvalConfig::quick();
        let paper = EvalConfig::paper();
        assert!(quick.n_sets <= paper.n_sets);
        assert!(quick.packets_per_set < paper.packets_per_set);
        assert!(quick.n_combinations < paper.n_combinations);
        assert!(quick.phy.psdu_octets < paper.phy.psdu_octets);
        assert!(quick.vvd.epochs < paper.vvd.epochs);
    }

    #[test]
    fn timing_helpers() {
        let cfg = EvalConfig::smoke();
        assert_eq!(cfg.packet_period_s(), 0.1);
        assert!((cfg.set_duration_s() - 4.0).abs() < 1e-12);
        assert!((cfg.frame_period_s() - 0.03333).abs() < 1e-4);
    }
}
