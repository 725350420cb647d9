//! VVD model configuration and presets.

use vvd_dsp::wire::{Decoder, Encoder, WireCodec, WireError};

/// Pooling layer family used between convolution stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolingKind {
    /// 2 × 2 average pooling (the paper's choice).
    Average,
    /// 2 × 2 max pooling (examined by the paper, slightly worse).
    Max,
}

impl WireCodec for PoolingKind {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            PoolingKind::Average => 0,
            PoolingKind::Max => 1,
        });
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8("pooling kind")? {
            0 => Ok(PoolingKind::Average),
            1 => Ok(PoolingKind::Max),
            _ => Err(WireError::Malformed {
                context: "pooling kind tag",
            }),
        }
    }
}

/// Hyper-parameters of the VVD CNN and its training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VvdConfig {
    /// Number of filters in each convolution layer (paper: 32).
    pub conv_filters: usize,
    /// Units of the first dense layer (paper: 256).
    pub dense_units: usize,
    /// Number of channel taps predicted (output size is twice this).
    pub channel_taps: usize,
    /// Pooling kind between convolution stages.
    pub pooling: PoolingKind,
    /// Whether to insert batch-norm after each convolution (the paper removed
    /// it; kept for the ablation bench).
    pub batch_norm: bool,
    /// Training epochs (paper: 200).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Nadam initial learning rate (paper: 1e-4).
    pub learning_rate: f32,
    /// Nadam learning-rate decay per update (paper: 0.004).
    pub lr_decay: f32,
    /// RNG seed for weight initialisation and shuffling.
    pub seed: u64,
}

vvd_dsp::wire_struct!(VvdConfig {
    conv_filters,
    dense_units,
    channel_taps,
    pooling,
    batch_norm,
    epochs,
    batch_size,
    learning_rate,
    lr_decay,
    seed
});

impl VvdConfig {
    /// The paper's configuration (Sec. 4): 32 filters, 256 dense units,
    /// average pooling, no batch norm, 200 epochs of Nadam(1e-4, 0.004).
    pub fn paper() -> Self {
        VvdConfig {
            conv_filters: 32,
            dense_units: 256,
            channel_taps: 11,
            pooling: PoolingKind::Average,
            batch_norm: false,
            epochs: 200,
            batch_size: 16,
            learning_rate: 1e-4,
            lr_decay: 0.004,
            seed: 0,
        }
    }

    /// A laptop-scale configuration used by tests and the quick evaluation
    /// preset: fewer filters and epochs, larger learning rate so the smaller
    /// network still converges within the reduced budget.  The architecture
    /// shape (3 conv/pool stages + dense) is unchanged.
    pub fn quick() -> Self {
        VvdConfig {
            conv_filters: 8,
            dense_units: 64,
            channel_taps: 11,
            pooling: PoolingKind::Average,
            batch_norm: false,
            epochs: 12,
            batch_size: 16,
            learning_rate: 1.5e-3,
            lr_decay: 0.002,
            seed: 0,
        }
    }

    /// Number of real-valued network outputs (Fig. 6: `2 · taps`).
    pub fn output_units(&self) -> usize {
        2 * self.channel_taps
    }
}

impl Default for VvdConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_4() {
        let cfg = VvdConfig::paper();
        assert_eq!(cfg.conv_filters, 32);
        assert_eq!(cfg.dense_units, 256);
        assert_eq!(cfg.output_units(), 22);
        assert_eq!(cfg.epochs, 200);
        assert_eq!(cfg.pooling, PoolingKind::Average);
        assert!(!cfg.batch_norm);
        assert!((cfg.learning_rate - 1e-4).abs() < 1e-9);
        assert!((cfg.lr_decay - 0.004).abs() < 1e-9);
    }

    #[test]
    fn quick_preset_keeps_architecture_shape() {
        let cfg = VvdConfig::quick();
        assert_eq!(cfg.channel_taps, 11);
        assert_eq!(cfg.output_units(), 22);
        assert!(cfg.conv_filters < VvdConfig::paper().conv_filters);
        assert!(cfg.epochs < VvdConfig::paper().epochs);
    }
}
