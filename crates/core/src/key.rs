//! Content-addressed model keys.
//!
//! A [`ModelKey`] is a stable 128-bit digest of everything that determines
//! a trained VVD model bit for bit: the prediction-horizon variant, the
//! architecture and training hyper-parameters ([`VvdConfig`], including the
//! RNG seed), and the full *content* of the training and validation
//! datasets (every depth-image pixel and every target CIR tap).  Training
//! is deterministic given those inputs, so two trainings with equal keys
//! produce bit-identical networks — which is what lets the model cache in
//! `vvd-estimation` substitute a cached model for a fresh training without
//! changing any downstream number.
//!
//! The digest is two independent FNV-1a-64 streams over a canonical byte
//! encoding (integers little-endian, floats by their IEEE bit patterns,
//! length-prefixed sequences).  FNV is not cryptographic; the key guards
//! against *accidental* collisions across sweep grids, not adversaries.

use crate::config::{PoolingKind, VvdConfig};
use crate::dataset::VvdDataset;
use crate::variant::VvdVariant;
use std::fmt;
use vvd_dsp::wire::{Decoder, Encoder, WireCodec, WireError};

/// A stable content digest identifying one trained model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey(u64, u64);

impl ModelKey {
    /// Digest of a training job: variant + configuration + the content of
    /// the training and validation datasets.
    pub fn for_training(
        variant: VvdVariant,
        config: &VvdConfig,
        train: &VvdDataset,
        validation: &VvdDataset,
    ) -> Self {
        let mut h = KeyHasher::new();
        h.write_u64(match variant {
            VvdVariant::Current => 0,
            VvdVariant::Future33ms => 1,
            VvdVariant::Future100ms => 2,
        });
        h.write_config(config);
        h.write_dataset(train);
        h.write_dataset(validation);
        ModelKey(h.a, h.b)
    }

    /// Lower-case hexadecimal form (32 characters), used as the on-disk
    /// cache file name.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }

    /// The two 64-bit digest halves, for binary serialization (checkpoint
    /// frames encode keys as two little-endian `u64`s).
    pub fn to_parts(&self) -> (u64, u64) {
        (self.0, self.1)
    }

    /// Rebuilds a key from its [`to_parts`](Self::to_parts) halves.
    pub fn from_parts(a: u64, b: u64) -> Self {
        ModelKey(a, b)
    }
}

impl WireCodec for ModelKey {
    fn encode(&self, enc: &mut Encoder) {
        let (a, b) = self.to_parts();
        a.encode(enc);
        b.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ModelKey::from_parts(u64::decode(dec)?, u64::decode(dec)?))
    }
}

impl fmt::Display for ModelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Two independent FNV-1a-64 streams (different offset bases) over the
/// canonical encoding.
struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
    const OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        KeyHasher {
            a: Self::OFFSET_A,
            b: Self::OFFSET_B,
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(Self::PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_f32(&mut self, v: f32) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    fn write_config(&mut self, cfg: &VvdConfig) {
        self.write_u64(cfg.conv_filters as u64);
        self.write_u64(cfg.dense_units as u64);
        self.write_u64(cfg.channel_taps as u64);
        self.write_u64(match cfg.pooling {
            PoolingKind::Average => 0,
            PoolingKind::Max => 1,
        });
        self.write_u64(u64::from(cfg.batch_norm));
        self.write_u64(cfg.epochs as u64);
        self.write_u64(cfg.batch_size as u64);
        self.write_f32(cfg.learning_rate);
        self.write_f32(cfg.lr_decay);
        self.write_u64(cfg.seed);
    }

    fn write_dataset(&mut self, dataset: &VvdDataset) {
        self.write_u64(dataset.len() as u64);
        self.write_u64(dataset.image_height() as u64);
        self.write_u64(dataset.image_width() as u64);
        self.write_u64(dataset.channel_taps() as u64);
        for sample in &dataset.samples {
            for &px in sample.image.data() {
                self.write_f32(px);
            }
            for tap in sample.target_cir.taps().iter() {
                self.write_f64(tap.re);
                self.write_f64(tap.im);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::VvdSample;
    use vvd_dsp::{Complex, FirFilter};
    use vvd_vision::DepthImage;

    fn dataset(n: usize, pixel: f32) -> VvdDataset {
        let mut ds = VvdDataset::new();
        for k in 0..n {
            ds.push(VvdSample {
                image: DepthImage::filled(4, 3, pixel + k as f32 * 0.01),
                target_cir: FirFilter::from_taps(&[
                    Complex::new(1e-3, -2e-3),
                    Complex::new(0.0, 1e-4 * k as f64),
                ]),
            });
        }
        ds
    }

    #[test]
    fn equal_inputs_produce_equal_keys() {
        let cfg = VvdConfig::quick();
        let a = ModelKey::for_training(
            VvdVariant::Current,
            &cfg,
            &dataset(3, 0.5),
            &dataset(1, 0.2),
        );
        let b = ModelKey::for_training(
            VvdVariant::Current,
            &cfg,
            &dataset(3, 0.5),
            &dataset(1, 0.2),
        );
        assert_eq!(a, b);
        assert_eq!(a.to_hex(), b.to_hex());
        assert_eq!(a.to_hex().len(), 32);
    }

    #[test]
    fn every_input_dimension_changes_the_key() {
        let cfg = VvdConfig::quick();
        let train = dataset(3, 0.5);
        let val = dataset(1, 0.2);
        let base = ModelKey::for_training(VvdVariant::Current, &cfg, &train, &val);

        // Variant.
        assert_ne!(
            base,
            ModelKey::for_training(VvdVariant::Future33ms, &cfg, &train, &val)
        );
        // Training configuration.
        let mut cfg2 = cfg;
        cfg2.seed = 1;
        assert_ne!(
            base,
            ModelKey::for_training(VvdVariant::Current, &cfg2, &train, &val)
        );
        // Training-set content (one pixel).
        let mut train2 = train.clone();
        train2.samples[0].image.set(0, 0, 0.123);
        assert_ne!(
            base,
            ModelKey::for_training(VvdVariant::Current, &cfg, &train2, &val)
        );
        // Validation-set content (it drives best-epoch selection).
        let val2 = dataset(1, 0.21);
        assert_ne!(
            base,
            ModelKey::for_training(VvdVariant::Current, &cfg, &train, &val2)
        );
    }

    #[test]
    fn parts_round_trip() {
        let key = ModelKey::for_training(
            VvdVariant::Current,
            &VvdConfig::quick(),
            &dataset(2, 0.5),
            &dataset(1, 0.2),
        );
        let (a, b) = key.to_parts();
        assert_eq!(ModelKey::from_parts(a, b), key);
    }

    #[test]
    fn swapping_train_and_validation_changes_the_key() {
        let cfg = VvdConfig::quick();
        let a = dataset(2, 0.5);
        let b = dataset(2, 0.7);
        assert_ne!(
            ModelKey::for_training(VvdVariant::Current, &cfg, &a, &b),
            ModelKey::for_training(VvdVariant::Current, &cfg, &b, &a)
        );
    }
}
