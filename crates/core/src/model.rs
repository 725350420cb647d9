//! VVD model: training and inference.
//!
//! Ties together the Fig.-8 architecture, the Fig.-6 output packing, the
//! Sec.-4 normalisation and the Nadam training loop with best-validation-
//! epoch selection, and exposes a [`VvdModel::predict_cir`] that returns a
//! denormalised [`FirFilter`] ready for the shared equalization pipeline.

use crate::architecture::{build_vvd_cnn, parameter_layout};
use crate::config::VvdConfig;
use crate::dataset::VvdDataset;
use crate::key::ModelKey;
use crate::preprocess::CirNormalizer;
use crate::variant::VvdVariant;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vvd_dsp::wire::{split_frame, write_frame, Decoder, Encoder, WireCodec, WireError};
use vvd_dsp::FirFilter;
use vvd_nn::serialize::ModelCheckpoint;
use vvd_nn::{Nadam, Sequential, Tensor, TrainConfig, Trainer};
use vvd_vision::DepthImage;

/// Frame kind of a model file, outside the cluster message kinds 1–9 and
/// the checkpoint kind `0x0100`: a model frame handed to another decoder,
/// or another frame handed to [`VvdModel::from_frame`], fails with
/// [`WireError::UnknownKind`].
pub const MODEL_KIND: u16 = 0x0200;

/// Images per inference chunk of [`VvdModel::predict_batch`]: each chunk is
/// one sharded network pass, so the chunk bounds the activation buffers
/// that pass allocates (about 0.22 MiB per image with the quick preset's
/// 8 filters).
const PREDICT_CHUNK: usize = 32;

/// Summary of a VVD training run.
#[derive(Debug, Clone, PartialEq)]
pub struct VvdTrainingReport {
    /// Variant the model was trained for.
    pub variant: VvdVariant,
    /// Training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Validation loss per epoch.
    pub val_loss: Vec<f32>,
    /// Epoch whose weights were kept.
    pub best_epoch: usize,
    /// Validation MSE (normalised units) of the kept epoch.
    pub best_val_loss: f32,
}

/// The immutable state of a trained model, shared between clones.
#[cfg_attr(test, derive(Clone))]
struct ModelState {
    network: Sequential,
    normalizer: CirNormalizer,
    config: VvdConfig,
    variant: VvdVariant,
    image_height: usize,
    image_width: usize,
    key: ModelKey,
}

/// A trained VVD model.
///
/// The trained weights are immutable and shared behind an [`Arc`]:
/// cloning a model is a reference-count bump, every clone predicts
/// identically, and prediction takes `&self` (the network's inference path
/// writes no caches), so one training can serve any number of estimators —
/// including estimators running concurrently on worker threads — without
/// duplicating the network.
#[derive(Clone)]
pub struct VvdModel {
    state: Arc<ModelState>,
}

/// Serialised form of a trained model: everything needed to rebuild it and
/// predict bit-identically (architecture + weights + buffers + the
/// training-set normaliser).
struct SavedVvdModel {
    variant: VvdVariant,
    config: VvdConfig,
    normalizer: CirNormalizer,
    image_height: usize,
    image_width: usize,
    key: ModelKey,
    checkpoint: ModelCheckpoint,
}

vvd_dsp::wire_struct!(SavedVvdModel {
    variant,
    config,
    normalizer,
    image_height,
    image_width,
    key,
    checkpoint
});

impl VvdModel {
    /// Trains a VVD model of the given variant on the training dataset,
    /// using the validation dataset for model selection (Sec. 4).
    ///
    /// # Panics
    /// Panics on an empty training set or inconsistent image dimensions.
    pub fn train(
        variant: VvdVariant,
        config: &VvdConfig,
        train: &VvdDataset,
        validation: &VvdDataset,
    ) -> (Self, VvdTrainingReport) {
        assert!(!train.is_empty(), "VVD training set is empty");
        let h = train.image_height();
        let w = train.image_width();
        assert_eq!(
            train.channel_taps(),
            config.channel_taps,
            "dataset tap count does not match the configuration"
        );

        // The training-provenance digest is the model's identity: batched
        // serving layers group same-key models into one forward pass, and
        // the model cache files models under it on disk.
        let key = ModelKey::for_training(variant, config, train, validation);

        let normalizer = train.normalizer();
        let train_x = train.input_tensor();
        let train_y = train.target_tensor(&normalizer);
        let (val_x, val_y) = if validation.is_empty() {
            (
                Tensor::zeros(&[0, 1, h, w]),
                Tensor::zeros(&[0, config.output_units()]),
            )
        } else {
            (
                validation.input_tensor(),
                validation.target_tensor(&normalizer),
            )
        };

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut network = build_vvd_cnn(h, w, config, &mut rng);
        let mut optimizer = Nadam::new(config.learning_rate, config.lr_decay);
        let trainer = Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            shuffle_seed: config.seed,
            keep_best_validation_epoch: true,
        });
        let report = trainer.fit(
            &mut network,
            &mut optimizer,
            &train_x,
            &train_y,
            &val_x,
            &val_y,
        );

        let model = VvdModel {
            state: Arc::new(ModelState {
                network,
                normalizer,
                config: *config,
                variant,
                image_height: h,
                image_width: w,
                key,
            }),
        };
        let report = VvdTrainingReport {
            variant,
            train_loss: report.train_loss,
            val_loss: report.val_loss,
            best_epoch: report.best_epoch,
            best_val_loss: report.best_val_loss,
        };
        (model, report)
    }

    /// The prediction-horizon variant this model was trained for.
    pub fn variant(&self) -> VvdVariant {
        self.state.variant
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &VvdConfig {
        &self.state.config
    }

    /// The CIR normalisation factor learned from the training set.
    pub fn normalizer(&self) -> &CirNormalizer {
        &self.state.normalizer
    }

    /// The content digest of this model's training provenance (variant,
    /// configuration incl. seed, training + validation dataset content).
    ///
    /// Two models with equal keys predict bit-identically (training is
    /// deterministic in its provenance), which is what lets serving layers
    /// coalesce prediction requests from *different* estimator instances
    /// into one batched forward pass keyed by this value.
    pub fn key(&self) -> ModelKey {
        self.state.key
    }

    /// Predicts the complex channel impulse response for one preprocessed
    /// depth image.
    ///
    /// # Panics
    /// Panics if the image dimensions differ from the training images.
    pub fn predict_cir(&self, image: &DepthImage) -> FirFilter {
        let s = &*self.state;
        assert_eq!(
            (image.height(), image.width()),
            (s.image_height, s.image_width),
            "image dimensions do not match the trained model"
        );
        let x = Tensor::from_vec(
            &[1, 1, s.image_height, s.image_width],
            image.data().to_vec(),
        );
        let y = s.network.infer(&x);
        s.normalizer.denormalize(y.item(0))
    }

    /// Predicts CIRs for a batch of images, chunking them into batched
    /// network passes (each chunk's samples split over the worker shards of
    /// one pass).  Bit-identical to calling [`VvdModel::predict_cir`] per
    /// image.
    ///
    /// # Panics
    /// Panics if any image's dimensions differ from the training images.
    pub fn predict_batch<'a, I>(&self, images: I) -> Vec<FirFilter>
    where
        I: IntoIterator<Item = &'a DepthImage>,
    {
        let s = &*self.state;
        let images: Vec<&DepthImage> = images.into_iter().collect();
        let mut out = Vec::with_capacity(images.len());
        for chunk in images.chunks(PREDICT_CHUNK) {
            let mut data = Vec::with_capacity(chunk.len() * s.image_height * s.image_width);
            for image in chunk {
                assert_eq!(
                    (image.height(), image.width()),
                    (s.image_height, s.image_width),
                    "image dimensions do not match the trained model"
                );
                data.extend_from_slice(image.data());
            }
            let x = Tensor::from_vec(&[chunk.len(), 1, s.image_height, s.image_width], data);
            let y = s.network.infer(&x);
            for i in 0..chunk.len() {
                out.push(s.normalizer.denormalize(y.item(i)));
            }
        }
        out
    }

    /// Predicts CIRs for a whole dataset (used by the evaluation harness and
    /// the MSE metric), in batched network passes.
    pub fn predict_dataset(&self, dataset: &VvdDataset) -> Vec<FirFilter> {
        self.predict_batch(dataset.samples.iter().map(|s| &s.image))
    }

    /// Serialises the trained model (architecture tag, weights and buffers
    /// as raw `f32` bits, normaliser, key) as one wire frame of kind
    /// [`MODEL_KIND`] — the on-disk format of the model cache.
    ///
    /// # Errors
    /// [`WireError::FrameTooLarge`] when the weights exceed the frame cap.
    pub fn to_frame(&self) -> Result<Vec<u8>, WireError> {
        let s = &*self.state;
        let tag = architecture_tag(s.variant, &s.config, s.image_height, s.image_width);
        let mut network = s.network.clone();
        let checkpoint = ModelCheckpoint::capture(&tag, &mut network);
        let saved = SavedVvdModel {
            variant: s.variant,
            config: s.config,
            normalizer: s.normalizer,
            image_height: s.image_height,
            image_width: s.image_width,
            key: s.key,
            checkpoint,
        };
        let mut payload = Encoder::new();
        saved.encode(&mut payload);
        let mut frame = Vec::new();
        write_frame(&mut frame, MODEL_KIND, &payload.into_bytes())?;
        Ok(frame)
    }

    /// Restores a model saved with [`VvdModel::to_frame`]; the loaded
    /// model predicts bit-identically to the one that was saved.
    ///
    /// Decoding is total.  The architecture tag and the length of every
    /// parameter and buffer are checked against what the decoded image
    /// size and configuration imply before the network is built, so a
    /// corrupt field can neither panic nor make the build allocate beyond
    /// the weights the frame holds.
    ///
    /// # Errors
    /// A typed [`WireError`]: any frame or field error, a frame of another
    /// kind, and [`WireError::Malformed`] for a model whose weights do not
    /// fit the architecture it declares.
    pub fn from_frame(bytes: &[u8]) -> Result<Self, WireError> {
        let (kind, payload) = split_frame(bytes)?;
        if kind != MODEL_KIND {
            return Err(WireError::UnknownKind { found: kind });
        }
        let mut dec = Decoder::new(payload);
        let saved = SavedVvdModel::decode(&mut dec)?;
        dec.finish()?;

        let (h, w, config) = (saved.image_height, saved.image_width, saved.config);
        let tag = architecture_tag(saved.variant, &config, h, w);
        if saved.checkpoint.architecture != tag {
            return Err(WireError::Malformed {
                context: "model architecture tag",
            });
        }
        let lengths = |values: &[Vec<f32>]| values.iter().map(Vec::len).collect::<Vec<_>>();
        let layout = parameter_layout(h, w, &config);
        let found = (
            lengths(&saved.checkpoint.parameters),
            lengths(&saved.checkpoint.buffers),
        );
        if layout.as_ref() != Some(&found) {
            return Err(WireError::Malformed {
                context: "model weights do not fit the declared architecture",
            });
        }

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut network = build_vvd_cnn(h, w, &config, &mut rng);
        saved
            .checkpoint
            .restore(&tag, &mut network)
            .map_err(|_| WireError::Malformed {
                context: "model weights do not fit the built network",
            })?;
        Ok(VvdModel {
            state: Arc::new(ModelState {
                network,
                normalizer: saved.normalizer,
                config,
                variant: saved.variant,
                image_height: h,
                image_width: w,
                key: saved.key,
            }),
        })
    }
}

/// The architecture tag stored in (and checked against) model checkpoints.
fn architecture_tag(variant: VvdVariant, config: &VvdConfig, h: usize, w: usize) -> String {
    format!(
        "vvd-cnn:{:?}:{}x{}:f{}:d{}:t{}:{:?}:bn{}",
        variant,
        h,
        w,
        config.conv_filters,
        config.dense_units,
        config.channel_taps,
        config.pooling,
        config.batch_norm
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::VvdSample;
    use vvd_dsp::Complex;

    /// Builds a synthetic dataset in which the CIR is a simple deterministic
    /// function of a "blob" position encoded in the image — a miniature
    /// version of the real learning problem.
    fn synthetic_dataset(n: usize, offset: usize) -> VvdDataset {
        let mut ds = VvdDataset::new();
        let (h, w) = (26, 30);
        for k in 0..n {
            let pos = (k * 7 + offset) % (w - 6);
            let mut img = DepthImage::filled(w, h, 0.8);
            for r in 8..16 {
                for c in pos..pos + 6 {
                    img.set(r, c, 0.2);
                }
            }
            // CIR: main tap amplitude decreases as the blob approaches the
            // centre (mimicking LoS blockage), phase rotates with position.
            let centre_dist = (pos as f64 + 3.0 - w as f64 / 2.0).abs() / (w as f64 / 2.0);
            let amp = 2e-3 * (0.3 + 0.7 * centre_dist);
            let phase = 0.5 + centre_dist;
            let mut taps = vec![Complex::ZERO; 11];
            taps[5] = Complex::from_polar(amp, phase);
            taps[6] = Complex::from_polar(amp * 0.4, phase - 0.8);
            ds.push(VvdSample {
                image: img,
                target_cir: FirFilter::from_taps(&taps),
            });
        }
        ds
    }

    fn tiny_config() -> VvdConfig {
        let mut cfg = VvdConfig::quick();
        cfg.conv_filters = 4;
        cfg.dense_units = 32;
        cfg.epochs = 80;
        cfg.batch_size = 8;
        cfg.learning_rate = 4e-3;
        cfg
    }

    #[test]
    fn training_learns_image_to_cir_mapping() {
        let train = synthetic_dataset(60, 0);
        let val = synthetic_dataset(12, 3);
        let (model, report) = VvdModel::train(VvdVariant::Current, &tiny_config(), &train, &val);
        assert!(
            report.best_val_loss < report.val_loss[0],
            "validation loss should improve: {} -> {}",
            report.val_loss[0],
            report.best_val_loss
        );

        // Predictions on validation images should be closer to the target
        // than a naive "mean CIR" predictor.
        let predictions = model.predict_dataset(&val);
        let mean_cir = {
            let mut acc = vvd_dsp::CVec::zeros(11);
            for s in &train.samples {
                acc = acc.add(s.target_cir.taps());
            }
            FirFilter::new(acc.scale(1.0 / train.len() as f64))
        };
        let mut pred_err = 0.0;
        let mut mean_err = 0.0;
        for (p, s) in predictions.iter().zip(val.samples.iter()) {
            pred_err += p.taps().squared_error(s.target_cir.taps());
            mean_err += mean_cir.taps().squared_error(s.target_cir.taps());
        }
        assert!(
            pred_err < mean_err,
            "VVD ({pred_err:.3e}) should beat the mean predictor ({mean_err:.3e})"
        );
    }

    #[test]
    fn prediction_has_configured_tap_count_and_scale() {
        let train = synthetic_dataset(30, 1);
        let (model, _) = VvdModel::train(
            VvdVariant::Future33ms,
            &tiny_config(),
            &train,
            &VvdDataset::new(),
        );
        assert_eq!(model.variant(), VvdVariant::Future33ms);
        let cir = model.predict_cir(&train.samples[0].image);
        assert_eq!(cir.len(), 11);
        // Denormalised output is on the physical scale of the targets
        // (~1e-3), not on the normalised scale (~1).
        assert!(cir.taps().max_abs() < 0.1);
    }

    #[test]
    #[should_panic]
    fn empty_training_set_panics() {
        let _ = VvdModel::train(
            VvdVariant::Current,
            &tiny_config(),
            &VvdDataset::new(),
            &VvdDataset::new(),
        );
    }

    #[test]
    #[should_panic]
    fn wrong_image_size_at_inference_panics() {
        let train = synthetic_dataset(20, 0);
        let (model, _) = VvdModel::train(
            VvdVariant::Current,
            &tiny_config(),
            &train,
            &VvdDataset::new(),
        );
        let wrong = DepthImage::filled(10, 10, 0.5);
        let _ = model.predict_cir(&wrong);
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_image() {
        let train = synthetic_dataset(40, 2);
        let (model, _) = VvdModel::train(
            VvdVariant::Current,
            &tiny_config(),
            &train,
            &VvdDataset::new(),
        );
        let batched = model.predict_dataset(&train);
        for (p, s) in batched.iter().zip(train.samples.iter()) {
            let single = model.predict_cir(&s.image);
            assert_eq!(p.taps(), single.taps(), "batched != per-image");
        }
    }

    #[test]
    fn clones_share_weights_and_predict_identically() {
        let train = synthetic_dataset(25, 4);
        let (model, _) = VvdModel::train(
            VvdVariant::Current,
            &tiny_config(),
            &train,
            &VvdDataset::new(),
        );
        let clone = model.clone();
        // Cloning is a reference-count bump, not a deep copy.
        assert!(Arc::ptr_eq(&model.state, &clone.state));
        let a = model.predict_cir(&train.samples[0].image);
        let b = clone.predict_cir(&train.samples[0].image);
        assert_eq!(a.taps(), b.taps());
    }

    #[test]
    fn model_key_matches_its_training_provenance() {
        let cfg = tiny_config();
        let train = synthetic_dataset(20, 0);
        let val = synthetic_dataset(5, 2);
        let (model, _) = VvdModel::train(VvdVariant::Current, &cfg, &train, &val);
        assert_eq!(
            model.key(),
            ModelKey::for_training(VvdVariant::Current, &cfg, &train, &val)
        );
        // The key survives serialisation (the cache and serving layers key
        // disk files and batch plans by it).
        let restored = VvdModel::from_frame(&model.to_frame().unwrap()).unwrap();
        assert_eq!(restored.key(), model.key());
        // A different provenance yields a different key.
        let (other, _) = VvdModel::train(VvdVariant::Future33ms, &cfg, &train, &val);
        assert_ne!(other.key(), model.key());
    }

    #[test]
    fn json_roundtrip_predicts_bit_identically() {
        let train = synthetic_dataset(30, 5);
        let val = synthetic_dataset(8, 1);
        let (model, _) = VvdModel::train(VvdVariant::Future100ms, &tiny_config(), &train, &val);
        let frame = model.to_frame().unwrap();
        let restored = VvdModel::from_frame(&frame).expect("roundtrip load");
        assert_eq!(restored.variant(), model.variant());
        assert_eq!(restored.normalizer().factor, model.normalizer().factor);
        for s in &train.samples {
            assert_eq!(
                restored.predict_cir(&s.image).taps(),
                model.predict_cir(&s.image).taps(),
                "restored model must predict bit-identically"
            );
        }
        assert!(VvdModel::from_frame(b"not json").is_err());
    }

    #[test]
    fn non_finite_weights_and_normalizer_round_trip_bit_for_bit() {
        let train = synthetic_dataset(12, 0);
        let (model, _) = VvdModel::train(
            VvdVariant::Current,
            &tiny_config(),
            &train,
            &VvdDataset::new(),
        );
        let specials = [
            f32::from_bits(0x7fc0_1234), // NaN with a payload
            f32::from_bits(0xffc0_0001), // negative NaN with a payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1), // the smallest subnormal
        ];
        let mut state = (*model.state).clone();
        let mut parameters = state.network.state();
        parameters[0][..specials.len()].copy_from_slice(&specials);
        let last = parameters.len() - 1;
        parameters[last][..specials.len()].copy_from_slice(&specials);
        state.network.load_state(&parameters);
        state.normalizer.factor = f64::from_bits(0x7ff8_dead_beef_0001);
        let poisoned = VvdModel {
            state: Arc::new(state),
        };

        let frame = poisoned.to_frame().unwrap();
        let restored = VvdModel::from_frame(&frame).expect("non-finite weights load");
        let bits = |m: &VvdModel| -> Vec<Vec<u32>> {
            let mut network = m.state.network.clone();
            network
                .state()
                .iter()
                .map(|p| p.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&restored), bits(&poisoned));
        assert_eq!(
            restored.normalizer().factor.to_bits(),
            0x7ff8_dead_beef_0001
        );
        assert_eq!(restored.to_frame().unwrap(), frame);
    }
}
