//! # vvd-core
//!
//! Veni Vidi Dixi: blind complex wireless channel estimation from depth
//! images of the communication environment — the paper's primary
//! contribution.
//!
//! The algorithm (Sec. 4 of the paper) is a convolutional neural network
//! that maps a preprocessed 50 × 90 depth image of the environment to the
//! real/imaginary parts of an 11-tap channel impulse response:
//!
//! * [`preprocess`] — the complex-to-real output packing of Fig. 6 and the
//!   training-set CIR normalisation described in Sec. 4,
//! * [`architecture`] — the Fig.-8 CNN (three 3 × 3 convolution + ReLU +
//!   2 × 2 average-pooling stages, a 256-unit dense layer and a `2 · N`-unit
//!   linear output), with switches for the max-pooling and batch-norm
//!   ablations the paper discusses,
//! * [`dataset`] — image → CIR sample pairs and tensor assembly,
//! * [`variant`] — the three prediction horizons (current, +33.3 ms,
//!   +100 ms) that differ only in which frame is paired with which packet,
//! * [`model`] — training (Nadam, MSE, best-validation-epoch selection) and
//!   inference ([`VvdModel::predict_cir`] returns a denormalised
//!   [`vvd_dsp::FirFilter`] ready for the shared ZF-equalization pipeline of
//!   `vvd-estimation`); trained weights are immutable and `Arc`-shared, and
//!   models serialise to JSON for the content-addressed model cache,
//! * [`key`] — [`ModelKey`], the stable digest of (variant, architecture,
//!   training configuration, dataset content) that content-addresses a
//!   trained model.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod architecture;
pub mod config;
pub mod dataset;
pub mod key;
pub mod model;
pub mod preprocess;
pub mod variant;

pub use architecture::build_vvd_cnn;
pub use config::{PoolingKind, VvdConfig};
pub use dataset::{VvdDataset, VvdSample};
pub use key::ModelKey;
pub use model::{VvdModel, VvdTrainingReport, MODEL_KIND};
pub use preprocess::{cir_to_targets, targets_to_cir, CirNormalizer};
pub use variant::VvdVariant;
