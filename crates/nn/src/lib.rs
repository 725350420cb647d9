//! # vvd-nn
//!
//! A small, self-contained, CPU-only neural-network library built for the
//! Veni Vidi Dixi reproduction.
//!
//! The paper trains a Keras/TensorFlow CNN (Fig. 8) that maps 50 × 90 depth
//! images to 22 real outputs (the real/imaginary parts of an 11-tap channel
//! impulse response).  The thin Rust ML ecosystem is the main reproduction
//! gate called out in the calibration bands, so instead of binding to an
//! external framework this crate implements the required pieces from
//! scratch:
//!
//! * a dense row-major [`tensor::Tensor`] with an `[N, C, H, W]` layout
//!   convention for image batches,
//! * cache-blocked GEMM and direct convolution kernels (forward, input
//!   gradient, weight gradient; no column matrix) that are bit-identical to
//!   their naive references ([`kernels`]),
//! * layers: 2-D convolution (direct kernels), average / max pooling, fully
//!   connected, ReLU, flatten, batch normalisation and dropout
//!   ([`layers`]),
//! * mean-squared-error loss ([`loss`]),
//! * SGD, Adam and Nadam optimizers (the paper uses Nadam, lr 1e-4, decay
//!   0.004) ([`optim`]),
//! * a [`model::Sequential`] container whose passes cut a batch into
//!   sample shards, one thread fan-out per pass, and a [`train::Trainer`]
//!   that keeps the weights of the best validation epoch, exactly like the
//!   paper's model-selection procedure,
//! * weight (de)serialisation via `serde` ([`serialize`]).
//!
//! The implementation favours clarity and testability over raw speed; the
//! evaluation presets in `vvd-testbed` size the network and dataset so that
//! end-to-end runs remain laptop-scale.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod param;
pub mod serialize;
mod shard;
pub mod tensor;
pub mod train;

pub use layers::{
    AvgPool2d, BatchNorm2d, Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2d, PerSample, Relu,
};
pub use loss::mse;
pub use model::Sequential;
pub use optim::{Adam, Nadam, Optimizer, Sgd};
pub use param::Parameter;
pub use tensor::Tensor;
pub use train::{TrainConfig, TrainReport, Trainer};
