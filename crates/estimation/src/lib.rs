//! # vvd-estimation
//!
//! Wireless channel estimation, equalization and reliability metrics for the
//! Veni Vidi Dixi reproduction.
//!
//! The paper compares fourteen estimation techniques that all share one
//! decoding pipeline — least-squares FIR channel estimation (Eq. 4),
//! zero-forcing equalization (Eq. 6–7), mean-phase alignment (Eq. 8) — and
//! differ only in *where the channel estimate comes from*.  This crate
//! provides those shared pieces:
//!
//! * [`ls`] — the linear least-squares FIR estimator used for the perfect
//!   (ground-truth), preamble-based and training-set estimates,
//! * [`zf`] — zero-forcing equalizer design and application with
//!   configurable length and cursor position,
//! * [`phase`] — mean-phase-offset alignment between an externally supplied
//!   (blind) estimate and the received block,
//! * [`ar`] / [`kalman`] — Yule–Walker AR fitting and the per-tap Kalman
//!   filter used by the Kalman AR(p) baselines,
//! * [`decode`] — the one-call pipeline "estimate → align → equalize →
//!   despread → check FCS" shared by every technique,
//! * [`metrics`] — packet error rate, chip error rate and the Eq.-9 MSE,
//! * [`techniques`] — the canonical list of technique names used in the
//!   paper's figures,
//! * [`estimator`] — the first-class [`ChannelEstimator`] trait (stateful,
//!   streaming, per-packet) and the built-in estimator implementations of
//!   every paper technique, including the generic [`estimator::Fallback`]
//!   combinator,
//! * [`cache`] — the content-addressed [`ModelCache`] of trained VVD
//!   models (keyed by full training provenance, with hit/miss/eviction
//!   accounting and an optional on-disk layer) that the
//!   [`estimator::VvdModelPool`] resolves trainings through,
//! * [`registry`] — the pluggable [`EstimatorRegistry`] that builds boxed
//!   estimators from a [`Technique`] or from a spec string such as
//!   `"kalman:ar=7"` or `"fallback:preamble,vvd:current"`,
//! * [`state`] — the serializable [`EstimatorState`] tree that
//!   [`ChannelEstimator::save_state`]/[`ChannelEstimator::load_state`]
//!   move streaming estimators in and out of, which is what serve-session
//!   checkpoints persist.
//!
//! The streaming evaluation pipeline that drives boxed estimators over a
//! simulated measurement campaign lives in `vvd-testbed`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod ar;
pub mod cache;
pub mod decode;
pub mod estimator;
pub mod kalman;
pub mod ls;
pub mod metrics;
pub mod phase;
pub mod registry;
pub mod state;
pub mod techniques;
pub mod zf;

pub use ar::fit_ar_coefficients;
pub use cache::{ModelCache, ModelCacheStats};
pub use decode::{decode_with_estimate, decode_with_reference, EqualizerConfig};
pub use estimator::{
    BoxedEstimator, ChannelEstimator, Estimate, EstimateRequest, FrameSource, PacketObservation,
    TrainingContext, VvdDatasetSource, VvdInferencePlan, VvdModelPool,
};
pub use kalman::KalmanChannelEstimator;
pub use ls::{ls_estimate, perfect_estimate, preamble_estimate};
pub use metrics::{chip_error_rate, mean_squared_error, packet_error_rate};
pub use phase::align_mean_phase;
pub use registry::{EstimatorRegistry, SpecError};
pub use state::{EstimatorState, KalmanTapState, StateError, MAX_STATE_DEPTH};
pub use techniques::{spec_label, Technique};
pub use zf::ZfEqualizer;
