//! Serializable estimator state: the streaming half of an estimator's
//! lifecycle, detached from its fitted half.
//!
//! A checkpointed serve session must restore its estimator *exactly* —
//! resumed traces are pinned bit-identical to uninterrupted ones — but the
//! fitted artefacts (Kalman AR coefficients and noise covariances, VVD
//! network weights) are deterministic functions of the training data and
//! are rebuilt by re-fitting on resume, with [`crate::ModelCache`]
//! absorbing the cost of VVD retraining.  What a checkpoint must carry is
//! only the state that *streaming* accumulated:
//!
//! * observation histories ([`Previous`](crate::estimator::Previous),
//!   [`AgedPreamble`](crate::estimator::AgedPreamble)),
//! * per-tap filter state, covariance and observed history
//!   ([`Kalman`](crate::estimator::Kalman)),
//! * the training-provenance [`ModelKey`] ([`Vvd`](crate::estimator::Vvd)) — weights
//!   rehydrate through the cache, the key pins that the rehydrated model
//!   is the one the checkpoint saw,
//! * the recursive product of the above for
//!   [`Fallback`](crate::estimator::Fallback) combinators.
//!
//! [`EstimatorState`] is that state as a plain data tree;
//! [`ChannelEstimator::save_state`](crate::ChannelEstimator::save_state) /
//! [`load_state`](crate::ChannelEstimator::load_state) move estimators in
//! and out of it.  Loading validates shape (kind, dimensions, model keys)
//! and reports a typed [`StateError`] instead of panicking — checkpoints
//! cross process boundaries and may be stale or mismatched.

use std::error::Error;
use std::fmt;
use vvd_core::ModelKey;
use vvd_dsp::wire::{Decoder, Encoder, WireCodec, WireError};
use vvd_dsp::{Complex, FirFilter};

/// Most levels an [`EstimatorState`] tree may have in a frame (a leaf is
/// one level, each enclosing fallback one more).  The decoder refuses
/// deeper trees, so encoders check [`EstimatorState::check_depth`] before
/// writing one.
pub const MAX_STATE_DEPTH: usize = 16;

/// Why a state tree is refused, on encode and on decode alike.
const TOO_DEEP: &str = "estimator state nesting too deep";

/// Streaming state of one per-tap Kalman filter, exported from
/// [`KalmanTapFilter`](crate::kalman::KalmanTapFilter).
///
/// The AR model (transition matrix, noise covariances) is a fit product
/// and deliberately absent: it is rebuilt by re-fitting.  The order is
/// implied by `state.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct KalmanTapState {
    /// State estimate `[h[k], h[k-1], ..., h[k-p+1]]` (length = AR order).
    pub state: Vec<Complex>,
    /// Error covariance, row-major `order × order`.
    pub cov: Vec<Complex>,
    /// Recent observations, newest first (length ≤ AR order).
    pub history: Vec<Complex>,
}

vvd_dsp::wire_struct!(KalmanTapState {
    state,
    cov,
    history
});

/// The serializable streaming state of a
/// [`ChannelEstimator`](crate::ChannelEstimator), one variant per state
/// shape a built-in estimator can have.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorState {
    /// No streaming state ([`Standard`](crate::estimator::Standard),
    /// [`GroundTruth`](crate::estimator::GroundTruth), [`Preamble`](crate::estimator::Preamble),
    /// [`Inactive`](crate::estimator::Inactive), and an unfitted
    /// [`Kalman`](crate::estimator::Kalman)).
    Stateless,
    /// Perfect-estimate history of a [`Previous`](crate::estimator::Previous)
    /// estimator, oldest first.
    Previous {
        /// The buffered perfect CIRs (length ≤ lag).
        history: Vec<FirFilter>,
    },
    /// Preamble-estimate history of an
    /// [`AgedPreamble`](crate::estimator::AgedPreamble) estimator, oldest first
    /// (`None` entries are packets whose LS fit failed).
    AgedPreamble {
        /// The buffered preamble estimates (length ≤ lag).
        history: Vec<Option<FirFilter>>,
    },
    /// Per-tap filter states of a fitted [`Kalman`](crate::estimator::Kalman)
    /// estimator.
    Kalman {
        /// One state per channel tap.
        taps: Vec<KalmanTapState>,
    },
    /// Training provenance of a [`Vvd`](crate::estimator::Vvd) estimator's model
    /// (`None` before fit).  The weights themselves rehydrate through the
    /// shared [`ModelCache`](crate::ModelCache) on re-fit; the key pins
    /// that the rehydrated model matches the checkpointed one.
    Vvd {
        /// Content key of the fitted model.
        key: Option<ModelKey>,
    },
    /// Recursive state of a [`Fallback`](crate::estimator::Fallback) combinator.
    Fallback {
        /// State of the primary arm.
        primary: Box<EstimatorState>,
        /// State of the secondary arm.
        secondary: Box<EstimatorState>,
    },
}

impl EstimatorState {
    /// Short name of the state's shape, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            EstimatorState::Stateless => "stateless",
            EstimatorState::Previous { .. } => "previous",
            EstimatorState::AgedPreamble { .. } => "aged-preamble",
            EstimatorState::Kalman { .. } => "kalman",
            EstimatorState::Vvd { .. } => "vvd",
            EstimatorState::Fallback { .. } => "fallback",
        }
    }

    /// Levels of the tree: one for a leaf, one more per enclosing
    /// fallback.
    fn depth(&self) -> usize {
        match self {
            EstimatorState::Fallback { primary, secondary } => {
                1 + primary.depth().max(secondary.depth())
            }
            _ => 1,
        }
    }

    /// Refuses a tree deeper than [`MAX_STATE_DEPTH`] with the error its
    /// decoder would return, so no frame is written that cannot be read.
    ///
    /// # Errors
    /// [`WireError::Malformed`] for a tree that is too deep.
    pub fn check_depth(&self) -> Result<(), WireError> {
        if self.depth() > MAX_STATE_DEPTH {
            return Err(WireError::Malformed { context: TOO_DEEP });
        }
        Ok(())
    }
}

impl WireCodec for EstimatorState {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            EstimatorState::Stateless => enc.put_u8(0),
            EstimatorState::Previous { history } => {
                enc.put_u8(1);
                history.encode(enc);
            }
            EstimatorState::AgedPreamble { history } => {
                enc.put_u8(2);
                history.encode(enc);
            }
            EstimatorState::Kalman { taps } => {
                enc.put_u8(3);
                taps.encode(enc);
            }
            EstimatorState::Vvd { key } => {
                enc.put_u8(4);
                key.encode(enc);
            }
            EstimatorState::Fallback { primary, secondary } => {
                enc.put_u8(5);
                primary.encode(enc);
                secondary.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        decode_state(dec, 1)
    }
}

/// Decodes a state tree whose root sits at level `depth`, refusing any
/// level past [`MAX_STATE_DEPTH`] before reading it.
fn decode_state(dec: &mut Decoder<'_>, depth: usize) -> Result<EstimatorState, WireError> {
    if depth > MAX_STATE_DEPTH {
        return Err(WireError::Malformed { context: TOO_DEEP });
    }
    Ok(match dec.take_u8("estimator state tag")? {
        0 => EstimatorState::Stateless,
        1 => EstimatorState::Previous {
            history: Vec::decode(dec)?,
        },
        2 => EstimatorState::AgedPreamble {
            history: Vec::decode(dec)?,
        },
        3 => EstimatorState::Kalman {
            taps: Vec::decode(dec)?,
        },
        4 => EstimatorState::Vvd {
            key: Option::decode(dec)?,
        },
        5 => EstimatorState::Fallback {
            primary: Box::new(decode_state(dec, depth + 1)?),
            secondary: Box::new(decode_state(dec, depth + 1)?),
        },
        _ => {
            return Err(WireError::Malformed {
                context: "estimator state tag",
            })
        }
    })
}

/// Why an estimator rejected a state in
/// [`load_state`](crate::ChannelEstimator::load_state).
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// The state's shape does not match the estimator.
    Kind {
        /// Shape the estimator expected.
        expected: &'static str,
        /// Shape the state actually had.
        found: &'static str,
    },
    /// The state describes a fitted estimator but this instance has not
    /// been fitted (`load_state` is only valid after `fit`).
    Unfitted {
        /// The estimator that is missing its fit.
        estimator: &'static str,
    },
    /// A dimension of the state disagrees with the fitted estimator.
    Dimension {
        /// What disagreed.
        context: String,
    },
    /// The checkpointed model key does not match the re-fitted model —
    /// the resumed workload trained a *different* model, so replay would
    /// not reproduce the checkpointed trajectory.
    ModelKey {
        /// Key the checkpoint recorded.
        expected: String,
        /// Key the re-fitted model has.
        found: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Kind { expected, found } => {
                write!(
                    f,
                    "estimator state kind mismatch: expected {expected}, found {found}"
                )
            }
            StateError::Unfitted { estimator } => {
                write!(
                    f,
                    "{estimator} estimator must be fitted before loading state"
                )
            }
            StateError::Dimension { context } => {
                write!(f, "estimator state dimension mismatch: {context}")
            }
            StateError::ModelKey { expected, found } => {
                write!(
                    f,
                    "VVD model key mismatch: checkpoint recorded {expected}, re-fit produced {found}"
                )
            }
        }
    }
}

impl Error for StateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_distinct() {
        let states = [
            EstimatorState::Stateless,
            EstimatorState::Previous {
                history: Vec::new(),
            },
            EstimatorState::AgedPreamble {
                history: Vec::new(),
            },
            EstimatorState::Kalman { taps: Vec::new() },
            EstimatorState::Vvd { key: None },
            EstimatorState::Fallback {
                primary: Box::new(EstimatorState::Stateless),
                secondary: Box::new(EstimatorState::Stateless),
            },
        ];
        let mut kinds: Vec<&str> = states.iter().map(|s| s.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), states.len());
    }

    #[test]
    fn errors_render_their_context() {
        let e = StateError::Kind {
            expected: "kalman",
            found: "previous",
        };
        assert!(e.to_string().contains("kalman"));
        assert!(e.to_string().contains("previous"));
        let d = StateError::Dimension {
            context: "7 taps vs 3".into(),
        };
        assert!(d.to_string().contains("7 taps vs 3"));
    }
}
