//! VVD prediction-horizon variants (Sec. 5.3).
//!
//! All three variants share the same architecture and training procedure;
//! they differ only in which depth frame is paired with which packet's CIR.
//! When decoding the packet transmitted at time `t`, the "current" variant
//! may use the frame synchronised with that packet, the "+33.3 ms" variant
//! only has the frame captured 33.3 ms earlier (one camera frame at 30 fps),
//! and the "+100 ms" variant the frame captured 100 ms earlier (three camera
//! frames) — i.e. the model must predict that far into the future.

use std::fmt;
use vvd_dsp::wire::{Decoder, Encoder, WireCodec, WireError};

/// Camera frame period of the 30 fps ZED capture, in milliseconds.
pub const FRAME_PERIOD_MS: f64 = 1000.0 / 30.0;

/// Prediction horizon of a VVD model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VvdVariant {
    /// Predict the channel at the time of the input frame.
    Current,
    /// Predict the channel 33.3 ms (one frame) after the input frame.
    Future33ms,
    /// Predict the channel 100 ms (three frames) after the input frame.
    Future100ms,
}

impl WireCodec for VvdVariant {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            VvdVariant::Current => 0,
            VvdVariant::Future33ms => 1,
            VvdVariant::Future100ms => 2,
        });
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8("vvd variant")? {
            0 => Ok(VvdVariant::Current),
            1 => Ok(VvdVariant::Future33ms),
            2 => Ok(VvdVariant::Future100ms),
            _ => Err(WireError::Malformed {
                context: "vvd variant tag",
            }),
        }
    }
}

impl VvdVariant {
    /// All variants, in the order of Fig. 11a.
    pub const ALL: [VvdVariant; 3] = [
        VvdVariant::Future100ms,
        VvdVariant::Future33ms,
        VvdVariant::Current,
    ];

    /// Prediction horizon in milliseconds.
    pub fn horizon_ms(&self) -> f64 {
        match self {
            VvdVariant::Current => 0.0,
            VvdVariant::Future33ms => FRAME_PERIOD_MS,
            VvdVariant::Future100ms => 100.0,
        }
    }

    /// How many camera frames older than the packet the input image is
    /// (at 30 fps).
    pub fn image_lag_frames(&self) -> usize {
        (self.horizon_ms() / FRAME_PERIOD_MS).round() as usize
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            VvdVariant::Current => "VVD-Current",
            VvdVariant::Future33ms => "VVD-33.3ms Future",
            VvdVariant::Future100ms => "VVD-100ms Future",
        }
    }
}

impl fmt::Display for VvdVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizons_match_the_paper() {
        assert_eq!(VvdVariant::Current.horizon_ms(), 0.0);
        assert!((VvdVariant::Future33ms.horizon_ms() - 33.333).abs() < 0.01);
        assert_eq!(VvdVariant::Future100ms.horizon_ms(), 100.0);
    }

    #[test]
    fn image_lag_in_frames() {
        assert_eq!(VvdVariant::Current.image_lag_frames(), 0);
        assert_eq!(VvdVariant::Future33ms.image_lag_frames(), 1);
        assert_eq!(VvdVariant::Future100ms.image_lag_frames(), 3);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            VvdVariant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
