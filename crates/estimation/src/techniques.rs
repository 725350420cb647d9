//! The canonical list of channel estimation techniques compared in the
//! paper (Sec. 5).
//!
//! The enum is the single source of truth for technique names and for which
//! techniques appear in which figure; the evaluation harness in
//! `vvd-testbed` iterates over these values.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A channel estimation technique from the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technique {
    /// IEEE 802.15.4 standard decoding: no estimation, no equalization.
    StandardDecoding,
    /// Perfect channel estimation from the whole received signal
    /// (impractical baseline / ground truth).
    GroundTruth,
    /// LS estimate from the synchronisation header, only when the preamble
    /// is detected.
    PreambleBased,
    /// Preamble-based estimation with an always-detected preamble (genie).
    PreambleBasedGenie,
    /// Perfect estimate of the packet received 100 ms earlier.
    Previous100ms,
    /// Perfect estimate of the packet received 500 ms earlier.
    Previous500ms,
    /// Kalman filter over an AR(1) tap model.
    KalmanAr1,
    /// Kalman filter over an AR(5) tap model.
    KalmanAr5,
    /// Kalman filter over an AR(20) tap model.
    KalmanAr20,
    /// VVD predicting the current channel from the current depth image.
    VvdCurrent,
    /// VVD predicting the channel 33.3 ms into the future.
    VvdFuture33ms,
    /// VVD predicting the channel 100 ms into the future.
    VvdFuture100ms,
    /// Preamble-based when the preamble is detected, VVD-Current otherwise.
    PreambleVvdCombined,
    /// Preamble-based when the preamble is detected, Kalman AR(20) otherwise.
    PreambleKalmanCombined,
}

impl Technique {
    /// Every technique implemented in the reproduction.
    pub const ALL: [Technique; 14] = [
        Technique::StandardDecoding,
        Technique::GroundTruth,
        Technique::PreambleBased,
        Technique::PreambleBasedGenie,
        Technique::Previous100ms,
        Technique::Previous500ms,
        Technique::KalmanAr1,
        Technique::KalmanAr5,
        Technique::KalmanAr20,
        Technique::VvdCurrent,
        Technique::VvdFuture33ms,
        Technique::VvdFuture100ms,
        Technique::PreambleVvdCombined,
        Technique::PreambleKalmanCombined,
    ];

    /// The ten techniques shown in Figures 12–14, in the paper's plotting
    /// order (worst-to-best along the x axis).
    pub const FIGURE_12_ORDER: [Technique; 10] = [
        Technique::StandardDecoding,
        Technique::PreambleBased,
        Technique::Previous500ms,
        Technique::Previous100ms,
        Technique::KalmanAr20,
        Technique::VvdCurrent,
        Technique::PreambleKalmanCombined,
        Technique::PreambleVvdCombined,
        Technique::PreambleBasedGenie,
        Technique::GroundTruth,
    ];

    /// The VVD variants compared in Fig. 11a.
    pub const VVD_VARIANTS: [Technique; 3] = [
        Technique::VvdFuture100ms,
        Technique::VvdFuture33ms,
        Technique::VvdCurrent,
    ];

    /// The Kalman variants compared in Fig. 11b.
    pub const KALMAN_VARIANTS: [Technique; 3] = [
        Technique::KalmanAr1,
        Technique::KalmanAr5,
        Technique::KalmanAr20,
    ];

    /// `true` when the technique is blind, i.e. it never looks at the
    /// received signal it is decoding (Sec. 5.5, footnote 10).
    pub fn is_blind(&self) -> bool {
        matches!(
            self,
            Technique::Previous100ms
                | Technique::Previous500ms
                | Technique::KalmanAr1
                | Technique::KalmanAr5
                | Technique::KalmanAr20
                | Technique::VvdCurrent
                | Technique::VvdFuture33ms
                | Technique::VvdFuture100ms
        )
    }

    /// `true` when the technique *cannot produce any estimate* without the
    /// preamble of the current packet being detected — a missed preamble is
    /// a lost packet.  This is only the pure preamble-based technique: the
    /// `Preamble-* Combined` techniques consume the detection outcome too,
    /// but fall back to a blind estimator instead of losing the packet (see
    /// [`Technique::consumes_preamble_detection`]), and the genie variant
    /// ignores detection by definition.
    pub fn requires_preamble_detection(&self) -> bool {
        matches!(self, Technique::PreambleBased)
    }

    /// `true` when the technique's per-packet behaviour depends on the
    /// preamble-detection outcome: the pure preamble-based technique (which
    /// loses the packet on a miss) and both `Preamble-* Combined`
    /// techniques (which switch to their fallback arm on a miss).
    pub fn consumes_preamble_detection(&self) -> bool {
        matches!(
            self,
            Technique::PreambleBased
                | Technique::PreambleVvdCombined
                | Technique::PreambleKalmanCombined
        )
    }

    /// `true` when the technique uses camera images.
    pub fn uses_camera(&self) -> bool {
        matches!(
            self,
            Technique::VvdCurrent
                | Technique::VvdFuture33ms
                | Technique::VvdFuture100ms
                | Technique::PreambleVvdCombined
        )
    }

    /// The canonical registry spec string of the technique (see
    /// `crate::registry` for the grammar).  Every spec string parses back
    /// to the technique via [`FromStr`](std::str::FromStr).
    pub fn spec_str(&self) -> &'static str {
        match self {
            Technique::StandardDecoding => "standard",
            Technique::GroundTruth => "ground-truth",
            Technique::PreambleBased => "preamble",
            Technique::PreambleBasedGenie => "preamble:genie",
            Technique::Previous100ms => "previous:100ms",
            Technique::Previous500ms => "previous:500ms",
            Technique::KalmanAr1 => "kalman:ar=1",
            Technique::KalmanAr5 => "kalman:ar=5",
            Technique::KalmanAr20 => "kalman:ar=20",
            Technique::VvdCurrent => "vvd:current",
            Technique::VvdFuture33ms => "vvd:future33ms",
            Technique::VvdFuture100ms => "vvd:future100ms",
            Technique::PreambleVvdCombined => "fallback:preamble,vvd:current",
            Technique::PreambleKalmanCombined => "fallback:preamble,kalman:ar=20",
        }
    }

    /// The short label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Technique::StandardDecoding => "Standard Decoding",
            Technique::GroundTruth => "Ground Truth",
            Technique::PreambleBased => "Preamble Based",
            Technique::PreambleBasedGenie => "Preamble Based-Genie",
            Technique::Previous100ms => "100ms Previous",
            Technique::Previous500ms => "500ms Previous",
            Technique::KalmanAr1 => "Kalman AR(1)",
            Technique::KalmanAr5 => "Kalman AR(5)",
            Technique::KalmanAr20 => "Kalman AR(20)",
            Technique::VvdCurrent => "VVD-Current",
            Technique::VvdFuture33ms => "VVD-33.3ms Future",
            Technique::VvdFuture100ms => "VVD-100ms Future",
            Technique::PreambleVvdCombined => "Preamble-VVD Combined",
            Technique::PreambleKalmanCombined => "Preamble-Kalman Combined",
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A string did not name a canonical paper technique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTechniqueError {
    input: String,
}

impl fmt::Display for ParseTechniqueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` is not a canonical technique; expected a paper label (e.g. \
             `Kalman AR(20)`) or a canonical spec string (e.g. `kalman:ar=20` \
             — arbitrary specs build through the EstimatorRegistry instead)",
            self.input
        )
    }
}

impl std::error::Error for ParseTechniqueError {}

impl std::str::FromStr for Technique {
    type Err = ParseTechniqueError;

    /// Parses a paper label ([`Technique::label`]) or a canonical spec
    /// string ([`Technique::spec_str`]); [`fmt::Display`] and
    /// [`Technique::spec_str`] both round-trip.  Spec strings that build a
    /// valid but non-canonical estimator (e.g. `kalman:ar=7`) are errors
    /// here — only the registry handles those.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        Technique::ALL
            .into_iter()
            .find(|t| s == t.label() || s == t.spec_str())
            .ok_or_else(|| ParseTechniqueError {
                input: s.to_string(),
            })
    }
}

/// The label an estimator spec's results are reported under, offline and
/// served alike: a canonical technique's paper label, and the trimmed spec
/// string for any other spec.
pub fn spec_label(spec: &str) -> String {
    spec.parse::<Technique>()
        .map_or_else(|_| spec.trim().to_string(), |t| t.label().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_techniques_are_distinct_and_labelled() {
        let labels: BTreeSet<&str> = Technique::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), Technique::ALL.len());
    }

    #[test]
    fn figure12_set_is_a_subset_of_all() {
        for t in Technique::FIGURE_12_ORDER {
            assert!(Technique::ALL.contains(&t));
        }
        assert_eq!(Technique::FIGURE_12_ORDER.len(), 10);
    }

    #[test]
    fn blind_classification_matches_the_paper() {
        assert!(Technique::VvdCurrent.is_blind());
        assert!(Technique::KalmanAr20.is_blind());
        assert!(Technique::Previous100ms.is_blind());
        assert!(!Technique::PreambleBased.is_blind());
        assert!(!Technique::GroundTruth.is_blind());
        assert!(!Technique::StandardDecoding.is_blind());
    }

    #[test]
    fn preamble_detection_classification_over_all_techniques() {
        // Table-driven: (technique, requires detection to produce any
        // estimate, consumes the detection outcome at all).
        let table = [
            (Technique::StandardDecoding, false, false),
            (Technique::GroundTruth, false, false),
            (Technique::PreambleBased, true, true),
            (Technique::PreambleBasedGenie, false, false),
            (Technique::Previous100ms, false, false),
            (Technique::Previous500ms, false, false),
            (Technique::KalmanAr1, false, false),
            (Technique::KalmanAr5, false, false),
            (Technique::KalmanAr20, false, false),
            (Technique::VvdCurrent, false, false),
            (Technique::VvdFuture33ms, false, false),
            (Technique::VvdFuture100ms, false, false),
            (Technique::PreambleVvdCombined, false, true),
            (Technique::PreambleKalmanCombined, false, true),
        ];
        assert_eq!(table.len(), Technique::ALL.len());
        for (technique, requires, consumes) in table {
            assert!(Technique::ALL.contains(&technique));
            assert_eq!(
                technique.requires_preamble_detection(),
                requires,
                "requires_preamble_detection({technique})"
            );
            assert_eq!(
                technique.consumes_preamble_detection(),
                consumes,
                "consumes_preamble_detection({technique})"
            );
            // Requiring detection implies consuming it.
            assert!(!requires || consumes);
        }
    }

    #[test]
    fn spec_strings_round_trip_for_every_technique() {
        for t in Technique::ALL {
            assert_eq!(t.spec_str().parse::<Technique>().unwrap(), t);
            assert_eq!(t.to_string().parse::<Technique>().unwrap(), t);
            assert_eq!(t.label().parse::<Technique>().unwrap(), t);
        }
        assert_eq!(
            "kalman:ar=20".parse::<Technique>().unwrap(),
            Technique::KalmanAr20
        );
        // Valid estimator specs that are not canonical techniques fail here.
        assert!("kalman:ar=7".parse::<Technique>().is_err());
        assert!("previous:1000ms".parse::<Technique>().is_err());
        assert!("gibberish".parse::<Technique>().is_err());
        // Results are labeled by paper label when canonical, else by the
        // trimmed spec.
        assert_eq!(spec_label("kalman:ar=20"), "Kalman AR(20)");
        assert_eq!(spec_label("  ground-truth \t"), "Ground Truth");
        assert_eq!(spec_label(" kalman:ar=7  "), "kalman:ar=7");
    }

    #[test]
    fn camera_usage_matches_vvd_family() {
        assert!(Technique::VvdCurrent.uses_camera());
        assert!(Technique::PreambleVvdCombined.uses_camera());
        assert!(!Technique::PreambleKalmanCombined.uses_camera());
        assert!(!Technique::GroundTruth.uses_camera());
    }

    #[test]
    fn display_uses_paper_labels() {
        assert_eq!(Technique::VvdFuture33ms.to_string(), "VVD-33.3ms Future");
        assert_eq!(
            Technique::PreambleBasedGenie.to_string(),
            "Preamble Based-Genie"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `Display` ⇄ `FromStr` and `spec_str` ⇄ `FromStr` round-trip
            /// for every technique, also with surrounding whitespace.
            #[test]
            fn parse_round_trips(
                index in 0usize..Technique::ALL.len(),
                pad_left in 0usize..3,
                pad_right in 0usize..3,
            ) {
                let t = Technique::ALL[index];
                for text in [t.spec_str().to_string(), t.to_string()] {
                    let padded =
                        format!("{}{}{}", " ".repeat(pad_left), text, " ".repeat(pad_right));
                    prop_assert_eq!(padded.parse::<Technique>().unwrap(), t);
                }
            }

            /// Arbitrary strings never panic the parser, and anything that
            /// parses must round-trip to a string it parses from.
            #[test]
            fn parser_is_total(
                bytes in proptest::collection::vec(any::<u8>(), 0..24),
            ) {
                let s = String::from_utf8_lossy(&bytes).into_owned();
                if let Ok(t) = s.parse::<Technique>() {
                    prop_assert_eq!(t.spec_str().parse::<Technique>().unwrap(), t);
                }
            }
        }
    }
}
