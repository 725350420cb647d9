//! Enumeration of multipath components.
//!
//! Fig. 1 of the paper illustrates the mental model: a line-of-sight path
//! plus several reflected paths, any of which may be distorted when the
//! human stands in it.  We enumerate exactly that set for the static
//! geometry:
//!
//! * the LoS path TX → RX,
//! * one first-order specular reflection off each of the four walls
//!   (image method),
//! * one bounce off every static metallic scatterer (TX → object → RX).
//!
//! Each component carries its geometric length, a complex gain derived from
//! free-space path loss, reflection losses and the carrier-phase of the
//! travelled distance, and the propagation segments needed for blockage
//! tests.

use crate::geometry::{Point3, Segment, Wall};
use crate::room::Room;
use vvd_dsp::Complex;

/// Speed of light in m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Carrier frequency of IEEE 802.15.4 channel 26 (Hz).
pub const CARRIER_HZ: f64 = 2.48e9;

/// What kind of propagation mechanism a component represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Direct line of sight.
    LineOfSight,
    /// Single specular reflection off a wall.
    WallReflection(Wall),
    /// Single bounce off a static scatterer (index into `Room::scatterers`).
    ScattererBounce(usize),
}

/// One multipath component of the static environment.
#[derive(Debug, Clone, PartialEq)]
pub struct MultipathComponent {
    /// Propagation mechanism.
    pub kind: PathKind,
    /// Total geometric path length in metres.
    pub length_m: f64,
    /// Complex gain of the component for the unobstructed environment
    /// (free-space loss × reflection coefficient × carrier phase).
    pub gain: Complex,
    /// Straight-line segments the signal travels along (1 for LoS, 2 for a
    /// single bounce); used for blockage testing.
    pub segments: Vec<Segment>,
}

impl MultipathComponent {
    /// Excess path length relative to the LoS distance.
    pub fn excess_length(&self, los_m: f64) -> f64 {
        (self.length_m - los_m).max(0.0)
    }
}

/// Free-space amplitude gain at distance `d` for wavelength `lambda`
/// (Friis, amplitude not power): `lambda / (4π d)`.
fn free_space_amplitude(d: f64, lambda: f64) -> f64 {
    lambda / (4.0 * std::f64::consts::PI * d.max(0.1))
}

/// Complex gain of a path of total length `length_m` with an extra amplitude
/// factor (reflection/scattering losses).
fn path_gain(length_m: f64, extra_amplitude: f64, lambda: f64) -> Complex {
    let amp = free_space_amplitude(length_m, lambda) * extra_amplitude;
    let phase = -2.0 * std::f64::consts::PI * length_m / lambda;
    Complex::from_polar(amp, phase)
}

/// Enumerates the multipath components of the static environment.
pub fn enumerate_paths(room: &Room) -> Vec<MultipathComponent> {
    let lambda = SPEED_OF_LIGHT / CARRIER_HZ;
    let mut out = Vec::with_capacity(1 + 4 + room.scatterers.len());

    // Line of sight.
    let los_len = room.los_distance();
    out.push(MultipathComponent {
        kind: PathKind::LineOfSight,
        length_m: los_len,
        gain: path_gain(los_len, 1.0, lambda),
        segments: vec![Segment::new(room.tx, room.rx)],
    });

    // First-order wall reflections via the image method.
    for wall in Wall::ALL {
        let refl = wall.reflection_point(room.tx, room.rx, room.width, room.depth);
        let length = room.tx.distance(refl) + refl.distance(room.rx);
        out.push(MultipathComponent {
            kind: PathKind::WallReflection(wall),
            length_m: length,
            gain: path_gain(length, room.wall_reflectivity, lambda),
            segments: vec![Segment::new(room.tx, refl), Segment::new(refl, room.rx)],
        });
    }

    // Scatterer bounces.
    for (idx, s) in room.scatterers.iter().enumerate() {
        let length = room.tx.distance(s.position) + s.position.distance(room.rx);
        out.push(MultipathComponent {
            kind: PathKind::ScattererBounce(idx),
            length_m: length,
            gain: path_gain(length, s.reflectivity, lambda),
            segments: vec![
                Segment::new(room.tx, s.position),
                Segment::new(s.position, room.rx),
            ],
        });
    }

    out
}

/// The dynamic path scattered off the human body itself (TX → human → RX).
///
/// Unlike the static components this one moves with the human; its carrier
/// phase changes by a full cycle for every ~6 cm of path-length change,
/// which makes it essentially unpredictable from a coarse depth image.  It
/// is exactly the kind of residual that keeps VVD's estimate from matching
/// the ground truth perfectly (cf. the gap in Fig. 14).
pub fn human_scatter_path(room: &Room, x: f64, y: f64, reflectivity: f64) -> MultipathComponent {
    let lambda = SPEED_OF_LIGHT / CARRIER_HZ;
    let p = Point3::new(x, y, 1.0);
    let length = room.tx.distance(p) + p.distance(room.rx);
    MultipathComponent {
        kind: PathKind::ScattererBounce(usize::MAX),
        length_m: length,
        gain: path_gain(length, reflectivity, lambda),
        segments: vec![Segment::new(room.tx, p), Segment::new(p, room.rx)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_expected_number_of_paths() {
        let room = Room::laboratory();
        let paths = enumerate_paths(&room);
        assert_eq!(paths.len(), 1 + 4 + room.scatterers.len());
        assert!(matches!(paths[0].kind, PathKind::LineOfSight));
    }

    #[test]
    fn los_is_shortest_and_strongest() {
        let room = Room::laboratory();
        let paths = enumerate_paths(&room);
        let los = &paths[0];
        for p in &paths[1..] {
            assert!(p.length_m > los.length_m, "{:?} shorter than LoS", p.kind);
            assert!(
                p.gain.abs() < los.gain.abs(),
                "{:?} stronger than LoS",
                p.kind
            );
        }
    }

    #[test]
    fn reflected_path_lengths_are_consistent_with_segments() {
        let room = Room::laboratory();
        for p in enumerate_paths(&room) {
            let seg_len: f64 = p.segments.iter().map(|s| s.length()).sum();
            assert!(
                (seg_len - p.length_m).abs() < 1e-9,
                "{:?} segment sum {seg_len} != {}",
                p.kind,
                p.length_m
            );
        }
    }

    #[test]
    fn gains_decrease_with_length() {
        let room = Room::laboratory();
        let paths = enumerate_paths(&room);
        // Among wall reflections (same reflectivity) longer paths are weaker.
        let mut walls: Vec<&MultipathComponent> = paths
            .iter()
            .filter(|p| matches!(p.kind, PathKind::WallReflection(_)))
            .collect();
        walls.sort_by(|a, b| a.length_m.partial_cmp(&b.length_m).unwrap());
        for pair in walls.windows(2) {
            assert!(pair[0].gain.abs() >= pair[1].gain.abs());
        }
    }

    #[test]
    fn excess_length_of_los_is_zero() {
        let room = Room::laboratory();
        let paths = enumerate_paths(&room);
        let los_len = room.los_distance();
        assert_eq!(paths[0].excess_length(los_len), 0.0);
        for p in &paths[1..] {
            assert!(p.excess_length(los_len) > 0.0);
        }
    }

    #[test]
    fn human_scatter_path_moves_with_the_human() {
        let room = Room::laboratory();
        let a = human_scatter_path(&room, 3.0, 3.0, 0.3);
        let b = human_scatter_path(&room, 3.0, 4.0, 0.3);
        assert!(b.length_m > a.length_m);
        assert_ne!(a.gain, b.gain);
    }

    #[test]
    fn phase_wraps_with_small_position_changes() {
        // Moving the human-scatter point by half a wavelength changes the
        // phase substantially — the "unlearnable" residual.
        let room = Room::laboratory();
        let a = human_scatter_path(&room, 3.0, 2.0, 0.3);
        let b = human_scatter_path(&room, 3.0, 2.06, 0.3);
        let mut dphase = (a.gain.arg() - b.gain.arg()).abs();
        if dphase > std::f64::consts::PI {
            dphase = 2.0 * std::f64::consts::PI - dphase;
        }
        assert!(dphase > 0.5, "phase change too small: {dphase}");
    }
}
