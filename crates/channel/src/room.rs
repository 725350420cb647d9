//! The laboratory room: static geometry of the measurement environment.
//!
//! Fig. 2 of the paper sketches the setup: a rectangular laboratory with
//! several PCs and metallic objects ("robots similar to industrial
//! environment"), a battery-powered transmitter and receiver on opposite
//! sides, an RGB-D camera overlooking the area in which a single human is
//! allowed to move.  [`Room::laboratory`] encodes a compatible default
//! geometry; everything is configurable so that tests can build degenerate
//! rooms.

use crate::geometry::Point3;

/// A static metallic scatterer (PC tower, robot arm, cabinet) that produces
/// an additional multipath component TX → scatterer → RX.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scatterer {
    /// Scatterer position (taken as the effective scattering centre).
    pub position: Point3,
    /// Amplitude reflection coefficient in `[0, 1]` applied to the bounce.
    pub reflectivity: f64,
    /// Half-extent of the object footprint (metres), used only by the
    /// depth-camera scene so that the object is visible in the image.
    pub half_extent: f64,
    /// Object height (metres), used by the depth-camera scene.
    pub height: f64,
}

/// Static description of the measurement environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Room {
    /// Room extent along x (metres).
    pub width: f64,
    /// Room extent along y (metres).
    pub depth: f64,
    /// Ceiling height (metres).
    pub height: f64,
    /// Transmitter antenna position.
    pub tx: Point3,
    /// Receiver antenna position.
    pub rx: Point3,
    /// Camera mount position (used by `vvd-vision`).
    pub camera: Point3,
    /// Point the camera looks at.
    pub camera_target: Point3,
    /// Amplitude reflection coefficient of the walls in `[0, 1]`.
    pub wall_reflectivity: f64,
    /// Static metallic scatterers.
    pub scatterers: Vec<Scatterer>,
    /// Rectangle `[x_min, x_max, y_min, y_max]` within which the human moves
    /// (the "movement area" of Fig. 2, chosen so the camera sees all of it).
    pub movement_area: [f64; 4],
}

impl Room {
    /// The default laboratory-like environment used throughout the
    /// reproduction: an 8 m × 6 m room, TX and RX 6 m apart at 1 m height,
    /// a surveillance camera high up on the south wall, four metallic
    /// scatterers along the walls and a movement area covering the space
    /// between TX and RX.
    pub fn laboratory() -> Self {
        Room {
            width: 8.0,
            depth: 6.0,
            height: 3.0,
            tx: Point3::new(1.0, 3.0, 1.0),
            rx: Point3::new(7.0, 3.0, 1.0),
            camera: Point3::new(4.0, 0.3, 2.6),
            camera_target: Point3::new(4.0, 3.5, 1.0),
            wall_reflectivity: 0.55,
            scatterers: vec![
                Scatterer {
                    position: Point3::new(2.0, 5.2, 0.8),
                    reflectivity: 0.50,
                    half_extent: 0.35,
                    height: 1.4,
                },
                Scatterer {
                    position: Point3::new(6.2, 5.0, 0.7),
                    reflectivity: 0.48,
                    half_extent: 0.3,
                    height: 1.2,
                },
                Scatterer {
                    position: Point3::new(4.2, 0.9, 0.6),
                    reflectivity: 0.42,
                    half_extent: 0.3,
                    height: 1.1,
                },
                Scatterer {
                    position: Point3::new(7.3, 1.2, 0.9),
                    reflectivity: 0.45,
                    half_extent: 0.25,
                    height: 1.5,
                },
            ],
            movement_area: [2.0, 6.0, 1.5, 4.8],
        }
    }

    /// A small office: 5 m × 4 m, TX and RX 3.4 m apart, two scatterers.
    /// The short LoS makes body shadowing events rarer but deeper (the
    /// blocker occupies a larger fraction of the first Fresnel zone).
    pub fn small_office() -> Self {
        Room {
            width: 5.0,
            depth: 4.0,
            height: 2.8,
            tx: Point3::new(0.8, 2.0, 1.0),
            rx: Point3::new(4.2, 2.0, 1.0),
            camera: Point3::new(2.5, 0.2, 2.4),
            camera_target: Point3::new(2.5, 2.4, 1.0),
            wall_reflectivity: 0.6,
            scatterers: vec![
                Scatterer {
                    position: Point3::new(1.4, 3.4, 0.7),
                    reflectivity: 0.5,
                    half_extent: 0.3,
                    height: 1.3,
                },
                Scatterer {
                    position: Point3::new(3.8, 0.8, 0.6),
                    reflectivity: 0.45,
                    half_extent: 0.25,
                    height: 1.1,
                },
            ],
            movement_area: [1.2, 3.8, 1.0, 3.2],
        }
    }

    /// A large hall: 14 m × 10 m, TX and RX 11 m apart, six scatterers.
    /// The long LoS crosses a big movement area, so several people can
    /// shadow different multipath components at once — the crowd scenarios
    /// default to this geometry.
    pub fn large_hall() -> Self {
        Room {
            width: 14.0,
            depth: 10.0,
            height: 4.5,
            tx: Point3::new(1.5, 5.0, 1.2),
            rx: Point3::new(12.5, 5.0, 1.2),
            camera: Point3::new(7.0, 0.4, 3.8),
            camera_target: Point3::new(7.0, 6.0, 1.0),
            wall_reflectivity: 0.5,
            scatterers: vec![
                Scatterer {
                    position: Point3::new(3.0, 8.8, 0.9),
                    reflectivity: 0.5,
                    half_extent: 0.4,
                    height: 1.6,
                },
                Scatterer {
                    position: Point3::new(11.0, 8.5, 0.8),
                    reflectivity: 0.48,
                    half_extent: 0.35,
                    height: 1.4,
                },
                Scatterer {
                    position: Point3::new(7.2, 1.4, 0.7),
                    reflectivity: 0.42,
                    half_extent: 0.35,
                    height: 1.2,
                },
                Scatterer {
                    position: Point3::new(12.8, 2.0, 1.0),
                    reflectivity: 0.45,
                    half_extent: 0.3,
                    height: 1.7,
                },
                Scatterer {
                    position: Point3::new(2.2, 1.6, 0.8),
                    reflectivity: 0.4,
                    half_extent: 0.3,
                    height: 1.3,
                },
                Scatterer {
                    position: Point3::new(9.5, 9.0, 0.9),
                    reflectivity: 0.44,
                    half_extent: 0.35,
                    height: 1.5,
                },
            ],
            movement_area: [2.5, 11.5, 2.2, 8.0],
        }
    }

    /// Line-of-sight distance between transmitter and receiver.
    pub fn los_distance(&self) -> f64 {
        self.tx.distance(self.rx)
    }

    /// Returns `true` when a point lies inside the room footprint.
    pub fn contains(&self, p: Point3) -> bool {
        (0.0..=self.width).contains(&p.x)
            && (0.0..=self.depth).contains(&p.y)
            && (0.0..=self.height).contains(&p.z)
    }

    /// Clamps a horizontal position into the movement area.
    pub fn clamp_to_movement_area(&self, x: f64, y: f64) -> (f64, f64) {
        let [x0, x1, y0, y1] = self.movement_area;
        (x.clamp(x0, x1), y.clamp(y0, y1))
    }

    /// Centre of the movement area.
    pub fn movement_area_center(&self) -> (f64, f64) {
        let [x0, x1, y0, y1] = self.movement_area;
        ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_self_consistent(room: &Room) {
        assert!(room.contains(room.tx));
        assert!(room.contains(room.rx));
        assert!(room.contains(room.camera));
        for s in &room.scatterers {
            assert!(room.contains(s.position), "scatterer outside room");
            assert!((0.0..=1.0).contains(&s.reflectivity));
        }
        let [x0, x1, y0, y1] = room.movement_area;
        assert!(x0 < x1 && y0 < y1);
        assert!(x1 <= room.width && y1 <= room.depth);
    }

    #[test]
    fn laboratory_is_self_consistent() {
        let room = Room::laboratory();
        assert_self_consistent(&room);
        assert!((room.los_distance() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn preset_rooms_are_self_consistent_and_ordered_by_size() {
        let small = Room::small_office();
        let lab = Room::laboratory();
        let large = Room::large_hall();
        for room in [&small, &lab, &large] {
            assert_self_consistent(room);
        }
        assert!(small.los_distance() < lab.los_distance());
        assert!(lab.los_distance() < large.los_distance());
        assert!(small.width * small.depth < large.width * large.depth);
    }

    #[test]
    fn movement_area_clamping() {
        let room = Room::laboratory();
        let (x, y) = room.clamp_to_movement_area(0.0, 10.0);
        assert_eq!(x, room.movement_area[0]);
        assert_eq!(y, room.movement_area[3]);
        let (cx, cy) = room.movement_area_center();
        let (ccx, ccy) = room.clamp_to_movement_area(cx, cy);
        assert_eq!((cx, cy), (ccx, ccy));
    }

    #[test]
    fn contains_rejects_outside_points() {
        let room = Room::laboratory();
        assert!(!room.contains(Point3::new(-0.1, 1.0, 1.0)));
        assert!(!room.contains(Point3::new(1.0, 1.0, 5.0)));
    }
}
