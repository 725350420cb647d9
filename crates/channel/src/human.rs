//! The single mobile human of the measurement campaign.
//!
//! The paper's environment is "immobile and static except a single human";
//! all channel dynamics stem from that person's movement.  The human is
//! modelled as a vertical cylinder (a standard blockage model for body
//! shadowing) whose horizontal position is the only time-varying quantity.

use crate::geometry::Point3;

/// A human blocker modelled as a vertical cylinder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Human {
    /// Horizontal x position of the cylinder axis (metres).
    pub x: f64,
    /// Horizontal y position of the cylinder axis (metres).
    pub y: f64,
    /// Cylinder radius (metres); ~0.25 m models a torso.
    pub radius: f64,
    /// Cylinder height (metres).
    pub height: f64,
    /// Maximum body-shadowing attenuation in dB applied to a fully blocked
    /// path.  Measurement literature puts human body shadowing at 2.4 GHz in
    /// the 10–25 dB range.
    pub attenuation_db: f64,
}

impl Human {
    /// A default adult-sized blocker at the given position.
    pub fn at(x: f64, y: f64) -> Self {
        Human {
            x,
            y,
            radius: 0.25,
            height: 1.8,
            attenuation_db: 22.0,
        }
    }

    /// Returns a copy moved to a new horizontal position.
    pub fn moved_to(&self, x: f64, y: f64) -> Self {
        Human { x, y, ..*self }
    }

    /// Centre of the cylinder at torso height (useful for scene rendering).
    pub fn torso_center(&self) -> Point3 {
        Point3::new(self.x, self.y, self.height / 2.0)
    }

    /// Horizontal distance from the cylinder axis to a point.
    pub fn horizontal_distance_to(&self, p: Point3) -> f64 {
        ((p.x - self.x).powi(2) + (p.y - self.y).powi(2)).sqrt()
    }

    /// Amplitude (linear, not dB) transmission factor for a ray passing at
    /// the given horizontal clearance from the cylinder axis at the given
    /// height.
    ///
    /// * clearance `<= radius` and below the cylinder top: fully shadowed,
    ///   the full `attenuation_db` applies;
    /// * clearance beyond `2 × radius`: unobstructed (factor 1);
    /// * in between: a smooth cosine roll-off models partial (knife-edge
    ///   like) shadowing.  The smoothness matters for the reproduction: it
    ///   is what creates the "edge cases at the transition to or from burst
    ///   error regions" that the paper observes for VVD (Sec. 6.4).
    pub fn transmission_factor(&self, clearance: f64, crossing_height: f64) -> f64 {
        if crossing_height > self.height {
            return 1.0;
        }
        let full_block = self.radius;
        let clear = 2.0 * self.radius;
        let min_factor = 10f64.powf(-self.attenuation_db / 20.0);
        if clearance <= full_block {
            min_factor
        } else if clearance >= clear {
            1.0
        } else {
            // Smooth cosine transition between the two regimes.
            let t = (clearance - full_block) / (clear - full_block);
            let w = 0.5 - 0.5 * (std::f64::consts::PI * t).cos();
            min_factor + (1.0 - min_factor) * w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_blocked_ray_gets_full_attenuation() {
        let h = Human::at(3.0, 3.0);
        let f = h.transmission_factor(0.0, 1.0);
        let expected = 10f64.powf(-22.0 / 20.0);
        assert!((f - expected).abs() < 1e-12);
    }

    #[test]
    fn clear_ray_is_unattenuated() {
        let h = Human::at(3.0, 3.0);
        assert_eq!(h.transmission_factor(1.0, 1.0), 1.0);
        // Passing above the head is also clear.
        assert_eq!(h.transmission_factor(0.0, 2.5), 1.0);
    }

    #[test]
    fn transition_is_monotone_and_smooth() {
        let h = Human::at(0.0, 0.0);
        let mut prev = h.transmission_factor(h.radius, 1.0);
        for i in 1..=20 {
            let clearance = h.radius + (h.radius) * i as f64 / 20.0;
            let f = h.transmission_factor(clearance, 1.0);
            assert!(
                f >= prev - 1e-12,
                "transmission must not decrease with clearance"
            );
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert!((prev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn horizontal_distance() {
        let h = Human::at(1.0, 2.0);
        assert!((h.horizontal_distance_to(Point3::new(4.0, 6.0, 1.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn moved_copy_keeps_body_parameters() {
        let h = Human::at(1.0, 1.0);
        let m = h.moved_to(2.0, 3.0);
        assert_eq!(m.radius, h.radius);
        assert_eq!(m.attenuation_db, h.attenuation_db);
        assert_eq!((m.x, m.y), (2.0, 3.0));
    }
}
