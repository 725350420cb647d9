//! Pinhole camera model.
//!
//! The RGB-D camera in the measurement campaign is a Stereolabs ZED at 720p
//! (1280 × 720 capture; the paper refers to the stored 720 × 1080 frames).
//! For the reproduction only the depth channel matters, so a simple pinhole
//! model with a configurable pose, field of view and resolution suffices.

use crate::scene::{Ray, Vec3};

/// A pinhole depth camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinholeCamera {
    /// Camera position in world coordinates (metres).
    pub position: Vec3,
    /// Point the camera looks at.
    pub target: Vec3,
    /// Horizontal field of view in degrees (the ZED's wide lens is ~90°).
    pub horizontal_fov_deg: f64,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
}

impl PinholeCamera {
    /// A surveillance-style camera matching the paper's image geometry:
    /// mounted high on one wall, looking down into the movement area,
    /// rendering at the already-downsampled 108 × 72 resolution
    /// (the paper downsamples 1080 × 720 by a factor of 10).
    pub fn surveillance(position: Vec3, target: Vec3) -> Self {
        PinholeCamera {
            position,
            target,
            horizontal_fov_deg: 90.0,
            width: 108,
            height: 72,
        }
    }

    /// Orthonormal camera basis: (right, up, forward).
    pub fn basis(&self) -> (Vec3, Vec3, Vec3) {
        let forward = self.target.sub(self.position).normalized();
        let world_up = Vec3::new(0.0, 0.0, 1.0);
        let mut right = forward.cross(world_up);
        if right.norm() < 1e-9 {
            // Looking straight up/down: pick an arbitrary right vector.
            right = Vec3::new(1.0, 0.0, 0.0);
        }
        let right = right.normalized();
        let up = right.cross(forward).normalized();
        (right, up, forward)
    }

    /// Generates the ray through pixel `(row, col)` (row 0 is the top of the
    /// image, col 0 the left edge).
    pub fn ray_for_pixel(&self, row: usize, col: usize) -> Ray {
        let (right, up, forward) = self.basis();
        let aspect = self.height as f64 / self.width as f64;
        let half_width = (self.horizontal_fov_deg.to_radians() / 2.0).tan();
        let half_height = half_width * aspect;
        // Normalised device coordinates in [-1, 1].
        let u = ((col as f64 + 0.5) / self.width as f64) * 2.0 - 1.0;
        let v = 1.0 - ((row as f64 + 0.5) / self.height as f64) * 2.0;
        let dir = forward
            .add(right.scale(u * half_width))
            .add(up.scale(v * half_height))
            .normalized();
        Ray {
            origin: self.position,
            direction: dir,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera() -> PinholeCamera {
        PinholeCamera::surveillance(Vec3::new(4.0, 0.3, 2.6), Vec3::new(4.0, 3.5, 1.0))
    }

    #[test]
    fn basis_is_orthonormal() {
        let cam = camera();
        let (r, u, f) = cam.basis();
        assert!((r.norm() - 1.0).abs() < 1e-12);
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!((f.norm() - 1.0).abs() < 1e-12);
        assert!(r.dot(u).abs() < 1e-12);
        assert!(r.dot(f).abs() < 1e-12);
        assert!(u.dot(f).abs() < 1e-12);
    }

    #[test]
    fn center_pixel_looks_at_target() {
        let cam = camera();
        let ray = cam.ray_for_pixel(cam.height / 2, cam.width / 2);
        let to_target = cam.target.sub(cam.position).normalized();
        // Not exact because of the half-pixel offset, but very close.
        assert!(ray.direction.dot(to_target) > 0.999);
    }

    #[test]
    fn left_and_right_pixels_diverge() {
        let cam = camera();
        let left = cam.ray_for_pixel(36, 0);
        let right = cam.ray_for_pixel(36, cam.width - 1);
        let (basis_right, _, _) = cam.basis();
        assert!(left.direction.dot(basis_right) < 0.0);
        assert!(right.direction.dot(basis_right) > 0.0);
    }

    #[test]
    fn top_pixels_point_higher_than_bottom_pixels() {
        let cam = camera();
        let top = cam.ray_for_pixel(0, cam.width / 2);
        let bottom = cam.ray_for_pixel(cam.height - 1, cam.width / 2);
        assert!(top.direction.z > bottom.direction.z);
    }

    #[test]
    fn degenerate_straight_down_camera_still_has_basis() {
        let cam = PinholeCamera {
            position: Vec3::new(1.0, 1.0, 3.0),
            target: Vec3::new(1.0, 1.0, 0.0),
            horizontal_fov_deg: 60.0,
            width: 16,
            height: 16,
        };
        let (r, u, f) = cam.basis();
        assert!(r.norm() > 0.9 && u.norm() > 0.9 && f.norm() > 0.9);
    }
}
