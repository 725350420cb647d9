//! Depth rendering: one ray per pixel, nearest hit distance.
//!
//! Between the frames of a measurement set only the people move, so a
//! [`StaticView`] traces the static geometry (floor, walls, boxes) once per
//! pixel of a window, and each frame then intersects just the moving
//! cylinders with the stored rays.  [`Scene::trace`] is a `min` fold from
//! `max_depth` over planes, boxes and then cylinders; the view stores the
//! fold's value after the boxes and continues it over the cylinders, so a
//! frame is bit-identical to tracing the whole scene.

use crate::camera::PinholeCamera;
use crate::image::DepthImage;
use crate::scene::{Ray, Scene, VerticalCylinder};
use std::ops::Range;

/// A camera's view of a scene's static geometry over a pixel window, traced
/// once: the ray and the nearest static hit of every window pixel.
#[derive(Debug, Clone)]
pub struct StaticView {
    width: usize,
    height: usize,
    rays: Vec<Ray>,
    depths: Vec<f64>,
}

impl StaticView {
    /// Traces `statics` — everything in it is treated as static — through
    /// the camera pixels `rows × cols` (half-open ranges, row-major).
    ///
    /// # Panics
    /// Panics when the window exceeds the camera frame.
    pub fn new(
        statics: &Scene,
        camera: &PinholeCamera,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> Self {
        assert!(
            rows.end <= camera.height && cols.end <= camera.width,
            "view window exceeds the camera frame"
        );
        let rays: Vec<Ray> = rows
            .clone()
            .flat_map(|row| cols.clone().map(move |col| camera.ray_for_pixel(row, col)))
            .collect();
        let depths = rays.iter().map(|ray| statics.trace(ray)).collect();
        StaticView {
            width: cols.len(),
            height: rows.len(),
            rays,
            depths,
        }
    }

    /// Renders the window with `cylinders` standing in the static scene:
    /// per pixel the nearest of the static hit and every cylinder hit.
    pub fn render(&self, cylinders: &[VerticalCylinder]) -> DepthImage {
        let data = self
            .rays
            .iter()
            .zip(&self.depths)
            .map(|(ray, &depth)| {
                cylinders
                    .iter()
                    .filter_map(|c| c.intersect(ray))
                    .fold(depth, f64::min) as f32
            })
            .collect();
        DepthImage::from_data(self.width, self.height, data)
    }
}

/// Renders a depth image of the scene from the camera's viewpoint.
///
/// Each pixel stores the Euclidean distance (metres) from the camera centre
/// to the nearest surface along the pixel ray, clamped to the scene's
/// `max_depth` — the same convention a stereo depth camera produces after
/// its internal disparity-to-depth conversion.  This is the full-frame
/// [`StaticView`] of the scene's planes and boxes, rendered with its
/// cylinders.
pub fn render_depth(scene: &Scene, camera: &PinholeCamera) -> DepthImage {
    let statics = Scene {
        cylinders: Vec::new(),
        ..scene.clone()
    };
    StaticView::new(&statics, camera, 0..camera.height, 0..camera.width).render(&scene.cylinders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Aabb, Plane, Vec3, VerticalCylinder};

    fn lab_scene_with_human(x: f64, y: f64) -> Scene {
        let mut scene = Scene {
            planes: vec![Plane::Z(0.0), Plane::Y(6.0), Plane::X(0.0), Plane::X(8.0)],
            boxes: vec![Aabb::from_footprint(2.0, 5.2, 0.35, 1.4)],
            cylinders: Vec::new(),
            max_depth: 12.0,
        };
        scene.cylinders.push(VerticalCylinder {
            x,
            y,
            radius: 0.25,
            z_min: 0.0,
            z_max: 1.8,
        });
        scene
    }

    fn camera() -> PinholeCamera {
        PinholeCamera::surveillance(Vec3::new(4.0, 0.3, 2.6), Vec3::new(4.0, 3.5, 1.0))
    }

    #[test]
    fn render_produces_expected_dimensions_and_finite_depths() {
        let img = render_depth(&lab_scene_with_human(4.0, 3.0), &camera());
        assert_eq!(img.width(), 108);
        assert_eq!(img.height(), 72);
        assert!(img.min() > 0.0);
        assert!(img.max() <= 12.0);
    }

    #[test]
    fn human_appears_as_closer_pixels() {
        let cam = camera();
        let empty = render_depth(&lab_scene_with_human(-50.0, -50.0), &cam);
        let with_human = render_depth(&lab_scene_with_human(4.0, 2.0), &cam);
        // Somewhere in the image the depth must be significantly smaller.
        let mut closer_pixels = 0usize;
        for r in 0..cam.height {
            for c in 0..cam.width {
                if with_human.get(r, c) + 0.3 < empty.get(r, c) {
                    closer_pixels += 1;
                }
            }
        }
        assert!(
            closer_pixels > 30,
            "human not visible: only {closer_pixels} closer pixels"
        );
    }

    #[test]
    fn moving_human_changes_the_image() {
        let cam = camera();
        let a = render_depth(&lab_scene_with_human(3.0, 2.5), &cam);
        let b = render_depth(&lab_scene_with_human(5.0, 2.5), &cam);
        assert!(a.mean_abs_diff(&b) > 0.005);
    }

    #[test]
    fn view_renders_match_tracing_the_whole_scene() {
        let cam = camera();
        let scene = lab_scene_with_human(4.2, 2.4);
        let statics = Scene {
            cylinders: Vec::new(),
            ..scene.clone()
        };
        let full = render_depth(&scene, &cam);
        let window = StaticView::new(&statics, &cam, 14..64, 9..99).render(&scene.cylinders);
        assert_eq!((window.height(), window.width()), (50, 90));
        for r in 0..cam.height {
            for c in 0..cam.width {
                let traced = scene.trace(&cam.ray_for_pixel(r, c)) as f32;
                assert_eq!(full.get(r, c).to_bits(), traced.to_bits());
                if (14..64).contains(&r) && (9..99).contains(&c) {
                    assert_eq!(window.get(r - 14, c - 9).to_bits(), traced.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "view window exceeds the camera frame")]
    fn window_outside_the_frame_panics() {
        let cam = camera();
        let _ = StaticView::new(&Scene::empty(12.0), &cam, 0..73, 0..10);
    }

    #[test]
    fn same_position_renders_identically() {
        let cam = camera();
        let a = render_depth(&lab_scene_with_human(3.3, 2.8), &cam);
        let b = render_depth(&lab_scene_with_human(3.3, 2.8), &cam);
        assert_eq!(a, b);
    }
}
