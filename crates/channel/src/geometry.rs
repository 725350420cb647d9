//! 3-D geometry primitives shared by the channel simulator and (via the
//! scene description) the depth-camera simulator.

/// A point / vector in 3-D space (metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// X coordinate (along the room width).
    pub x: f64,
    /// Y coordinate (along the room depth).
    pub y: f64,
    /// Z coordinate (height above the floor).
    pub z: f64,
}

impl Point3 {
    /// Creates a point from its coordinates.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// Vector addition.
    #[allow(clippy::should_implement_trait)] // deliberate: keeps Point3 a plain POD with explicit math helpers
    pub fn add(self, other: Point3) -> Point3 {
        Point3::new(self.x + other.x, self.y + other.y, self.z + other.z)
    }

    /// Vector subtraction (`self - other`).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Point3) -> Point3 {
        Point3::new(self.x - other.x, self.y - other.y, self.z - other.z)
    }

    /// Scalar multiplication.
    pub fn scale(self, k: f64) -> Point3 {
        Point3::new(self.x * k, self.y * k, self.z * k)
    }

    /// Dot product.
    pub fn dot(self, other: Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point3) -> f64 {
        self.sub(other).norm()
    }

    /// Unit vector in the same direction; the zero vector is returned
    /// unchanged.
    pub fn normalized(self) -> Point3 {
        let n = self.norm();
        if n == 0.0 {
            self
        } else {
            self.scale(1.0 / n)
        }
    }

    /// Linear interpolation between `self` (t = 0) and `other` (t = 1).
    pub fn lerp(self, other: Point3, t: f64) -> Point3 {
        self.add(other.sub(self).scale(t))
    }
}

/// A straight propagation segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start.
    pub a: Point3,
    /// Segment end.
    pub b: Point3,
}

impl Segment {
    /// Creates a segment.
    pub fn new(a: Point3, b: Point3) -> Self {
        Segment { a, b }
    }

    /// Segment length in metres.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Minimum distance between the segment and a vertical axis (an infinite
    /// vertical line at `(x, y)`), measured in the horizontal plane.
    ///
    /// This is the primitive used for human-blockage tests: the human is a
    /// vertical cylinder, so a path is shadowed when the horizontal distance
    /// between the path segment and the cylinder axis drops below the
    /// cylinder radius (provided the crossing happens below the cylinder
    /// height, which [`horizontal_distance_to_axis`](Self::horizontal_distance_to_axis)
    /// leaves to the caller via [`Self::point_at`]).
    pub fn horizontal_distance_to_axis(&self, x: f64, y: f64) -> f64 {
        // Project to 2-D and compute point-to-segment distance.
        let (ax, ay) = (self.a.x, self.a.y);
        let (bx, by) = (self.b.x, self.b.y);
        let (dx, dy) = (bx - ax, by - ay);
        let len_sq = dx * dx + dy * dy;
        let t = if len_sq == 0.0 {
            0.0
        } else {
            (((x - ax) * dx + (y - ay) * dy) / len_sq).clamp(0.0, 1.0)
        };
        let px = ax + t * dx;
        let py = ay + t * dy;
        ((x - px) * (x - px) + (y - py) * (y - py)).sqrt()
    }

    /// Parameter `t ∈ [0,1]` of the point on the segment closest (in the
    /// horizontal plane) to the vertical axis at `(x, y)`.
    pub fn closest_t_to_axis(&self, x: f64, y: f64) -> f64 {
        let (ax, ay) = (self.a.x, self.a.y);
        let (bx, by) = (self.b.x, self.b.y);
        let (dx, dy) = (bx - ax, by - ay);
        let len_sq = dx * dx + dy * dy;
        if len_sq == 0.0 {
            0.0
        } else {
            (((x - ax) * dx + (y - ay) * dy) / len_sq).clamp(0.0, 1.0)
        }
    }

    /// The 3-D point at parameter `t ∈ [0, 1]` along the segment.
    pub fn point_at(&self, t: f64) -> Point3 {
        self.a.lerp(self.b, t)
    }
}

/// Axis-aligned vertical wall planes of a rectangular room, used by the
/// image method for first-order reflections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wall {
    /// Wall at `x = 0`.
    West,
    /// Wall at `x = width`.
    East,
    /// Wall at `y = 0`.
    South,
    /// Wall at `y = depth`.
    North,
}

impl Wall {
    /// All four walls.
    pub const ALL: [Wall; 4] = [Wall::West, Wall::East, Wall::South, Wall::North];

    /// Mirrors a point across this wall of a `width × depth` room
    /// (the image-source construction).
    pub fn mirror(&self, p: Point3, width: f64, depth: f64) -> Point3 {
        match self {
            Wall::West => Point3::new(-p.x, p.y, p.z),
            Wall::East => Point3::new(2.0 * width - p.x, p.y, p.z),
            Wall::South => Point3::new(p.x, -p.y, p.z),
            Wall::North => Point3::new(p.x, 2.0 * depth - p.y, p.z),
        }
    }

    /// The point where the straight line from `from` to the mirrored image
    /// of `to` crosses this wall — i.e. the specular reflection point.
    pub fn reflection_point(&self, from: Point3, to: Point3, width: f64, depth: f64) -> Point3 {
        let image = self.mirror(to, width, depth);
        // Parameter where the line from->image crosses the wall plane.
        let t = match self {
            Wall::West => {
                if (image.x - from.x).abs() < 1e-12 {
                    0.5
                } else {
                    (0.0 - from.x) / (image.x - from.x)
                }
            }
            Wall::East => {
                if (image.x - from.x).abs() < 1e-12 {
                    0.5
                } else {
                    (width - from.x) / (image.x - from.x)
                }
            }
            Wall::South => {
                if (image.y - from.y).abs() < 1e-12 {
                    0.5
                } else {
                    (0.0 - from.y) / (image.y - from.y)
                }
            }
            Wall::North => {
                if (image.y - from.y).abs() < 1e-12 {
                    0.5
                } else {
                    (depth - from.y) / (image.y - from.y)
                }
            }
        };
        from.lerp(image, t.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra_basics() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(-1.0, 0.5, 2.0);
        assert_eq!(a.add(b).x, 0.0);
        assert_eq!(a.sub(b).y, 1.5);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
        assert_eq!(Point3::default().normalized(), Point3::default());
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn distance_is_symmetric_and_triangle() {
        let a = Point3::new(0.0, 0.0, 1.0);
        let b = Point3::new(3.0, 4.0, 1.0);
        let c = Point3::new(1.0, 1.0, 1.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance(b), b.distance(a));
        assert!(a.distance(b) <= a.distance(c) + c.distance(b) + 1e-12);
    }

    #[test]
    fn segment_axis_distance() {
        let s = Segment::new(Point3::new(0.0, 0.0, 1.0), Point3::new(10.0, 0.0, 1.0));
        // Axis directly above the middle of the segment.
        assert!((s.horizontal_distance_to_axis(5.0, 2.0) - 2.0).abs() < 1e-12);
        // Axis beyond the endpoint is measured to the endpoint.
        assert!((s.horizontal_distance_to_axis(12.0, 0.0) - 2.0).abs() < 1e-12);
        assert!((s.closest_t_to_axis(5.0, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.closest_t_to_axis(-3.0, 0.0), 0.0);
    }

    #[test]
    fn degenerate_segment_distance() {
        let s = Segment::new(Point3::new(1.0, 1.0, 1.0), Point3::new(1.0, 1.0, 1.0));
        assert!((s.horizontal_distance_to_axis(4.0, 5.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn mirror_across_walls() {
        let p = Point3::new(2.0, 3.0, 1.5);
        assert_eq!(Wall::West.mirror(p, 8.0, 6.0), Point3::new(-2.0, 3.0, 1.5));
        assert_eq!(Wall::East.mirror(p, 8.0, 6.0), Point3::new(14.0, 3.0, 1.5));
        assert_eq!(Wall::South.mirror(p, 8.0, 6.0), Point3::new(2.0, -3.0, 1.5));
        assert_eq!(Wall::North.mirror(p, 8.0, 6.0), Point3::new(2.0, 9.0, 1.5));
    }

    #[test]
    fn image_method_path_length_equals_direct_to_image() {
        // Reflected path length == distance from source to mirrored receiver.
        let tx = Point3::new(1.0, 3.0, 1.0);
        let rx = Point3::new(7.0, 2.0, 1.0);
        let (w, d) = (8.0, 6.0);
        for wall in Wall::ALL {
            let refl = wall.reflection_point(tx, rx, w, d);
            let via = tx.distance(refl) + refl.distance(rx);
            let image = tx.distance(wall.mirror(rx, w, d));
            assert!(
                (via - image).abs() < 1e-9,
                "{wall:?}: via={via} image={image}"
            );
        }
    }

    #[test]
    fn reflection_point_lies_on_the_wall() {
        let tx = Point3::new(1.0, 3.0, 1.0);
        let rx = Point3::new(7.0, 2.0, 1.2);
        let (w, d) = (8.0, 6.0);
        let p_west = Wall::West.reflection_point(tx, rx, w, d);
        assert!(p_west.x.abs() < 1e-9);
        let p_north = Wall::North.reflection_point(tx, rx, w, d);
        assert!((p_north.y - d).abs() < 1e-9);
    }
}
