//! Scene description and ray intersections.
//!
//! The rendered scene mirrors the laboratory of the measurement campaign:
//! a floor and walls, a handful of box-shaped metallic objects (PCs,
//! robots), and a cylinder for the single mobile human.  Only depth matters,
//! so primitives carry no material information.

/// A 3-D vector / point used by the renderer (kept separate from the
/// channel crate's `Point3` to avoid a dependency cycle; the testbed
/// converts between them).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// Creates a vector.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Vector addition.
    #[allow(clippy::should_implement_trait)] // deliberate: keeps Vec3 a plain POD with explicit math helpers
    pub fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }

    /// Vector subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }

    /// Scalar multiplication.
    pub fn scale(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector (zero vector returned unchanged).
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n == 0.0 {
            self
        } else {
            self.scale(1.0 / n)
        }
    }
}

/// A ray with origin and (unit) direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin.
    pub origin: Vec3,
    /// Ray direction (assumed normalised).
    pub direction: Vec3,
}

/// An axis-aligned box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Builds a box from centre, half-extents in x/y and height (z from 0).
    pub fn from_footprint(cx: f64, cy: f64, half_extent: f64, height: f64) -> Self {
        Aabb {
            min: Vec3::new(cx - half_extent, cy - half_extent, 0.0),
            max: Vec3::new(cx + half_extent, cy + half_extent, height),
        }
    }

    /// Distance along the ray to the nearest intersection, if any (slab
    /// method).
    pub fn intersect(&self, ray: &Ray) -> Option<f64> {
        let mut t_min = 0.0f64;
        let mut t_max = f64::INFINITY;
        let origin = [ray.origin.x, ray.origin.y, ray.origin.z];
        let dir = [ray.direction.x, ray.direction.y, ray.direction.z];
        let mins = [self.min.x, self.min.y, self.min.z];
        let maxs = [self.max.x, self.max.y, self.max.z];
        for i in 0..3 {
            if dir[i].abs() < 1e-12 {
                if origin[i] < mins[i] || origin[i] > maxs[i] {
                    return None;
                }
            } else {
                let inv = 1.0 / dir[i];
                let mut t0 = (mins[i] - origin[i]) * inv;
                let mut t1 = (maxs[i] - origin[i]) * inv;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max {
                    return None;
                }
            }
        }
        if t_min > 1e-9 {
            Some(t_min)
        } else if t_max > 1e-9 {
            Some(t_max)
        } else {
            None
        }
    }
}

/// A finite vertical cylinder (axis parallel to z).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerticalCylinder {
    /// Axis x position.
    pub x: f64,
    /// Axis y position.
    pub y: f64,
    /// Radius.
    pub radius: f64,
    /// Bottom z (usually 0).
    pub z_min: f64,
    /// Top z.
    pub z_max: f64,
}

impl VerticalCylinder {
    /// Distance along the ray to the nearest intersection with the lateral
    /// surface or the top cap, if any.
    pub fn intersect(&self, ray: &Ray) -> Option<f64> {
        let mut best: Option<f64> = None;

        // Lateral surface: solve quadratic in the xy-plane.
        let ox = ray.origin.x - self.x;
        let oy = ray.origin.y - self.y;
        let dx = ray.direction.x;
        let dy = ray.direction.y;
        let a = dx * dx + dy * dy;
        if a > 1e-12 {
            let b = 2.0 * (ox * dx + oy * dy);
            let c = ox * ox + oy * oy - self.radius * self.radius;
            let disc = b * b - 4.0 * a * c;
            if disc >= 0.0 {
                let sqrt_disc = disc.sqrt();
                for &t in &[(-b - sqrt_disc) / (2.0 * a), (-b + sqrt_disc) / (2.0 * a)] {
                    if t > 1e-9 {
                        let z = ray.origin.z + t * ray.direction.z;
                        if z >= self.z_min && z <= self.z_max {
                            best = Some(best.map_or(t, |cur: f64| cur.min(t)));
                        }
                    }
                }
            }
        }

        // Top cap (a disc at z_max).
        if ray.direction.z.abs() > 1e-12 {
            let t = (self.z_max - ray.origin.z) / ray.direction.z;
            if t > 1e-9 {
                let px = ray.origin.x + t * ray.direction.x - self.x;
                let py = ray.origin.y + t * ray.direction.y - self.y;
                if px * px + py * py <= self.radius * self.radius {
                    best = Some(best.map_or(t, |cur: f64| cur.min(t)));
                }
            }
        }
        best
    }
}

/// An axis-aligned plane (floor or wall) hit from the front side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plane {
    /// Horizontal plane z = value (the floor).
    Z(f64),
    /// Vertical plane x = value.
    X(f64),
    /// Vertical plane y = value.
    Y(f64),
}

impl Plane {
    /// Distance along the ray to the plane, if hit in front of the origin.
    pub fn intersect(&self, ray: &Ray) -> Option<f64> {
        let (target, origin, dir) = match self {
            Plane::Z(v) => (*v, ray.origin.z, ray.direction.z),
            Plane::X(v) => (*v, ray.origin.x, ray.direction.x),
            Plane::Y(v) => (*v, ray.origin.y, ray.direction.y),
        };
        if dir.abs() < 1e-12 {
            return None;
        }
        let t = (target - origin) / dir;
        if t > 1e-9 {
            Some(t)
        } else {
            None
        }
    }
}

/// The complete render scene.
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    /// Background planes (floor and walls).
    pub planes: Vec<Plane>,
    /// Static box-shaped objects.
    pub boxes: Vec<Aabb>,
    /// Mobile cylinders (the human; empty when the room is empty).
    pub cylinders: Vec<VerticalCylinder>,
    /// Depth assigned to rays that hit nothing (metres).
    pub max_depth: f64,
}

impl Scene {
    /// An empty scene with only a floor plane.
    pub fn empty(max_depth: f64) -> Self {
        Scene {
            planes: vec![Plane::Z(0.0)],
            boxes: Vec::new(),
            cylinders: Vec::new(),
            max_depth,
        }
    }

    /// Nearest hit distance of a ray against every primitive, clamped to
    /// `max_depth`.
    pub fn trace(&self, ray: &Ray) -> f64 {
        let mut best = self.max_depth;
        for p in &self.planes {
            if let Some(t) = p.intersect(ray) {
                best = best.min(t);
            }
        }
        for b in &self.boxes {
            if let Some(t) = b.intersect(ray) {
                best = best.min(t);
            }
        }
        for c in &self.cylinders {
            if let Some(t) = c.intersect(ray) {
                best = best.min(t);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ray(origin: Vec3, target: Vec3) -> Ray {
        Ray {
            origin,
            direction: target.sub(origin).normalized(),
        }
    }

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(a.cross(b), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(a.dot(b), 0.0);
        assert!((a.add(b).norm() - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(Vec3::default().normalized(), Vec3::default());
    }

    #[test]
    fn plane_intersection_distance() {
        let r = ray(Vec3::new(0.0, 0.0, 2.0), Vec3::new(0.0, 0.0, 0.0));
        assert!((Plane::Z(0.0).intersect(&r).unwrap() - 2.0).abs() < 1e-12);
        // Plane behind the ray is not hit.
        let r_up = Ray {
            origin: Vec3::new(0.0, 0.0, 2.0),
            direction: Vec3::new(0.0, 0.0, 1.0),
        };
        assert!(Plane::Z(0.0).intersect(&r_up).is_none());
    }

    #[test]
    fn aabb_intersection() {
        let b = Aabb::from_footprint(5.0, 0.0, 1.0, 2.0);
        let r = ray(Vec3::new(0.0, 0.0, 1.0), Vec3::new(5.0, 0.0, 1.0));
        let t = b.intersect(&r).unwrap();
        assert!((t - 4.0).abs() < 1e-9);
        // Ray that misses.
        let r_miss = ray(Vec3::new(0.0, 0.0, 1.0), Vec3::new(5.0, 5.0, 1.0));
        assert!(b.intersect(&r_miss).is_none());
    }

    #[test]
    fn cylinder_intersection_lateral_and_miss() {
        let c = VerticalCylinder {
            x: 3.0,
            y: 0.0,
            radius: 0.5,
            z_min: 0.0,
            z_max: 1.8,
        };
        let r = ray(Vec3::new(0.0, 0.0, 1.0), Vec3::new(3.0, 0.0, 1.0));
        let t = c.intersect(&r).unwrap();
        assert!((t - 2.5).abs() < 1e-9);
        // Passing above the cylinder misses.
        let r_above = ray(Vec3::new(0.0, 0.0, 2.5), Vec3::new(6.0, 0.0, 2.5));
        assert!(c.intersect(&r_above).is_none());
        // Looking down onto the top cap hits it.
        let r_down = ray(Vec3::new(3.0, 0.0, 3.0), Vec3::new(3.0, 0.0, 0.0));
        assert!((c.intersect(&r_down).unwrap() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn scene_trace_returns_nearest_hit() {
        let mut scene = Scene::empty(20.0);
        scene.boxes.push(Aabb::from_footprint(4.0, 0.0, 0.5, 2.0));
        scene.cylinders.push(VerticalCylinder {
            x: 2.0,
            y: 0.0,
            radius: 0.25,
            z_min: 0.0,
            z_max: 1.8,
        });
        let r = ray(Vec3::new(0.0, 0.0, 1.0), Vec3::new(6.0, 0.0, 1.0));
        // Nearest is the cylinder at x=2 (t = 1.75).
        assert!((scene.trace(&r) - 1.75).abs() < 1e-9);
        // A ray into empty space returns max_depth.
        let r_empty = Ray {
            origin: Vec3::new(0.0, 0.0, 1.0),
            direction: Vec3::new(0.0, 0.0, 1.0),
        };
        assert_eq!(scene.trace(&r_empty), 20.0);
    }
}
