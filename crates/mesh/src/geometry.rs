//! Minimal 3-D vector/point geometry used by the mesh substrate.
//!
//! The scheduling algorithms themselves never touch geometry; it exists so
//! that sweep directions can induce dependence digraphs through face normals,
//! exactly as in the paper's Figure 1.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A point or vector in 3-space. 2-D meshes embed in the `z = 0` plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
    /// z component.
    pub z: f64,
}

/// Alias used when a [`Vec3`] denotes a position rather than a direction.
pub type Point3 = Vec3;

impl Vec3 {
    /// The zero vector / origin.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Constructs a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (avoids the `sqrt` when comparing lengths).
    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    /// Returns the unit vector in the same direction.
    ///
    /// # Panics
    /// Panics in debug builds if the vector is (near) zero.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 1e-300, "normalizing a zero vector");
        self / n
    }

    /// Euclidean distance between two points.
    #[inline]
    pub fn distance(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// Area-weighted normal of the triangle `(a, b, c)`; its norm is twice the
/// triangle area and its direction follows the right-hand rule on `a→b→c`.
#[inline]
pub fn triangle_area_normal(a: Point3, b: Point3, c: Point3) -> Vec3 {
    (b - a).cross(c - a)
}

/// Area of the triangle `(a, b, c)`.
#[inline]
pub fn triangle_area(a: Point3, b: Point3, c: Point3) -> f64 {
    0.5 * triangle_area_normal(a, b, c).norm()
}

/// Centroid of a triangle.
#[inline]
pub fn triangle_centroid(a: Point3, b: Point3, c: Point3) -> Point3 {
    (a + b + c) / 3.0
}

/// Signed volume of the tetrahedron `(a, b, c, d)` (positive when `d` lies on
/// the positive side of the oriented triangle `a→b→c`).
#[inline]
pub fn tet_signed_volume(a: Point3, b: Point3, c: Point3, d: Point3) -> f64 {
    (b - a).cross(c - a).dot(d - a) / 6.0
}

/// Centroid of a tetrahedron.
#[inline]
pub fn tet_centroid(a: Point3, b: Point3, c: Point3, d: Point3) -> Point3 {
    (a + b + c + d) / 4.0
}

/// Diagonal length of the axis-aligned bounding box of `vertices` (0 when
/// there are none): the length scale of the importers' tolerances.
pub(crate) fn bbox_diag(vertices: &[Point3]) -> f64 {
    if vertices.is_empty() {
        return 0.0;
    }
    let mut lo = Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut hi = Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
    for v in vertices {
        lo = Point3::new(lo.x.min(v.x), lo.y.min(v.y), lo.z.min(v.z));
        hi = Point3::new(hi.x.max(v.x), hi.y.max(v.y), hi.z.max(v.z));
    }
    (hi - lo).norm()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn dot_and_cross_are_consistent() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        // cross product is orthogonal to both operands
        let c = a.cross(b);
        assert!(c.dot(a).abs() < EPS);
        assert!(c.dot(b).abs() < EPS);
        // Lagrange identity: |a x b|^2 = |a|^2 |b|^2 - (a.b)^2
        let lhs = c.norm2();
        let rhs = a.norm2() * b.norm2() - a.dot(b).powi(2);
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let v = Vec3::new(3.0, -4.0, 12.0).normalized();
        assert!((v.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(0.5, 0.5, 0.5);
        assert_eq!(a + b, Vec3::new(1.5, 2.5, 3.5));
        assert_eq!(a - b, Vec3::new(0.5, 1.5, 2.5));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn unit_triangle_area() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(0.0, 1.0, 0.0);
        assert!((triangle_area(a, b, c) - 0.5).abs() < EPS);
        let n = triangle_area_normal(a, b, c);
        // right-hand rule: +z
        assert!(n.z > 0.0 && n.x.abs() < EPS && n.y.abs() < EPS);
    }

    #[test]
    fn unit_tet_volume_and_sign() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(1.0, 0.0, 0.0);
        let c = Point3::new(0.0, 1.0, 0.0);
        let d = Point3::new(0.0, 0.0, 1.0);
        let v = tet_signed_volume(a, b, c, d);
        assert!((v - 1.0 / 6.0).abs() < EPS);
        // swapping two vertices flips the sign
        assert!((tet_signed_volume(b, a, c, d) + 1.0 / 6.0).abs() < EPS);
    }

    #[test]
    fn tet_centroid_is_mean() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(4.0, 0.0, 0.0);
        let c = Point3::new(0.0, 4.0, 0.0);
        let d = Point3::new(0.0, 0.0, 4.0);
        assert_eq!(tet_centroid(a, b, c, d), Point3::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = Vec3::new(4.0, 5.0, 1.0);
        assert!((a.distance(b) - 5.0).abs() < EPS);
        assert!((b.distance(a) - 5.0).abs() < EPS);
    }
}
