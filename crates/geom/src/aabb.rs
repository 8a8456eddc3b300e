//! Axis-aligned bounding boxes.
//!
//! The octree's spatial domain is a cube [`Aabb::cube_containing`] around
//! the input points; child octants are produced with [`Aabb::octant`].

use crate::vec3::Vec3;

/// Axis-aligned box described by its min/max corners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// An "empty" box that absorbs any point via [`Aabb::grow`]
    /// (min = +inf, max = -inf).
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::splat(f64::INFINITY),
        max: Vec3::splat(f64::NEG_INFINITY),
    };

    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        Aabb { min, max }
    }

    /// Smallest box containing every point of the iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Self {
        let mut b = Aabb::EMPTY;
        for p in points {
            b.grow(p);
        }
        b
    }

    /// Smallest *cube* containing `inner`, centered on `inner`'s center,
    /// padded by `pad` on each side. Octrees subdivide cubes so that child
    /// cells stay cubical and Morton quantization is isotropic.
    pub fn cube_containing(inner: Aabb, pad: f64) -> Self {
        let c = inner.center();
        let half = inner.half_extent().max_component() + pad;
        Aabb {
            min: c - Vec3::splat(half),
            max: c + Vec3::splat(half),
        }
    }

    /// Expand to include `p`.
    #[inline]
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Expand to include another box.
    #[inline]
    pub fn union(&self, o: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(o.min),
            max: self.max.max(o.max),
        }
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Half of the box extents along each axis.
    #[inline]
    pub fn half_extent(&self) -> Vec3 {
        (self.max - self.min) * 0.5
    }

    /// Full edge lengths.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// True when no point has been absorbed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Closed containment test.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The `i`-th octant (0..8) of this box; bit 0 = +x half, bit 1 = +y
    /// half, bit 2 = +z half — matching the Morton child ordering in
    /// [`crate::morton`].
    pub fn octant(&self, i: usize) -> Aabb {
        debug_assert!(i < 8);
        let c = self.center();
        let (lo, hi) = (self.min, self.max);
        let min = Vec3::new(
            if i & 1 != 0 { c.x } else { lo.x },
            if i & 2 != 0 { c.y } else { lo.y },
            if i & 4 != 0 { c.z } else { lo.z },
        );
        let max = Vec3::new(
            if i & 1 != 0 { hi.x } else { c.x },
            if i & 2 != 0 { hi.y } else { c.y },
            if i & 4 != 0 { hi.z } else { c.z },
        );
        Aabb { min, max }
    }

    /// Radius of the sphere circumscribing the box (center to corner).
    #[inline]
    pub fn circumradius(&self) -> f64 {
        self.half_extent().norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn from_points_bounds_all() {
        let pts = [
            Vec3::new(1.0, -2.0, 3.0),
            Vec3::new(-1.0, 5.0, 0.0),
            Vec3::new(0.0, 0.0, -4.0),
        ];
        let b = Aabb::from_points(pts);
        for p in pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min, Vec3::new(-1.0, -2.0, -4.0));
        assert_eq!(b.max, Vec3::new(1.0, 5.0, 3.0));
    }

    #[test]
    fn empty_is_empty_until_grown() {
        let mut b = Aabb::EMPTY;
        assert!(b.is_empty());
        b.grow(Vec3::ZERO);
        assert!(!b.is_empty());
        assert!(b.contains(Vec3::ZERO));
    }

    #[test]
    fn cube_containing_is_cubical_and_contains() {
        let inner = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(4.0, 1.0, 2.0));
        let c = Aabb::cube_containing(inner, 0.5);
        let e = c.extent();
        assert_eq!(e.x, e.y);
        assert_eq!(e.y, e.z);
        assert!(c.contains(inner.min) && c.contains(inner.max));
        assert_eq!(e.x, 5.0); // 2*(2.0 + 0.5)
    }

    #[test]
    fn octants_partition_the_box() {
        let b = unit();
        // Each octant has 1/8 the volume; union of octants == box.
        let mut u = Aabb::EMPTY;
        for i in 0..8 {
            let o = b.octant(i);
            let e = o.extent();
            assert_eq!(e, Vec3::splat(0.5), "octant {i}");
            u = u.union(&o);
        }
        assert_eq!(u, b);
    }

    #[test]
    fn octant_bit_convention() {
        let b = unit();
        // Octant 0 is the low corner; octant 7 the high corner.
        assert_eq!(b.octant(0).min, Vec3::ZERO);
        assert_eq!(b.octant(7).max, Vec3::splat(1.0));
        // Bit 0 toggles x.
        assert_eq!(b.octant(1).min, Vec3::new(0.5, 0.0, 0.0));
        // Bit 1 toggles y.
        assert_eq!(b.octant(2).min, Vec3::new(0.0, 0.5, 0.0));
        // Bit 2 toggles z.
        assert_eq!(b.octant(4).min, Vec3::new(0.0, 0.0, 0.5));
    }

    #[test]
    fn circumradius_unit_cube() {
        assert!((unit().circumradius() - (3.0f64).sqrt() * 0.5).abs() < 1e-15);
    }
}
