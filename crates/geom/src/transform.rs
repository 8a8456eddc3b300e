//! Rigid-body transforms (proper rotations + translations).
//!
//! §IV.C of the paper motivates reusing a built octree across ligand poses:
//! "for drug-design and docking where we need to place the ligand at
//! thousands of different positions w.r.t. the receptor, we can move the
//! same octree to different positions or rotate it as needed by multiplying
//! with proper transformation matrices". [`Transform`] is that matrix; the
//! octree crate applies it to node centers/leaf points without rebuilding.

use crate::vec3::Vec3;

/// A 3x3 rotation matrix stored row-major. Constructors guarantee a proper
/// rotation (orthonormal, det = +1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rotation {
    pub rows: [Vec3; 3],
}

impl Rotation {
    pub const IDENTITY: Rotation = Rotation {
        rows: [Vec3::X, Vec3::Y, Vec3::Z],
    };

    /// Rotation by `angle` radians about the (normalized) `axis`
    /// (Rodrigues' formula).
    pub fn about_axis(axis: Vec3, angle: f64) -> Self {
        let u = axis.normalized();
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        let (x, y, z) = (u.x, u.y, u.z);
        Rotation {
            rows: [
                Vec3::new(t * x * x + c, t * x * y - s * z, t * x * z + s * y),
                Vec3::new(t * x * y + s * z, t * y * y + c, t * y * z - s * x),
                Vec3::new(t * x * z - s * y, t * y * z + s * x, t * z * z + c),
            ],
        }
    }

    /// Euler ZYX rotation (yaw about z, then pitch about y, then roll
    /// about x) — handy for pose scans.
    pub fn from_euler_zyx(yaw: f64, pitch: f64, roll: f64) -> Self {
        Rotation::about_axis(Vec3::Z, yaw)
            * Rotation::about_axis(Vec3::Y, pitch)
            * Rotation::about_axis(Vec3::X, roll)
    }

    /// Apply to a vector.
    #[inline]
    pub fn apply(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.rows[0].dot(v),
            self.rows[1].dot(v),
            self.rows[2].dot(v),
        )
    }

    /// Transpose = inverse for rotations.
    pub fn transpose(&self) -> Rotation {
        let r = &self.rows;
        Rotation {
            rows: [
                Vec3::new(r[0].x, r[1].x, r[2].x),
                Vec3::new(r[0].y, r[1].y, r[2].y),
                Vec3::new(r[0].z, r[1].z, r[2].z),
            ],
        }
    }

    /// Determinant (should be +1 for proper rotations).
    pub fn det(&self) -> f64 {
        let r = &self.rows;
        r[0].dot(r[1].cross(r[2]))
    }
}

impl std::ops::Mul for Rotation {
    type Output = Rotation;
    fn mul(self, o: Rotation) -> Rotation {
        let ot = o.transpose();
        Rotation {
            rows: [
                Vec3::new(
                    self.rows[0].dot(ot.rows[0]),
                    self.rows[0].dot(ot.rows[1]),
                    self.rows[0].dot(ot.rows[2]),
                ),
                Vec3::new(
                    self.rows[1].dot(ot.rows[0]),
                    self.rows[1].dot(ot.rows[1]),
                    self.rows[1].dot(ot.rows[2]),
                ),
                Vec3::new(
                    self.rows[2].dot(ot.rows[0]),
                    self.rows[2].dot(ot.rows[1]),
                    self.rows[2].dot(ot.rows[2]),
                ),
            ],
        }
    }
}

/// A rigid transform `p -> R p + t`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transform {
    pub rotation: Rotation,
    pub translation: Vec3,
}

impl Transform {
    pub const IDENTITY: Transform = Transform {
        rotation: Rotation::IDENTITY,
        translation: Vec3::ZERO,
    };

    pub fn translation(t: Vec3) -> Self {
        Transform {
            rotation: Rotation::IDENTITY,
            translation: t,
        }
    }

    pub fn rotation(r: Rotation) -> Self {
        Transform {
            rotation: r,
            translation: Vec3::ZERO,
        }
    }

    /// Rotation about `pivot` followed by translation `t`.
    pub fn about_pivot(r: Rotation, pivot: Vec3, t: Vec3) -> Self {
        // R(p - pivot) + pivot + t  ==  Rp + (pivot - R pivot + t)
        Transform {
            rotation: r,
            translation: pivot - r.apply(pivot) + t,
        }
    }

    /// Apply to a point.
    #[inline]
    pub fn apply_point(&self, p: Vec3) -> Vec3 {
        self.rotation.apply(p) + self.translation
    }

    /// Inverse transform.
    pub fn inverse(&self) -> Transform {
        let rt = self.rotation.transpose();
        Transform {
            rotation: rt,
            translation: -rt.apply(self.translation),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq_rel;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn assert_vec_eq(a: Vec3, b: Vec3, tol: f64) {
        assert!((a - b).norm() < tol, "{a:?} != {b:?}");
    }

    #[test]
    fn quarter_turn_about_z() {
        let r = Rotation::about_axis(Vec3::Z, FRAC_PI_2);
        assert_vec_eq(r.apply(Vec3::X), Vec3::Y, 1e-12);
        assert_vec_eq(r.apply(Vec3::Y), -Vec3::X, 1e-12);
    }

    #[test]
    fn rotation_preserves_length_and_det_is_one() {
        let r = Rotation::about_axis(Vec3::new(1.0, 2.0, -0.5), 1.234);
        let v = Vec3::new(3.0, -1.0, 2.0);
        assert!(approx_eq_rel(r.apply(v).norm(), v.norm(), 1e-12));
        assert!(approx_eq_rel(r.det(), 1.0, 1e-12));
    }

    #[test]
    fn transpose_is_inverse() {
        let r = Rotation::about_axis(Vec3::new(0.2, -1.0, 0.7), 2.5);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_eq(r.transpose().apply(r.apply(v)), v, 1e-12);
    }

    #[test]
    fn composition_matches_sequential_application() {
        let a = Rotation::about_axis(Vec3::X, 0.7);
        let b = Rotation::about_axis(Vec3::Z, -1.1);
        let v = Vec3::new(0.5, -2.0, 1.5);
        assert_vec_eq((a * b).apply(v), a.apply(b.apply(v)), 1e-12);
    }

    #[test]
    fn euler_zyx_identity_when_all_zero() {
        let r = Rotation::from_euler_zyx(0.0, 0.0, 0.0);
        assert_vec_eq(
            r.apply(Vec3::new(1.0, 2.0, 3.0)),
            Vec3::new(1.0, 2.0, 3.0),
            1e-15,
        );
    }

    #[test]
    fn full_turn_is_identity() {
        let r = Rotation::about_axis(Vec3::new(1.0, 1.0, 1.0), 2.0 * PI);
        let v = Vec3::new(-2.0, 0.5, 4.0);
        assert_vec_eq(r.apply(v), v, 1e-12);
    }

    #[test]
    fn transform_inverse_roundtrip() {
        let t = Transform {
            rotation: Rotation::about_axis(Vec3::new(1.0, 0.3, -2.0), 0.9),
            translation: Vec3::new(5.0, -3.0, 1.0),
        };
        let p = Vec3::new(0.1, 0.2, 0.3);
        assert_vec_eq(t.inverse().apply_point(t.apply_point(p)), p, 1e-12);
    }

    #[test]
    fn about_pivot_fixes_the_pivot() {
        let pivot = Vec3::new(2.0, 2.0, 2.0);
        let t = Transform::about_pivot(Rotation::about_axis(Vec3::Z, 1.0), pivot, Vec3::ZERO);
        assert_vec_eq(t.apply_point(pivot), pivot, 1e-12);
    }
}
