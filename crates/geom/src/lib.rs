//! # polaroct-geom
//!
//! Geometry primitives shared by every `polaroct` crate:
//!
//! * [`Vec3`] — a 3-component `f64` vector with the usual algebra.
//! * [`Aabb`] — axis-aligned bounding boxes (octree domains).
//! * [`morton`] — 63-bit Morton (Z-order) codes used to build the
//!   cache-efficient linear octree.
//! * [`Transform`] — rigid-body transforms (rotation + translation) used to
//!   re-pose a ligand without rebuilding its octree (paper §IV.C, step 1).
//! * [`fastmath`] — the paper's "approximate math" toggle: fast reciprocal
//!   square root, exponential and cube root with a few ulps of error in
//!   exchange for speed (§V.C: "We used approximate math for computing
//!   square root and power functions").
//!
//! The crate is `no_std`-compatible in spirit (no allocation in hot paths)
//! but links `std` for `f64` intrinsics.

#![forbid(unsafe_code)]

pub mod aabb;
pub mod fastmath;
pub mod morton;
pub mod transform;
pub mod vec3;

pub use aabb::Aabb;
pub use transform::Transform;
pub use vec3::Vec3;

/// Relative-error comparison helper used by tests across the workspace.
///
/// Returns `true` when `a` and `b` agree to within `rel` relative error
/// (falling back to an absolute tolerance near zero).
pub fn approx_eq_rel(a: f64, b: f64, rel: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= rel {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= rel * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_rel_exact() {
        assert!(approx_eq_rel(1.0, 1.0, 1e-15));
    }

    #[test]
    fn approx_eq_rel_near_zero_uses_absolute() {
        assert!(approx_eq_rel(1e-18, 0.0, 1e-12));
    }

    #[test]
    fn approx_eq_rel_relative_scale() {
        assert!(approx_eq_rel(1e12, 1e12 * (1.0 + 1e-10), 1e-9));
        assert!(!approx_eq_rel(1e12, 1.01e12, 1e-9));
    }
}
