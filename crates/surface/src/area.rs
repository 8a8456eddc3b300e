//! Analytic surface-area oracles.
//!
//! Closed-form exposed areas for one- and two-sphere systems, used to
//! validate the quadrature sampler beyond the single-sphere case: the
//! buried cap of a sphere intersected by another has a known area, so the
//! sampler's total weight can be checked against geometry rather than
//! against itself.

/// Area of the spherical cap of a sphere with radius `r1` that lies
/// *inside* a second sphere of radius `r2` at center distance `d`
/// (0 when disjoint, `4πr1²` when fully swallowed).
pub fn buried_cap_area(r1: f64, r2: f64, d: f64) -> f64 {
    assert!(r1 > 0.0 && r2 > 0.0 && d >= 0.0);
    let full = 4.0 * std::f64::consts::PI * r1 * r1;
    if d >= r1 + r2 {
        return 0.0; // disjoint
    }
    if d + r1 <= r2 {
        return full; // sphere 1 entirely inside sphere 2
    }
    if d + r2 <= r1 {
        return 0.0; // sphere 2 entirely inside sphere 1: no cap of 1 buried
    }
    // Height of the cap of sphere 1 cut by the radical plane:
    // x = (d² + r1² − r2²) / (2d) is the distance from center 1 to the
    // intersection plane; the buried cap has height h = r1 − x.
    let x = (d * d + r1 * r1 - r2 * r2) / (2.0 * d);
    let h = r1 - x;
    debug_assert!((0.0..=2.0 * r1 + 1e-12).contains(&h));
    2.0 * std::f64::consts::PI * r1 * h
}

/// Exact exposed area of a two-sphere system (vdW surface):
/// `4πr1² + 4πr2² − buried(1 in 2) − buried(2 in 1)`.
pub fn two_sphere_exposed_area(r1: f64, r2: f64, d: f64) -> f64 {
    let a1 = 4.0 * std::f64::consts::PI * r1 * r1;
    let a2 = 4.0 * std::f64::consts::PI * r2 * r2;
    a1 + a2 - buried_cap_area(r1, r2, d) - buried_cap_area(r2, r1, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sas::{surface_quadrature, SurfaceParams};
    use polaroct_geom::Vec3;
    use polaroct_molecule::{Atom, Element, Molecule};

    const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

    #[test]
    fn disjoint_spheres_bury_nothing() {
        assert_eq!(buried_cap_area(1.0, 1.0, 3.0), 0.0);
        assert!((two_sphere_exposed_area(1.0, 2.0, 10.0) - FOUR_PI * 5.0).abs() < 1e-12);
    }

    #[test]
    fn swallowed_sphere_fully_buried() {
        assert!((buried_cap_area(1.0, 5.0, 0.5) - FOUR_PI).abs() < 1e-12);
        // Exposed area of the pair is just the big sphere's.
        assert!((two_sphere_exposed_area(1.0, 5.0, 0.5) - FOUR_PI * 25.0).abs() < 1e-12);
    }

    #[test]
    fn equal_spheres_touching_at_centers_half_buried() {
        // d = r: the radical plane passes through sphere 2's center... for
        // equal radii at distance d=r, x = d/2, h = r/2, cap = πr².
        let r = 1.5;
        let cap = buried_cap_area(r, r, r);
        assert!((cap - std::f64::consts::PI * r * r).abs() < 1e-12);
    }

    #[test]
    fn cap_area_is_continuous_at_boundaries() {
        let r1 = 1.2;
        let r2 = 1.6;
        // Approach the disjoint boundary from inside.
        let eps = 1e-9;
        let near_touch = buried_cap_area(r1, r2, r1 + r2 - eps);
        assert!(near_touch < 1e-6, "cap {near_touch} at near-touch");
        // Approach full burial.
        let near_swallow = buried_cap_area(r1, r2, r2 - r1 + eps);
        assert!((near_swallow - FOUR_PI * r1 * r1).abs() < 1e-5);
    }

    #[test]
    fn quadrature_matches_analytic_two_sphere_area() {
        // The sampler drops whole points, so its area converges to the
        // analytic value as the sampling refines.
        let (r1, r2, d) = (1.7, 1.5, 2.2);
        let mol = Molecule::from_atoms(
            "pair",
            [
                Atom { pos: Vec3::ZERO, radius: r1, charge: 0.0, element: Element::C },
                Atom { pos: Vec3::new(d, 0.0, 0.0), radius: r2, charge: 0.0, element: Element::O },
            ],
        );
        let exact = two_sphere_exposed_area(r1, r2, d);
        let sampled = surface_quadrature(
            &mol,
            SurfaceParams { icosphere_level: 4, ..Default::default() },
        )
        .total_weight();
        let rel = ((sampled - exact) / exact).abs();
        assert!(rel < 0.02, "sampled {sampled} vs exact {exact} ({rel:.3} rel)");
    }

    #[test]
    fn sampler_error_shrinks_with_refinement() {
        let (r1, r2, d) = (1.7, 1.7, 2.0);
        let mol = Molecule::from_atoms(
            "pair",
            [
                Atom { pos: Vec3::ZERO, radius: r1, charge: 0.0, element: Element::C },
                Atom { pos: Vec3::new(d, 0.0, 0.0), radius: r2, charge: 0.0, element: Element::C },
            ],
        );
        let exact = two_sphere_exposed_area(r1, r2, d);
        let err = |level: u32| {
            let a = surface_quadrature(
                &mol,
                SurfaceParams { icosphere_level: level, ..Default::default() },
            )
            .total_weight();
            ((a - exact) / exact).abs()
        };
        let coarse = err(1);
        let fine = err(4);
        assert!(fine <= coarse, "refinement made it worse: {coarse} -> {fine}");
    }
}
