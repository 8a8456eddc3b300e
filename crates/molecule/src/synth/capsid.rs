//! Icosahedral virus-capsid shell generator.
//!
//! Stands in for the paper's Cucumber Mosaic Virus shell (509,640 atoms,
//! §V.F) and Blue Tongue Virus (6M atoms, §V.B). A capsid is a hollow
//! spherical shell of protein subunits: geometrically, atoms fill a
//! spherical annulus `[R - t/2, R + t/2]` at protein density, with surface
//! bumps breaking the perfect sphere (capsomer lumps). The *hollow-shell*
//! geometry is what matters for the algorithms — it maximizes the
//! surface-to-volume ratio, which is exactly the regime where the
//! surface-based r⁶ octree method shines.

use super::{random_normal, HEAVY_ATOM_DENSITY};
use crate::atom::Atom;
use crate::elements::sample_heavy_element;
use crate::molecule::Molecule;
use polaroct_geom::Vec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Shell thickness (Å). CMV's capsid is ~25–35 Å thick.
const THICKNESS: f64 = 28.0;
/// Relative amplitude of capsomer surface bumps (0 = smooth sphere).
const LUMPINESS: f64 = 0.04;

/// Generate a hollow capsid shell with exactly `n_atoms` atoms.
///
/// The mean shell radius is derived from `n_atoms`, thickness and density:
/// `n = ρ · 4πR²t  ⇒  R = sqrt(n / (4π t ρ))`. For CMV-like inputs
/// (n = 509,640, t = 28 Å) this gives R ≈ 155 Å — the right order for the
/// real 28 nm-diameter virion.
pub fn capsid(name: impl Into<String>, n_atoms: usize, seed: u64) -> Molecule {
    assert!(n_atoms > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCAB51D);
    let mut mol = Molecule::with_capacity(name, n_atoms);

    // Solve for the mean radius with t = min(thickness, R/2) so that small
    // capsids stay hollow: in the thin-shell regime R = sqrt(n/(4πtρ));
    // when that would make the shell thicker than half the radius, switch
    // to t = R/2 and R = (n/(2πρ))^(1/3).
    let four_pi = 4.0 * std::f64::consts::PI;
    let r_thin = (n_atoms as f64 / (four_pi * THICKNESS * HEAVY_ATOM_DENSITY)).sqrt();
    let (r_mean, t) = if r_thin >= 2.0 * THICKNESS {
        (r_thin, THICKNESS)
    } else {
        let r = (n_atoms as f64 / (0.5 * four_pi * HEAVY_ATOM_DENSITY)).cbrt();
        (r, r / 2.0)
    };

    // Golden-angle (Fibonacci) spiral gives a quasi-uniform point
    // distribution over the sphere; radial jitter fills the shell.
    let golden = std::f64::consts::PI * (3.0 - 5.0f64.sqrt());
    for i in 0..n_atoms {
        let frac = (i as f64 + 0.5) / n_atoms as f64;
        let z = 1.0 - 2.0 * frac;
        let rho = (1.0 - z * z).max(0.0).sqrt();
        let phi = golden * i as f64;
        let dir = Vec3::new(rho * phi.cos(), rho * phi.sin(), z);

        // Capsomer lumps: a few low-order angular harmonics modulate the
        // shell radius so the surface is bumpy like a real capsid.
        let bump = 1.0
            + LUMPINESS
                * ((7.0 * phi).cos() * (5.0 * z).sin() + (11.0 * phi).sin() * (3.0 * z).cos())
                * 0.5;

        // Uniform radial fill of the annulus plus small jitter to break
        // the spiral's regularity.
        let u: f64 = rng.gen_range(0.0..1.0);
        let r3 = {
            // Uniform in shell volume: r = ((r_out^3 - r_in^3) u + r_in^3)^(1/3)
            let r_in = (r_mean - t / 2.0).max(0.0);
            let r_out = r_mean + t / 2.0;
            ((r_out.powi(3) - r_in.powi(3)) * u + r_in.powi(3)).cbrt()
        };
        let jitter = Vec3::new(
            random_normal(&mut rng),
            random_normal(&mut rng),
            random_normal(&mut rng),
        ) * 0.6;
        let pos = dir * (r3 * bump) + jitter;

        let el = sample_heavy_element(rng.gen_range(0.0..1.0));
        let q = random_normal(&mut rng) * el.typical_charge_scale();
        mol.push(Atom::of_element(el, pos, q));
    }

    mol.neutralize_to(0.0);
    mol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_count_and_deterministic() {
        let a = capsid("c", 5000, 1);
        assert_eq!(a.len(), 5000);
        let b = capsid("c", 5000, 1);
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn shell_is_hollow() {
        let m = capsid("c", 20_000, 2);
        let c = m.centroid();
        let radii: Vec<f64> = m.positions.iter().map(|p| p.dist(c)).collect();
        let min_r = radii.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_r = radii.iter().cloned().fold(0.0f64, f64::max);
        // Hollow: inner radius is a large fraction of outer radius.
        assert!(min_r > 0.5 * max_r, "not hollow: min {min_r} max {max_r}");
    }

    #[test]
    fn radius_scales_with_sqrt_of_atoms() {
        // Sizes chosen inside the thin-shell regime (R >= 2*thickness),
        // where the R ~ sqrt(n) law holds.
        let small = capsid("s", 100_000, 3);
        let big = capsid("b", 400_000, 3);
        let r = |m: &Molecule| {
            let c = m.centroid();
            m.positions.iter().map(|p| p.dist(c)).sum::<f64>() / m.len() as f64
        };
        let ratio = r(&big) / r(&small);
        assert!((ratio - 2.0).abs() < 0.3, "shell radius ratio {ratio}, expected ~2");
    }

    #[test]
    fn neutral_and_valid() {
        let m = capsid("c", 3_000, 4);
        assert!(m.net_charge().abs() < 1e-9);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn cmv_scale_radius_is_physical() {
        // Don't generate all 509k atoms in a unit test; just check the
        // radius formula at CMV scale.
        let n = 509_640f64;
        let r = (n / (4.0 * std::f64::consts::PI * THICKNESS * HEAVY_ATOM_DENSITY)).sqrt();
        assert!(r > 100.0 && r < 250.0, "CMV-like radius {r} Å");
    }
}
