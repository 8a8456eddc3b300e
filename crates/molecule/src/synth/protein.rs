//! Globular synthetic protein generator.
//!
//! Models a protein as a compact random-coil chain of residues, each
//! residue contributing ~8 heavy atoms (protein average). The chain is a
//! biased self-avoiding random walk: Cα–Cα steps of 3.8 Å with a pull
//! toward the centroid once the walk strays outside the target globule
//! radius, giving protein-like packing density (~0.06 heavy atoms/Å³) and
//! the roughly spherical shape the surface-based r⁶ Born approximation
//! assumes (Grycuk 2003, cited by the paper, reports r⁶ is most accurate
//! for spherical solutes).

use super::{random_normal, random_unit, RejectionGrid, HEAVY_ATOM_DENSITY};
use crate::atom::Atom;
use crate::elements::{sample_heavy_element, Element};
use crate::molecule::Molecule;
use polaroct_geom::Vec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Cα–Cα virtual bond length (Å).
const CA_STEP: f64 = 3.8;
/// Heavy atoms per residue (the protein average).
const ATOMS_PER_RESIDUE: usize = 8;
/// Minimum heavy-atom separation enforced during generation (Å).
const MIN_SEPARATION: f64 = 2.4;

/// Generate a globular protein with exactly `n_atoms` heavy atoms.
///
/// Deterministic in `(n_atoms, seed)`. Partial charges are sampled per
/// element and then uniformly shifted so the molecule is neutral, like a
/// typical protonated-then-neutralized force-field assignment.
pub fn protein(name: impl Into<String>, n_atoms: usize, seed: u64) -> Molecule {
    assert!(n_atoms > 0, "protein needs at least one atom");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut mol = Molecule::with_capacity(name, n_atoms);

    // Globule radius from target density.
    let target_r =
        (3.0 * n_atoms as f64 / (4.0 * std::f64::consts::PI * HEAVY_ATOM_DENSITY)).cbrt();

    let mut grid = RejectionGrid::new(MIN_SEPARATION.max(1.0));
    let mut ca = Vec3::ZERO;
    let mut dir = random_unit(&mut rng);

    while mol.len() < n_atoms {
        // --- advance the backbone ---
        // Persistence: perturb the previous direction.
        let mut d = (dir + random_unit(&mut rng) * 0.9).normalized();
        // Pull back toward the center once outside the globule.
        let r = ca.norm();
        if r > 0.85 * target_r {
            let inward = -ca / r;
            let w = ((r / target_r) - 0.85).min(1.0) * 3.0;
            d = (d + inward * w).normalized();
        }
        // Self-avoidance: try a few directions before giving up (real
        // chains do clash slightly; accepting occasionally is fine).
        for _ in 0..8 {
            let cand = ca + d * CA_STEP;
            if !grid.has_neighbor_within(cand, MIN_SEPARATION) {
                break;
            }
            d = random_unit(&mut rng);
        }
        dir = d;
        ca += d * CA_STEP;

        // --- place this residue's heavy atoms around the Cα ---
        let burst = ATOMS_PER_RESIDUE.min(n_atoms - mol.len());
        for k in 0..burst {
            let pos = if k == 0 {
                ca // the Cα itself
            } else {
                // Side-chain/backbone atoms: 1.5 Å bond steps branching out.
                let mut p = ca;
                let links = 1 + (k / 3);
                for _ in 0..links {
                    p += random_unit(&mut rng) * 1.5;
                }
                p
            };
            let el = if k == 0 { Element::C } else { sample_heavy_element(rng.gen_range(0.0..1.0)) };
            let q = random_normal(&mut rng) * el.typical_charge_scale();
            mol.push(Atom::of_element(el, pos, q));
            grid.insert(pos);
        }
    }

    mol.neutralize_to(0.0);
    debug_assert_eq!(mol.len(), n_atoms);
    mol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_atom_count() {
        for n in [1, 7, 8, 9, 100, 403] {
            assert_eq!(protein("p", n, 1).len(), n);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = protein("a", 500, 42);
        let b = protein("b", 500, 42);
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.charges, b.charges);
        let c = protein("c", 500, 43);
        assert_ne!(a.positions, c.positions);
    }

    #[test]
    fn is_neutral() {
        let m = protein("p", 1000, 7);
        assert!(m.net_charge().abs() < 1e-9);
    }

    #[test]
    fn is_globular_density_in_protein_range() {
        let n = 4000;
        let m = protein("p", n, 11);
        // Radius of gyration of a globule of radius R is R*sqrt(3/5);
        // check the implied density is within 3x of the target (the walk
        // is stochastic, we only need the right ballpark for benchmarks).
        let c = m.centroid();
        let rg2: f64 =
            m.positions.iter().map(|p| p.dist2(c)).sum::<f64>() / n as f64;
        let r_eff = (rg2 * 5.0 / 3.0).sqrt();
        let vol = 4.0 / 3.0 * std::f64::consts::PI * r_eff.powi(3);
        let density = n as f64 / vol;
        assert!(
            density > HEAVY_ATOM_DENSITY / 3.0 && density < HEAVY_ATOM_DENSITY * 3.0,
            "density {density} vs target {HEAVY_ATOM_DENSITY}"
        );
    }

    #[test]
    fn charges_are_bounded() {
        let m = protein("p", 2000, 3);
        for &q in &m.charges {
            assert!(q.abs() < 4.0, "unphysical charge {q}");
        }
    }

    #[test]
    fn atoms_not_excessively_clustered() {
        // Mean nearest-neighbor distance should be around bond length
        // (1.2–3 Å), not collapsed to ~0.
        let m = protein("p", 600, 5);
        let mut sum = 0.0;
        for i in 0..m.len() {
            let mut best = f64::INFINITY;
            for j in 0..m.len() {
                if i != j {
                    best = best.min(m.positions[i].dist2(m.positions[j]));
                }
            }
            sum += best.sqrt();
        }
        let mean_nn = sum / m.len() as f64;
        assert!(mean_nn > 0.5 && mean_nn < 4.0, "mean NN dist {mean_nn}");
    }

    #[test]
    fn validates() {
        assert!(protein("p", 350, 9).validate().is_ok());
    }
}
