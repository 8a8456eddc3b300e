//! Deterministic synthetic molecule generators.
//!
//! These stand in for the paper's benchmark inputs (ZDock Suite 2.0, CMV,
//! BTV — see DESIGN.md §2). All generators are pure functions of their
//! seed: the same `(name, n_atoms, seed)` always yields the same molecule,
//! which is what makes the figure harnesses reproducible.

mod capsid;
mod ligand;
mod protein;
mod zdock;

pub use capsid::capsid;
pub use ligand::ligand;
pub use protein::protein;
pub use zdock::{zdock_sizes, zdock_suite, ZdockEntry, ZDOCK_SUITE_LEN};

use polaroct_geom::Vec3;
use rand::Rng;

/// Protein interiors average ~1 heavy atom per 16 Å³.
pub(crate) const HEAVY_ATOM_DENSITY: f64 = 0.06;

/// Uniform random unit vector.
pub(crate) fn random_unit<R: Rng>(rng: &mut R) -> Vec3 {
    // Marsaglia (1972) rejection on the unit disk.
    loop {
        let a: f64 = rng.gen_range(-1.0..1.0);
        let b: f64 = rng.gen_range(-1.0..1.0);
        let s = a * a + b * b;
        if s < 1.0 && s > 0.0 {
            let t = 2.0 * (1.0 - s).sqrt();
            return Vec3::new(a * t, b * t, 1.0 - 2.0 * s);
        }
    }
}

/// Standard-normal sample via Box–Muller (avoids a rand_distr dependency).
pub(crate) fn random_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    (-2.0 * u1.ln()).sqrt() * u2.cos()
}

/// Spatial hash grid used for cheap self-avoidance during generation.
pub(crate) struct RejectionGrid {
    cell: f64,
    map: std::collections::HashMap<(i64, i64, i64), Vec<Vec3>>,
}

impl RejectionGrid {
    pub fn new(cell: f64) -> Self {
        RejectionGrid { cell, map: std::collections::HashMap::new() }
    }

    fn key(&self, p: Vec3) -> (i64, i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
            (p.z / self.cell).floor() as i64,
        )
    }

    /// True if some stored point is within `min_dist` of `p`.
    pub fn has_neighbor_within(&self, p: Vec3, min_dist: f64) -> bool {
        let (kx, ky, kz) = self.key(p);
        let d2 = min_dist * min_dist;
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    if let Some(v) = self.map.get(&(kx + dx, ky + dy, kz + dz)) {
                        if v.iter().any(|q| q.dist2(p) < d2) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    pub fn insert(&mut self, p: Vec3) {
        self.map.entry(self.key(p)).or_default().push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_unit_has_unit_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            let v = random_unit(&mut rng);
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn random_unit_is_roughly_isotropic() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut mean = Vec3::ZERO;
        let n = 20_000;
        for _ in 0..n {
            mean += random_unit(&mut rng);
        }
        mean = mean / n as f64;
        assert!(mean.norm() < 0.02, "directional bias: {mean:?}");
    }

    #[test]
    fn random_normal_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 50_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = random_normal(&mut rng);
            s1 += x;
            s2 += x * x;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn rejection_grid_detects_neighbors_across_cells() {
        let mut g = RejectionGrid::new(2.0);
        g.insert(Vec3::new(1.9, 0.0, 0.0));
        // Query point in adjacent cell, within radius.
        assert!(g.has_neighbor_within(Vec3::new(2.1, 0.0, 0.0), 0.5));
        // Outside radius.
        assert!(!g.has_neighbor_within(Vec3::new(4.5, 0.0, 0.0), 0.5));
        // Empty region.
        assert!(!g.has_neighbor_within(Vec3::new(100.0, 0.0, 0.0), 5.0));
    }
}
