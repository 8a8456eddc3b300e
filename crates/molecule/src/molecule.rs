//! Structure-of-arrays molecule.

use crate::atom::Atom;
use crate::elements::Element;
use polaroct_geom::{Aabb, Transform, Vec3};

/// A molecule in SoA layout: `positions[i]`, `radii[i]`, `charges[i]`,
/// `elements[i]` describe atom `i`.
///
/// The SoA layout is deliberate (see the Rust Performance Book guidance on
/// data layout): the Born-radius and E_pol kernels stream through positions
/// and charges of whole octree leaves, and keeping them in dense parallel
/// arrays lets LLVM vectorize the inner loops and keeps the working set per
/// leaf to a few cache lines.
#[derive(Clone, Debug, Default)]
pub struct Molecule {
    pub positions: Vec<Vec3>,
    pub radii: Vec<f64>,
    pub charges: Vec<f64>,
    pub elements: Vec<Element>,
    /// Human-readable identifier ("Z17", "CMV-shell", a file stem, ...).
    pub name: String,
}

impl Molecule {
    /// Empty molecule with capacity for `n` atoms.
    pub fn with_capacity(name: impl Into<String>, n: usize) -> Self {
        Molecule {
            positions: Vec::with_capacity(n),
            radii: Vec::with_capacity(n),
            charges: Vec::with_capacity(n),
            elements: Vec::with_capacity(n),
            name: name.into(),
        }
    }

    /// Build from an atom iterator.
    pub fn from_atoms(name: impl Into<String>, atoms: impl IntoIterator<Item = Atom>) -> Self {
        let mut m = Molecule::with_capacity(name, 0);
        for a in atoms {
            m.push(a);
        }
        m
    }

    /// Append one atom.
    pub fn push(&mut self, a: Atom) {
        self.positions.push(a.pos);
        self.radii.push(a.radius);
        self.charges.push(a.charge);
        self.elements.push(a.element);
    }

    /// Number of atoms.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// AoS view of atom `i`.
    pub fn atom(&self, i: usize) -> Atom {
        Atom {
            pos: self.positions[i],
            radius: self.radii[i],
            charge: self.charges[i],
            element: self.elements[i],
        }
    }

    /// Iterate AoS views (test/IO convenience; not for hot loops).
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        (0..self.len()).map(move |i| self.atom(i))
    }

    /// Sum of partial charges.
    pub fn net_charge(&self) -> f64 {
        self.charges.iter().sum()
    }

    /// Shift every charge uniformly so the net charge becomes `target`.
    pub fn neutralize_to(&mut self, target: f64) {
        if self.is_empty() {
            return;
        }
        let shift = (target - self.net_charge()) / self.len() as f64;
        for q in &mut self.charges {
            *q += shift;
        }
    }

    /// Bounding box of atom centers.
    pub fn bbox(&self) -> Aabb {
        Aabb::from_points(self.positions.iter().copied())
    }

    /// Geometric center of atom positions.
    pub fn centroid(&self) -> Vec3 {
        if self.is_empty() {
            return Vec3::ZERO;
        }
        let mut c = Vec3::ZERO;
        for &p in &self.positions {
            c += p;
        }
        c / self.len() as f64
    }

    /// Apply a rigid transform in place (positions rotate+translate; radii
    /// and charges are invariant).
    pub fn transform(&mut self, t: &Transform) {
        for p in &mut self.positions {
            *p = t.apply_point(*p);
        }
    }

    /// A transformed copy.
    pub fn transformed(&self, t: &Transform) -> Molecule {
        let mut m = self.clone();
        m.transform(t);
        m
    }

    /// Concatenate another molecule's atoms (e.g. receptor + ligand
    /// complex).
    pub fn extend_from(&mut self, o: &Molecule) {
        self.positions.extend_from_slice(&o.positions);
        self.radii.extend_from_slice(&o.radii);
        self.charges.extend_from_slice(&o.charges);
        self.elements.extend_from_slice(&o.elements);
    }

    /// Heap bytes used by the SoA arrays — the unit of the paper's
    /// data-replication memory accounting (§V.B).
    pub fn memory_bytes(&self) -> usize {
        self.positions.len() * std::mem::size_of::<Vec3>()
            + self.radii.len() * 8
            + self.charges.len() * 8
            + self.elements.len()
    }

    /// Basic sanity checks: finite positions, positive radii. Returns the
    /// index of the first offending atom.
    pub fn validate(&self) -> Result<(), usize> {
        for i in 0..self.len() {
            if !self.positions[i].is_finite()
                || !self.radii[i].is_finite()
                || self.radii[i] <= 0.0
                || !self.charges[i].is_finite()
            {
                return Err(i);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Molecule {
        Molecule::from_atoms(
            "m",
            [
                Atom::of_element(Element::C, Vec3::ZERO, 0.5),
                Atom::of_element(Element::O, Vec3::new(2.0, 0.0, 0.0), -0.5),
                Atom::of_element(Element::N, Vec3::new(0.0, 2.0, 0.0), 0.3),
            ],
        )
    }

    #[test]
    fn push_and_len() {
        let m = sample();
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.atom(1).element, Element::O);
    }

    #[test]
    fn net_charge_and_neutralize() {
        let mut m = sample();
        assert!((m.net_charge() - 0.3).abs() < 1e-12);
        m.neutralize_to(0.0);
        assert!(m.net_charge().abs() < 1e-12);
        // Relative charge differences are preserved.
        assert!((m.charges[0] - m.charges[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bbox_covers_all_positions() {
        let m = sample();
        let b = m.bbox();
        for &p in &m.positions {
            assert!(b.contains(p));
        }
        assert_eq!(b.max, Vec3::new(2.0, 2.0, 0.0));
    }

    #[test]
    fn centroid_is_mean() {
        let m = sample();
        let c = m.centroid();
        assert!((c - Vec3::new(2.0 / 3.0, 2.0 / 3.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn transform_moves_positions_only() {
        let mut m = sample();
        let q0 = m.charges.clone();
        m.transform(&Transform::translation(Vec3::new(10.0, 0.0, 0.0)));
        assert_eq!(m.positions[0], Vec3::new(10.0, 0.0, 0.0));
        assert_eq!(m.charges, q0);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut m = sample();
        let o = sample();
        m.extend_from(&o);
        assert_eq!(m.len(), 6);
        assert_eq!(m.atom(3).pos, Vec3::ZERO);
    }

    #[test]
    fn validate_catches_bad_atoms() {
        let mut m = sample();
        assert!(m.validate().is_ok());
        m.radii[1] = -1.0;
        assert_eq!(m.validate(), Err(1));
        m.radii[1] = 1.5;
        m.positions[2] = Vec3::new(f64::NAN, 0.0, 0.0);
        assert_eq!(m.validate(), Err(2));
    }

    #[test]
    fn memory_bytes_scales_with_atoms() {
        let m = sample();
        // 3 atoms * (24 + 8 + 8 + 1) bytes
        assert_eq!(m.memory_bytes(), 3 * 41);
    }

    #[test]
    fn empty_molecule_edge_cases() {
        let mut m = Molecule::default();
        assert!(m.is_empty());
        assert_eq!(m.centroid(), Vec3::ZERO);
        m.neutralize_to(0.0); // must not panic / divide by zero
        assert!(m.bbox().is_empty());
    }
}
