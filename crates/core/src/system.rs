//! Prepared GB system: surface + both octrees + Morton-ordered payloads.

use crate::params::ApproxParams;
use crate::soa::{AtomArena, AtomView, QArena, QView, StillScratch, CHUNK};
use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use polaroct_molecule::Molecule;
use polaroct_octree::{build, BuildParams, Octree};
use polaroct_surface::{surface_quadrature, QuadratureSet};
use std::ops::Range;

/// Everything the kernels need, laid out for traversal:
///
/// * `atoms` — octree over atom centers (`T_A`); `charge[i]`, `radius[i]`
///   are Morton-ordered alongside `atoms.points[i]`.
/// * `qtree` — octree over surface quadrature points (`T_Q`);
///   `q_normal[i]`, `q_weight[i]` Morton-ordered alongside
///   `qtree.points[i]`; `q_node_normal[n]` is the per-node
///   weight-weighted normal sum `ñ_Q = Σ_{q∈Q} w_q n_q` of Fig. 2.
///
/// Construction is the paper's pre-processing step (§IV.C Step 1): build
/// once, then reuse for any ε and any rigid pose.
#[derive(Clone, Debug)]
pub struct GbSystem {
    pub atoms: Octree,
    pub charge: Vec<f64>,
    pub radius: Vec<f64>,
    pub qtree: Octree,
    pub q_normal: Vec<Vec3>,
    pub q_weight: Vec<f64>,
    /// Per-qtree-node `Σ w_q n_q` (indexed by node id).
    pub q_node_normal: Vec<Vec3>,
    /// Persistent flat SoA arena over all q-points in Morton order
    /// (positions + weight-premultiplied normals). Immutable between
    /// rebuilds; any leaf or clipped leaf is a zero-copy slice.
    pub q_arena: QArena,
    /// Persistent flat SoA arena over all atoms in Morton order
    /// (positions + charges). Coordinates are rewritten in place by
    /// [`GbSystem::refresh_atom_positions`] on skin-reuse steps.
    pub atom_arena: AtomArena,
    /// Name carried over from the molecule.
    pub name: String,
}

impl GbSystem {
    /// Sample the surface and build both octrees.
    pub fn prepare(mol: &Molecule, params: &ApproxParams) -> GbSystem {
        let quad = surface_quadrature(mol, params.surface);
        Self::prepare_with_surface(mol, &quad, params)
    }

    /// Build from an externally supplied surface (lets tests craft exact
    /// quadrature sets, and docking reuse a receptor surface).
    pub fn prepare_with_surface(
        mol: &Molecule,
        quad: &QuadratureSet,
        params: &ApproxParams,
    ) -> GbSystem {
        // PANIC-OK: precondition; an empty molecule has no energy to compute.
        assert!(!mol.is_empty(), "empty molecule");
        // PANIC-OK: precondition; an empty surface has no Born integrals.
        assert!(!quad.is_empty(), "empty surface");

        let atoms = build(
            &mol.positions,
            BuildParams {
                leaf_capacity: params.leaf_cap_atoms,
                ..Default::default()
            },
        );
        let charge = atoms.permute(&mol.charges);
        let radius = atoms.permute(&mol.radii);

        let qtree = build(
            &quad.positions,
            BuildParams {
                leaf_capacity: params.leaf_cap_qpoints,
                ..Default::default()
            },
        );
        let q_normal = qtree.permute(&quad.normals);
        let q_weight = qtree.permute(&quad.weights);

        // Per-node weighted normal sums, O(N log N) total by summing each
        // node's range directly (ranges nest, total work = Σ node sizes).
        let mut q_node_normal = Vec::with_capacity(qtree.nodes.len());
        for node in &qtree.nodes {
            let mut s = Vec3::ZERO;
            let normals = q_normal.get(node.range()).unwrap_or_default();
            let weights = q_weight.get(node.range()).unwrap_or_default();
            for (&n, &w) in normals.iter().zip(weights) {
                s += n * w;
            }
            q_node_normal.push(s);
        }

        // Flat leaf arenas (DESIGN.md §11): built once per prepare from
        // the already-permuted payloads, so list execution slices them
        // directly instead of re-gathering per chunk.
        let q_arena = QArena::build(&qtree.points, &q_normal, &q_weight);
        let atom_arena = AtomArena::build(&atoms.points, &charge);

        GbSystem {
            atoms,
            charge,
            radius,
            qtree,
            q_normal,
            q_weight,
            q_node_normal,
            q_arena,
            atom_arena,
            name: mol.name.clone(),
        }
    }

    /// Positions-only refresh for Verlet-skin reuse: rewrite the atom
    /// octree's Morton-ordered point copies *and* the flat atom arena
    /// from original-order positions. Topology, node bounds, `point_order`
    /// and every q-surface payload stay frozen — exactly the state a
    /// within-skin step is allowed to reuse (DESIGN.md §10).
    pub fn refresh_atom_positions(&mut self, positions: &[Vec3]) {
        self.atoms.refresh_positions(positions);
        self.atom_arena.refresh_positions(&self.atoms.points);
    }

    /// Subset form of [`GbSystem::refresh_atom_positions`] for
    /// perturbation queries: rewrite the octree point copy *and* the flat
    /// arena lanes of exactly the given Morton-indexed atoms, O(k) instead
    /// of O(N). Same frozen-topology contract as the full refresh — a
    /// full refresh to the same geometry produces bitwise-identical state.
    pub fn refresh_atom_subset(&mut self, moved: &[(usize, Vec3)]) {
        for &(mi, p) in moved {
            // PANIC-OK: perturbation indices are validated against the atom count on entry.
            assert!(mi < self.atoms.points.len(), "atom index out of range");
            self.atoms.points[mi] = p; // PANIC-OK: bounds asserted above.
            self.atom_arena.set_position(mi, p);
        }
    }

    /// Charge-mutation write: update the Morton-ordered charge payload and
    /// the flat arena lane of one atom. Charges are pure payload — no tree
    /// geometry or surface quantity depends on them — so this never
    /// invalidates the prepared scaffold.
    pub fn set_atom_charge(&mut self, mi: usize, q: f64) {
        // PANIC-OK: perturbation indices are validated against the atom count on entry.
        assert!(mi < self.charge.len(), "atom index out of range");
        self.charge[mi] = q; // PANIC-OK: bounds asserted above.
        self.atom_arena.set_charge(mi, q);
    }

    /// Leaf×leaf near-field Born terms, block-kernel form: the term of
    /// `qv` at every atom of the Morton range `ar`, delivered to
    /// `sink(atom_index, term)` in index order. Each term is bit-identical
    /// to `qv.born_term(position(ai))` — the CHUNK-sized blocking below
    /// only amortizes per-call overhead across the leaf — so every caller
    /// (recursions, list engine, benches) shares one kernel and one
    /// float-order story.
    #[inline]
    pub fn born_block_terms(
        &self,
        qv: QView<'_>,
        ar: Range<usize>,
        mut sink: impl FnMut(usize, f64),
    ) {
        let mut buf = [0.0f64; CHUNK];
        let mut base = ar.start;
        while base < ar.end {
            let m = CHUNK.min(ar.end - base);
            let (ax, ay, az) = self.atom_arena.pos_slices(base..base + m);
            qv.born_block(ax, ay, az, &mut buf[..m]);
            for (k, &t) in buf[..m].iter().enumerate() {
                sink(base + k, t);
            }
            base += m;
        }
    }

    /// Leaf×leaf near-field STILL contribution, block-kernel form:
    /// `Σ_{u∈ur} q_u · still_term(u → vv)` with the fold in Morton index
    /// order — exactly the historical per-atom loop (Eq. 2's ordered-pair
    /// leaf block), with per-call overhead amortized across the leaf and
    /// the transcendentals batched over whole u×v tiles. `scratch` is the
    /// tile staging, owned by the caller so one instance serves a whole
    /// sweep of leaf pairs.
    #[inline]
    pub fn still_block_raw(
        &self,
        born: &[f64],
        ur: Range<usize>,
        vv: AtomView<'_>,
        math: MathMode,
        scratch: &mut StillScratch,
    ) -> f64 {
        let mut raw = 0.0;
        let mut buf = [0.0f64; CHUNK];
        let mut base = ur.start;
        while base < ur.end {
            let m = CHUNK.min(ur.end - base);
            let uv = self.atom_arena.view(born, base..base + m);
            uv.still_block(vv, math, scratch, &mut buf[..m]);
            for (k, &t) in buf[..m].iter().enumerate() {
                raw += uv.q[k] * t;
            }
            base += m;
        }
        raw
    }

    /// Number of atoms `M`.
    #[inline]
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of quadrature points `N`.
    #[inline]
    pub fn n_qpoints(&self) -> usize {
        self.qtree.len()
    }

    /// Bytes one replica of this system occupies (molecule payloads +
    /// both trees + surface payloads + flat leaf arenas) — the
    /// per-process figure for the §V.B replication accounting.
    /// Capacity-based, like [`Octree::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        self.atoms.memory_bytes()
            + self.charge.capacity() * 8
            + self.radius.capacity() * 8
            + self.qtree.memory_bytes()
            + self.q_normal.capacity() * std::mem::size_of::<Vec3>()
            + self.q_weight.capacity() * 8
            + self.q_node_normal.capacity() * std::mem::size_of::<Vec3>()
            + self.arena_bytes()
    }

    /// Bytes held by the two persistent flat leaf arenas alone (broken
    /// out of [`GbSystem::memory_bytes`] for `RunReport`'s accounting).
    pub fn arena_bytes(&self) -> usize {
        self.q_arena.memory_bytes() + self.atom_arena.memory_bytes()
    }

    /// Map Morton-ordered per-atom values back to the molecule's original
    /// atom order (for reporting Born radii to callers).
    pub fn to_original_atom_order(&self, sorted: &[f64]) -> Vec<f64> {
        self.atoms.unpermute(sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaroct_molecule::synth;

    fn system(n: usize) -> GbSystem {
        let mol = synth::protein("p", n, 42);
        GbSystem::prepare(&mol, &ApproxParams::default())
    }

    #[test]
    fn prepares_consistent_sizes() {
        let s = system(300);
        assert_eq!(s.n_atoms(), 300);
        assert_eq!(s.charge.len(), 300);
        assert_eq!(s.radius.len(), 300);
        assert!(s.n_qpoints() > 0);
        assert_eq!(s.q_normal.len(), s.n_qpoints());
        assert_eq!(s.q_weight.len(), s.n_qpoints());
        assert_eq!(s.q_node_normal.len(), s.qtree.nodes.len());
    }

    #[test]
    fn payloads_follow_morton_permutation() {
        let mol = synth::protein("p", 120, 7);
        let s = GbSystem::prepare(&mol, &ApproxParams::default());
        for i in 0..s.n_atoms() {
            let orig = s.atoms.point_order[i] as usize;
            assert_eq!(s.charge[i], mol.charges[orig]);
            assert_eq!(s.radius[i], mol.radii[orig]);
            assert_eq!(s.atoms.points[i], mol.positions[orig]);
        }
    }

    #[test]
    fn node_normals_match_direct_sums() {
        let s = system(150);
        // Root node's sum must equal the sum over all q-points.
        let mut total = Vec3::ZERO;
        for i in 0..s.n_qpoints() {
            total += s.q_normal[i] * s.q_weight[i];
        }
        let root_sum = s.q_node_normal[0];
        assert!((total - root_sum).norm() < 1e-9);
        // Internal node sums equal the sum of their children's sums.
        for node in &s.atoms.nodes {
            let _ = node; // atoms tree has no normal sums; check qtree:
        }
        for (id, node) in s.qtree.nodes.iter().enumerate() {
            if !node.is_leaf() {
                let mut kid_sum = Vec3::ZERO;
                for c in node.children() {
                    kid_sum += s.q_node_normal[c as usize];
                }
                assert!(
                    (kid_sum - s.q_node_normal[id]).norm() < 1e-9,
                    "node {id} normal sum mismatch"
                );
            }
        }
    }

    #[test]
    fn unpermute_restores_original_order() {
        let mol = synth::protein("p", 80, 3);
        let s = GbSystem::prepare(&mol, &ApproxParams::default());
        let restored = s.to_original_atom_order(&s.charge);
        for (a, b) in restored.iter().zip(&mol.charges) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn arenas_mirror_morton_payloads() {
        let s = system(250);
        assert_eq!(s.q_arena.len(), s.n_qpoints());
        assert_eq!(s.atom_arena.len(), s.n_atoms());
        for i in 0..s.n_atoms() {
            assert_eq!(s.atom_arena.position(i), s.atoms.points[i]);
            assert_eq!(s.atom_arena.q[i], s.charge[i]);
        }
        for i in 0..s.n_qpoints() {
            let p = s.qtree.points[i];
            let wn = s.q_normal[i] * s.q_weight[i];
            assert_eq!(s.q_arena.x[i], p.x);
            assert_eq!(s.q_arena.y[i], p.y);
            assert_eq!(s.q_arena.z[i], p.z);
            assert_eq!(s.q_arena.wnx[i], wn.x);
            assert_eq!(s.q_arena.wny[i], wn.y);
            assert_eq!(s.q_arena.wnz[i], wn.z);
        }
        assert!(s.arena_bytes() > 0);
        assert!(s.memory_bytes() > s.arena_bytes());
    }

    #[test]
    fn refresh_atom_positions_tracks_tree_and_arena() {
        let mol = synth::protein("p", 90, 13);
        let mut s = GbSystem::prepare(&mol, &ApproxParams::default());
        let moved: Vec<Vec3> = mol
            .positions
            .iter()
            .map(|p| *p + Vec3::new(0.2, 0.1, -0.3))
            .collect();
        s.refresh_atom_positions(&moved);
        for i in 0..s.n_atoms() {
            let orig = s.atoms.point_order[i] as usize;
            assert_eq!(s.atoms.points[i], moved[orig]);
            assert_eq!(s.atom_arena.position(i), moved[orig]);
        }
        // Round-trip back to the build geometry is bit-exact.
        s.refresh_atom_positions(&mol.positions);
        let fresh = GbSystem::prepare(&mol, &ApproxParams::default());
        assert_eq!(s.atoms.content_digest(), fresh.atoms.content_digest());
        assert_eq!(s.atom_arena.x, fresh.atom_arena.x);
        assert_eq!(s.atom_arena.y, fresh.atom_arena.y);
        assert_eq!(s.atom_arena.z, fresh.atom_arena.z);
    }

    #[test]
    fn subset_refresh_matches_full_refresh_bitwise() {
        let mol = synth::protein("p", 110, 19);
        let mut subset = GbSystem::prepare(&mol, &ApproxParams::default());
        let mut full = subset.clone();
        // Move three atoms (original order) and mutate one charge.
        let mut moved_orig = mol.positions.clone();
        for (oi, d) in [(4usize, 0.3), (50, -0.2), (101, 0.1)] {
            moved_orig[oi] += Vec3::new(d, -d, 0.5 * d);
        }
        full.refresh_atom_positions(&moved_orig);
        // Subset path works in Morton indices: invert point_order.
        let mut inv = vec![0usize; subset.n_atoms()];
        for (mi, &oi) in subset.atoms.point_order.iter().enumerate() {
            inv[oi as usize] = mi;
        }
        let subset_moves: Vec<(usize, Vec3)> = [4usize, 50, 101]
            .iter()
            .map(|&oi| (inv[oi], moved_orig[oi]))
            .collect();
        subset.refresh_atom_subset(&subset_moves);
        assert_eq!(subset.atoms.points, full.atoms.points);
        assert_eq!(subset.atom_arena.x, full.atom_arena.x);
        assert_eq!(subset.atom_arena.y, full.atom_arena.y);
        assert_eq!(subset.atom_arena.z, full.atom_arena.z);
        subset.set_atom_charge(inv[50], -3.25);
        assert_eq!(subset.charge[inv[50]], -3.25);
        assert_eq!(subset.atom_arena.q[inv[50]], -3.25);
    }

    #[test]
    fn memory_scales_linearly() {
        let s1 = system(200);
        let s2 = system(800);
        let ratio = s2.memory_bytes() as f64 / s1.memory_bytes() as f64;
        assert!(ratio > 2.0 && ratio < 8.0, "memory ratio {ratio}");
    }
}
