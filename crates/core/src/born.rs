//! `APPROX-INTEGRALS` and `PUSH-INTEGRALS-TO-ATOMS` (Fig. 2).
//!
//! For a quadrature-tree leaf `Q` and an atoms-tree node `A`:
//!
//! * **far** (`r_AQ > (r_A + r_Q)·(θ+1)/(θ−1)`, `θ = 1+ε` — see
//!   [`crate::params::born_mac`] for why not the prose's
//!   `(1+ε)^{1/6}`): the
//!   whole leaf's contribution to every atom under `A` is approximated by
//!   one pseudo-particle term collected in `s_A`:
//!   `s_A += ñ_Q · (c_Q − c_A) / r_AQ⁶` with `ñ_Q = Σ_q w_q n_q`;
//! * **leaf–leaf**: exact `Σ_q w_q (n_q · (p_q − p_a)) / |p_q − p_a|⁶`
//!   added to each atom's `s_a`;
//! * otherwise recurse into `A`'s children.
//!
//! `PUSH-INTEGRALS-TO-ATOMS` then adds every ancestor's `s_A` into each
//! atom's total and converts to Born radii.
//!
//! Both functions take index subranges so the distributed drivers can
//! implement the paper's work divisions: node-based division clips to
//! every point, so each leaf stays whole; atom/q-point-based division
//! clips to the rank's range, which is precisely why its error drifts
//! with `P` (partial leaves get different pseudo-particle aggregates —
//! §IV.A's observation).

use crate::naive::born_radii_from_integrals;
use crate::params::born_mac;
use crate::soa::{QView, CHUNK};
use crate::system::GbSystem;
use polaroct_cluster::simtime::OpCounts;
use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use polaroct_octree::NodeId;
use std::ops::Range;

/// Partial-integral accumulators: `node[id]` is Fig. 2's `s_A`, `atom[i]`
/// is `s_a` (Morton atom order). Allreduced across ranks in Step 3.
#[derive(Clone, Debug, Default)]
pub struct BornAccumulators {
    pub node: Vec<f64>,
    pub atom: Vec<f64>,
}

impl BornAccumulators {
    pub fn zeros(sys: &GbSystem) -> Self {
        BornAccumulators {
            node: vec![0.0; sys.atoms.nodes.len()],
            atom: vec![0.0; sys.n_atoms()],
        }
    }

    /// Flatten into one buffer for `MPI_Allreduce` (node sums first).
    pub fn to_flat(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.node.len() + self.atom.len());
        v.extend_from_slice(&self.node);
        v.extend_from_slice(&self.atom);
        v
    }

    /// Inverse of [`Self::to_flat`].
    pub fn from_flat(&mut self, flat: &[f64]) {
        // PANIC-OK: precondition assert — a mis-sized snapshot is a caller bug, not a runtime fault.
        assert_eq!(flat.len(), self.node.len() + self.atom.len());
        let n = self.node.len();
        // PANIC-OK: lengths match by the assert above.
        self.node.copy_from_slice(&flat[..n]);
        // PANIC-OK: atom.len() == flat.len() - n by the assert above.
        self.atom.copy_from_slice(&flat[n..]);
    }
}

/// Aggregates describing one (possibly clipped) quadrature leaf.
struct QLeafView {
    center: Vec3,
    radius: f64,
    normal_sum: Vec3,
    range: Range<usize>,
}

impl QLeafView {
    /// Whole-leaf view: uses the precomputed node aggregates (node-based
    /// work division — every rank sees identical aggregates, so the
    /// result is `P`-invariant).
    fn whole(sys: &GbSystem, leaf: NodeId) -> QLeafView {
        let n = sys.qtree.node(leaf);
        QLeafView {
            center: n.center,
            radius: n.radius,
            normal_sum: sys.q_node_normal[leaf as usize],
            range: n.range(),
        }
    }

    /// Clipped view covering only `clip ∩ leaf` (q-point-based division):
    /// aggregates are recomputed over the subset, so different clip
    /// boundaries yield different approximations.
    fn clipped(sys: &GbSystem, leaf: NodeId, clip: &Range<usize>) -> Option<QLeafView> {
        let n = sys.qtree.node(leaf);
        let lo = n.range().start.max(clip.start);
        let hi = n.range().end.min(clip.end);
        if lo >= hi {
            return None;
        }
        if lo == n.range().start && hi == n.range().end {
            return Some(QLeafView::whole(sys, leaf));
        }
        let mut c = Vec3::ZERO;
        let mut ns = Vec3::ZERO;
        for i in lo..hi {
            c += sys.qtree.points[i];
            ns += sys.q_normal[i] * sys.q_weight[i];
        }
        c = c / (hi - lo) as f64;
        let mut r2: f64 = 0.0;
        for i in lo..hi {
            r2 = r2.max(c.dist2(sys.qtree.points[i]));
        }
        Some(QLeafView {
            center: c,
            radius: r2.sqrt(),
            normal_sum: ns,
            range: lo..hi,
        })
    }
}

/// Fig. 2 `APPROX-INTEGRALS` for the q-points `clip ∩ Q` of quadrature
/// leaf `Q` against the whole atoms tree, far when farther apart than
/// `mac` times the radii ([`crate::params::born_mac`] for the ε rule).
/// Returns op counts (the caller charges them to its clock / task-cost
/// vector). A `clip` covering `Q` keeps the leaf's precomputed
/// aggregates; a partial one recomputes them over the subset. Either
/// way the points are a zero-copy slice of the q-point arena.
pub fn approx_integrals(
    sys: &GbSystem,
    q_leaf: NodeId,
    clip: &Range<usize>,
    mac: f64,
    acc: &mut BornAccumulators,
) -> OpCounts {
    let mut ops = OpCounts::default();
    if let Some(view) = QLeafView::clipped(sys, q_leaf, clip) {
        let qv = sys.q_arena.view(view.range.clone());
        recurse(sys, 0, &view, qv, mac, acc, &mut ops);
    }
    ops
}

fn recurse(
    sys: &GbSystem,
    a_id: NodeId,
    q: &QLeafView,
    qv: QView<'_>,
    mac: f64,
    acc: &mut BornAccumulators,
    ops: &mut OpCounts,
) {
    let a = sys.atoms.node(a_id);
    ops.nodes_visited += 1;
    let d = q.center - a.center;
    let r2 = d.norm2();
    let sep = (a.radius + q.radius) * mac;
    if r2 > sep * sep && r2 > 0.0 {
        // Far enough: one pseudo-particle term for the whole subtree.
        let inv2 = 1.0 / r2;
        acc.node[a_id as usize] += q.normal_sum.dot(d) * inv2 * inv2 * inv2;
        ops.born_far += 1;
        return;
    }
    if a.is_leaf() {
        // Exact leaf-leaf block over the flat SoA view of `q`.
        sys.born_block_terms(qv, a.range(), |ai, t| acc.atom[ai] += t);
        ops.born_near += (a.len() * q.range.len()) as u64;
        return;
    }
    for c in a.children() {
        recurse(sys, c, q, qv, mac, acc, ops);
    }
}

/// Fig. 2 `PUSH-INTEGRALS-TO-ATOMS`: add all ancestors' `s_A` to each
/// atom in `atom_range` (Morton order) and write Born radii there.
/// Subtrees disjoint from the range are pruned (the paper's
/// `[s_id, e_id]`). Returns op counts (node visits).
pub fn push_integrals_to_atoms(
    sys: &GbSystem,
    acc: &BornAccumulators,
    atom_range: Range<usize>,
    math: MathMode,
    out: &mut [f64],
) -> OpCounts {
    // PANIC-OK: precondition assert — a mis-sized output buffer is a caller bug, not a runtime fault.
    assert_eq!(out.len(), sys.n_atoms());
    let mut ops = OpCounts::default();
    push_recurse(sys, 0, 0.0, acc, &atom_range, math, out, &mut ops);
    ops
}

/// [`push_integrals_to_atoms`] for one atom segment, returning just the
/// segment's radii: the unit the pooled push fans out and the Fig. 4
/// gather regenerates. The push writes through a full-length slice, so
/// this fills a scratch one; the O(n) zeroing is noise next to the
/// kernel phases.
pub(crate) fn push_segment(
    sys: &GbSystem,
    acc: &BornAccumulators,
    range: Range<usize>,
    math: MathMode,
) -> (Vec<f64>, OpCounts) {
    let mut full = vec![0.0; sys.n_atoms()];
    let ops = push_integrals_to_atoms(sys, acc, range.clone(), math, &mut full);
    // PANIC-OK: callers pass a block or rank segment of 0..n_atoms.
    (full[range].to_vec(), ops)
}

#[allow(clippy::too_many_arguments)]
fn push_recurse(
    sys: &GbSystem,
    id: NodeId,
    inherited: f64,
    acc: &BornAccumulators,
    range: &Range<usize>,
    math: MathMode,
    out: &mut [f64],
    ops: &mut OpCounts,
) {
    let node = sys.atoms.node(id);
    // Prune subtrees with no atoms in the assigned segment.
    if node.end as usize <= range.start || node.begin as usize >= range.end {
        return;
    }
    ops.nodes_visited += 1;
    let s = inherited + acc.node[id as usize];
    if node.is_leaf() {
        let lo = node.range().start.max(range.start);
        let hi = node.range().end.min(range.end);
        // Stage `per-atom integral + inherited ancestor sum` into chunk
        // blocks and finalize through the lane-batched invcbrt path —
        // bit-identical per element to the scalar finalization.
        let mut ib = [0.0f64; CHUNK];
        let mut base = lo;
        while base < hi {
            let m = CHUNK.min(hi - base);
            for (k, &a) in acc.atom[base..base + m].iter().enumerate() {
                ib[k] = a + s;
            }
            born_radii_from_integrals(
                &ib[..m],
                &sys.radius[base..base + m],
                math,
                &mut out[base..base + m],
            );
            base += m;
        }
        return;
    }
    for c in node.children() {
        push_recurse(sys, c, s, acc, range, math, out, ops);
    }
}

/// Full-tree Born radii via the octree approximation (single process):
/// `APPROX-INTEGRALS` over every quadrature leaf + one full push. The
/// building block for the serial and shared-memory drivers.
pub fn born_radii_octree(sys: &GbSystem, eps_born: f64, math: MathMode) -> (Vec<f64>, OpCounts) {
    let mut acc = BornAccumulators::zeros(sys);
    let mut ops = OpCounts::default();
    let (all, mac) = (0..sys.n_qpoints(), born_mac(eps_born));
    for &q_leaf in &sys.qtree.leaf_ids {
        ops.add(&approx_integrals(sys, q_leaf, &all, mac, &mut acc));
    }
    let mut out = vec![0.0; sys.n_atoms()];
    ops.add(&push_integrals_to_atoms(
        sys,
        &acc,
        0..sys.n_atoms(),
        math,
        &mut out,
    ));
    (out, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::born_radii_naive;
    use crate::params::ApproxParams;
    use polaroct_molecule::synth;
    use polaroct_surface::SurfaceParams;

    fn system(n: usize, seed: u64) -> GbSystem {
        let mol = synth::protein("p", n, seed);
        GbSystem::prepare(&mol, &ApproxParams::default())
    }

    #[test]
    fn octree_born_matches_naive_within_eps() {
        let sys = system(500, 3);
        let (naive, _) = born_radii_naive(&sys, MathMode::Exact);
        let (approx, ops) = born_radii_octree(&sys, 0.9, MathMode::Exact);
        let mut worst = 0.0f64;
        for (n, a) in naive.iter().zip(&approx) {
            worst = worst.max(((n - a) / n).abs());
        }
        // ε bounds the kernel error; radius error is ~ε/3 at worst (cube
        // root); in practice far smaller. 1% is the paper's headline.
        assert!(worst < 0.01, "worst Born radius error {worst}");
        assert!(ops.born_far > 0, "approximation never triggered");
    }

    #[test]
    fn tighter_eps_is_more_accurate() {
        let sys = system(400, 9);
        let (naive, _) = born_radii_naive(&sys, MathMode::Exact);
        let err = |eps: f64| {
            let (b, _) = born_radii_octree(&sys, eps, MathMode::Exact);
            naive
                .iter()
                .zip(&b)
                .map(|(n, a)| ((n - a) / n).abs())
                .fold(0.0f64, f64::max)
        };
        let loose = err(0.9);
        let tight = err(0.05);
        assert!(tight <= loose + 1e-15, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn tighter_eps_costs_more_ops() {
        let sys = system(400, 9);
        let ops = |eps: f64| born_radii_octree(&sys, eps, MathMode::Exact).1;
        let loose = ops(0.9);
        let tight = ops(0.1);
        assert!(
            tight.born_near + tight.born_far >= loose.born_near + loose.born_far,
            "tight ε should do at least as much work"
        );
        assert!(
            tight.born_near > loose.born_near,
            "tight ε does more exact work"
        );
    }

    #[test]
    fn accumulators_flat_roundtrip() {
        let sys = system(100, 1);
        let mut acc = BornAccumulators::zeros(&sys);
        acc.node[0] = 1.5;
        acc.atom[7] = -2.5;
        let flat = acc.to_flat();
        let mut acc2 = BornAccumulators::zeros(&sys);
        acc2.from_flat(&flat);
        assert_eq!(acc2.node[0], 1.5);
        assert_eq!(acc2.atom[7], -2.5);
    }

    #[test]
    fn push_respects_atom_ranges() {
        let sys = system(200, 5);
        let mut acc = BornAccumulators::zeros(&sys);
        let all = 0..sys.n_qpoints();
        for &q in &sys.qtree.leaf_ids {
            approx_integrals(&sys, q, &all, born_mac(0.9), &mut acc);
        }
        // Full push vs two half-pushes must agree exactly.
        let mut full = vec![0.0; 200];
        push_integrals_to_atoms(&sys, &acc, 0..200, MathMode::Exact, &mut full);
        let mut halves = vec![0.0; 200];
        push_integrals_to_atoms(&sys, &acc, 0..100, MathMode::Exact, &mut halves);
        push_integrals_to_atoms(&sys, &acc, 100..200, MathMode::Exact, &mut halves);
        assert_eq!(full, halves);
    }

    #[test]
    fn leaf_segments_partition_work_exactly() {
        // Summing accumulators from disjoint leaf segments equals the
        // all-at-once accumulators (the Step-2/Step-3 identity).
        let sys = system(300, 7);
        let (every, mac) = (0..sys.n_qpoints(), born_mac(0.9));
        let mut all = BornAccumulators::zeros(&sys);
        for &q in &sys.qtree.leaf_ids {
            approx_integrals(&sys, q, &every, mac, &mut all);
        }
        let ranges = sys.qtree.partition_leaves(3);
        let mut merged = BornAccumulators::zeros(&sys);
        for r in ranges {
            let mut part = BornAccumulators::zeros(&sys);
            for &q in &sys.qtree.leaf_ids[r] {
                approx_integrals(&sys, q, &every, mac, &mut part);
            }
            for (m, p) in merged.node.iter_mut().zip(&part.node) {
                *m += p;
            }
            for (m, p) in merged.atom.iter_mut().zip(&part.atom) {
                *m += p;
            }
        }
        for (a, b) in all.node.iter().zip(&merged.node) {
            assert!((a - b).abs() < 1e-12);
        }
        for (a, b) in all.atom.iter().zip(&merged.atom) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn clipped_views_cover_the_same_points() {
        // q-point-based division: union of clipped computations over a
        // partition of indices touches every q-point exactly once. The
        // *sum* differs from whole-leaf (different aggregates), but with
        // MAC disabled (ε→0 forces exact) results must match naive.
        let mol = synth::protein("p", 120, 13);
        let params = ApproxParams {
            surface: SurfaceParams {
                icosphere_level: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let sys = GbSystem::prepare(&mol, &params);
        let nq = sys.n_qpoints();
        let mid = nq / 2;
        let mut acc = BornAccumulators::zeros(&sys);
        let mut ops = OpCounts::default();
        let mac = born_mac(1e-7);
        for &q in &sys.qtree.leaf_ids {
            ops.add(&approx_integrals(&sys, q, &(0..mid), mac, &mut acc));
            ops.add(&approx_integrals(&sys, q, &(mid..nq), mac, &mut acc));
        }
        let mut out = vec![0.0; sys.n_atoms()];
        push_integrals_to_atoms(&sys, &acc, 0..sys.n_atoms(), MathMode::Exact, &mut out);
        let (naive, _) = born_radii_naive(&sys, MathMode::Exact);
        for (a, n) in out.iter().zip(&naive) {
            assert!(((a - n) / n).abs() < 1e-6, "{a} vs {n}");
        }
    }

    #[test]
    fn node_division_error_is_p_invariant() {
        // §IV.A: "for node-based work division, the error is constant"
        // — the Born radii must be bit-identical for any P.
        let sys = system(250, 21);
        let born_for = |parts: usize| {
            let ranges = sys.qtree.partition_leaves(parts);
            let every = 0..sys.n_qpoints();
            let mut acc = BornAccumulators::zeros(&sys);
            for r in ranges {
                for &q in &sys.qtree.leaf_ids[r] {
                    approx_integrals(&sys, q, &every, born_mac(0.9), &mut acc);
                }
            }
            let mut out = vec![0.0; sys.n_atoms()];
            push_integrals_to_atoms(&sys, &acc, 0..sys.n_atoms(), MathMode::Exact, &mut out);
            out
        };
        let p1 = born_for(1);
        for parts in [2usize, 5, 13] {
            assert_eq!(p1, born_for(parts), "P={parts} changed the result");
        }
    }
}
