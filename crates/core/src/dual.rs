//! Dual-tree algorithms from the paper's prior shared-memory work
//! (Chowdhury & Bajaj \[6\]) — the algorithm behind `OCT_CILK`.
//!
//! §IV: "The major difference of our approach from algorithms presented in
//! \[6\] is that we only traverse one octree instead of two". The \[6\]
//! variant traverses `T_A` and `T_Q` *simultaneously from both roots*,
//! allowing far-field approximation at **internal** nodes of both trees —
//! fewer kernel evaluations, but an irregular recursion that distributes
//! poorly across processes (which is why the distributed drivers switch to
//! the leaf-segment form). Implementing both lets Fig. 7 compare them.

use crate::born::BornAccumulators;
use crate::epol::{far_pairs, far_value, ChargeBins};
use crate::naive::born_radius_from_integral;
use crate::params::born_mac;
use crate::soa::StillScratch;
use crate::system::GbSystem;
use polaroct_cluster::simtime::OpCounts;
use polaroct_geom::fastmath::MathMode;
use polaroct_octree::NodeId;

/// Dual-tree Born radii: simultaneous traversal of `T_A` × `T_Q` with the
/// same §II acceptance criterion, approximating at internal `Q` nodes too.
pub fn born_radii_dual(sys: &GbSystem, eps_born: f64, math: MathMode) -> (Vec<f64>, OpCounts) {
    let mac = born_mac(eps_born);
    let mut acc = BornAccumulators::zeros(sys);
    let mut ops = OpCounts::default();
    born_recurse(sys, 0, 0, mac, &mut acc, &mut ops);
    // Reuse the single-tree push (it is exact given the accumulators).
    let mut out = vec![0.0; sys.n_atoms()];
    ops.add(&crate::born::push_integrals_to_atoms(
        sys,
        &acc,
        0..sys.n_atoms(),
        math,
        &mut out,
    ));
    (out, ops)
}

fn born_recurse(
    sys: &GbSystem,
    a_id: NodeId,
    q_id: NodeId,
    mac: f64,
    acc: &mut BornAccumulators,
    ops: &mut OpCounts,
) {
    let a = sys.atoms.node(a_id);
    let q = sys.qtree.node(q_id);
    ops.nodes_visited += 1;
    let d = q.center - a.center;
    let r2 = d.norm2();
    let sep = (a.radius + q.radius) * mac;
    if r2 > sep * sep && r2 > 0.0 {
        let inv2 = 1.0 / r2;
        acc.node[a_id as usize] += sys.q_node_normal[q_id as usize].dot(d) * inv2 * inv2 * inv2;
        ops.born_far += 1;
        return;
    }
    match (a.is_leaf(), q.is_leaf()) {
        (true, true) => {
            // One kernel implementation for every path: the same
            // lane-batched leaf kernel the serial, threaded and list
            // engines use, over a zero-copy q-arena slice.
            let qv = sys.q_arena.view(q.range());
            sys.born_block_terms(qv, a.range(), |ai, t| acc.atom[ai] += t);
            ops.born_near += (a.len() * q.len()) as u64;
        }
        (true, false) => {
            for qc in q.children() {
                born_recurse(sys, a_id, qc, mac, acc, ops);
            }
        }
        (false, true) => {
            for ac in a.children() {
                born_recurse(sys, ac, q_id, mac, acc, ops);
            }
        }
        (false, false) => {
            // Split the node with the larger radius (standard dual-tree
            // refinement rule — shrinks the acceptance gap fastest).
            if a.radius >= q.radius {
                for ac in a.children() {
                    born_recurse(sys, ac, q_id, mac, acc, ops);
                }
            } else {
                for qc in q.children() {
                    born_recurse(sys, a_id, qc, mac, acc, ops);
                }
            }
        }
    }
}

/// Dual-tree raw E_pol: simultaneous `T_A` × `T_A` traversal from
/// `(root, root)`, covering every *ordered* atom pair exactly once
/// (including the diagonal), with far-field interactions
/// ([`far_value`]) between internal node pairs. The MAC is the bins'
/// own.
pub fn epol_dual_raw(
    sys: &GbSystem,
    bins: &ChargeBins,
    born: &[f64],
    math: MathMode,
) -> (f64, OpCounts) {
    let mut ops = OpCounts::default();
    let mut scratch = StillScratch::default();
    let raw = epol_recurse(sys, bins, born, 0, 0, math, &mut scratch, &mut ops);
    (raw, ops)
}

#[allow(clippy::too_many_arguments)]
fn epol_recurse(
    sys: &GbSystem,
    bins: &ChargeBins,
    born: &[f64],
    u_id: NodeId,
    v_id: NodeId,
    math: MathMode,
    scratch: &mut StillScratch,
    ops: &mut OpCounts,
) -> f64 {
    let u = sys.atoms.node(u_id);
    let v = sys.atoms.node(v_id);
    ops.nodes_visited += 1;

    let r2 = u.center.dist2(v.center);
    let sep = (u.radius + v.radius) * bins.mac;
    // `sep > 0` excludes pairs of point-like (single-atom) nodes: those
    // would otherwise count as "far" for every ε, and the binned kernel's
    // resolution is capped (see `ChargeBins::build`) — evaluating the one
    // exact pair is just as cheap and keeps tiny-ε traversals exact.
    if sep > 0.0 && r2 > sep * sep {
        // Far: both sides may be internal nodes.
        ops.epol_far += far_pairs(bins.of(u_id), bins.of(v_id));
        return far_value(bins, &bins.side(sys, u_id), &bins.side(sys, v_id), math);
    }

    match (u.is_leaf(), v.is_leaf()) {
        (true, true) => {
            // Shared SoA kernel: the block-form lane-batched STILL kernel
            // is bit-identical to the scalar `q·inv_f_gb` accumulation it
            // replaces (soa.rs's `still_block_bit_identical_to_scalar_kernel`),
            // over a zero-copy atom-arena slice.
            let vv = sys.atom_arena.view(born, v.range());
            let raw = sys.still_block_raw(born, u.range(), vv, math, scratch);
            ops.epol_near += (u.len() * v.len()) as u64;
            raw
        }
        (true, false) => {
            let mut raw = 0.0;
            for vc in v.children() {
                raw += epol_recurse(sys, bins, born, u_id, vc, math, scratch, ops);
            }
            raw
        }
        (false, true) => {
            let mut raw = 0.0;
            for uc in u.children() {
                raw += epol_recurse(sys, bins, born, uc, v_id, math, scratch, ops);
            }
            raw
        }
        (false, false) => {
            if u_id == v_id {
                // Same node: expand into all ordered child pairs so the
                // diagonal and both pair orders are each covered once.
                let mut raw = 0.0;
                for uc in u.children() {
                    for vc in v.children() {
                        raw += epol_recurse(sys, bins, born, uc, vc, math, scratch, ops);
                    }
                }
                raw
            } else if u.radius >= v.radius {
                let mut raw = 0.0;
                for uc in u.children() {
                    raw += epol_recurse(sys, bins, born, uc, v_id, math, scratch, ops);
                }
                raw
            } else {
                let mut raw = 0.0;
                for vc in v.children() {
                    raw += epol_recurse(sys, bins, born, u_id, vc, math, scratch, ops);
                }
                raw
            }
        }
    }
}

/// Helper exposed for drivers: Born radii sanity — used nowhere in hot
/// paths, but keeps the dual path's clamp identical to the naive one.
#[allow(dead_code)]
fn clamp(s: f64, intrinsic: f64, math: MathMode) -> f64 {
    born_radius_from_integral(s, intrinsic, math)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::born::born_radii_octree;
    use crate::epol::epol_octree_raw;
    use crate::naive::{born_radii_naive, epol_naive_raw};
    use crate::params::{ApproxParams, EpolFar};
    use polaroct_molecule::synth;

    fn system(n: usize, seed: u64) -> GbSystem {
        GbSystem::prepare(&synth::protein("p", n, seed), &ApproxParams::default())
    }

    #[test]
    fn dual_born_matches_naive_within_eps() {
        let sys = system(450, 3);
        let (naive, _) = born_radii_naive(&sys, MathMode::Exact);
        let (dual, ops) = born_radii_dual(&sys, 0.9, MathMode::Exact);
        let mut worst = 0.0f64;
        for (n, d) in naive.iter().zip(&dual) {
            worst = worst.max(((n - d) / n).abs());
        }
        assert!(worst < 0.01, "dual Born error {worst}");
        assert!(ops.born_far > 0);
    }

    #[test]
    fn dual_does_fewer_ops_than_single_tree() {
        // The [6] algorithm approximates at internal Q nodes, so its
        // near-field work is a subset of the single-tree version's.
        let sys = system(600, 7);
        let (_, single) = born_radii_octree(&sys, 0.9, MathMode::Exact);
        let (_, dual) = born_radii_dual(&sys, 0.9, MathMode::Exact);
        assert!(
            dual.born_near <= single.born_near,
            "dual near {} > single near {}",
            dual.born_near,
            single.born_near
        );
    }

    #[test]
    fn dual_epol_matches_naive_within_one_percent() {
        let sys = system(400, 11);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let (naive_raw, _) = epol_naive_raw(&sys, &born, MathMode::Exact);
        let bins = ChargeBins::build(&sys, &born, 0.9);
        let (raw, _) = epol_dual_raw(&sys, &bins, &born, MathMode::Exact);
        let err = ((raw - naive_raw) / naive_raw).abs();
        assert!(err < 0.01, "dual E_pol error {err}");
    }

    #[test]
    fn dual_epol_exact_when_eps_tiny() {
        // A tiny ε forces full refinement: the dual traversal must cover
        // every ordered pair exactly once ⇒ equals the naive sum.
        let sys = system(130, 5);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let (naive_raw, _) = epol_naive_raw(&sys, &born, MathMode::Exact);
        let eps = 1e-9;
        let bins = ChargeBins::build_far(&sys, &born, eps, EpolFar::Binned);
        let (raw, ops) = epol_dual_raw(&sys, &bins, &born, MathMode::Exact);
        assert!(
            ((raw - naive_raw) / naive_raw).abs() < 1e-9,
            "{raw} vs {naive_raw}"
        );
        assert_eq!(ops.epol_near, (sys.n_atoms() * sys.n_atoms()) as u64);
        assert_eq!(ops.epol_far, 0);
    }

    #[test]
    fn dual_epol_taylor2_exact_when_every_pair_is_near() {
        let sys = system(130, 5);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let (naive_raw, _) = epol_naive_raw(&sys, &born, MathMode::Exact);
        let bins = ChargeBins::build_far(&sys, &born, 0.9, EpolFar::Taylor2 { mac: 1e9 });
        let (raw, ops) = epol_dual_raw(&sys, &bins, &born, MathMode::Exact);
        assert!(((raw - naive_raw) / naive_raw).abs() < 1e-12, "{raw} vs {naive_raw}");
        assert_eq!(ops.epol_near, (sys.n_atoms() * sys.n_atoms()) as u64);
        assert_eq!(ops.epol_far, 0);
    }

    #[test]
    fn dual_and_single_tree_agree_with_each_other() {
        let sys = system(350, 13);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let bins = ChargeBins::build(&sys, &born, 0.9);
        let (single, _) = epol_octree_raw(&sys, &bins, &born, MathMode::Exact);
        let (dual, _) = epol_dual_raw(&sys, &bins, &born, MathMode::Exact);
        // Both are ε-approximations of the same sum: within 2ε of each
        // other trivially, but in practice within ~1%.
        assert!(
            ((single - dual) / single).abs() < 0.02,
            "{single} vs {dual}"
        );
    }
}
