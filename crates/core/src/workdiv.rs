//! Work-division schemes for the distributed drivers (§IV.A).
//!
//! The paper explores distributing the Born and E_pol phases either by
//! octree **leaf nodes** (each rank gets whole leaves) or by **atoms /
//! q-points** (each rank gets index ranges, which may split leaves). It
//! settles on *node-node* ("performed better than other alternatives"),
//! with two observed properties our tests verify:
//!
//! * node-based division's error is **constant in P** (every rank sees
//!   whole tree nodes, so the approximation is partition-independent);
//! * atom-based division's error **drifts with P** ("different division
//!   boundaries can split the same treenode differently").
//!
//! Both divisions hand each rank one `Share` per leaf step, and one
//! kernel per step runs it: the share's leaves, each clipped to the
//! share's points. The two divisions differ only in which range is the
//! whole one.

use polaroct_octree::{NodeId, Octree};
use std::ops::Range;

/// Which division the distributed drivers use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WorkDivision {
    /// Leaf segments for Step 2 (q-leaves) and Step 6 (atom leaves); atom
    /// index segments for the exact push in Step 4. The paper's default.
    #[default]
    NodeNode,
    /// Index ranges of q-points (Step 2) and atoms (Step 6), splitting
    /// leaves at rank boundaries.
    AtomBased,
}

impl WorkDivision {
    pub fn name(self) -> &'static str {
        match self {
            WorkDivision::NodeNode => "node-node",
            WorkDivision::AtomBased => "atom-based",
        }
    }

    /// Rank `rank`'s static share of `tree`'s leaves among `parts` ranks.
    /// Node-node gives the rank its [`Octree::partition_leaves`] segment
    /// with every point (a rank past the last leaf gets no leaves);
    /// atom-based gives it every leaf clipped to its
    /// [`Octree::partition_points`] range.
    pub(crate) fn share(self, tree: &Octree, parts: usize, rank: usize) -> Share {
        let (n, leaves) = (tree.len(), tree.leaf_count());
        match self {
            WorkDivision::NodeNode => Share {
                leaves: tree
                    .partition_leaves(parts)
                    .get(rank)
                    .cloned()
                    .unwrap_or(leaves..leaves),
                points: 0..n,
            },
            WorkDivision::AtomBased => Share {
                leaves: 0..leaves,
                points: tree
                    .partition_points(parts)
                    .get(rank)
                    .cloned()
                    .unwrap_or(n..n),
            },
        }
    }
}

/// One rank's part of a Fig. 4 leaf step (Step 2 over the quadrature
/// leaves, Step 6 over the atom leaves): the leaves at positions
/// `leaves` of the tree's `leaf_ids`, each clipped to the points
/// `points`.
///
/// It takes two ranges because `leaf_ids` runs in node-id order, which
/// is not point order: a node-node leaf segment is not a point interval.
#[derive(Debug)]
pub(crate) struct Share {
    /// Positions in `leaf_ids`.
    pub(crate) leaves: Range<usize>,
    /// Morton point indices each leaf is clipped to.
    pub(crate) points: Range<usize>,
}

impl Share {
    /// The share's leaves that hold at least one of its points, in
    /// leaf-id order: one Fig. 4 task each.
    pub(crate) fn tasks<'a>(&'a self, tree: &'a Octree) -> impl Iterator<Item = NodeId> + 'a {
        let ids = tree.leaf_ids.get(self.leaves.clone()).unwrap_or(&[]);
        ids.iter().copied().filter(move |&id| {
            let leaf = tree.node(id);
            (leaf.end as usize) > self.points.start && (leaf.begin as usize) < self.points.end
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_node_node() {
        assert_eq!(WorkDivision::default(), WorkDivision::NodeNode);
    }

    #[test]
    fn names() {
        assert_eq!(WorkDivision::NodeNode.name(), "node-node");
        assert_eq!(WorkDivision::AtomBased.name(), "atom-based");
    }

    /// Every point lands in exactly one rank's tasks, and every task holds
    /// one of its rank's points; node-node leaf
    /// segments and atom-based point ranges tile their index spaces in
    /// rank order, trailing node-node shares empty past the last leaf.
    #[test]
    fn shares_tile_the_tree_in_rank_order() {
        let mol = polaroct_molecule::synth::protein("p", 400, 5);
        let sys = crate::GbSystem::prepare(&mol, &crate::ApproxParams::default());
        for tree in [&sys.atoms, &sys.qtree] {
            let (n, leaves) = (tree.len(), tree.leaf_count());
            for parts in [1, 2, 3, 8, leaves + 3] {
                for div in [WorkDivision::NodeNode, WorkDivision::AtomBased] {
                    let shares: Vec<Share> =
                        (0..parts).map(|r| div.share(tree, parts, r)).collect();
                    let mut hits = vec![0u32; n];
                    for share in &shares {
                        for id in share.tasks(tree) {
                            let leaf = tree.node(id).range();
                            let lo = leaf.start.max(share.points.start);
                            let hi = leaf.end.min(share.points.end);
                            assert!(lo < hi, "{div:?} P={parts}: a task with no points");
                            hits[lo..hi].iter_mut().for_each(|h| *h += 1);
                        }
                    }
                    assert!(
                        hits.iter().all(|&h| h == 1),
                        "{div:?} P={parts}: not an exact cover"
                    );
                    let (tiled, end) = match div {
                        WorkDivision::NodeNode => {
                            assert!(shares.iter().all(|s| s.points == (0..n)));
                            (
                                shares.iter().map(|s| s.leaves.clone()).collect::<Vec<_>>(),
                                leaves,
                            )
                        }
                        WorkDivision::AtomBased => {
                            assert!(shares.iter().all(|s| s.leaves == (0..leaves)));
                            (shares.iter().map(|s| s.points.clone()).collect(), n)
                        }
                    };
                    let mut cursor = 0;
                    for r in &tiled {
                        assert_eq!(r.start, cursor, "{div:?} P={parts}: gap or overlap");
                        cursor = r.end;
                    }
                    assert_eq!(cursor, end, "{div:?} P={parts}: does not reach the end");
                }
            }
            let past = (0..leaves + 3).map(|r| WorkDivision::NodeNode.share(tree, leaves + 3, r));
            assert!(past
                .skip(leaves)
                .all(|s| s.leaves.is_empty() && s.tasks(tree).count() == 0));
        }
    }
}
