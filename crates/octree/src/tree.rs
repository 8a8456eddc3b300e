//! The linear octree container and its queries.

use crate::node::{Node, NodeId};
use crate::stats::TreeStats;
use polaroct_geom::{Aabb, Transform, Vec3};

/// A Morton-ordered linear octree (see the crate docs for the layout).
#[derive(Clone, Debug)]
pub struct Octree {
    /// Cubical domain the Morton codes were derived from.
    pub domain: Aabb,
    /// Flat node array; `nodes[0]` is the root.
    pub nodes: Vec<Node>,
    /// Point positions in Morton order.
    pub points: Vec<Vec3>,
    /// `point_order[i]` = original index of sorted point `i`.
    pub point_order: Vec<u32>,
    /// Ids of leaves, ascending (== Morton order of their ranges).
    pub leaf_ids: Vec<NodeId>,
}

impl Octree {
    /// The root node.
    #[inline]
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Number of points stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of leaves.
    #[inline]
    pub fn leaf_count(&self) -> usize {
        self.leaf_ids.len()
    }

    /// FNV-1a digest over the tree's complete content — domain, every
    /// node field (float *bits*, not values), sorted points,
    /// `point_order`, `leaf_ids`. Two trees digest equal iff they are
    /// byte-identical; tests use this to compare two trees without
    /// holding both.
    pub fn content_digest(&self) -> u64 {
        fn mix(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn mix_f64(h: &mut u64, v: f64) {
            mix(h, &v.to_bits().to_le_bytes());
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [
            self.domain.min.x,
            self.domain.min.y,
            self.domain.min.z,
            self.domain.max.x,
            self.domain.max.y,
            self.domain.max.z,
        ] {
            mix_f64(&mut h, v);
        }
        for n in &self.nodes {
            mix_f64(&mut h, n.center.x);
            mix_f64(&mut h, n.center.y);
            mix_f64(&mut h, n.center.z);
            mix_f64(&mut h, n.radius);
            mix(&mut h, &n.begin.to_le_bytes());
            mix(&mut h, &n.end.to_le_bytes());
            mix(&mut h, &n.first_child.to_le_bytes());
            mix(&mut h, &[n.child_count, n.depth]);
        }
        for p in &self.points {
            mix_f64(&mut h, p.x);
            mix_f64(&mut h, p.y);
            mix_f64(&mut h, p.z);
        }
        for &o in &self.point_order {
            mix(&mut h, &o.to_le_bytes());
        }
        for &l in &self.leaf_ids {
            mix(&mut h, &l.to_le_bytes());
        }
        h
    }

    /// Permute a per-point payload array (indexed like the *original*
    /// input) into this tree's Morton order, so `payload[i]` lines up with
    /// `self.points[i]`.
    pub fn permute<T: Copy>(&self, original: &[T]) -> Vec<T> {
        // PANIC-OK: precondition assert — payload must be per-point; a mismatch is a caller bug.
        assert_eq!(original.len(), self.len());
        self.point_order.iter().map(|&o| original[o as usize]).collect()
    }

    /// Scatter a Morton-ordered per-point array back to original order.
    pub fn unpermute<T: Copy + Default>(&self, sorted: &[T]) -> Vec<T> {
        // PANIC-OK: precondition assert — payload must be per-point; a mismatch is a caller bug.
        assert_eq!(sorted.len(), self.len());
        let mut out = vec![T::default(); sorted.len()];
        for (i, &o) in self.point_order.iter().enumerate() {
            out[o as usize] = sorted[i];
        }
        out
    }

    /// Apply a rigid transform to the whole tree in O(M + nodes): points
    /// and node centers move; radii and the tree topology are invariant.
    /// This is the paper's §IV.C docking optimization — re-posing a ligand
    /// costs a pass over the arrays instead of an O(M log M) rebuild.
    ///
    /// Note: `domain` is updated to the transformed cube's bounding box;
    /// Morton codes are *not* recomputed (they are only needed at build
    /// time).
    pub fn transform(&mut self, t: &Transform) {
        for p in &mut self.points {
            *p = t.apply_point(*p);
        }
        for n in &mut self.nodes {
            n.center = t.apply_point(n.center);
        }
        // The rotated cube's AABB:
        let corners = [
            self.domain.min,
            Vec3::new(self.domain.max.x, self.domain.min.y, self.domain.min.z),
            Vec3::new(self.domain.min.x, self.domain.max.y, self.domain.min.z),
            Vec3::new(self.domain.min.x, self.domain.min.y, self.domain.max.z),
            Vec3::new(self.domain.max.x, self.domain.max.y, self.domain.min.z),
            Vec3::new(self.domain.max.x, self.domain.min.y, self.domain.max.z),
            Vec3::new(self.domain.min.x, self.domain.max.y, self.domain.max.z),
            self.domain.max,
        ];
        self.domain = Aabb::from_points(corners.iter().map(|&c| t.apply_point(c)));
    }

    /// Split the leaves into `parts` contiguous segments of near-equal
    /// *point* counts (not leaf counts): segment `i` is
    /// `leaf_ids[ranges[i].clone()]`. This is the paper's EXPLICIT STATIC
    /// LOAD BALANCING: "Work is divided evenly among processes. The i-th
    /// process computes ... for the i-th segment of ... leaf nodes".
    ///
    /// Balancing by points rather than leaf count keeps per-rank work even
    /// when leaf occupancy varies.
    pub fn partition_leaves(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        // PANIC-OK: precondition assert — zero partitions is a caller bug.
        assert!(parts >= 1);
        let total: usize = self.leaf_ids.iter().map(|&l| self.nodes[l as usize].len()).sum();
        let mut ranges = Vec::with_capacity(parts);
        let mut begin = 0usize;
        let mut acc = 0usize;
        let mut assigned = 0usize;
        for (i, &lid) in self.leaf_ids.iter().enumerate() {
            acc += self.nodes[lid as usize].len();
            // Close the current segment once it reaches its fair share of
            // the remaining points.
            let remaining_parts = parts - ranges.len();
            let target = (total - assigned).div_ceil(remaining_parts);
            if acc >= target && ranges.len() < parts - 1 {
                ranges.push(begin..i + 1);
                begin = i + 1;
                assigned += acc;
                acc = 0;
            }
        }
        ranges.push(begin..self.leaf_ids.len());
        while ranges.len() < parts {
            // More parts than leaves: pad with empty segments.
            let end = self.leaf_ids.len();
            ranges.push(end..end);
        }
        ranges
    }

    /// Split the *points* (atoms) into `parts` near-equal contiguous index
    /// segments — the ATOM-BASED work division of §IV.A.
    pub fn partition_points(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        // PANIC-OK: precondition assert — zero partitions is a caller bug.
        assert!(parts >= 1);
        let n = self.len();
        (0..parts)
            .map(|i| {
                let b = i * n / parts;
                let e = (i + 1) * n / parts;
                b..e
            })
            .collect()
    }

    /// Inflate every node's bounding-sphere radius by `margin` (a
    /// Verlet-style skin). Classification decisions made against the
    /// inflated radii stay conservative while no point has moved more
    /// than `margin / 2` from where the tree was built: for any two
    /// nodes whose *inflated* spheres pass a separation test, the true
    /// current spheres still pass it after both sides drift by up to
    /// `margin / 2` each. Topology, centers and point order are
    /// untouched, so `check_invariants` still holds (containment only
    /// loosens). No-op for `margin == 0` at the bit level: `r + 0.0 == r`
    /// for the non-negative radii a build produces.
    pub fn inflate_radii(&mut self, margin: f64) {
        for n in &mut self.nodes {
            n.radius += margin;
        }
    }

    /// Largest distance from `id`'s center to any point it contains
    /// (its tight bounding radius right now, as opposed to the stored
    /// `radius`, which is build-time and possibly inflated). Used to
    /// audit how much slack a skin margin actually leaves.
    pub fn max_extent(&self, id: NodeId) -> f64 {
        let n = self.node(id);
        let mut m = 0.0f64;
        for i in n.range() {
            m = m.max(n.center.dist(self.points[i]));
        }
        m
    }

    /// Overwrite the Morton-ordered point copies from original-order
    /// positions, leaving topology, centers, radii and `point_order`
    /// untouched. This is the positions-only refresh used on Verlet-skin
    /// reuse: while every point stays within `skin / 2` of the build
    /// geometry, the (inflated) node bounds remain valid for the new
    /// coordinates, so only the leaf payloads need rewriting.
    pub fn refresh_positions(&mut self, original: &[Vec3]) {
        assert!(original.len() == self.points.len());
        for (p, &o) in self.points.iter_mut().zip(&self.point_order) {
            *p = original[o as usize];
        }
    }

    /// Heap bytes held by the tree (§V.B memory accounting).
    /// Capacity-based: reserved-but-unused `Vec` space is resident too,
    /// so counting only `len` would under-report the replicated footprint.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.points.capacity() * std::mem::size_of::<Vec3>()
            + self.point_order.capacity() * std::mem::size_of::<u32>()
            + self.leaf_ids.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Structural statistics.
    pub fn stats(&self) -> TreeStats {
        TreeStats::of(self)
    }

    /// Verify structural invariants (used by tests and debug builds):
    /// children partition parents, spheres contain points, leaf list is
    /// exact. Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("no nodes".into());
        }
        let root = self.root();
        if root.begin != 0 || root.end as usize != self.len() {
            return Err("root does not cover all points".into());
        }
        for (id, n) in self.nodes.iter().enumerate() {
            if n.begin > n.end || n.end as usize > self.len() {
                return Err(format!("node {id}: bad range"));
            }
            if !n.is_leaf() {
                let mut cursor = n.begin;
                for cid in n.children() {
                    // Parents precede their children: `build` numbers a
                    // child block at split time, after its parent, and
                    // the atoms-major Born list walk relies on it.
                    if cid as usize <= id {
                        return Err(format!("node {id}: child {cid} numbered before its parent"));
                    }
                    let c = self
                        .nodes
                        .get(cid as usize)
                        .ok_or_else(|| format!("node {id}: child {cid} out of bounds"))?;
                    if c.begin != cursor {
                        return Err(format!("node {id}: children not contiguous"));
                    }
                    if c.depth != n.depth + 1 {
                        return Err(format!("node {id}: child depth mismatch"));
                    }
                    cursor = c.end;
                }
                if cursor != n.end {
                    return Err(format!("node {id}: children do not cover range"));
                }
            }
            for i in n.range() {
                if n.center.dist(self.points[i]) > n.radius + 1e-9 {
                    return Err(format!("node {id}: point {i} outside sphere"));
                }
            }
        }
        let leaves: Vec<NodeId> = (0..self.nodes.len() as NodeId)
            .filter(|&i| self.nodes[i as usize].is_leaf())
            .collect();
        if leaves != self.leaf_ids {
            return Err("leaf_ids out of sync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, BuildParams};
    use polaroct_geom::transform::Rotation;

    fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 30.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    fn tree(n: usize, seed: u64, cap: usize) -> Octree {
        build(&cloud(n, seed), BuildParams { leaf_capacity: cap, ..Default::default() })
    }

    #[test]
    fn invariants_hold_for_various_sizes() {
        for (n, cap) in [(1usize, 8usize), (10, 2), (500, 8), (3000, 32)] {
            let t = tree(n, n as u64, cap);
            t.check_invariants().unwrap();
        }
    }

    /// `t` with node ids relabelled by `new_of[old]`, which must move
    /// whole child blocks so that every other invariant still holds.
    fn relabel(t: &Octree, new_of: &[NodeId]) -> Octree {
        let mut nodes = t.nodes.clone();
        for (old, n) in t.nodes.iter().enumerate() {
            let mut m = *n;
            if !n.is_leaf() {
                m.first_child = new_of[n.first_child as usize];
            }
            nodes[new_of[old] as usize] = m;
        }
        let leaf_ids =
            (0..nodes.len() as NodeId).filter(|&i| nodes[i as usize].is_leaf()).collect();
        Octree { nodes, leaf_ids, ..t.clone() }
    }

    #[test]
    fn children_are_numbered_after_their_parent() {
        for (n, cap) in [(1usize, 8usize), (10, 2), (500, 8), (3000, 32), (4000, 1)] {
            let pts = cloud(n, 7 * n as u64);
            let t = build(&pts, BuildParams { leaf_capacity: cap, ..Default::default() });
            t.check_invariants().unwrap();
            for (id, node) in t.nodes.iter().enumerate() {
                assert!(node.children().all(|c| c as usize > id), "n {n}: node {id}");
            }
        }

        // Swap the root's child block with the first grandchild block:
        // ranges, depths and leaves stay valid, only the numbering breaks.
        let t = tree(500, 3, 8);
        let k = t.root().child_count as usize;
        let c = t.root().children().find(|&c| t.node(c).first_child as usize == 1 + k).unwrap();
        let g = t.node(c).child_count as usize;
        let new_of: Vec<NodeId> = (0..t.nodes.len())
            .map(|old| match old {
                o if (1..1 + k).contains(&o) => o + g,
                o if (1 + k..1 + k + g).contains(&o) => o - k,
                o => o,
            } as NodeId)
            .collect();
        let err = relabel(&t, &new_of).check_invariants().unwrap_err();
        assert!(err.contains("numbered before its parent"), "{err}");
    }

    #[test]
    fn permute_unpermute_roundtrip() {
        let pts = cloud(300, 5);
        let t = build(&pts, BuildParams::default());
        let payload: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let sorted = t.permute(&payload);
        let back = t.unpermute(&sorted);
        assert_eq!(back, payload);
        // sorted payload lines up with sorted points
        for (i, &s) in sorted.iter().enumerate() {
            assert_eq!(s as usize, t.point_order[i] as usize);
        }
    }

    #[test]
    fn transform_preserves_topology_and_radii() {
        let mut t = tree(1000, 9, 16);
        let radii: Vec<f64> = t.nodes.iter().map(|n| n.radius).collect();
        let tr = Transform::about_pivot(
            Rotation::about_axis(Vec3::new(1.0, 1.0, 0.0), 1.1),
            Vec3::splat(15.0),
            Vec3::new(50.0, -10.0, 3.0),
        );
        t.transform(&tr);
        // Topology identical, radii identical, invariants still hold.
        let radii2: Vec<f64> = t.nodes.iter().map(|n| n.radius).collect();
        assert_eq!(radii, radii2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn partition_leaves_covers_all_exactly_once() {
        let t = tree(2000, 21, 16);
        for parts in [1usize, 2, 3, 7, 12, 64] {
            let ranges = t.partition_leaves(parts);
            assert_eq!(ranges.len(), parts);
            let mut cursor = 0usize;
            for r in &ranges {
                assert_eq!(r.start, cursor);
                cursor = r.end;
            }
            assert_eq!(cursor, t.leaf_count());
        }
    }

    #[test]
    fn partition_leaves_balances_points() {
        let t = tree(4000, 33, 16);
        let parts = 8;
        let ranges = t.partition_leaves(parts);
        let loads: Vec<usize> = ranges
            .iter()
            .map(|r| t.leaf_ids[r.clone()].iter().map(|&l| t.node(l).len()).sum())
            .collect();
        let max = *loads.iter().max().unwrap();
        let avg = 4000 / parts;
        assert!(max < 2 * avg, "imbalanced: {loads:?}");
    }

    #[test]
    fn partition_points_is_even() {
        let t = tree(1001, 2, 16);
        let parts = t.partition_points(4);
        let sizes: Vec<usize> = parts.iter().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1001);
        assert!(sizes.iter().all(|&s| s == 250 || s == 251));
    }

    #[test]
    fn more_parts_than_leaves_pads_empty() {
        let t = tree(5, 3, 8); // single leaf
        let ranges = t.partition_leaves(4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..1);
        assert!(ranges[1..].iter().all(|r| r.is_empty()));
    }

    #[test]
    fn inflate_radii_keeps_invariants_and_zero_is_identity() {
        let t0 = tree(800, 11, 16);
        let mut t = t0.clone();
        t.inflate_radii(0.0);
        assert_eq!(t.content_digest(), t0.content_digest(), "zero skin must be a bit-level no-op");
        t.inflate_radii(1.5);
        t.check_invariants().unwrap();
        for (n, n0) in t.nodes.iter().zip(&t0.nodes) {
            assert_eq!(n.radius, n0.radius + 1.5);
            assert_eq!(n.center, n0.center);
        }
    }

    #[test]
    fn max_extent_is_within_stored_radius() {
        let mut t = tree(600, 17, 8);
        for &lid in &t.leaf_ids.clone() {
            let ext = t.max_extent(lid);
            assert!(ext <= t.node(lid).radius + 1e-9);
        }
        // After inflation the slack is at least the margin.
        let margin = 2.0;
        t.inflate_radii(margin);
        for &lid in &t.leaf_ids.clone() {
            let ext = t.max_extent(lid);
            assert!(t.node(lid).radius - ext >= margin - 1e-9);
        }
    }

    #[test]
    fn refresh_positions_repermutes_and_preserves_topology() {
        let t0 = tree(500, 21, 16);
        let mut t = t0.clone();
        // Reconstruct original-order positions, shift them, refresh.
        let mut original = vec![polaroct_geom::Vec3::ZERO; t.len()];
        for (i, &o) in t.point_order.iter().enumerate() {
            original[o as usize] = t.points[i];
        }
        let shifted: Vec<_> = original
            .iter()
            .map(|p| *p + polaroct_geom::Vec3::new(0.1, -0.2, 0.05))
            .collect();
        t.refresh_positions(&shifted);
        for (i, &o) in t.point_order.iter().enumerate() {
            assert_eq!(t.points[i], shifted[o as usize]);
        }
        assert_eq!(t.point_order, t0.point_order);
        assert_eq!(t.nodes.len(), t0.nodes.len());
        // Refreshing back with the untouched originals is a bit-level
        // round trip to the build state.
        t.refresh_positions(&original);
        assert_eq!(t.content_digest(), t0.content_digest());
    }

    #[test]
    fn memory_is_linear() {
        let t1 = tree(1000, 4, 16);
        let t2 = tree(4000, 4, 16);
        let ratio = t2.memory_bytes() as f64 / t1.memory_bytes() as f64;
        assert!(ratio < 5.0, "memory ratio {ratio}");
    }
}
