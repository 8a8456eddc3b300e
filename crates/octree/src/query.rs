//! Spatial queries over the linear octree.
//!
//! The energy kernels use their own fused traversals; the general query
//! here serves the tooling around them: clash detection between two
//! trees, as in the pose minimizer example.

use crate::node::NodeId;
use crate::tree::Octree;

impl Octree {
    /// Do any two points of `self` and `other` come within `dist`?
    /// Dual-tree descent with sphere pruning — used for pose clash checks.
    pub fn intersects_within(&self, other: &Octree, dist: f64) -> bool {
        let mut stack: Vec<(NodeId, NodeId)> = vec![(0, 0)];
        let d2 = dist * dist;
        while let Some((a_id, b_id)) = stack.pop() {
            let a = self.node(a_id);
            let b = other.node(b_id);
            let gap = a.center.dist(b.center) - a.radius - b.radius;
            if gap > dist {
                continue;
            }
            match (a.is_leaf(), b.is_leaf()) {
                (true, true) => {
                    for i in a.range() {
                        for j in b.range() {
                            if self.points[i].dist2(other.points[j]) <= d2 {
                                return true;
                            }
                        }
                    }
                }
                (true, false) => stack.extend(b.children().map(|c| (a_id, c))),
                (false, true) => stack.extend(a.children().map(|c| (c, b_id))),
                (false, false) => {
                    if a.radius >= b.radius {
                        stack.extend(a.children().map(|c| (c, b_id)));
                    } else {
                        stack.extend(b.children().map(|c| (a_id, c)));
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{build, BuildParams};
    use polaroct_geom::Vec3;

    fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 50.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn intersects_within_detects_contact_and_separation() {
        let a = build(&cloud(200, 9), BuildParams::default());
        // Same cloud shifted far away: disjoint at small dist.
        let far: Vec<Vec3> = a.points.iter().map(|&p| p + Vec3::splat(500.0)).collect();
        let tf = build(&far, BuildParams::default());
        assert!(!a.intersects_within(&tf, 10.0));
        // Shifted slightly: overlapping.
        let near: Vec<Vec3> = a.points.iter().map(|&p| p + Vec3::splat(0.5)).collect();
        let tn = build(&near, BuildParams::default());
        assert!(a.intersects_within(&tn, 1.0));
        // Exact threshold sanity: barely touching at the shift distance.
        assert!(a.intersects_within(&tf, 900.0));
    }
}
