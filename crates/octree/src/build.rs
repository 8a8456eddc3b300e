//! Octree construction: Morton sort + recursive range splitting.
//!
//! `O(M log M)` total (the sort dominates), matching the paper's Step-1
//! cost analysis. The recursion never copies points: each node is carved
//! out of the sorted array by binary-searching octant boundaries in the
//! Morton codes.

use crate::node::{Node, NodeId, NO_CHILD};
use crate::tree::Octree;
use polaroct_geom::morton::{self, MortonQuantizer};
use polaroct_geom::{Aabb, Vec3};

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct BuildParams {
    /// Maximum points per leaf. The paper's kernels do exact `O(|A|·|Q|)`
    /// work at leaf pairs, so this bounds the exact-interaction tile size.
    pub leaf_capacity: usize,
    /// Hard depth cap (21 = Morton resolution). Points sharing a Morton
    /// cell can never be separated, so a leaf may exceed `leaf_capacity`
    /// at this depth.
    pub max_depth: u8,
    /// Padding added around the point cloud when the cubical domain is
    /// derived (Å). Avoids boundary-cell degeneracies.
    pub domain_pad: f64,
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams { leaf_capacity: 32, max_depth: 21, domain_pad: 1.0 }
    }
}

/// Why a build request was rejected (before any work happened).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// An octree needs at least one point.
    EmptyInput,
    /// `leaf_capacity` must be at least 1.
    ZeroLeafCapacity,
    /// `max_depth` exceeds the Morton resolution
    /// ([`morton::BITS_PER_AXIS`]); deeper levels cannot separate points.
    DepthExceedsMortonResolution {
        /// The offending requested depth.
        max_depth: u8,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyInput => write!(f, "cannot build an octree over zero points"),
            BuildError::ZeroLeafCapacity => write!(f, "leaf_capacity must be >= 1"),
            BuildError::DepthExceedsMortonResolution { max_depth } => write!(
                f,
                "max_depth {} exceeds the Morton resolution of {} bits per axis",
                max_depth,
                morton::BITS_PER_AXIS
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Build an octree over `points`, panicking on invalid parameters (the
/// historical infallible entry point; use [`try_build`] to handle
/// parameter errors as values).
///
/// Returns an [`Octree`] whose `points` are a Morton-sorted copy;
/// `point_order[i]` is the index in the *original* slice of sorted point
/// `i`, so callers can permute per-point payloads to match.
pub fn build(points: &[Vec3], params: BuildParams) -> Octree {
    match try_build(points, params) {
        Ok(tree) => tree,
        // Fallible callers use `try_build` instead.
        // PANIC-OK: invalid build parameters are caller bugs at this infallible entry point.
        Err(e) => panic!("octree build: {e}"),
    }
}

/// Build an octree over `points`, rejecting invalid parameters as a
/// [`BuildError`] instead of panicking.
pub fn try_build(points: &[Vec3], params: BuildParams) -> Result<Octree, BuildError> {
    if points.is_empty() {
        return Err(BuildError::EmptyInput);
    }
    if params.leaf_capacity < 1 {
        return Err(BuildError::ZeroLeafCapacity);
    }
    if params.max_depth as u32 > morton::BITS_PER_AXIS {
        return Err(BuildError::DepthExceedsMortonResolution { max_depth: params.max_depth });
    }
    Ok(build_serial(points, &params))
}

/// A node over `sorted_codes[b..e]` at `depth` becomes internal iff this
/// holds.
fn can_split(
    sorted_codes: &[u64],
    b: usize,
    e: usize,
    depth: u8,
    params: &BuildParams,
) -> bool {
    e - b > params.leaf_capacity
        && depth < params.max_depth
        // All points in the same Morton cell — cannot split further.
        && sorted_codes[b] != sorted_codes[e - 1]
}

/// Visit the non-empty octant runs of `sorted_codes[b..e]` at tree
/// `level` in octant order, calling `emit(lo, hi)` for each run.
fn for_each_octant_run(
    sorted_codes: &[u64],
    b: usize,
    e: usize,
    level: u32,
    mut emit: impl FnMut(usize, usize),
) {
    let mut lo = b;
    while lo < e {
        let oct = morton::child_index_at_level(sorted_codes[lo], level);
        // Binary search the end of this octant's run.
        let hi =
            upper_bound(&sorted_codes[lo..e], |&c| morton::child_index_at_level(c, level) == oct)
                + lo;
        emit(lo, hi);
        lo = hi;
    }
}

fn build_serial(points: &[Vec3], params: &BuildParams) -> Octree {
    let tight = Aabb::from_points(points.iter().copied());
    let domain = Aabb::cube_containing(tight, params.domain_pad);
    let quant = MortonQuantizer::new(&domain);

    // Morton-sort the point indices by `(code, original index)` — a
    // total order with a unique result.
    let mut order: Vec<u32> = (0..points.len() as u32).collect();
    let codes_by_orig: Vec<u64> = points.iter().map(|&p| quant.code_of(p)).collect();
    order.sort_unstable_by_key(|&i| (codes_by_orig[i as usize], i));

    let sorted_points: Vec<Vec3> = order.iter().map(|&i| points[i as usize]).collect();
    let sorted_codes: Vec<u64> = order.iter().map(|&i| codes_by_orig[i as usize]).collect();

    let mut nodes: Vec<Node> = Vec::with_capacity(2 * points.len() / params.leaf_capacity + 8);
    nodes.push(make_node(&sorted_points, 0, sorted_points.len() as u32, 0));

    // Iterative DFS split; children of each node are pushed contiguously.
    let mut stack: Vec<NodeId> = vec![0];
    while let Some(id) = stack.pop() {
        let node = nodes[id as usize];
        let (b, e) = (node.begin as usize, node.end as usize);
        if !can_split(&sorted_codes, b, e, node.depth, params) {
            continue; // stays a leaf
        }
        let first_child = nodes.len() as NodeId;
        let mut child_count = 0u8;
        for_each_octant_run(&sorted_codes, b, e, node.depth as u32, |lo, hi| {
            nodes.push(make_node(&sorted_points, lo as u32, hi as u32, node.depth + 1));
            child_count += 1;
        });
        debug_assert!((1..=8).contains(&child_count));
        let m = &mut nodes[id as usize];
        m.first_child = first_child;
        m.child_count = child_count;
        for c in 0..child_count as NodeId {
            stack.push(first_child + c);
        }
    }

    let leaf_ids: Vec<NodeId> = (0..nodes.len() as NodeId)
        .filter(|&i| nodes[i as usize].is_leaf())
        .collect();

    Octree { domain, nodes, points: sorted_points, point_order: order, leaf_ids }
}

/// Number of leading elements of `slice` satisfying `pred` (the slice must
/// be partitioned: all satisfying elements first).
fn upper_bound<T, F: Fn(&T) -> bool>(slice: &[T], pred: F) -> usize {
    let mut lo = 0usize;
    let mut hi = slice.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(&slice[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Materialize the node over `points[begin..end]`: sequential centroid
/// fold, then the max-distance radius.
fn make_node(points: &[Vec3], begin: u32, end: u32, depth: u8) -> Node {
    let slice = &points[begin as usize..end as usize];
    let mut c = Vec3::ZERO;
    for &p in slice {
        c += p;
    }
    c = c / slice.len().max(1) as f64;
    let mut r2: f64 = 0.0;
    for &p in slice {
        r2 = r2.max(c.dist2(p));
    }
    Node {
        center: c,
        radius: r2.sqrt(),
        begin,
        end,
        first_child: NO_CHILD,
        child_count: 0,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 40.0 - 20.0
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn builds_single_point() {
        let t = build(&[Vec3::new(1.0, 2.0, 3.0)], BuildParams::default());
        assert_eq!(t.nodes.len(), 1);
        assert!(t.nodes[0].is_leaf());
        assert_eq!(t.nodes[0].len(), 1);
        assert_eq!(t.nodes[0].radius, 0.0);
    }

    #[test]
    fn duplicate_points_terminate() {
        // 100 identical points exceed any leaf capacity but share a Morton
        // cell; the build must terminate with one (oversized) leaf.
        let pts = vec![Vec3::new(1.0, 1.0, 1.0); 100];
        let t = build(&pts, BuildParams { leaf_capacity: 4, ..Default::default() });
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.nodes[0].len(), 100);
    }

    #[test]
    fn duplicate_codes_sort_by_original_index() {
        // Equal Morton codes must tie-break on the original index — the
        // canonical order.
        let pts = vec![Vec3::new(2.0, 2.0, 2.0); 7];
        let t = build(&pts, BuildParams::default());
        assert_eq!(t.point_order, (0..7).collect::<Vec<u32>>());
    }

    #[test]
    fn leaves_partition_points() {
        let pts = cloud(2000, 3);
        let t = build(&pts, BuildParams { leaf_capacity: 16, ..Default::default() });
        let mut covered = vec![false; pts.len()];
        for &lid in &t.leaf_ids {
            for i in t.nodes[lid as usize].range() {
                assert!(!covered[i], "point {i} in two leaves");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "every point in some leaf");
    }

    #[test]
    fn children_partition_parent_range() {
        let pts = cloud(3000, 7);
        let t = build(&pts, BuildParams { leaf_capacity: 8, ..Default::default() });
        for node in &t.nodes {
            if node.is_leaf() {
                continue;
            }
            let mut cursor = node.begin;
            for cid in node.children() {
                let c = &t.nodes[cid as usize];
                assert_eq!(c.begin, cursor, "children contiguous in range");
                assert_eq!(c.depth, node.depth + 1);
                assert!(!c.is_empty(), "no empty children are materialized");
                cursor = c.end;
            }
            assert_eq!(cursor, node.end, "children cover the parent range");
        }
    }

    #[test]
    fn leaf_capacity_respected_away_from_depth_cap() {
        let pts = cloud(5000, 11);
        let cap = 24;
        let t = build(&pts, BuildParams { leaf_capacity: cap, ..Default::default() });
        for &lid in &t.leaf_ids {
            let n = &t.nodes[lid as usize];
            if (n.depth as u32) < morton::BITS_PER_AXIS {
                assert!(n.len() <= cap, "leaf of {} points at depth {}", n.len(), n.depth);
            }
        }
    }

    #[test]
    fn node_spheres_contain_their_points() {
        let pts = cloud(1500, 13);
        let t = build(&pts, BuildParams::default());
        for node in &t.nodes {
            for i in node.range() {
                let d = node.center.dist(t.points[i]);
                assert!(d <= node.radius + 1e-9);
            }
        }
    }

    #[test]
    fn point_order_is_a_permutation() {
        let pts = cloud(800, 17);
        let t = build(&pts, BuildParams::default());
        let mut seen = vec![false; pts.len()];
        for &o in &t.point_order {
            assert!(!seen[o as usize]);
            seen[o as usize] = true;
        }
        // And sorted points really are the permuted originals.
        for (i, &o) in t.point_order.iter().enumerate() {
            assert_eq!(t.points[i], pts[o as usize]);
        }
    }

    #[test]
    fn space_is_linear_in_points() {
        // Octree-vs-nblist claim: node count stays O(M / leaf_capacity).
        let pts = cloud(10_000, 23);
        let t = build(&pts, BuildParams { leaf_capacity: 16, ..Default::default() });
        // Every split creates >= 2 non-empty children, so internal nodes
        // <= leaves and leaves <= points: nodes < 2 * points regardless of
        // leaf capacity. (The nblist, by contrast, stores one entry per
        // *pair* within the cutoff.)
        assert!(
            t.nodes.len() < 2 * pts.len(),
            "{} nodes for {} points",
            t.nodes.len(),
            pts.len()
        );
    }

    #[test]
    fn upper_bound_finds_partition_point() {
        let v = [1, 1, 1, 2, 3];
        assert_eq!(upper_bound(&v, |&x| x == 1), 3);
        assert_eq!(upper_bound(&v, |&x| x < 10), 5);
        assert_eq!(upper_bound(&v, |&x| x < 0), 0);
        let empty: [i32; 0] = [];
        assert_eq!(upper_bound(&empty, |_| true), 0);
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        let _ = build(&[], BuildParams::default());
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let pts = [Vec3::new(1.0, 2.0, 3.0)];
        assert_eq!(
            try_build(&[], BuildParams::default()).unwrap_err(),
            BuildError::EmptyInput
        );
        assert_eq!(
            try_build(&pts, BuildParams { leaf_capacity: 0, ..Default::default() }).unwrap_err(),
            BuildError::ZeroLeafCapacity
        );
        assert_eq!(
            try_build(&pts, BuildParams { max_depth: 22, ..Default::default() }).unwrap_err(),
            BuildError::DepthExceedsMortonResolution { max_depth: 22 }
        );
        // Display strings are actionable.
        let msg = BuildError::DepthExceedsMortonResolution { max_depth: 22 }.to_string();
        assert!(msg.contains("22") && msg.contains("21"), "{msg}");
        assert!(try_build(&pts, BuildParams::default()).is_ok());
    }
}
