//! Property-based tests of the octree's structural invariants.

use polaroct_geom::Vec3;
use polaroct_octree::{build, try_build, BuildError, BuildParams};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (-100.0f64..100.0, -100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        1..max_n,
    )
}

/// Clouds biased toward degenerate shapes: duplicates, coincident
/// stacks, colinear runs, and plain random clouds (single-point clouds
/// arise from all arms).
fn degenerate_cloud(kind: usize, base: &[Vec3], site: Vec3, copies: usize, pitch: f64) -> Vec<Vec3> {
    match kind {
        // Random cloud (includes n == 1).
        0 => base.to_vec(),
        // Few distinct sites, many exact duplicates of each.
        1 => {
            let sites = &base[..base.len().min(5)];
            let mut pts = Vec::new();
            for _ in 0..copies {
                pts.extend_from_slice(sites);
            }
            pts
        }
        // Everything coincident.
        2 => vec![site; copies],
        // Colinear along an axis with a random pitch.
        _ => (0..copies)
            .map(|i| {
                let v = i as f64 * pitch;
                match copies % 3 {
                    0 => Vec3::new(v, 0.0, 0.0),
                    1 => Vec3::new(0.0, v, 0.0),
                    _ => Vec3::new(0.0, 0.0, v),
                }
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_for_random_clouds(pts in arb_points(400), cap in 1usize..64) {
        let t = build(&pts, BuildParams { leaf_capacity: cap, ..Default::default() });
        prop_assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn morton_order_is_a_permutation(pts in arb_points(300)) {
        let t = build(&pts, BuildParams::default());
        let mut order: Vec<u32> = t.point_order.clone();
        order.sort_unstable();
        let expected: Vec<u32> = (0..pts.len() as u32).collect();
        prop_assert_eq!(order, expected);
    }

    #[test]
    fn leaves_partition_exactly(pts in arb_points(300), cap in 1usize..32) {
        let t = build(&pts, BuildParams { leaf_capacity: cap, ..Default::default() });
        let total: usize = t.leaf_ids.iter().map(|&l| t.node(l).len()).sum();
        prop_assert_eq!(total, pts.len());
    }

    #[test]
    fn duplicated_points_never_hang(p in (-5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0), copies in 1usize..200) {
        let pts = vec![Vec3::new(p.0, p.1, p.2); copies];
        let t = build(&pts, BuildParams { leaf_capacity: 2, ..Default::default() });
        prop_assert_eq!(t.len(), copies);
        prop_assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn partition_leaves_is_exact_cover(pts in arb_points(300), parts in 1usize..16) {
        let t = build(&pts, BuildParams { leaf_capacity: 4, ..Default::default() });
        let ranges = t.partition_leaves(parts);
        prop_assert_eq!(ranges.len(), parts);
        let mut cursor = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, t.leaf_count());
    }

    #[test]
    fn collinear_and_coplanar_clouds_build(n in 2usize..100, axis in 0usize..3) {
        // Degenerate geometry: all points on a line.
        let pts: Vec<Vec3> = (0..n).map(|i| {
            let v = i as f64 * 0.7;
            match axis { 0 => Vec3::new(v, 0.0, 0.0), 1 => Vec3::new(0.0, v, 0.0), _ => Vec3::new(0.0, 0.0, v) }
        }).collect();
        let t = build(&pts, BuildParams { leaf_capacity: 4, ..Default::default() });
        prop_assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn degenerate_clouds_hold_invariants_at_every_depth(
        kind in 0usize..4,
        base in arb_points(250),
        site in (-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0),
        copies in 1usize..100,
        pitch in 0.001f64..2.0,
        cap in 1usize..48,
        max_depth in 0u8..22,
    ) {
        let pts = degenerate_cloud(kind, &base, Vec3::new(site.0, site.1, site.2), copies, pitch);
        let t = build(&pts, BuildParams { leaf_capacity: cap, max_depth, ..Default::default() });
        prop_assert_eq!(t.len(), pts.len());
        prop_assert!(t.check_invariants().is_ok(), "{:?}", t.check_invariants());
    }
}

#[test]
fn empty_cloud_fails_with_empty_input() {
    let err = try_build(&[], BuildParams::default()).unwrap_err();
    assert_eq!(err, BuildError::EmptyInput);
}
