//! Uniform-grid cell list over atom centers.
//!
//! Used by the surface builder for buried-point tests, and reused by
//! `polaroct-baselines` as the substrate for nonbonded-list construction
//! (the nblist the paper compares octrees against).

use polaroct_geom::{Aabb, Vec3};

/// A uniform grid binning point indices by cell.
#[derive(Clone, Debug)]
pub struct CellList {
    origin: Vec3,
    cell: f64,
    dims: [usize; 3],
    /// CSR layout: `starts[c]..starts[c+1]` indexes into `entries`.
    starts: Vec<u32>,
    entries: Vec<u32>,
}

impl CellList {
    /// Bin `points` into cells of edge `cell_size` (must exceed the query
    /// radius you intend to use with [`CellList::for_neighbors`] for the
    /// 27-cell stencil to be sufficient... see `for_neighbors`).
    pub fn new(points: &[Vec3], cell_size: f64) -> Self {
        // PANIC-OK: precondition assert — an empty point set has no cells to bin.
        assert!(!points.is_empty());
        // PANIC-OK: precondition assert — a non-positive cell edge is a caller bug.
        assert!(cell_size > 0.0);
        let bbox = Aabb::from_points(points.iter().copied());
        let origin = bbox.min - Vec3::splat(cell_size * 0.5);
        let extent = bbox.max - origin + Vec3::splat(cell_size * 0.5);
        let dims = [
            (extent.x / cell_size).ceil() as usize + 1,
            (extent.y / cell_size).ceil() as usize + 1,
            (extent.z / cell_size).ceil() as usize + 1,
        ];
        let ncells = dims[0] * dims[1] * dims[2];

        // Counting sort into CSR.
        let cell_of = |p: Vec3| -> usize {
            let cx = ((p.x - origin.x) / cell_size) as usize;
            let cy = ((p.y - origin.y) / cell_size) as usize;
            let cz = ((p.z - origin.z) / cell_size) as usize;
            (cz * dims[1] + cy) * dims[0] + cx
        };
        let mut counts = vec![0u32; ncells + 1];
        for &p in points {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 0..ncells {
            counts[i + 1] += counts[i];
        }
        let starts = counts.clone();
        let mut cursor = starts.clone();
        let mut entries = vec![0u32; points.len()];
        for (i, &p) in points.iter().enumerate() {
            let c = cell_of(p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        CellList { origin, cell: cell_size, dims, starts, entries }
    }

    /// Visit the indices of all points within the 27-cell neighborhood of
    /// `p`. **Completeness requires `radius <= cell_size`**: every point
    /// within `radius` of `p` is visited (plus some farther ones — callers
    /// must distance-check). Debug-asserts that precondition.
    pub fn for_neighbors(&self, p: Vec3, radius: f64, mut f: impl FnMut(u32)) {
        debug_assert!(
            radius <= self.cell + 1e-9,
            "query radius {radius} exceeds cell size {}",
            self.cell
        );
        let cx = ((p.x - self.origin.x) / self.cell).floor() as isize;
        let cy = ((p.y - self.origin.y) / self.cell).floor() as isize;
        let cz = ((p.z - self.origin.z) / self.cell).floor() as isize;
        for dz in -1..=1isize {
            let z = cz + dz;
            if z < 0 || z as usize >= self.dims[2] {
                continue;
            }
            for dy in -1..=1isize {
                let y = cy + dy;
                if y < 0 || y as usize >= self.dims[1] {
                    continue;
                }
                for dx in -1..=1isize {
                    let x = cx + dx;
                    if x < 0 || x as usize >= self.dims[0] {
                        continue;
                    }
                    let c = (z as usize * self.dims[1] + y as usize) * self.dims[0] + x as usize;
                    let (b, e) = (self.starts[c] as usize, self.starts[c + 1] as usize);
                    for &idx in &self.entries[b..e] {
                        f(idx);
                    }
                }
            }
        }
    }

    /// Collect neighbor candidates (test convenience).
    pub fn neighbors(&self, p: Vec3, radius: f64) -> Vec<u32> {
        let mut v = Vec::new();
        self.for_neighbors(p, radius, |i| v.push(i));
        v
    }

    /// Heap bytes (for the nblist-vs-octree memory comparison).
    pub fn memory_bytes(&self) -> usize {
        self.starts.len() * 4 + self.entries.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, seed: u64, side: f64) -> Vec<Vec3> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * side
        };
        (0..n).map(|_| Vec3::new(next(), next(), next())).collect()
    }

    #[test]
    fn finds_all_points_within_radius() {
        let pts = cloud(500, 5, 20.0);
        let cl = CellList::new(&pts, 3.0);
        for (qi, &q) in pts.iter().enumerate().step_by(17) {
            let brute: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, &p)| p.dist2(q) <= 9.0)
                .map(|(i, _)| i as u32)
                .collect();
            let mut got = cl.neighbors(q, 3.0);
            got.retain(|&i| pts[i as usize].dist2(q) <= 9.0);
            got.sort_unstable();
            assert_eq!(got, brute, "query point {qi}");
        }
    }

    #[test]
    fn every_point_binned_once() {
        let pts = cloud(300, 9, 10.0);
        let cl = CellList::new(&pts, 2.0);
        assert_eq!(cl.entries.len(), 300);
        let mut seen = vec![false; 300];
        for &e in &cl.entries {
            assert!(!seen[e as usize]);
            seen[e as usize] = true;
        }
    }

    #[test]
    fn query_off_grid_is_safe() {
        let pts = cloud(100, 3, 5.0);
        let cl = CellList::new(&pts, 2.0);
        // Far outside the grid: no neighbors, no panic.
        assert!(cl.neighbors(Vec3::splat(1e6), 2.0).is_empty());
        assert!(cl.neighbors(Vec3::splat(-1e6), 2.0).is_empty());
    }

    #[test]
    fn single_point_grid() {
        let cl = CellList::new(&[Vec3::ZERO], 1.5);
        assert_eq!(cl.neighbors(Vec3::ZERO, 1.5), vec![0]);
    }

    #[test]
    fn memory_scales_with_points_not_radius() {
        // The octree-vs-nblist story: cell list structure itself is O(N).
        let pts = cloud(1000, 4, 30.0);
        let small = CellList::new(&pts, 3.0);
        assert_eq!(small.entries.len(), 1000);
        // entries size is independent of later query radius choices.
        assert!(small.memory_bytes() < 1_000_000);
    }
}
