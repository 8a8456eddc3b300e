//! 63-bit Morton (Z-order) codes.
//!
//! The linear octree in `polaroct-octree` sorts points by Morton code and
//! then carves nodes out of contiguous ranges. 21 bits per axis (63 bits
//! total) gives a 2^21 ≈ 2M-cell resolution per axis — far below the
//! ~0.1 Å atom spacing for any molecule that fits in memory.

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// Bits of resolution per axis.
pub const BITS_PER_AXIS: u32 = 21;
/// Number of cells per axis (2^21).
pub const CELLS_PER_AXIS: u64 = 1 << BITS_PER_AXIS;

/// Spread the low 21 bits of `v` so that there are two zero bits between
/// consecutive data bits (the classic "part by 2" bit trick).
#[inline]
pub fn part1by2(v: u64) -> u64 {
    let mut x = v & 0x1F_FFFF; // 21 bits
    x = (x | (x << 32)) & 0x1F00000000FFFF;
    x = (x | (x << 16)) & 0x1F0000FF0000FF;
    x = (x | (x << 8)) & 0x100F00F00F00F00F;
    x = (x | (x << 4)) & 0x10C30C30C30C30C3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`part1by2`]: compact every third bit into the low 21 bits.
#[inline]
pub fn compact1by2(v: u64) -> u64 {
    let mut x = v & 0x1249249249249249;
    x = (x ^ (x >> 2)) & 0x10C30C30C30C30C3;
    x = (x ^ (x >> 4)) & 0x100F00F00F00F00F;
    x = (x ^ (x >> 8)) & 0x1F0000FF0000FF;
    x = (x ^ (x >> 16)) & 0x1F00000000FFFF;
    x = (x ^ (x >> 32)) & 0x1F_FFFF;
    x
}

/// Interleave three 21-bit cell coordinates into a 63-bit Morton code.
/// Bit layout: x occupies bits {0,3,6,...}, y bits {1,4,7,...}, z bits
/// {2,5,8,...} — so the top 3 bits of the code select the octant at the
/// root, matching [`Aabb::octant`]'s bit convention.
#[inline]
pub fn encode_cells(cx: u64, cy: u64, cz: u64) -> u64 {
    debug_assert!(cx < CELLS_PER_AXIS && cy < CELLS_PER_AXIS && cz < CELLS_PER_AXIS);
    part1by2(cx) | (part1by2(cy) << 1) | (part1by2(cz) << 2)
}

/// Recover the three cell coordinates from a Morton code.
#[inline]
pub fn decode_cells(code: u64) -> (u64, u64, u64) {
    (
        compact1by2(code),
        compact1by2(code >> 1),
        compact1by2(code >> 2),
    )
}

/// Quantizer mapping points in a cubical domain onto Morton cells.
#[derive(Clone, Copy, Debug)]
pub struct MortonQuantizer {
    origin: Vec3,
    /// cells per unit length
    inv_cell: f64,
}

impl MortonQuantizer {
    /// Build a quantizer for the (cubical) `domain`. The domain **must** be
    /// a cube (use [`Aabb::cube_containing`]); a non-cubical box would skew
    /// the space-filling curve and break octree/Morton correspondence.
    pub fn new(domain: &Aabb) -> Self {
        let e = domain.extent();
        debug_assert!(
            (e.x - e.y).abs() < 1e-9 * e.x.abs().max(1.0)
                && (e.y - e.z).abs() < 1e-9 * e.y.abs().max(1.0),
            "Morton domain must be cubical"
        );
        let side = e.x.max(f64::MIN_POSITIVE);
        MortonQuantizer {
            origin: domain.min,
            inv_cell: CELLS_PER_AXIS as f64 / side,
        }
    }

    /// Cell coordinates of `p` (clamped to the domain).
    #[inline]
    pub fn cell_of(&self, p: Vec3) -> (u64, u64, u64) {
        let q = (p - self.origin) * self.inv_cell;
        let clamp = |v: f64| -> u64 {
            let v = v.max(0.0);
            (v as u64).min(CELLS_PER_AXIS - 1)
        };
        (clamp(q.x), clamp(q.y), clamp(q.z))
    }

    /// Morton code of `p`.
    #[inline]
    pub fn code_of(&self, p: Vec3) -> u64 {
        let (x, y, z) = self.cell_of(p);
        encode_cells(x, y, z)
    }
}

/// The child octant (0..8) selected by a Morton code at tree `level`
/// (level 0 = root split). Matches [`Aabb::octant`] numbering.
#[inline]
pub fn child_index_at_level(code: u64, level: u32) -> usize {
    debug_assert!(level < BITS_PER_AXIS);
    let shift = 3 * (BITS_PER_AXIS - 1 - level);
    ((code >> shift) & 0b111) as usize
}

/// Prefix of `code` down to (and including) `levels` root splits; two codes
/// share the same octree node at depth `levels` iff their prefixes match.
#[inline]
pub fn prefix_at_level(code: u64, levels: u32) -> u64 {
    if levels == 0 {
        return 0;
    }
    debug_assert!(levels <= BITS_PER_AXIS);
    let shift = 3 * (BITS_PER_AXIS - levels);
    code >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_compact_roundtrip() {
        for v in [0u64, 1, 2, 3, 0x1F_FFFF, 0x15555, 0xABCDE, 99999] {
            assert_eq!(compact1by2(part1by2(v)), v);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for &(x, y, z) in &[
            (0u64, 0u64, 0u64),
            (1, 2, 3),
            (CELLS_PER_AXIS - 1, 0, CELLS_PER_AXIS - 1),
            (123456, 654321, 111111),
        ] {
            assert_eq!(decode_cells(encode_cells(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn axis_bit_positions() {
        // x -> bit 0, y -> bit 1, z -> bit 2 of each triple.
        assert_eq!(encode_cells(1, 0, 0), 0b001);
        assert_eq!(encode_cells(0, 1, 0), 0b010);
        assert_eq!(encode_cells(0, 0, 1), 0b100);
    }

    #[test]
    fn morton_order_matches_octant_order_at_root() {
        let domain = Aabb::new(Vec3::ZERO, Vec3::splat(8.0));
        let q = MortonQuantizer::new(&domain);
        // A point in each root octant; codes must sort in octant order.
        let mut codes = Vec::new();
        for i in 0..8 {
            let c = domain.octant(i).center();
            codes.push((q.code_of(c), i));
        }
        let mut sorted = codes.clone();
        sorted.sort();
        assert_eq!(codes, sorted, "octant index order == Morton order");
        for (code, i) in codes {
            assert_eq!(child_index_at_level(code, 0), i);
        }
    }

    #[test]
    fn quantizer_clamps_out_of_domain_points() {
        let domain = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let q = MortonQuantizer::new(&domain);
        let below = q.cell_of(Vec3::splat(-5.0));
        let above = q.cell_of(Vec3::splat(5.0));
        assert_eq!(below, (0, 0, 0));
        assert_eq!(
            above,
            (CELLS_PER_AXIS - 1, CELLS_PER_AXIS - 1, CELLS_PER_AXIS - 1)
        );
    }

    #[test]
    fn prefix_at_level_identifies_shared_ancestors() {
        let domain = Aabb::new(Vec3::ZERO, Vec3::splat(16.0));
        let q = MortonQuantizer::new(&domain);
        // Two points in the same root octant but different sub-octants.
        let a = q.code_of(Vec3::new(1.0, 1.0, 1.0));
        let b = q.code_of(Vec3::new(7.0, 7.0, 7.0));
        let c = q.code_of(Vec3::new(9.0, 9.0, 9.0));
        assert_eq!(prefix_at_level(a, 1), prefix_at_level(b, 1));
        assert_ne!(prefix_at_level(a, 1), prefix_at_level(c, 1));
        assert_eq!(prefix_at_level(a, 0), prefix_at_level(c, 0));
    }

    #[test]
    fn nearby_points_share_long_prefixes() {
        let domain = Aabb::new(Vec3::ZERO, Vec3::splat(1024.0));
        let q = MortonQuantizer::new(&domain);
        let a = q.code_of(Vec3::new(100.0, 100.0, 100.0));
        let b = q.code_of(Vec3::new(100.001, 100.001, 100.001));
        let far = q.code_of(Vec3::new(900.0, 900.0, 900.0));
        let shared_ab = (a ^ b).leading_zeros();
        let shared_afar = (a ^ far).leading_zeros();
        assert!(shared_ab > shared_afar);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn non_cubical_domain_debug_panics() {
        let bad = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 2.0, 1.0));
        let _ = MortonQuantizer::new(&bad);
    }
}
