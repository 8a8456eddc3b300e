//! Property: the lane-batched SoA kernels are **bit-identical** to the
//! straight scalar loops they replaced — for every lane width, every
//! runtime chunk size, both [`MathMode`]s, and random molecule sizes —
//! and the persistent flat leaf arenas are bit-interchangeable with the
//! historical per-chunk gathers, including across the positions-only
//! refresh path.
//!
//! The scalar references below are written out longhand in this file on
//! purpose: they are the pre-batching kernel bodies (same operations,
//! same order), independent of `core::soa`, so a regression in the lane
//! staging cannot hide by changing both sides at once. Combined with
//! the repo-level golden suite (`tests/golden_values.rs`, which runs
//! the full pipeline with arenas on against committed snapshots), this
//! pins the determinism contract of DESIGN.md §11.

mod common;

use polaroct_core::soa::{
    born_block_lanes, born_term_lanes, still_block_lanes, still_pair_block, still_term_lanes,
    AtomSoa, AtomView, QLeafSoa, QView, StillScratch, CHUNK,
};
use polaroct_core::{ApproxParams, ListEngine};
use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use polaroct_molecule::synth;
use proptest::prelude::*;

/// Historical scalar r⁶ surface kernel: `Σ (w·d) / d⁶` in index order.
fn born_term_scalar(q: QView<'_>, xa: Vec3) -> f64 {
    let mut s = 0.0;
    for i in 0..q.len() {
        let dx = q.x[i] - xa.x;
        let dy = q.y[i] - xa.y;
        let dz = q.z[i] - xa.z;
        let inv2 = 1.0 / (dx * dx + dy * dy + dz * dz);
        s += (q.wnx[i] * dx + q.wny[i] * dy + q.wnz[i] * dz) * (inv2 * inv2 * inv2);
    }
    s
}

/// Historical scalar STILL kernel: `Σ q_v / f_GB(d², R_u, R_v)` in index
/// order, with per-element `exp`/`rsqrt` through the scalar `MathMode`
/// dispatch (the slice ops are element-wise over the same functions).
fn still_term_scalar(a: AtomView<'_>, xu: Vec3, ru: f64, math: MathMode) -> f64 {
    let mut acc = 0.0;
    for i in 0..a.len() {
        let dx = a.x[i] - xu.x;
        let dy = a.y[i] - xu.y;
        let dz = a.z[i] - xu.z;
        let d2 = dx * dx + dy * dy + dz * dz;
        let rr = ru * a.r[i];
        let e = math.exp(-d2 / (4.0 * rr));
        let f = d2 + rr * e;
        acc += a.q[i] * math.rsqrt(f);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lane width × chunk size × MathMode × molecule size sweep: both
    /// kernels, over arbitrary contiguous arena sub-ranges (a superset
    /// of the leaf/clip ranges the engines slice), must reproduce the
    /// scalar reference bit-for-bit.
    #[test]
    fn kernels_match_scalar(
        n in 20usize..90,
        seed in 0u64..1000,
        math_i in 0usize..2,
        chunk in 1usize..CHUNK + 1,
        lo_sel in 0usize..1000,
        len_sel in 0usize..1000,
        src_sel in 0usize..1000,
    ) {
        let math = [MathMode::Exact, MathMode::Approx][math_i];
        let (_mol, _params, sys) = common::prepared_ligand("kernels", n, seed);

        // Arbitrary contiguous q-arena range (includes empty).
        let qn = sys.q_arena.len();
        let lo = lo_sel % (qn + 1);
        let hi = (lo + len_sel % (qn + 1 - lo)).min(qn);
        let qv = sys.q_arena.view(lo..hi);
        let xa = sys.atom_arena.position(src_sel % sys.n_atoms());
        let want = born_term_scalar(qv, xa);
        macro_rules! check_born {
            ($w:literal) => {
                let got = born_term_lanes::<$w>(qv, xa);
                prop_assert_eq!(got.to_bits(), want.to_bits(),
                    "born_term W={} range {}..{}: {} vs {}", $w, lo, hi, got, want);
            };
        }
        check_born!(1);
        check_born!(2);
        check_born!(3);
        check_born!(4);
        check_born!(8);
        check_born!(16);

        // Block form over a random atom sub-range: every out[k] must be
        // bit-equal to the scalar reference at that atom.
        let an = sys.n_atoms();
        let alo = lo_sel % (an + 1);
        let ahi = (alo + len_sel % (an + 1 - alo)).min(an);
        let (bx, by, bz) = sys.atom_arena.pos_slices(alo..ahi);
        let mut blk = vec![0.0f64; ahi - alo];
        macro_rules! check_born_block {
            ($w:literal) => {
                born_block_lanes::<$w>(qv, bx, by, bz, &mut blk);
                for (k, &got) in blk.iter().enumerate() {
                    let want = born_term_scalar(qv, sys.atom_arena.position(alo + k));
                    prop_assert_eq!(got.to_bits(), want.to_bits(),
                        "born_block W={} atom {}: {} vs {}", $w, alo + k, got, want);
                }
            };
        }
        check_born_block!(1);
        check_born_block!(2);
        check_born_block!(3);
        check_born_block!(4);
        check_born_block!(8);
        check_born_block!(16);

        // Arbitrary contiguous atom-arena range; intrinsic radii stand in
        // for Born radii (any positive values exercise the same bits).
        let av = sys.atom_arena.view(&sys.radius, alo..ahi);
        let ui = src_sel % an;
        let (xu, ru) = (sys.atom_arena.position(ui), sys.radius[ui]);
        let want = still_term_scalar(av, xu, ru, math);
        macro_rules! check_still {
            ($w:literal) => {
                let got = still_term_lanes::<$w>(av, xu, ru, math, chunk);
                prop_assert_eq!(got.to_bits(), want.to_bits(),
                    "still_term W={} chunk={} range {}..{} {:?}: {} vs {}",
                    $w, chunk, alo, ahi, math, got, want);
            };
        }
        check_still!(1);
        check_still!(2);
        check_still!(3);
        check_still!(4);
        check_still!(8);
        check_still!(16);

        // Tiled block form, u-block = the same sub-range as a source
        // block (self pairs included — exactly the ordered-pair leaf
        // semantics). One scratch instance is reused across all widths on
        // purpose: stale staging contents must not leak into results.
        let uv = sys.atom_arena.view(&sys.radius, alo..ahi);
        let mut scratch = StillScratch::default();
        let mut sblk = vec![0.0f64; ahi - alo];
        macro_rules! check_still_block {
            ($w:literal) => {
                still_block_lanes::<$w>(uv, av, math, chunk, &mut scratch, &mut sblk);
                for (k, &got) in sblk.iter().enumerate() {
                    let want = still_term_scalar(
                        av,
                        sys.atom_arena.position(alo + k),
                        sys.radius[alo + k],
                        math,
                    );
                    prop_assert_eq!(got.to_bits(), want.to_bits(),
                        "still_block W={} chunk={} atom {} {:?}: {} vs {}",
                        $w, chunk, alo + k, math, got, want);
                }
            };
        }
        check_still_block!(1);
        check_still_block!(2);
        check_still_block!(3);
        check_still_block!(4);
        check_still_block!(8);
        check_still_block!(16);
    }

    /// Arena refresh: reusing lists with positions moved and then moved
    /// back must reproduce the original full energy bit-for-bit — the
    /// positions-only refresh (octree point copies + flat atom arena)
    /// carries no hidden state. A fresh engine at the same geometry
    /// agrees too (prepare → arena build is deterministic).
    #[test]
    fn arena_refresh_is_exact_and_reversible(
        n in 15usize..40,
        seed in 0u64..500,
        math_i in 0usize..2,
    ) {
        let mol = synth::ligand("refresh", n, seed);
        let approx = ApproxParams {
            math: [MathMode::Exact, MathMode::Approx][math_i],
            ..Default::default()
        };
        let skin = 1.0;
        let mut engine = ListEngine::new(&mol, &approx, skin);
        let e0 = engine.evaluate(&mol.positions);
        prop_assert!(!e0.rebuilt);

        let mut fresh = ListEngine::new(&mol, &approx, skin);
        let ef = fresh.evaluate(&mol.positions);
        prop_assert_eq!(e0.energy_kcal.to_bits(), ef.energy_kcal.to_bits(),
            "fresh prepare disagrees: {} vs {}", e0.energy_kcal, ef.energy_kcal);

        // Perturb every atom within the reuse envelope, then return.
        let jit = 0.4 * skin;
        let moved: Vec<Vec3> = mol
            .positions
            .iter()
            .enumerate()
            .map(|(i, p)| Vec3::new(p.x + jit * (-1.0f64).powi(i as i32), p.y, p.z))
            .collect();
        let e1 = engine.evaluate(&moved);
        prop_assert!(!e1.rebuilt, "jitter {} left the skin envelope", e1.max_disp);
        let e2 = engine.evaluate(&mol.positions);
        prop_assert!(!e2.rebuilt);
        prop_assert_eq!(e0.energy_kcal.to_bits(), e2.energy_kcal.to_bits(),
            "refresh round-trip drifted: {} vs {}", e0.energy_kcal, e2.energy_kcal);
        prop_assert_eq!(e0.raw.to_bits(), e2.raw.to_bits());
        prop_assert_eq!(engine.lists_reused, 3);
        prop_assert_eq!(engine.lists_rebuilt, 1);
    }
}

/// The paired kernel returns both orientations of a leaf pair from one
/// tile: `(raw_uv, raw_vu)` must equal `still_block_raw(u → v)` and
/// `still_block_raw(v → u)` bit for bit. Block sizes 1…200 cover one
/// tile, exactly one CHUNK, and CHUNK blocking on both axes (u-blocks
/// carry the column accumulators, v-chunks the row accumulators); the
/// charges include zeros and negatives; one scratch serves every call,
/// including a large tile before small ones, so stale staging must not
/// leak into the results.
#[test]
fn paired_kernel_matches_two_unpaired_blocks() {
    let (_mol, _params, mut sys) = common::prepared_protein("paired", 520, 77);
    for i in (0..sys.n_atoms()).step_by(5) {
        sys.set_atom_charge(i, 0.0);
    }
    for i in (3..sys.n_atoms()).step_by(7) {
        sys.set_atom_charge(i, -0.75);
    }
    let born = &sys.radius;
    let sizes = [1usize, 7, 63, CHUNK, CHUNK + 1, 200];
    let mut paired_scratch = StillScratch::default();
    let mut scratch = StillScratch::default();
    for math in [MathMode::Exact, MathMode::Approx] {
        for (si, &lu) in sizes.iter().enumerate().rev() {
            for &lv in &sizes {
                // Disjoint ranges, plus the diagonal block when sizes agree.
                let ur = 3 * si..3 * si + lu;
                let vr = if lu == lv { ur.clone() } else { 300..300 + lv };
                for (ur, vr) in [(ur.clone(), vr.clone()), (vr, ur)] {
                    let uv = sys.atom_arena.view(born, ur.clone());
                    let vv = sys.atom_arena.view(born, vr.clone());
                    let (got_uv, got_vu) = still_pair_block(uv, vv, math, &mut paired_scratch);
                    let want_uv = sys.still_block_raw(born, ur.clone(), vv, math, &mut scratch);
                    let want_vu = sys.still_block_raw(born, vr.clone(), uv, math, &mut scratch);
                    assert_eq!(
                        (got_uv.to_bits(), got_vu.to_bits()),
                        (want_uv.to_bits(), want_vu.to_bits()),
                        "{math:?} u {ur:?} v {vr:?}: ({got_uv}, {got_vu}) vs ({want_uv}, {want_vu})"
                    );
                }
            }
        }
    }
}

/// The atom-lane block kernel at every width, over atom blocks around
/// the lane and CHUNK boundaries and q ranges from empty to several
/// CHUNKs: every `out[k]` must equal the longhand scalar kernel at atom
/// `k`, through arena views and through gathered copies alike. `out`
/// starts as NaN, so a slot the kernel fails to overwrite shows.
#[test]
fn born_block_matches_scalar_at_every_width_and_block_shape() {
    let (_mol, _params, sys) = common::prepared_protein("born-block", 300, 41);
    let (alo, qlo) = (5, 11);
    assert!(sys.n_atoms() >= alo + 64 && sys.q_arena.len() >= qlo + 200);
    let mut qsoa = QLeafSoa::default();
    let mut asoa = AtomSoa::default();
    let mut checked = 0;
    for na in [1usize, 7, 8, 9, 31, 32, 33, 64] {
        let ar = alo..alo + na;
        asoa.gather(&sys, &sys.radius, ar.clone());
        let (bx, by, bz) = sys.atom_arena.pos_slices(ar.clone());
        for nq in [0usize, 1, 7, 63, 64, 65, 200] {
            let qr = qlo..qlo + nq;
            let qv = sys.q_arena.view(qr.clone());
            qsoa.gather(&sys, qr);
            let want: Vec<u64> = ar
                .clone()
                .map(|ai| born_term_scalar(qv, sys.atom_arena.position(ai)).to_bits())
                .collect();
            let views = [
                ("arena", qv, (bx, by, bz)),
                ("gather", qsoa.view(), (&asoa.x[..], &asoa.y[..], &asoa.z[..])),
            ];
            for (path, q, (x, y, z)) in views {
                macro_rules! check {
                    ($w:literal) => {
                        let mut out = vec![f64::NAN; na];
                        born_block_lanes::<$w>(q, x, y, z, &mut out);
                        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "{path} W={} atoms {na} q {nq}", $w);
                        checked += 1;
                    };
                }
                check!(1);
                check!(2);
                check!(3);
                check!(4);
                check!(8);
                check!(16);
            }
        }
    }
    assert_eq!(checked, 8 * 7 * 2 * 6);
}
