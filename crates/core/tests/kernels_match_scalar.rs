//! Property: the lane-batched SoA kernels are **bit-identical** to the
//! straight scalar loops they replaced — at every block length around
//! the lane and CHUNK boundaries, both [`MathMode`]s, and random
//! molecule sizes — through the entry points production calls
//! (`born_block_lanes`/`GbSystem::born_block_terms`,
//! `AtomView::still_block`/`GbSystem::still_block_raw` and
//! `still_pair_block`), and the persistent flat leaf arenas carry no
//! hidden state across the positions-only refresh path.
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
    born_block_lanes, still_pair_block, AtomView, QView, StillScratch, CHUNK,
};
use polaroct_core::{ApproxParams, GbSystem, ListEngine};
use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use polaroct_molecule::synth;
use proptest::prelude::*;
use std::ops::Range;

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

/// Historical scalar leaf block: `Σ_{u∈ur} q_u · still_term_scalar(u → v)`,
/// folded in index order from `0.0`, with Born radii `born`.
fn still_raw_scalar(
    sys: &GbSystem,
    born: &[f64],
    ur: Range<usize>,
    v: AtomView<'_>,
    math: MathMode,
) -> f64 {
    let mut raw = 0.0;
    for ui in ur {
        let xu = sys.atom_arena.position(ui);
        raw += sys.charge[ui] * still_term_scalar(v, xu, born[ui], math);
    }
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Block length × MathMode × molecule size sweep: both kernels, over
    /// arbitrary contiguous arena sub-ranges (a superset of the leaf/clip
    /// ranges the engines slice), single source atoms included, must
    /// reproduce the scalar reference bit-for-bit.
    #[test]
    fn kernels_match_scalar(
        n in 20usize..90,
        seed in 0u64..1000,
        math_i in 0usize..2,
        lo_sel in 0usize..1000,
        len_sel in 0usize..1000,
        src_sel in 0usize..1000,
    ) {
        let math = [MathMode::Exact, MathMode::Approx][math_i];
        let (_mol, _params, sys) = common::prepared_ligand("kernels", n, seed);

        // Arbitrary contiguous q-arena range (includes empty), against
        // one atom: a one-atom block is all tail.
        let qn = sys.q_arena.len();
        let lo = lo_sel % (qn + 1);
        let hi = (lo + len_sel % (qn + 1 - lo)).min(qn);
        let qv = sys.q_arena.view(lo..hi);
        let an = sys.n_atoms();
        let ui = src_sel % an;
        let xa = sys.atom_arena.position(ui);
        let want = born_term_scalar(qv, xa);
        let mut one = [f64::NAN];
        born_block_lanes(qv, &[xa.x], &[xa.y], &[xa.z], &mut one);
        prop_assert_eq!(one[0].to_bits(), want.to_bits(),
            "born one atom range {}..{}: {} vs {}", lo, hi, one[0], want);

        // Block form over a random atom sub-range, directly and through
        // the CHUNK-blocked `born_block_terms`: every term must be
        // bit-equal to the scalar reference at that atom.
        let alo = lo_sel % (an + 1);
        let ahi = (alo + len_sel % (an + 1 - alo)).min(an);
        let (bx, by, bz) = sys.atom_arena.pos_slices(alo..ahi);
        let mut blk = vec![f64::NAN; ahi - alo];
        born_block_lanes(qv, bx, by, bz, &mut blk);
        let mut terms = Vec::with_capacity(blk.len());
        sys.born_block_terms(qv, alo..ahi, |ai, t| terms.push((ai, t)));
        prop_assert_eq!(terms.len(), blk.len());
        for (k, (&got, &(ai, t))) in blk.iter().zip(&terms).enumerate() {
            let want = born_term_scalar(qv, sys.atom_arena.position(alo + k));
            prop_assert_eq!(got.to_bits(), want.to_bits(),
                "born_block atom {}: {} vs {}", alo + k, got, want);
            prop_assert_eq!((ai, t.to_bits()), (alo + k, want.to_bits()),
                "born_block_terms atom {}", alo + k);
        }

        // Arbitrary contiguous atom-arena range; intrinsic radii stand in
        // for Born radii (any positive values exercise the same bits).
        // One scratch instance serves every call on purpose: stale staging
        // contents must not leak into results.
        let av = sys.atom_arena.view(&sys.radius, alo..ahi);
        let ru = sys.radius[ui];
        let want = still_term_scalar(av, xa, ru, math);
        let mut scratch = StillScratch::default();
        let u1 = sys.atom_arena.view(&sys.radius, ui..ui + 1);
        u1.still_block(av, math, &mut scratch, &mut one);
        prop_assert_eq!(one[0].to_bits(), want.to_bits(),
            "still one source range {}..{} {:?}: {} vs {}", alo, ahi, math, one[0], want);

        // Tiled block form, u-block = the same sub-range as a source
        // block (self pairs included — exactly the ordered-pair leaf
        // semantics), and its charge-weighted fold.
        let mut sblk = vec![f64::NAN; ahi - alo];
        av.still_block(av, math, &mut scratch, &mut sblk);
        for (k, &got) in sblk.iter().enumerate() {
            let want = still_term_scalar(
                av,
                sys.atom_arena.position(alo + k),
                sys.radius[alo + k],
                math,
            );
            prop_assert_eq!(got.to_bits(), want.to_bits(),
                "still_block atom {} {:?}: {} vs {}", alo + k, math, got, want);
        }
        let raw = sys.still_block_raw(&sys.radius, alo..ahi, av, math, &mut scratch);
        let want = still_raw_scalar(&sys, &sys.radius, alo..ahi, av, math);
        prop_assert_eq!(raw.to_bits(), want.to_bits(),
            "still_block_raw {}..{} {:?}: {} vs {}", alo, ahi, math, raw, want);
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

/// Block lengths from one atom past two CHUNKs: all tail (1, 7), whole
/// lanes (8, 64), lanes plus a tail (9, 63, 65, 129).
const BLOCK_SIZES: [usize; 8] = [1, 7, 8, 9, 63, CHUNK, CHUNK + 1, 2 * CHUNK + 1];

/// The atom-lane Born kernel over atom blocks around the lane and CHUNK
/// boundaries and q ranges from empty to several CHUNKs: every `out[k]`
/// of `born_block_lanes`, and every term `born_block_terms` delivers,
/// must equal the longhand scalar kernel at atom `k`. `out` starts as
/// NaN, so a slot the kernel fails to overwrite shows.
#[test]
fn born_block_matches_scalar_at_every_block_shape() {
    let (_mol, _params, sys) = common::prepared_protein("born-block", 300, 41);
    let (alo, qlo) = (5, 11);
    assert!(sys.n_atoms() > alo + 2 * CHUNK && sys.q_arena.len() >= qlo + 200);
    let mut checked = 0;
    for na in BLOCK_SIZES {
        let ar = alo..alo + na;
        let (bx, by, bz) = sys.atom_arena.pos_slices(ar.clone());
        for nq in [0usize, 1, 7, 63, 64, 65, 200] {
            let qv = sys.q_arena.view(qlo..qlo + nq);
            let want: Vec<u64> = ar
                .clone()
                .map(|ai| born_term_scalar(qv, sys.atom_arena.position(ai)).to_bits())
                .collect();
            let mut out = vec![f64::NAN; na];
            born_block_lanes(qv, bx, by, bz, &mut out);
            let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "born_block_lanes atoms {na} q {nq}");
            let mut terms = Vec::new();
            sys.born_block_terms(qv, ar.clone(), |ai, t| terms.push((ai, t.to_bits())));
            let want_terms: Vec<(usize, u64)> = ar.clone().zip(want).collect();
            assert_eq!(terms, want_terms, "born_block_terms atoms {na} q {nq}");
            checked += 1;
        }
    }
    assert_eq!(checked, BLOCK_SIZES.len() * 7);
}

/// The tiled STILL kernel over the same block sizes on both axes, both
/// MathModes and charges with zeros and negatives: every `out[k]` of
/// `AtomView::still_block` must equal the longhand scalar sum of source
/// atom `k`, and `still_block_raw` the longhand charge-weighted fold.
/// One scratch serves every call, large tiles before small ones.
#[test]
fn still_block_matches_scalar_at_every_block_shape() {
    let (_mol, _params, mut sys) = common::prepared_protein("still-block", 520, 78);
    for i in (0..sys.n_atoms()).step_by(5) {
        sys.set_atom_charge(i, 0.0);
    }
    for i in (3..sys.n_atoms()).step_by(7) {
        sys.set_atom_charge(i, -0.75);
    }
    let born = sys.radius.clone();
    let (ulo, vlo) = (4, 300);
    assert!(sys.n_atoms() > vlo + 2 * CHUNK);
    let mut scratch = StillScratch::default();
    for math in [MathMode::Exact, MathMode::Approx] {
        for &nu in BLOCK_SIZES.iter().rev() {
            let ur = ulo..ulo + nu;
            let uv = sys.atom_arena.view(&born, ur.clone());
            for nv in [0].into_iter().chain(BLOCK_SIZES) {
                let vv = sys.atom_arena.view(&born, vlo..vlo + nv);
                let want: Vec<u64> = ur
                    .clone()
                    .map(|ui| {
                        let xu = sys.atom_arena.position(ui);
                        still_term_scalar(vv, xu, born[ui], math).to_bits()
                    })
                    .collect();
                let mut out = vec![f64::NAN; nu];
                uv.still_block(vv, math, &mut scratch, &mut out);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "still_block {math:?} u {nu} v {nv}");
                let raw = sys.still_block_raw(&born, ur.clone(), vv, math, &mut scratch);
                let want_raw = still_raw_scalar(&sys, &born, ur.clone(), vv, math);
                assert_eq!(
                    raw.to_bits(),
                    want_raw.to_bits(),
                    "still_block_raw {math:?} u {nu} v {nv}"
                );
            }
        }
    }
}
