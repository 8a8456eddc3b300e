//! SoA (structure-of-arrays) leaf kernels, lane-batched, plus the
//! persistent flat leaf arenas that feed them.
//!
//! The octree traversals spend almost all of their near-field time in two
//! inner loops: the exact leaf–leaf block of `APPROX-INTEGRALS` (r⁶ surface
//! integrand) and the exact leaf block of `APPROX-E_pol` (STILL pair
//! kernel). Evaluating them through `Vec3`-of-structs accessors defeats
//! auto-vectorization: the lanes are interleaved in memory and the
//! transcendentals (`exp`, `rsqrt`) are emitted one call at a time.
//!
//! Two layers fix that (DESIGN.md §11):
//!
//! * **Lane-batched kernels** ([`born_term_lanes`], [`still_term_lanes`]):
//!   every element-wise stage (coordinate diffs, `d²`, reciprocals, dot
//!   products, the batched `exp`/`rsqrt` slice ops) runs as an independent
//!   elementwise loop over the lane-covered prefix of a stack chunk buffer
//!   (`W` lanes per block, scalar remainder), with FMA-shaped `a*b + c`
//!   expressions. The stages are expressed as plain counted loops over
//!   full buffers rather than manually unrolled `[f64; W]` blocks on
//!   purpose: LLVM's loop vectorizer turns the former into packed `pd`
//!   instructions, while hand-unrolled fixed-width blocks get scalarized
//!   (measured on the seed host — see `bench/bin/kernel_throughput`).
//!   Crucially every accumulator still folds **in gathered index
//!   order**, one term at a time. STILL stages the per-element terms into
//!   a buffer and sums them with a scalar loop; the r⁶ block kernel puts
//!   its lanes on the atom axis instead, so each atom's sum is its own
//!   in-order add chain and the chains of neighbouring atoms share
//!   vector lanes. Per element the arithmetic is unchanged (same
//!   operations, same order), and a sequential in-order sum is the same
//!   float reduction regardless of how the terms were produced, so both
//!   kernels are bit-identical to the pre-lane scalar loops at every `W`
//!   (the width only moves the lane/tail boundary).
//!
//! * **Persistent arenas** ([`QArena`], [`AtomArena`]): because the linear
//!   octree stores points in Morton order and every leaf owns a contiguous
//!   `range()`, one full-length flat SoA array per field serves *all*
//!   leaves — a leaf view is plain slicing, no gather. `GbSystem` builds
//!   both arenas once at `prepare` time; `ListEngine`'s positions-only
//!   refresh rewrites the atom-arena coordinates in place on skin reuse.
//!
//! The gathered scratch types ([`QLeafSoa`], [`AtomSoa`]) remain as the
//! copy-in path for callers without an arena (and as an independent
//! reference in tests/benches); they delegate to the same lane kernels.

use crate::system::GbSystem;
use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use std::ops::Range;

/// Chunk width for the batched STILL kernel. Wide enough to fill 512-bit
/// vector units several times over, small enough to live on the stack.
pub const CHUNK: usize = 64;

/// Default lane width for the batched kernels: 8 × f64 = one 512-bit
/// vector register (two 256-bit ops on AVX2). Bit-identity holds at every
/// width, so this is purely a throughput knob.
pub const LANES: usize = 8;

/// Borrowed flat view of a quadrature-point range: positions plus
/// weight-premultiplied normals (`w_q · n_q`), so the r⁶ integrand needs
/// one dot product and no extra scale per pair.
#[derive(Clone, Copy, Debug)]
pub struct QView<'a> {
    pub x: &'a [f64],
    pub y: &'a [f64],
    pub z: &'a [f64],
    pub wnx: &'a [f64],
    pub wny: &'a [f64],
    pub wnz: &'a [f64],
}

impl QView<'_> {
    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Exact r⁶ surface term of this range at one atom position:
    /// `Σ_q (w_q n_q)·(p_q − p_a) / |p_q − p_a|⁶`, in index order.
    #[inline]
    pub fn born_term(&self, xa: Vec3) -> f64 {
        born_term_lanes::<LANES>(*self, xa)
    }

    /// Block form at the default width: `out[k]` gets [`QView::born_term`]
    /// of this range at atom `k` of the position block. See
    /// [`born_block_lanes`].
    #[inline]
    pub fn born_block(&self, ax: &[f64], ay: &[f64], az: &[f64], out: &mut [f64]) {
        born_block_lanes::<LANES>(*self, ax, ay, az, out)
    }
}

/// Borrowed flat view of an atoms range: positions, charges and Born
/// radii — the operands of the STILL pair kernel.
#[derive(Clone, Copy, Debug)]
pub struct AtomView<'a> {
    pub x: &'a [f64],
    pub y: &'a [f64],
    pub z: &'a [f64],
    pub q: &'a [f64],
    pub r: &'a [f64],
}

impl<'a> AtomView<'a> {
    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Consecutive sub-views of at most `n ≥ 1` atoms, in index order.
    fn blocks(self, n: usize) -> impl Iterator<Item = AtomView<'a>> {
        let lanes = self.x.chunks(n).zip(self.y.chunks(n)).zip(self.z.chunks(n));
        lanes
            .zip(self.q.chunks(n).zip(self.r.chunks(n)))
            .map(|(((x, y), z), (q, r))| AtomView { x, y, z, q, r })
    }

    /// Exact STILL sum of one source atom `(x_u, R_u)` against this range:
    /// `Σ_v q_v / f_GB(r_uv², R_u, R_v)`, accumulated in index order.
    #[inline]
    pub fn still_term(&self, xu: Vec3, ru: f64, math: MathMode) -> f64 {
        still_term_lanes::<LANES>(*self, xu, ru, math, CHUNK)
    }

    /// Block form at the default width, with `self` as the *source* block
    /// (`self.r` holds the sources' Born radii): `out[k]` gets
    /// [`AtomView::still_term`] of source atom `k` against `v`. See
    /// [`still_block_lanes`].
    #[inline]
    pub fn still_block(
        &self,
        v: AtomView<'_>,
        math: MathMode,
        scratch: &mut StillScratch,
        out: &mut [f64],
    ) {
        still_block_lanes::<LANES>(*self, v, math, CHUNK, scratch, out)
    }
}

/// Lane-batched r⁶ surface kernel over an explicit width `W`: the
/// one-atom case of [`born_block_lanes`], so a single atom is all tail.
/// Per element this is exactly the historical scalar loop
/// (`d² = dx²+dy²+dz²`, `inv2 = 1/d²`, `term = (w·d)·inv2³`), folded
/// from `0.0` in q index order — bit-identical to the scalar kernel for
/// every `W ≥ 1`.
#[inline]
pub fn born_term_lanes<const W: usize>(q: QView<'_>, xa: Vec3) -> f64 {
    let mut out = [0.0f64];
    born_block_lanes::<W>(q, &[xa.x], &[xa.y], &[xa.z], &mut out);
    out[0]
}

/// Block form of the r⁶ surface kernel: the term of the whole q-range at
/// *each* atom of a position block, `out[k]` for atom `k`.
///
/// The lanes run over the **atom** axis: for each q point in index
/// order, one elementwise loop updates every atom of the block,
/// `out[k] += (w·d)·inv2³`, over the lane-covered prefix
/// `na - na % W` and then the scalar tail with the identical
/// expression. Each `out[k]` starts at `0.0` and receives its terms in
/// q index order, so every atom's sum is the same float sequence as
/// [`born_term_lanes`] at that atom, at every `W` (the width only moves
/// the lane/tail boundary). What the swap buys: the per-atom sums are
/// independent add chains that share vector lanes, instead of one
/// serial add chain per atom.
pub fn born_block_lanes<const W: usize>(
    q: QView<'_>,
    ax: &[f64],
    ay: &[f64],
    az: &[f64],
    out: &mut [f64],
) {
    let na = out.len();
    debug_assert!(W >= 1);
    debug_assert!(ax.len() == na && ay.len() == na && az.len() == na);
    debug_assert!(q.y.len() == q.len() && q.z.len() == q.len());
    debug_assert!(q.wnx.len() == q.len() && q.wny.len() == q.len() && q.wnz.len() == q.len());
    out.fill(0.0);
    let lanes = na - na % W;
    let (out_l, out_t) = out.split_at_mut(lanes);
    let (ax_l, ax_t) = ax.split_at(lanes.min(ax.len()));
    let (ay_l, ay_t) = ay.split_at(lanes.min(ay.len()));
    let (az_l, az_t) = az.split_at(lanes.min(az.len()));
    let pos = q.x.iter().zip(q.y).zip(q.z);
    let wn = q.wnx.iter().zip(q.wny).zip(q.wnz);
    for (((&qx, &qy), &qz), ((&wx, &wy), &wz)) in pos.zip(wn) {
        // One elementwise loop over the lane-covered prefix: no
        // cross-iteration dependency, so the loop vectorizer packs the
        // subs, the d² chain, the divide, the weighted dot and the add
        // W/vector-width atoms at a time.
        let lane = out_l.iter_mut().zip(ax_l).zip(ay_l).zip(az_l);
        for (((o, &pax), &pay), &paz) in lane {
            let dx = qx - pax;
            let dy = qy - pay;
            let dz = qz - paz;
            let inv2 = 1.0 / (dx * dx + dy * dy + dz * dz);
            *o += (wx * dx + wy * dy + wz * dz) * (inv2 * inv2 * inv2);
        }
        let tail = out_t.iter_mut().zip(ax_t).zip(ay_t).zip(az_t);
        for (((o, &pax), &pay), &paz) in tail {
            let dx = qx - pax;
            let dy = qy - pay;
            let dz = qz - paz;
            let inv2 = 1.0 / (dx * dx + dy * dy + dz * dz);
            *o += (wx * dx + wy * dy + wz * dz) * (inv2 * inv2 * inv2);
        }
    }
}

/// Lane-batched STILL kernel over an explicit width `W` and a runtime
/// chunk size (`1..=CHUNK`; the default path uses `CHUNK`).
///
/// Distances and exponent arguments are staged into chunk-sized stack
/// buffers as independent elementwise loops over the lane-covered prefix
/// (`m - m % W`, scalar remainder), then `exp` and `rsqrt` run over the
/// whole chunk via the batched [`MathMode`] slice ops. Per element the
/// arithmetic is exactly `crate::gb::inv_f_gb` (same operations, same
/// order) and the `acc += q·term` fold is scalar in index order, so the
/// result is bit-identical to the scalar loop for every `W` and chunk
/// size — the slice ops themselves are element-wise.
#[inline]
pub fn still_term_lanes<const W: usize>(
    a: AtomView<'_>,
    xu: Vec3,
    ru: f64,
    math: MathMode,
    chunk: usize,
) -> f64 {
    let u = AtomView {
        x: &[xu.x],
        y: &[xu.y],
        z: &[xu.z],
        q: &[0.0],
        r: &[ru],
    };
    let mut out = [0.0f64];
    let mut scratch = StillScratch::default();
    still_block_lanes::<W>(u, a, math, chunk, &mut scratch, &mut out);
    out[0]
}

/// Reusable heap staging for the tiled STILL kernel: grown once to the
/// sweep's largest u×v tile and then reused across every leaf×leaf
/// block, so the hot path pays no per-block allocation or zeroing.
/// Contents are scratch only — every staged element is written before it
/// is read, so a reused (stale) instance gives the same bits as a fresh
/// one.
#[derive(Default, Clone, Debug)]
pub struct StillScratch {
    d2: Vec<f64>,
    rr: Vec<f64>,
    e: Vec<f64>,
    /// Column accumulators of [`still_pair_block`], one per target atom.
    col: Vec<f64>,
}

impl StillScratch {
    /// Grow (never shrink) each staging lane to at least `n` elements.
    fn ensure(&mut self, n: usize) {
        if self.e.len() < n {
            self.d2.resize(n, 0.0);
            self.rr.resize(n, 0.0);
            self.e.resize(n, 0.0);
        }
    }
}

/// Block form of the STILL kernel: `out[k]` gets the full sum of source
/// atom `k` of block `u` (position from `u.x/y/z`, Born radius from
/// `u.r`; `u.q` is the caller's to fold) against the target range `v`.
///
/// Per source atom this executes exactly the [`still_term_lanes`]
/// sequence — same staging expressions, same chunk walk, same fold order
/// (`out[k]` accumulates chunk after chunk, elements in index order) —
/// so the block form is bit-identical to calling the per-atom kernel in
/// a loop over `u`. What changes is batching: each v-chunk is staged for
/// *all* `u` rows into one flat `nu × m` tile, and the batched
/// [`MathMode`] slice ops run once over the whole tile instead of once
/// per source atom. The slice ops are element-wise, so tile-batching
/// them cannot move a bit — but it feeds `exp`/`rsqrt` vectors of
/// `nu·m` elements instead of the 8–32 a single octree leaf offers,
/// which is where small-leaf throughput was going to waste.
pub fn still_block_lanes<const W: usize>(
    u: AtomView<'_>,
    v: AtomView<'_>,
    math: MathMode,
    chunk: usize,
    scratch: &mut StillScratch,
    out: &mut [f64],
) {
    let nu = out.len();
    let n = v.len();
    debug_assert!(W >= 1);
    debug_assert!(u.len() == nu && u.y.len() == nu && u.z.len() == nu && u.r.len() == nu);
    debug_assert!(v.y.len() == n && v.z.len() == n && v.q.len() == n && v.r.len() == n);
    let chunk = chunk.clamp(1, CHUNK);
    scratch.ensure(nu * chunk);
    for o in out.iter_mut() {
        *o = 0.0;
    }
    let mut base = 0;
    while base < n {
        let m = chunk.min(n - base);
        let mb = m - m % W;
        let xs = &v.x[base..base + m];
        let ys = &v.y[base..base + m];
        let zs = &v.z[base..base + m];
        let rs = &v.r[base..base + m];
        let qs = &v.q[base..base + m];
        let d2b = &mut scratch.d2[..nu * m];
        let rrb = &mut scratch.rr[..nu * m];
        let eb = &mut scratch.e[..nu * m];
        // Stage row `k` (source atom k × this v-chunk) at tile offset
        // `k·m`. One elementwise loop per row over the lane-covered
        // prefix (no cross-iteration dependency → fully vectorized:
        // diffs, the d² FMA chain, the scaled divide for the exponent
        // argument).
        for k in 0..nu {
            let (pux, puy, puz) = (u.x[k], u.y[k], u.z[k]);
            let ru = u.r[k];
            let d2r = &mut d2b[k * m..k * m + m];
            let rrr = &mut rrb[k * m..k * m + m];
            let er = &mut eb[k * m..k * m + m];
            for j in 0..mb {
                let dx = xs[j] - pux;
                let dy = ys[j] - puy;
                let dz = zs[j] - puz;
                let d2 = dx * dx + dy * dy + dz * dz;
                let rr = ru * rs[j];
                d2r[j] = d2;
                rrr[j] = rr;
                er[j] = -d2 / (4.0 * rr);
            }
            for j in mb..m {
                let dx = xs[j] - pux;
                let dy = ys[j] - puy;
                let dz = zs[j] - puz;
                let d2 = dx * dx + dy * dy + dz * dz;
                let rr = ru * rs[j];
                d2r[j] = d2;
                rrr[j] = rr;
                er[j] = -d2 / (4.0 * rr);
            }
        }
        // Whole-tile batched transcendentals + f_GB recombination.
        math.exp_slice(eb);
        for i in 0..nu * m {
            eb[i] = d2b[i] + rrb[i] * eb[i];
        }
        math.rsqrt_slice(eb);
        // Per-row scalar fold in index order, carried across chunks via
        // `out[k]` — byte-for-byte the historical `acc += q·term` walk.
        for (k, o) in out.iter_mut().enumerate() {
            let er = &eb[k * m..k * m + m];
            let mut acc = *o;
            for j in 0..m {
                acc += qs[j] * er[j];
            }
            *o = acc;
        }
        base += m;
    }
}

/// Both orientations of one leaf pair from a single STILL tile:
/// `(raw_uv, raw_vu)` where `raw_uv = Σ_k q_u[k] · Σ_j q_v[j] · t[k][j]`
/// is `GbSystem::still_block_raw` of `u` against `v` and `raw_vu` that of
/// `v` against `u`, bit for bit (DESIGN.md §11.4).
///
/// The element `t[k][j]` is the same float in both orientations: the
/// swapped coordinate differences are exact negations, so `d²` is equal;
/// `R_u·R_v` commutes exactly; `exp`/`rsqrt` are element-wise. What is
/// left is to reproduce both folds. The tile is walked in u-blocks of at
/// most [`CHUNK`] atoms, each against v-chunks of at most `CHUNK` atoms
/// (so the scratch stays bounded for any leaf size):
///
/// * a row accumulator per source atom, carried across v-chunks
///   (`0.0 + Σ_j q_v[j]·t[k][j]` in j order), folded into `raw_uv` in k
///   order at the end of its u-block — the `u → v` block kernel's order;
/// * a column accumulator per target atom, carried across u-blocks
///   (`0.0 + Σ_k q_u[k]·t[k][j]` in k order, an axpy over j), folded
///   into `raw_vu` in j order at the end — the `v → u` order.
///
/// Rust never contracts `a*b + c` into an FMA, so the plain `+=` loops
/// are exactly the adds the unpaired kernel performs. Staging is
/// write-before-read, so a reused (stale) scratch gives the same bits.
pub fn still_pair_block(
    u: AtomView<'_>,
    v: AtomView<'_>,
    math: MathMode,
    scratch: &mut StillScratch,
) -> (f64, f64) {
    let (nu, nv) = (u.len(), v.len());
    debug_assert!(u.y.len() == nu && u.z.len() == nu && u.q.len() == nu && u.r.len() == nu);
    debug_assert!(v.y.len() == nv && v.z.len() == nv && v.q.len() == nv && v.r.len() == nv);
    let tile_cap = CHUNK.min(nu) * CHUNK.min(nv);
    scratch.ensure(tile_cap);
    let StillScratch { d2, rr, e, col } = scratch;
    col.clear();
    col.resize(nv, 0.0);
    let mut raw_uv = 0.0;
    for ub in u.blocks(CHUNK) {
        let mut rows = [0.0f64; CHUNK];
        for (vb, colb) in v.blocks(CHUNK).zip(col.chunks_mut(CHUNK)) {
            let m = vb.len();
            let tile = ub.len() * m;
            // PANIC-OK: `ensure(tile_cap)` grew every lane to ≥ CHUNK-capped u × v ≥ tile.
            let (d2t, rrt, et) = (&mut d2[..tile], &mut rr[..tile], &mut e[..tile]);
            // Stage row k (source atom k × this v-chunk) at tile offset
            // k·m: the expressions of `still_block_lanes`, element for
            // element.
            let rows_out = d2t.chunks_exact_mut(m).zip(rrt.chunks_exact_mut(m));
            let src = ub.x.iter().zip(ub.y).zip(ub.z.iter().zip(ub.r));
            for (((d2r, rrr), er), ((&pux, &puy), (&puz, &ru))) in
                rows_out.zip(et.chunks_exact_mut(m)).zip(src)
            {
                let out = d2r.iter_mut().zip(rrr.iter_mut()).zip(er.iter_mut());
                let tgt = vb.x.iter().zip(vb.y).zip(vb.z.iter().zip(vb.r));
                for (((d2o, rro), eo), ((&x, &y), (&z, &rv))) in out.zip(tgt) {
                    let dx = x - pux;
                    let dy = y - puy;
                    let dz = z - puz;
                    let d2 = dx * dx + dy * dy + dz * dz;
                    let rr = ru * rv;
                    *d2o = d2;
                    *rro = rr;
                    *eo = -d2 / (4.0 * rr);
                }
            }
            math.exp_slice(et);
            for ((t, &d2), &rr) in et.iter_mut().zip(d2t.iter()).zip(rrt.iter()) {
                *t = d2 + rr * *t;
            }
            math.rsqrt_slice(et);
            // Row folds (u → v), carried across v-chunks.
            for (acc_out, tr) in rows.iter_mut().zip(et.chunks_exact(m)) {
                let mut acc = *acc_out;
                for (&q, &t) in vb.q.iter().zip(tr) {
                    acc += q * t;
                }
                *acc_out = acc;
            }
            // Column folds (v → u), carried across u-blocks.
            for (&q, tr) in ub.q.iter().zip(et.chunks_exact(m)) {
                for (c, &t) in colb.iter_mut().zip(tr) {
                    *c += q * t;
                }
            }
        }
        for (&q, &r) in ub.q.iter().zip(&rows) {
            raw_uv += q * r;
        }
    }
    let mut raw_vu = 0.0;
    for (&q, &c) in v.q.iter().zip(col.iter()) {
        raw_vu += q * c;
    }
    (raw_uv, raw_vu)
}

/// Persistent flat arena over *all* quadrature points in Morton order:
/// positions plus weight-premultiplied normals. Built once per `prepare`;
/// any leaf (or clipped sub-range — both are contiguous) is a zero-copy
/// slice via [`QArena::view`]. The q surface never moves between rebuilds,
/// so this arena is immutable for the lifetime of the octree snapshot.
#[derive(Default, Clone, Debug)]
pub struct QArena {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub wnx: Vec<f64>,
    pub wny: Vec<f64>,
    pub wnz: Vec<f64>,
}

impl QArena {
    /// Build from Morton-ordered points, normals and weights. The stored
    /// product `w_q · n_q` uses the same expression as the historical
    /// gather path, so arena and gather views are bit-interchangeable.
    pub fn build(points: &[Vec3], normals: &[Vec3], weights: &[f64]) -> QArena {
        let n = points.len();
        // PANIC-OK: callers pass one quadrature set's equal-length point/normal/weight arrays.
        assert!(normals.len() == n && weights.len() == n);
        let mut a = QArena {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
            wnx: Vec::with_capacity(n),
            wny: Vec::with_capacity(n),
            wnz: Vec::with_capacity(n),
        };
        for ((p, nrm), &w) in points.iter().zip(normals).zip(weights) {
            let wn = *nrm * w;
            a.x.push(p.x);
            a.y.push(p.y);
            a.z.push(p.z);
            a.wnx.push(wn.x);
            a.wny.push(wn.y);
            a.wnz.push(wn.z);
        }
        a
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Zero-copy view of a contiguous Morton range (leaf or clipped leaf).
    pub fn view(&self, range: Range<usize>) -> QView<'_> {
        QView {
            x: &self.x[range.clone()],
            y: &self.y[range.clone()],
            z: &self.z[range.clone()],
            wnx: &self.wnx[range.clone()],
            wny: &self.wny[range.clone()],
            wnz: &self.wnz[range],
        }
    }

    /// r⁶ surface term of a range at one atom position (see
    /// [`QView::born_term`]).
    #[inline]
    pub fn born_term(&self, range: Range<usize>, xa: Vec3) -> f64 {
        self.view(range).born_term(xa)
    }

    /// Resident bytes (capacity-based, so reserved-but-unused space is
    /// counted too).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.x.capacity()
                + self.y.capacity()
                + self.z.capacity()
                + self.wnx.capacity()
                + self.wny.capacity()
                + self.wnz.capacity())
    }
}

/// Persistent flat arena over *all* atoms in Morton order: positions and
/// charges. Born radii live outside (they change per evaluation), so a
/// view borrows them alongside. Positions are rewritten in place by
/// [`AtomArena::refresh_positions`] on every skin-reuse step.
#[derive(Default, Clone, Debug)]
pub struct AtomArena {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub q: Vec<f64>,
}

impl AtomArena {
    /// Build from Morton-ordered points and charges.
    pub fn build(points: &[Vec3], charges: &[f64]) -> AtomArena {
        let n = points.len();
        // PANIC-OK: callers pass one molecule's equal-length point/charge arrays.
        assert!(charges.len() == n);
        let mut a = AtomArena {
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
            q: Vec::with_capacity(n),
        };
        for (p, &c) in points.iter().zip(charges) {
            a.x.push(p.x);
            a.y.push(p.y);
            a.z.push(p.z);
            a.q.push(c);
        }
        a
    }

    /// Overwrite the coordinate lanes from Morton-ordered points (the
    /// positions-only refresh path; charges are conformation-independent).
    pub fn refresh_positions(&mut self, points: &[Vec3]) {
        // PANIC-OK: refreshed from the same system's points, so the atom count is unchanged.
        assert!(points.len() == self.x.len());
        for (i, p) in points.iter().enumerate() {
            self.x[i] = p.x;
            self.y[i] = p.y;
            self.z[i] = p.z;
        }
    }

    /// Overwrite the coordinate lanes of a single Morton-ordered atom —
    /// the subset-refresh path of the perturbation engine, which touches
    /// O(k) atoms instead of rewriting all N lanes.
    #[inline]
    pub fn set_position(&mut self, i: usize, p: Vec3) {
        // PANIC-OK: perturbation indices are validated against the atom count on entry.
        assert!(i < self.x.len(), "atom index out of range");
        self.x[i] = p.x; // PANIC-OK: bounds asserted above.
        self.y[i] = p.y; // PANIC-OK: lanes share one length invariant.
        self.z[i] = p.z; // PANIC-OK: lanes share one length invariant.
    }

    /// Overwrite the charge lane of a single Morton-ordered atom (charge
    /// mutation queries).
    #[inline]
    pub fn set_charge(&mut self, i: usize, q: f64) {
        // PANIC-OK: perturbation indices are validated against the atom count on entry.
        assert!(i < self.q.len(), "atom index out of range");
        self.q[i] = q; // PANIC-OK: bounds asserted above.
    }

    /// Position of Morton-ordered atom `i`, reassembled from the flat lanes.
    #[inline]
    pub fn position(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Coordinate lanes of a contiguous Morton range, for the position
    /// block of [`born_block_lanes`].
    #[inline]
    pub fn pos_slices(&self, range: Range<usize>) -> (&[f64], &[f64], &[f64]) {
        (
            &self.x[range.clone()],
            &self.y[range.clone()],
            &self.z[range],
        )
    }

    /// Zero-copy view of a contiguous Morton range, with Born radii
    /// borrowed from `born` over the same range.
    pub fn view<'a>(&'a self, born: &'a [f64], range: Range<usize>) -> AtomView<'a> {
        AtomView {
            x: &self.x[range.clone()],
            y: &self.y[range.clone()],
            z: &self.z[range.clone()],
            q: &self.q[range.clone()],
            r: &born[range],
        }
    }

    /// STILL sum of one source atom against a range (see
    /// [`AtomView::still_term`]).
    #[inline]
    pub fn still_term(
        &self,
        born: &[f64],
        range: Range<usize>,
        xu: Vec3,
        ru: f64,
        math: MathMode,
    ) -> f64 {
        self.view(born, range).still_term(xu, ru, math)
    }

    /// Resident bytes (capacity-based).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.x.capacity() + self.y.capacity() + self.z.capacity() + self.q.capacity())
    }
}

/// Gathered image of one quadrature-leaf range — the copy-in counterpart
/// of a [`QArena`] view, kept for arena-less callers and as an independent
/// reference path in tests/benches.
#[derive(Default, Clone, Debug)]
pub struct QLeafSoa {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub wnx: Vec<f64>,
    pub wny: Vec<f64>,
    pub wnz: Vec<f64>,
}

impl QLeafSoa {
    /// Refill from a q-point range. Reuses the allocations, so one scratch
    /// instance serves a whole sweep of leaves.
    pub fn gather(&mut self, sys: &GbSystem, range: Range<usize>) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.wnx.clear();
        self.wny.clear();
        self.wnz.clear();
        for i in range {
            let p = sys.qtree.points[i];
            let wn = sys.q_normal[i] * sys.q_weight[i];
            self.x.push(p.x);
            self.y.push(p.y);
            self.z.push(p.z);
            self.wnx.push(wn.x);
            self.wny.push(wn.y);
            self.wnz.push(wn.z);
        }
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Flat view of the gathered data.
    pub fn view(&self) -> QView<'_> {
        QView {
            x: &self.x,
            y: &self.y,
            z: &self.z,
            wnx: &self.wnx,
            wny: &self.wny,
            wnz: &self.wnz,
        }
    }

    /// Exact r⁶ surface term of this leaf at one atom position (see
    /// [`QView::born_term`]).
    #[inline]
    pub fn born_term(&self, xa: Vec3) -> f64 {
        self.view().born_term(xa)
    }
}

/// Gathered image of one atoms range — the copy-in counterpart of an
/// [`AtomArena`] view (Born radii are copied in rather than borrowed).
#[derive(Default, Clone, Debug)]
pub struct AtomSoa {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub z: Vec<f64>,
    pub q: Vec<f64>,
    pub r: Vec<f64>,
}

impl AtomSoa {
    /// Refill from an atom range (Morton order) and its Born radii.
    pub fn gather(&mut self, sys: &GbSystem, born: &[f64], range: Range<usize>) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.q.clear();
        self.r.clear();
        for i in range {
            let p = sys.atoms.points[i];
            self.x.push(p.x);
            self.y.push(p.y);
            self.z.push(p.z);
            self.q.push(sys.charge[i]);
            self.r.push(born[i]);
        }
    }

    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Flat view of the gathered data.
    pub fn view(&self) -> AtomView<'_> {
        AtomView {
            x: &self.x,
            y: &self.y,
            z: &self.z,
            q: &self.q,
            r: &self.r,
        }
    }

    /// Exact STILL sum of one source atom against this range (see
    /// [`AtomView::still_term`]).
    #[inline]
    pub fn still_term(&self, xu: Vec3, ru: f64, math: MathMode) -> f64 {
        self.view().still_term(xu, ru, math)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gb::inv_f_gb;
    use crate::naive::born_radii_naive;
    use crate::params::ApproxParams;
    use polaroct_molecule::synth;

    fn system(n: usize, seed: u64) -> GbSystem {
        GbSystem::prepare(&synth::protein("p", n, seed), &ApproxParams::default())
    }

    #[test]
    fn still_term_bit_identical_to_scalar_kernel() {
        let sys = system(200, 17);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        for math in [MathMode::Exact, MathMode::Approx] {
            let mut soa = AtomSoa::default();
            // Range longer than one chunk to exercise the chunk loop.
            soa.gather(&sys, &born, 0..sys.n_atoms());
            for ui in [0usize, 57, 199] {
                let xu = sys.atoms.points[ui];
                let ru = born[ui];
                let mut scalar = 0.0;
                for ((&xv, &qv), &rv) in sys.atoms.points.iter().zip(&sys.charge).zip(&born) {
                    let d2 = xu.dist2(xv);
                    scalar += qv * inv_f_gb(d2, ru, rv, math);
                }
                let batched = soa.still_term(xu, ru, math);
                assert_eq!(
                    scalar.to_bits(),
                    batched.to_bits(),
                    "u={ui} {math:?}: {scalar} vs {batched}"
                );
            }
        }
    }

    #[test]
    fn lane_widths_are_bit_identical() {
        // The W=1 instantiation *is* the historical scalar loop; every
        // other width must reproduce it bit-for-bit at awkward lengths
        // (remainders of every size around the lane and chunk boundaries).
        let sys = system(150, 41);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let mut qsoa = QLeafSoa::default();
        let mut asoa = AtomSoa::default();
        for len in [0usize, 1, 3, 7, 8, 9, 15, 63, 64, 65, 130] {
            qsoa.gather(&sys, 0..len.min(sys.n_qpoints()));
            asoa.gather(&sys, &born, 0..len.min(sys.n_atoms()));
            let xa = sys.atoms.points[10];
            let b1 = born_term_lanes::<1>(qsoa.view(), xa);
            for math in [MathMode::Exact, MathMode::Approx] {
                let s1 = still_term_lanes::<1>(asoa.view(), xa, born[10], math, CHUNK);
                macro_rules! check_w {
                    ($w:literal) => {
                        assert_eq!(
                            born_term_lanes::<$w>(qsoa.view(), xa).to_bits(),
                            b1.to_bits(),
                            "born W={} len={len}",
                            $w
                        );
                        assert_eq!(
                            still_term_lanes::<$w>(asoa.view(), xa, born[10], math, CHUNK)
                                .to_bits(),
                            s1.to_bits(),
                            "still W={} len={len} {math:?}",
                            $w
                        );
                    };
                }
                check_w!(2);
                check_w!(4);
                check_w!(5);
                check_w!(8);
                check_w!(16);
            }
        }
    }

    #[test]
    fn arena_views_match_gather_bitwise() {
        let sys = system(180, 29);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        // Arenas as `prepare` builds them.
        let qa = QArena::build(&sys.qtree.points, &sys.q_normal, &sys.q_weight);
        let aa = AtomArena::build(&sys.atoms.points, &sys.charge);
        assert_eq!(qa.len(), sys.n_qpoints());
        assert_eq!(aa.len(), sys.n_atoms());
        let mut qsoa = QLeafSoa::default();
        let mut asoa = AtomSoa::default();
        for range in [0..sys.n_qpoints(), 5..97, 11..11] {
            qsoa.gather(&sys, range.clone());
            let xa = sys.atoms.points[3];
            assert_eq!(
                qa.born_term(range.clone(), xa).to_bits(),
                qsoa.born_term(xa).to_bits(),
                "q range {range:?}"
            );
        }
        for range in [0..sys.n_atoms(), 7..133, 20..20] {
            asoa.gather(&sys, &born, range.clone());
            let xu = sys.atoms.points[42];
            for math in [MathMode::Exact, MathMode::Approx] {
                assert_eq!(
                    aa.still_term(&born, range.clone(), xu, born[42], math)
                        .to_bits(),
                    asoa.still_term(xu, born[42], math).to_bits(),
                    "atom range {range:?} {math:?}"
                );
            }
        }
        for i in [0usize, 17, 179] {
            assert_eq!(aa.position(i), sys.atoms.points[i]);
        }
        assert!(qa.memory_bytes() >= 6 * 8 * qa.len());
        assert!(aa.memory_bytes() >= 4 * 8 * aa.len());
    }

    #[test]
    fn arena_refresh_overwrites_positions_only() {
        let sys = system(60, 7);
        let mut aa = AtomArena::build(&sys.atoms.points, &sys.charge);
        let shifted: Vec<Vec3> = sys
            .atoms
            .points
            .iter()
            .map(|p| *p + Vec3::new(0.25, -0.5, 1.0))
            .collect();
        aa.refresh_positions(&shifted);
        for (i, s) in shifted.iter().enumerate() {
            assert_eq!(aa.position(i), *s);
            assert_eq!(aa.q[i], sys.charge[i]);
        }
    }

    #[test]
    fn arena_subset_setters_touch_only_their_atom() {
        let sys = system(50, 11);
        let mut aa = AtomArena::build(&sys.atoms.points, &sys.charge);
        let before = aa.clone();
        let p = Vec3::new(1.5, -2.0, 0.25);
        aa.set_position(7, p);
        aa.set_charge(13, 42.0);
        for i in 0..aa.len() {
            let want_p = if i == 7 { p } else { before.position(i) };
            let want_q = if i == 13 { 42.0 } else { before.q[i] };
            assert_eq!(aa.position(i), want_p, "atom {i}");
            assert_eq!(aa.q[i], want_q, "atom {i}");
        }
    }

    #[test]
    #[should_panic]
    fn arena_set_position_rejects_out_of_range() {
        let sys = system(10, 1);
        let mut aa = AtomArena::build(&sys.atoms.points, &sys.charge);
        aa.set_position(10, Vec3::ZERO);
    }

    #[test]
    fn born_term_matches_scalar_reference() {
        let sys = system(150, 23);
        let mut soa = QLeafSoa::default();
        let nq = sys.n_qpoints();
        soa.gather(&sys, 0..nq);
        assert_eq!(soa.len(), nq);
        let xa = sys.atoms.points[31];
        let mut scalar = 0.0;
        for qi in 0..nq {
            let dv = sys.qtree.points[qi] - xa;
            let d2 = dv.norm2();
            let inv2 = 1.0 / d2;
            scalar += sys.q_weight[qi] * sys.q_normal[qi].dot(dv) * inv2 * inv2 * inv2;
        }
        let batched = soa.born_term(xa);
        // Weight premultiplication reassociates one product per term —
        // equal to roundoff, not bitwise.
        assert!(
            ((scalar - batched) / scalar).abs() < 1e-12,
            "{scalar} vs {batched}"
        );
    }

    #[test]
    fn gather_reuses_and_empties() {
        let sys = system(64, 3);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let mut soa = AtomSoa::default();
        soa.gather(&sys, &born, 0..10);
        assert_eq!(soa.len(), 10);
        soa.gather(&sys, &born, 5..5);
        assert!(soa.is_empty());
        assert_eq!(soa.still_term(Vec3::ZERO, 1.0, MathMode::Exact), 0.0);
    }
}
