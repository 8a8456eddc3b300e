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
//! * **Lane-batched kernels** ([`born_block_lanes`], [`still_block_lanes`],
//!   [`still_pair_block`]): every element-wise stage (coordinate diffs,
//!   `d²`, reciprocals, dot products, the batched `exp`/`rsqrt` slice ops)
//!   runs as an independent elementwise loop over the lane-covered prefix
//!   of a block ([`LANES`] lanes, scalar remainder), with FMA-shaped
//!   `a*b + c` expressions. The stages are expressed as plain counted
//!   loops over full buffers rather than manually unrolled `[f64; LANES]`
//!   blocks on purpose: LLVM's loop vectorizer turns the former into
//!   packed `pd` instructions, while hand-unrolled fixed-width blocks get
//!   scalarized (measured on the seed host — see
//!   `bench/bin/kernel_throughput`). Crucially every accumulator still
//!   folds **in gathered index order**, one term at a time. STILL stages
//!   the per-element terms into a buffer and sums them with a scalar
//!   loop; the r⁶ block kernel puts its lanes on the atom axis instead,
//!   so each atom's sum is its own in-order add chain and the chains of
//!   neighbouring atoms share vector lanes. Per element the arithmetic is
//!   unchanged (same operations, same order), and a sequential in-order
//!   sum is the same float reduction regardless of how the terms were
//!   produced, so both kernels are bit-identical to the pre-lane scalar
//!   loops (the lane width only moves the lane/tail boundary).
//!
//! * **Persistent arenas** ([`QArena`], [`AtomArena`]): because the linear
//!   octree stores points in Morton order and every leaf owns a contiguous
//!   `range()`, one full-length flat SoA array per field serves *all*
//!   leaves — a leaf view is plain slicing, no gather. `GbSystem` builds
//!   both arenas once at `prepare` time; `ListEngine`'s positions-only
//!   refresh rewrites the atom-arena coordinates in place on skin reuse.

use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use std::ops::Range;

/// Chunk width of the batched STILL kernels: the v-atoms staged per tile
/// row, and the u-block height of [`still_pair_block`]. Wide enough to
/// fill 512-bit vector units several times over, small enough to live on
/// the stack.
pub const CHUNK: usize = 64;

/// Lane width of the batched kernels: 8 × f64 = one 512-bit vector
/// register (two 256-bit ops on AVX2). The width only moves the
/// lane/tail boundary, so the bits do not depend on it.
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

    /// The r⁶ surface term of this range at every atom of a position
    /// block: [`born_block_lanes`].
    #[inline]
    pub fn born_block(&self, ax: &[f64], ay: &[f64], az: &[f64], out: &mut [f64]) {
        born_block_lanes(*self, ax, ay, az, out)
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

    /// The STILL sum of every source atom of `self` (`self.r` holds the
    /// sources' Born radii) against `v`: [`still_block_lanes`].
    #[inline]
    pub fn still_block(
        &self,
        v: AtomView<'_>,
        math: MathMode,
        scratch: &mut StillScratch,
        out: &mut [f64],
    ) {
        still_block_lanes(*self, v, math, scratch, out)
    }
}

/// The r⁶ surface kernel: the exact term of the whole q-range at *each*
/// atom of a position block, `out[k] = Σ_q (w_q n_q)·(p_q − p_k) /
/// |p_q − p_k|⁶` for atom `k`.
///
/// The lanes run over the **atom** axis: for each q point in index
/// order, one elementwise loop updates every atom of the block,
/// `out[k] += (w·d)·inv2³`, over the lane-covered prefix
/// `na - na % LANES` and then the scalar tail with the identical
/// expression. Each `out[k]` starts at `0.0` and receives its terms in
/// q index order, so every atom's sum is the same float sequence as the
/// historical per-atom scalar loop (`d² = dx²+dy²+dz²`, `inv2 = 1/d²`,
/// `term = (w·d)·inv2³`). What the swap buys: the per-atom sums are
/// independent add chains that share vector lanes, instead of one
/// serial add chain per atom.
pub fn born_block_lanes(q: QView<'_>, ax: &[f64], ay: &[f64], az: &[f64], out: &mut [f64]) {
    let na = out.len();
    debug_assert!(ax.len() == na && ay.len() == na && az.len() == na);
    debug_assert!(q.y.len() == q.len() && q.z.len() == q.len());
    debug_assert!(q.wnx.len() == q.len() && q.wny.len() == q.len() && q.wnz.len() == q.len());
    out.fill(0.0);
    let lanes = na - na % LANES;
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
        // a vector width of atoms at a time.
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

/// The STILL kernel: `out[k] = Σ_v q_v / f_GB(r_kv², R_k, R_v)`, the
/// full sum of source atom `k` of block `u` (position from `u.x/y/z`,
/// Born radius from `u.r`; `u.q` is the caller's to fold) against the
/// target range `v`.
///
/// `v` is walked in chunks of at most [`CHUNK`] atoms. Each chunk's
/// distances and exponent arguments are staged for *all* `u` rows into
/// one flat `nu × m` tile as independent elementwise loops over the
/// lane-covered prefix (`m - m % LANES`, scalar remainder), then `exp`
/// and `rsqrt` run once over the whole tile via the batched [`MathMode`]
/// slice ops. Per element the arithmetic is exactly `crate::gb::inv_f_gb`
/// (same operations, same order) and `out[k]` folds `q·term` scalar,
/// chunk after chunk, elements in index order — so every `out[k]` is
/// bit-identical to the historical per-atom scalar loop. The slice ops
/// are element-wise, so tile-batching them cannot move a bit — but it
/// feeds `exp`/`rsqrt` vectors of `nu·m` elements instead of the 8–32 a
/// single octree leaf offers, which is where small-leaf throughput was
/// going to waste.
pub fn still_block_lanes(
    u: AtomView<'_>,
    v: AtomView<'_>,
    math: MathMode,
    scratch: &mut StillScratch,
    out: &mut [f64],
) {
    let nu = out.len();
    let n = v.len();
    debug_assert!(u.len() == nu && u.y.len() == nu && u.z.len() == nu && u.r.len() == nu);
    debug_assert!(v.y.len() == n && v.z.len() == n && v.q.len() == n && v.r.len() == n);
    scratch.ensure(nu * CHUNK);
    for o in out.iter_mut() {
        *o = 0.0;
    }
    let mut base = 0;
    while base < n {
        let m = CHUNK.min(n - base);
        let mb = m - m % LANES;
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
    /// product `w_q · n_q` is `n_q * w_q`, the expression the historical
    /// per-entry gather used, so arena views carry that path's bits.
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

    /// Resident bytes (capacity-based).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.x.capacity() + self.y.capacity() + self.z.capacity() + self.q.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gb::inv_f_gb;
    use crate::naive::born_radii_naive;
    use crate::params::ApproxParams;
    use crate::system::GbSystem;
    use polaroct_molecule::synth;

    fn system(n: usize, seed: u64) -> GbSystem {
        GbSystem::prepare(&synth::protein("p", n, seed), &ApproxParams::default())
    }

    /// Longhand r⁶ surface term of `q` at `xa`, in q index order.
    fn born_scalar(q: QView<'_>, xa: Vec3) -> f64 {
        let mut s = 0.0;
        for j in 0..q.len() {
            let (dx, dy, dz) = (q.x[j] - xa.x, q.y[j] - xa.y, q.z[j] - xa.z);
            let inv2 = 1.0 / (dx * dx + dy * dy + dz * dz);
            s += (q.wnx[j] * dx + q.wny[j] * dy + q.wnz[j] * dz) * (inv2 * inv2 * inv2);
        }
        s
    }

    /// Longhand STILL sum of atom `ui` against atoms `vr`, in index order.
    fn still_scalar(
        sys: &GbSystem,
        born: &[f64],
        ui: usize,
        vr: Range<usize>,
        math: MathMode,
    ) -> f64 {
        let (xu, ru) = (sys.atoms.points[ui], born[ui]);
        let mut scalar = 0.0;
        for vi in vr {
            let d2 = xu.dist2(sys.atoms.points[vi]);
            scalar += sys.charge[vi] * inv_f_gb(d2, ru, born[vi], math);
        }
        scalar
    }

    #[test]
    fn still_block_bit_identical_to_scalar_kernel() {
        let sys = system(200, 17);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let n = sys.n_atoms();
        // Every source atom against all of them: v spans several chunks.
        let all = sys.atom_arena.view(&born, 0..n);
        let mut scratch = StillScratch::default();
        for math in [MathMode::Exact, MathMode::Approx] {
            let mut out = vec![f64::NAN; n];
            all.still_block(all, math, &mut scratch, &mut out);
            for (ui, got) in out.iter().enumerate() {
                let want = still_scalar(&sys, &born, ui, 0..n, math);
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "u={ui} {math:?}: {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn block_kernels_match_scalar_at_every_length() {
        // Lengths around the lane and chunk boundaries, each used as the
        // atom block and as the q / v range, empty ranges included. `out`
        // starts as NaN, so a slot the kernel fails to overwrite shows.
        let sys = system(150, 41);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let mut scratch = StillScratch::default();
        for len in [0usize, 1, 3, 7, 8, 9, 15, 63, 64, 65, 130] {
            let ar = 0..len.min(sys.n_atoms());
            let qv = sys.q_arena.view(0..len.min(sys.n_qpoints()));
            let (ax, ay, az) = sys.atom_arena.pos_slices(ar.clone());
            let mut out = vec![f64::NAN; ar.len()];
            born_block_lanes(qv, ax, ay, az, &mut out);
            for (ai, got) in ar.clone().zip(&out) {
                let want = born_scalar(qv, sys.atoms.points[ai]);
                assert_eq!(got.to_bits(), want.to_bits(), "born len={len} atom {ai}");
            }
            let av = sys.atom_arena.view(&born, ar.clone());
            for math in [MathMode::Exact, MathMode::Approx] {
                let mut out = vec![f64::NAN; ar.len()];
                av.still_block(av, math, &mut scratch, &mut out);
                for (ui, got) in ar.clone().zip(&out) {
                    let want = still_scalar(&sys, &born, ui, ar.clone(), math);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "still len={len} u={ui} {math:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn arenas_hold_the_morton_ordered_system() {
        let sys = system(180, 29);
        // Arenas as `prepare` builds them.
        let qa = QArena::build(&sys.qtree.points, &sys.q_normal, &sys.q_weight);
        let aa = AtomArena::build(&sys.atoms.points, &sys.charge);
        assert_eq!(qa.len(), sys.n_qpoints());
        assert_eq!(aa.len(), sys.n_atoms());
        for (i, p) in sys.qtree.points.iter().enumerate() {
            let wn = sys.q_normal[i] * sys.q_weight[i];
            let got = [qa.x[i], qa.y[i], qa.z[i], qa.wnx[i], qa.wny[i], qa.wnz[i]];
            let want = [p.x, p.y, p.z, wn.x, wn.y, wn.z];
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "q point {i}");
        }
        for (i, p) in sys.atoms.points.iter().enumerate() {
            assert_eq!(aa.position(i), *p);
            assert_eq!(aa.q[i].to_bits(), sys.charge[i].to_bits());
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
    fn born_block_terms_match_scalar_reference() {
        let sys = system(150, 23);
        let nq = sys.n_qpoints();
        let qv = sys.q_arena.view(0..nq);
        // More atoms than two CHUNK blocks, so the CHUNK blocking of
        // `born_block_terms` runs full blocks and a tail.
        let ar = 0..(2 * CHUNK + 1).min(sys.n_atoms());
        assert_eq!(ar.len(), 2 * CHUNK + 1);
        let mut seen = Vec::new();
        sys.born_block_terms(qv, ar.clone(), |ai, batched| {
            let xa = sys.atoms.points[ai];
            let mut scalar = 0.0;
            for qi in 0..nq {
                let dv = sys.qtree.points[qi] - xa;
                let d2 = dv.norm2();
                let inv2 = 1.0 / d2;
                scalar += sys.q_weight[qi] * sys.q_normal[qi].dot(dv) * inv2 * inv2 * inv2;
            }
            // Weight premultiplication reassociates one product per term —
            // equal to roundoff, not bitwise.
            assert!(
                ((scalar - batched) / scalar).abs() < 1e-12,
                "atom {ai}: {scalar} vs {batched}"
            );
            seen.push(ai);
        });
        assert_eq!(seen, ar.collect::<Vec<_>>());
    }
}
