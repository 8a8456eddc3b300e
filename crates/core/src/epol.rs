//! `APPROX-E_pol` (Fig. 3): Born-radius charge binning + leaf-vs-tree
//! traversal.
//!
//! After the Born phase, every atom has a radius `R_a ∈ [R_min, R_max]`.
//! Radii are binned geometrically: bin `k` covers
//! `[R_min(1+ε)^k, R_min(1+ε)^{k+1})`, `M_ε = ⌈log_{1+ε}(R_max/R_min)⌉`
//! bins in total. Every atoms-tree node `U` stores
//! `q_U[k] = Σ_{u∈U, R_u ∈ bin k} q_u`.
//!
//! For a leaf `V` and node `U`:
//! * **leaf `U`**: exact `Σ_{u,v} q_u q_v / f_GB(r_uv², R_u, R_v)`;
//! * **far** (`r_UV > (r_U + r_V) · mac`): [`far_value`], the binned
//!   approximation `Σ_{i,j} q_U[i] q_V[j] / f_GB(r_UV², ·)` with
//!   `R_u R_v ≈ R_min²(1+ε)^{i+j}`, plus, under [`EpolFar::Taylor2`],
//!   the second-order Taylor correction from the nodes' dipoles and
//!   second moments (DESIGN.md §10.8);
//! * otherwise recurse into `U`'s children.
//!
//! The far rule and its MAC travel inside [`ChargeBins`]: Fig. 3's
//! `1 + 2/ε` under [`EpolFar::Binned`], the rule's own MAC under
//! `Taylor2`. The `eps_epol` arguments of [`epol_octree_raw`] and the
//! list builders are the ε the bins were built with; the MAC is read
//! from the bins.
//!
//! All functions return the **raw** ordered-pair sum; drivers convert via
//! [`crate::gb::epol_from_raw_sum`].

use crate::params::{ApproxParams, EpolFar};
use crate::soa::{still_pair_block, AtomView, StillScratch};
use crate::system::GbSystem;
use crate::workdiv::Share;
use polaroct_cluster::simtime::OpCounts;
use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use polaroct_octree::{Node, NodeId, Octree};
use std::ops::Range;

/// Values per node in [`ChargeBins::moments`]: the dipole
/// `p = Σ q (x − c)` and the second moment `Θ = Σ q (x − c)(x − c)ᵀ`
/// about the node centre `c`, as
/// `[p_x, p_y, p_z, Θ_xx, Θ_xy, Θ_xz, Θ_yy, Θ_yz, Θ_zz]`.
pub const MOMENTS: usize = 9;

/// Per-node binned charges, the far rule, and (under
/// [`EpolFar::Taylor2`]) per-node moments.
#[derive(Clone, Debug, Default)]
pub struct ChargeBins {
    /// The far rule every traversal, list and delta query of these bins
    /// evaluates far pairs with.
    pub far: EpolFar,
    /// The far-field MAC multiplier in effect ([`EpolFar::mac`]).
    pub mac: f64,
    /// Number of radius bins `M_ε` (≥ 1).
    pub m_eps: usize,
    /// Smallest Born radius.
    pub r_min: f64,
    /// `per_node[id * m_eps + k]` = `q_U[k]` for node `id`.
    pub per_node: Vec<f64>,
    /// `R_min²(1+ε)^s` for `s` in `0..2·M_ε−1` — the pair-product table.
    pub rr_table: Vec<f64>,
    /// Per-atom bin index (Morton order).
    pub atom_bin: Vec<u16>,
    /// `moments[id * MOMENTS..]`: node `id`'s dipole and second moment
    /// about its centre (see [`MOMENTS`]). Empty under
    /// [`EpolFar::Binned`], which does not read them.
    pub moments: Vec<f64>,
}

impl ChargeBins {
    /// Bin the atoms' charges by Born radius and roll up per node, for
    /// the default far rule ([`EpolFar::default`]).
    pub fn build(sys: &GbSystem, born: &[f64], eps_epol: f64) -> ChargeBins {
        ChargeBins::build_far(sys, born, eps_epol, EpolFar::default())
    }

    /// [`ChargeBins::build`] for the ε and far rule of `params`.
    pub fn for_params(sys: &GbSystem, born: &[f64], params: &ApproxParams) -> ChargeBins {
        ChargeBins::build_far(sys, born, params.eps_epol, params.epol_far)
    }

    /// Bin the atoms' charges by Born radius and roll up per node, plus
    /// the per-node moments when `far` reads them.
    pub fn build_far(sys: &GbSystem, born: &[f64], eps_epol: f64, far: EpolFar) -> ChargeBins {
        // PANIC-OK: precondition assert — born must be per-atom; a mismatch is a caller bug.
        assert_eq!(born.len(), sys.n_atoms());
        // PANIC-OK: precondition assert — non-finite Born radii mean the upstream solve already failed.
        assert!(eps_epol > 0.0);
        let r_min = born.iter().cloned().fold(f64::INFINITY, f64::min);
        let r_max = born.iter().cloned().fold(0.0f64, f64::max);
        // PANIC-OK: precondition assert — non-physical dielectric is a configuration bug.
        assert!(r_min > 0.0, "non-positive Born radius");
        let log1e = (1.0 + eps_epol).ln();
        let inv_ln_step = 1.0 / log1e;
        // Cap the bin count: for pathologically small ε the MAC
        // (1 + 2/ε) already forces exact evaluation everywhere, so the
        // (never-consulted) bin table must not be allowed to explode.
        const MAX_BINS: usize = 1024;
        let m_eps = if r_max <= r_min {
            1
        } else {
            (((r_max / r_min).ln() * inv_ln_step).floor() as usize + 1).min(MAX_BINS)
        };

        let atom_bin: Vec<u16> = born
            .iter()
            .map(|&r| {
                let k = ((r / r_min).ln() * inv_ln_step).floor();
                (k.max(0.0) as usize).min(m_eps - 1) as u16
            })
            .collect();

        // Per-node sums: direct range sums (Σ node sizes = O(M log M)).
        let mut per_node = vec![0.0; sys.atoms.nodes.len() * m_eps];
        for (id, node) in sys.atoms.nodes.iter().enumerate() {
            let base = id * m_eps;
            for i in node.range() {
                per_node[base + atom_bin[i] as usize] += sys.charge[i];
            }
        }

        // `R_min²(1+ε)^s` by running product — one multiply per entry
        // instead of an O(log s) `powi` each.
        let mut rr_table = Vec::with_capacity((2 * m_eps).max(1));
        let mut rr = r_min * r_min;
        for _ in 0..(2 * m_eps).max(1) {
            rr_table.push(rr);
            rr *= 1.0 + eps_epol;
        }

        // Moments by the same direct range sums, about each node's own
        // centre: a node's moments read only its own atoms, so a delta
        // query changes exactly the moved atoms' ancestors.
        let moments = match far {
            EpolFar::Binned => Vec::new(),
            EpolFar::Taylor2 { .. } => {
                let mut moments = Vec::with_capacity(sys.atoms.nodes.len() * MOMENTS);
                for node in &sys.atoms.nodes {
                    let r = node.range();
                    let points = sys.atoms.points.get(r.clone()).unwrap_or(&[]);
                    let charges = sys.charge.get(r).unwrap_or(&[]);
                    moments.extend_from_slice(&moments_about(node.center, points, charges));
                }
                moments
            }
        };

        ChargeBins {
            far,
            mac: far.mac(eps_epol),
            m_eps,
            r_min,
            per_node,
            rr_table,
            atom_bin,
            moments,
        }
    }

    /// `q_U[·]` slice for a node.
    #[inline]
    pub fn of(&self, id: NodeId) -> &[f64] {
        &self.per_node[id as usize * self.m_eps..(id as usize + 1) * self.m_eps]
    }

    /// A node's [`MOMENTS`] values; empty when the far rule keeps none.
    #[inline]
    pub fn moments_of(&self, id: NodeId) -> &[f64] {
        let at = id as usize * MOMENTS;
        self.moments.get(at..at + MOMENTS).unwrap_or(&[])
    }

    /// Node `id` of the atoms tree as a far-field operand.
    #[inline]
    pub fn side<'a>(&'a self, sys: &GbSystem, id: NodeId) -> FarSide<'a> {
        FarSide {
            center: sys.atoms.node(id).center,
            bins: self.of(id),
            moments: self.moments_of(id),
        }
    }

    /// Heap bytes (the binning's memory is O(nodes · M_ε), still
    /// ε-independent in the paper's sense: it does not grow with the
    /// interaction range). Capacity-based like the other accountings.
    pub fn memory_bytes(&self) -> usize {
        (self.per_node.capacity() + self.rr_table.capacity() + self.moments.capacity()) * 8
            + self.atom_bin.capacity() * 2
    }
}

/// Dipole and second moment of point charges about `c` (see [`MOMENTS`]),
/// accumulated in point order.
fn moments_about(c: Vec3, points: &[Vec3], charges: &[f64]) -> [f64; MOMENTS] {
    let mut m = [0.0; MOMENTS];
    for (&x, &q) in points.iter().zip(charges) {
        let d = x - c;
        let (qx, qy, qz) = (q * d.x, q * d.y, q * d.z);
        m[0] += qx;
        m[1] += qy;
        m[2] += qz;
        m[3] += qx * d.x;
        m[4] += qx * d.y;
        m[5] += qx * d.z;
        m[6] += qy * d.y;
        m[7] += qy * d.z;
        m[8] += qz * d.z;
    }
    m
}

/// One side of a far pair: the centre the expansion is about, the
/// binned charges and the moments (empty under [`EpolFar::Binned`]).
#[derive(Clone, Copy, Debug)]
pub struct FarSide<'a> {
    /// The centre the moments are taken about.
    pub center: Vec3,
    /// `q[k]`, the charge in radius bin `k`.
    pub bins: &'a [f64],
    /// [`MOMENTS`] values, or empty.
    pub moments: &'a [f64],
}

/// The one E_pol far-pair kernel: every traversal, list entry and delta
/// query evaluates far pairs here, so all paths give the same bits.
///
/// The binned GB monopole of Fig. 3 (bin × bin, zero-charge rows and
/// columns skipped, folded in index order), plus — when both sides carry
/// moments — the second-order Taylor correction of the Coulomb kernel
/// `K = 1/r` about `d = c_V − c_U` (DESIGN.md §10.8):
///
/// `(Q_U p_V − Q_V p_U)·∇K + ½(Q_U H:Θ_V + Q_V H:Θ_U) − p_Uᵀ H p_V`,
///
/// with `∇K = −d/r³` and `H = (3ddᵀ − r²I)/r⁵`.
pub fn far_value(bins: &ChargeBins, u: &FarSide, v: &FarSide, math: MathMode) -> f64 {
    let d = v.center - u.center;
    let r2 = d.norm2();
    let mut raw = 0.0;
    for (i, &qi) in u.bins.iter().enumerate() {
        if qi == 0.0 {
            continue;
        }
        for (j, &qj) in v.bins.iter().enumerate() {
            if qj == 0.0 {
                continue;
            }
            // PANIC-OK: i + j < 2·m_eps by the bins' table construction.
            let rr = bins.rr_table[i + j];
            let inner = r2 + rr * math.exp(-r2 / (4.0 * rr));
            raw += qi * qj * math.rsqrt(inner);
        }
    }
    match (u.moments, v.moments) {
        (&[pux, puy, puz, ref tu @ ..], &[pvx, pvy, pvz, ref tv @ ..]) => {
            let (pu, pv) = (Vec3::new(pux, puy, puz), Vec3::new(pvx, pvy, pvz));
            let (qu, qv) = (u.bins.iter().sum::<f64>(), v.bins.iter().sum::<f64>());
            let inv_r2 = 1.0 / r2;
            let inv_r3 = inv_r2 / r2.sqrt();
            // `H:Θ · r⁵ = 3 dᵀΘd − r² tr Θ`, Θ packed as in `MOMENTS`.
            let h_theta = |t: &[f64]| match *t {
                [xx, xy, xz, yy, yz, zz] => {
                    let dtd = d.x * (xx * d.x + 2.0 * (xy * d.y + xz * d.z))
                        + d.y * (yy * d.y + 2.0 * yz * d.z)
                        + zz * d.z * d.z;
                    3.0 * dtd - r2 * (xx + yy + zz)
                }
                _ => 0.0,
            };
            let (pud, pvd) = (pu.dot(d), pv.dot(d));
            let dipole = (qv * pud - qu * pvd) * inv_r3;
            let second = 0.5 * (qu * h_theta(tv) + qv * h_theta(tu))
                - (3.0 * pud * pvd - r2 * pu.dot(pv));
            raw + dipole + second * inv_r3 * inv_r2
        }
        _ => raw,
    }
}

/// Raw E_pol of the atoms `clip ∩ V` of leaf `V` against the whole
/// atoms tree (Fig. 4 Step 6 assigns each rank a share of such leaves).
/// A `clip` covering `V` keeps the leaf's own bin sums and moments; a
/// partial one — the atom-based work division (§IV.A) — recomputes them
/// over the subset, about its own centroid, which is why that division's
/// error drifts with its boundaries. Either way the atoms are a
/// zero-copy slice of the persistent atom arena. The MAC is the bins'
/// own.
pub fn approx_epol_leaf(
    sys: &GbSystem,
    bins: &ChargeBins,
    born: &[f64],
    v_leaf: NodeId,
    clip: &Range<usize>,
    math: MathMode,
) -> (f64, OpCounts) {
    epol_leaf(sys, bins, born, v_leaf, clip, math, None)
}

/// [`approx_epol_leaf`] as one task of a Step 6 share whose mirrored
/// tiles `mirrors` pairs. The value and the op counts are the same bits
/// with or without the store (DESIGN.md §11.4).
#[allow(clippy::too_many_arguments)]
pub(crate) fn epol_leaf(
    sys: &GbSystem,
    bins: &ChargeBins,
    born: &[f64],
    v_leaf: NodeId,
    clip: &Range<usize>,
    math: MathMode,
    mut mirrors: Option<&mut ShareMirrors>,
) -> (f64, OpCounts) {
    let mut ops = OpCounts::default();
    let raw = match VLeafView::clipped(sys, bins, born, v_leaf, clip) {
        Some(v) => {
            if let Some(m) = mirrors.as_deref_mut() {
                m.begin(&sys.atoms, v_leaf);
            }
            let mut scratch = StillScratch::default();
            epol_recurse(
                sys,
                bins,
                born,
                0,
                &v,
                math,
                &mut scratch,
                &mut ops,
                mirrors,
            )
        }
        None => 0.0,
    };
    (raw, ops)
}

/// The mirrored tiles of one Fig. 4 Step 6 share (DESIGN.md §10.7).
///
/// Task `v` reaching near leaf `u` evaluates one [`still_pair_block`]
/// tile for `(u, v)` and `(v, u)` when both leaves are whole tasks of the
/// share, `u` runs later, and task `u`'s recursion will reach leaf `v`:
/// no strict ancestor of `v` passes the far test against `u`. It keeps
/// its own value and holds the mirror's until task `u` reaches `v`.
/// Pairs that cross shares, clipped leaves and diagonal blocks stay
/// unpaired.
#[derive(Debug)]
pub(crate) struct ShareMirrors {
    /// Slot of each atoms-tree node: its position among the share's
    /// whole tasks in task order, or [`ShareMirrors::NONE`].
    slot: Vec<u32>,
    /// `held[s]`: `(source leaf, value)` for the task in slot `s`, each
    /// taken once when that task reaches the source. A short contiguous
    /// list per task keeps the lookup a scan of a few cache lines.
    held: Vec<Vec<(NodeId, f64)>>,
    /// The running task's leaf and slot.
    leaf: NodeId,
    task: u32,
    /// Strict ancestors of the running task's leaf, root first.
    path: Vec<NodeId>,
    /// Tiles evaluated as pairs so far.
    pub(crate) paired: usize,
}

impl ShareMirrors {
    const NONE: u32 = u32::MAX;

    /// The store for one rank's Step 6 share of the atoms tree `tree`.
    pub(crate) fn new(tree: &Octree, share: &Share) -> ShareMirrors {
        let mut slot = vec![Self::NONE; tree.nodes.len()];
        let mut n = 0u32;
        for id in share.tasks(tree) {
            let r = tree.node(id).range();
            let whole = share.points.start <= r.start && r.end <= share.points.end;
            if let Some(s) = slot.get_mut(id as usize).filter(|_| whole) {
                *s = n;
                n += 1;
            }
        }
        ShareMirrors {
            slot,
            held: vec![Vec::new(); n as usize],
            leaf: 0,
            task: Self::NONE,
            path: Vec::new(),
            paired: 0,
        }
    }

    fn slot_of(&self, id: NodeId) -> u32 {
        self.slot.get(id as usize).copied().unwrap_or(Self::NONE)
    }

    /// Start task `leaf`: record its slot and its strict ancestors. A
    /// clipped task gets no slot and pairs nothing.
    fn begin(&mut self, tree: &Octree, leaf: NodeId) {
        // Every value held for the previous task was taken by it.
        if let Some(done) = self.held.get_mut(self.task as usize) {
            debug_assert!(done.is_empty(), "a held mirror value was never taken");
            *done = Vec::new();
        }
        self.leaf = leaf;
        self.task = self.slot_of(leaf);
        self.path.clear();
        if self.task == Self::NONE {
            return;
        }
        let start = tree.node(leaf).range().start;
        let mut id: NodeId = 0;
        while id != leaf {
            self.path.push(id);
            let child = tree.node(id).children().find(|&c| tree.node(c).range().contains(&start));
            let Some(c) = child else { break };
            id = c;
        }
    }

    /// Raw STILL block of leaf `u_id` against the running task `v`: a
    /// held mirror value, the own half of a fresh pair tile, or a plain
    /// tile.
    #[allow(clippy::too_many_arguments)]
    fn tile(
        &mut self,
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        u_id: NodeId,
        v: &VLeafView,
        math: MathMode,
        scratch: &mut StillScratch,
    ) -> f64 {
        let u = sys.atoms.node(u_id);
        if self.task == Self::NONE {
            return sys.still_block_raw(born, u.range(), v.view, math, scratch);
        }
        if let Some(held) = self.held.get_mut(self.task as usize) {
            if let Some(k) = held.iter().position(|&(s, _)| s == u_id) {
                return held.swap_remove(k).1;
            }
        }
        let target = self.slot_of(u_id);
        // Task `u` reaches leaf `v` when no ancestor of `v` is far from
        // `u` under the recursion's own far test.
        let reached = || {
            let far = |&a: &NodeId| is_far(sys.atoms.node(a), u.center, u.radius, bins.mac);
            !self.path.iter().any(far)
        };
        let held = match self.held.get_mut(target as usize) {
            Some(held) if target > self.task && reached() => held,
            _ => return sys.still_block_raw(born, u.range(), v.view, math, scratch),
        };
        let uv = sys.atom_arena.view(born, u.range());
        let (own, mirror) = still_pair_block(uv, v.view, math, scratch);
        held.push((self.leaf, mirror));
        self.paired += 1;
        own
    }
}

/// A (possibly clipped) target leaf with its bin sums, moments and the
/// flat SoA view of its atoms (positions, charges, Born radii) for the
/// exact kernel. Both whole and clipped ranges are contiguous in Morton
/// order, so the view is always a plain arena slice.
struct VLeafView<'a> {
    center: Vec3,
    radius: f64,
    range: Range<usize>,
    /// `q_V[k]`; borrowed for whole leaves, recomputed for clipped ones.
    bins: Vec<f64>,
    /// Moments about `center`, likewise (empty under `Binned`).
    moments: Vec<f64>,
    view: AtomView<'a>,
}

impl<'a> VLeafView<'a> {
    fn whole(
        sys: &'a GbSystem,
        bins: &ChargeBins,
        born: &'a [f64],
        leaf: NodeId,
    ) -> VLeafView<'a> {
        let n = sys.atoms.node(leaf);
        VLeafView {
            center: n.center,
            radius: n.radius,
            range: n.range(),
            bins: bins.of(leaf).to_vec(),
            moments: bins.moments_of(leaf).to_vec(),
            view: sys.atom_arena.view(born, n.range()),
        }
    }

    fn clipped(
        sys: &'a GbSystem,
        bins: &ChargeBins,
        born: &'a [f64],
        leaf: NodeId,
        clip: &Range<usize>,
    ) -> Option<VLeafView<'a>> {
        let n = sys.atoms.node(leaf);
        let lo = n.range().start.max(clip.start);
        let hi = n.range().end.min(clip.end);
        if lo >= hi {
            return None;
        }
        if lo == n.range().start && hi == n.range().end {
            return Some(VLeafView::whole(sys, bins, born, leaf));
        }
        let mut c = Vec3::ZERO;
        for i in lo..hi {
            c += sys.atoms.points[i];
        }
        c = c / (hi - lo) as f64;
        let mut r2: f64 = 0.0;
        let mut qv = vec![0.0; bins.m_eps];
        for i in lo..hi {
            r2 = r2.max(c.dist2(sys.atoms.points[i]));
            qv[bins.atom_bin[i] as usize] += sys.charge[i];
        }
        let moments = match bins.far {
            EpolFar::Binned => Vec::new(),
            EpolFar::Taylor2 { .. } => {
                let points = sys.atoms.points.get(lo..hi).unwrap_or(&[]);
                moments_about(c, points, sys.charge.get(lo..hi).unwrap_or(&[])).to_vec()
            }
        };
        Some(VLeafView {
            center: c,
            radius: r2.sqrt(),
            range: lo..hi,
            bins: qv,
            moments,
            view: sys.atom_arena.view(born, lo..hi),
        })
    }

    fn side(&self) -> FarSide<'_> {
        FarSide {
            center: self.center,
            bins: &self.bins,
            moments: &self.moments,
        }
    }
}

/// Bin pairs the far kernel's monopole evaluates for `(qu, qv)` — the
/// `epol_far` op count, shared by the recursions and the list builders.
pub(crate) fn far_pairs(qu: &[f64], qv: &[f64]) -> u64 {
    let nu = qu.iter().filter(|&&q| q != 0.0).count() as u64;
    let nv = qv.iter().filter(|&&q| q != 0.0).count() as u64;
    nu * nv
}

/// The recursion's far test: atoms node `u` against a target leaf of
/// centre `c` and radius `r`, under the MAC multiplier `mac`.
fn is_far(u: &Node, c: Vec3, r: f64, mac: f64) -> bool {
    let r2 = u.center.dist2(c);
    let sep = (u.radius + r) * mac;
    r2 > sep * sep
}

/// The one E_pol recursion: leaf `V` against the subtree at `u_id`.
/// `mirrors`, when given, pairs the share's mirrored leaf tiles; the
/// traversal, its fold order and its op counts are the same either way.
#[allow(clippy::too_many_arguments)]
fn epol_recurse(
    sys: &GbSystem,
    bins: &ChargeBins,
    born: &[f64],
    u_id: NodeId,
    v: &VLeafView,
    math: MathMode,
    scratch: &mut StillScratch,
    ops: &mut OpCounts,
    mut mirrors: Option<&mut ShareMirrors>,
) -> f64 {
    let u = sys.atoms.node(u_id);
    ops.nodes_visited += 1;

    if u.is_leaf() {
        // Exact leaf-leaf block (includes u == v self terms when the
        // ranges overlap — exactly the ordered-pair semantics of Eq. 2),
        // via the block-form lane-batched SoA STILL kernel over `v`'s
        // arena slice.
        ops.epol_near += (u.len() * v.range.len()) as u64;
        return match mirrors {
            Some(m) => m.tile(sys, bins, born, u_id, v, math, scratch),
            None => sys.still_block_raw(born, u.range(), v.view, math, scratch),
        };
    }

    if is_far(u, v.center, v.radius, bins.mac) {
        ops.epol_far += far_pairs(bins.of(u_id), &v.bins);
        return far_value(bins, &bins.side(sys, u_id), &v.side(), math);
    }

    let mut raw = 0.0;
    for c in u.children() {
        raw += epol_recurse(
            sys,
            bins,
            born,
            c,
            v,
            math,
            scratch,
            ops,
            mirrors.as_deref_mut(),
        );
    }
    raw
}

/// Whole-molecule raw E_pol via the octree approximation (single
/// process): every atoms-tree leaf against the whole tree.
pub fn epol_octree_raw(
    sys: &GbSystem,
    bins: &ChargeBins,
    born: &[f64],
    math: MathMode,
) -> (f64, OpCounts) {
    let mut raw = 0.0;
    let mut ops = OpCounts::default();
    let all = 0..sys.n_atoms();
    for &v in &sys.atoms.leaf_ids {
        let (r, o) = approx_epol_leaf(sys, bins, born, v, &all, math);
        raw += r;
        ops.add(&o);
    }
    (raw, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{born_radii_naive, epol_naive_raw};
    use crate::params::ApproxParams;
    use polaroct_molecule::synth;

    fn sys_and_born(n: usize, seed: u64) -> (GbSystem, Vec<f64>) {
        let mol = synth::protein("p", n, seed);
        let sys = GbSystem::prepare(&mol, &ApproxParams::default());
        let (born, _) = born_radii_naive(&sys, polaroct_geom::fastmath::MathMode::Exact);
        (sys, born)
    }

    #[test]
    fn bins_conserve_charge() {
        let (sys, born) = sys_and_born(300, 3);
        let bins = ChargeBins::build(&sys, &born, 0.9);
        // Root bins sum to the molecule's net charge (≈0 for generated
        // proteins, so compare against the direct sum instead).
        let direct: f64 = sys.charge.iter().sum();
        let rooted: f64 = bins.of(0).iter().sum();
        assert!((direct - rooted).abs() < 1e-9);
        // Each node's bins equal the sum of its children's bins.
        for (id, node) in sys.atoms.nodes.iter().enumerate() {
            if node.is_leaf() {
                continue;
            }
            for k in 0..bins.m_eps {
                let kid_sum: f64 = node.children().map(|c| bins.of(c)[k]).sum();
                assert!(
                    (bins.of(id as u32)[k] - kid_sum).abs() < 1e-9,
                    "node {id} bin {k}"
                );
            }
        }
    }

    #[test]
    fn atom_bins_bracket_their_radius() {
        let (sys, born) = sys_and_born(200, 7);
        let eps = 0.9;
        let bins = ChargeBins::build(&sys, &born, eps);
        for (i, &b) in bins.atom_bin.iter().enumerate() {
            let lo = bins.r_min * (1.0 + eps).powi(b as i32);
            let hi = bins.r_min * (1.0 + eps).powi(b as i32 + 1);
            let r = born[i];
            assert!(
                r >= lo - 1e-9 && (r < hi + 1e-9 || b as usize == bins.m_eps - 1),
                "atom {i}: R={r} not in bin {b} [{lo},{hi})"
            );
        }
    }

    #[test]
    fn octree_epol_matches_naive_within_one_percent() {
        let (sys, born) = sys_and_born(500, 11);
        let math = polaroct_geom::fastmath::MathMode::Exact;
        let (naive_raw, _) = epol_naive_raw(&sys, &born, math);
        let bins = ChargeBins::build(&sys, &born, 0.9);
        let (raw, ops) = epol_octree_raw(&sys, &bins, &born, math);
        let err = ((raw - naive_raw) / naive_raw).abs();
        assert!(err < 0.01, "E_pol error {err}");
        assert!(ops.epol_near > 0);
    }

    #[test]
    fn error_decreases_with_eps() {
        // Fig. 3 semantics: under the paper's rule ε is the MAC too.
        let (sys, born) = sys_and_born(400, 5);
        let math = polaroct_geom::fastmath::MathMode::Exact;
        let (naive_raw, _) = epol_naive_raw(&sys, &born, math);
        let err = |eps: f64| {
            let bins = ChargeBins::build_far(&sys, &born, eps, EpolFar::Binned);
            let (raw, _) = epol_octree_raw(&sys, &bins, &born, math);
            ((raw - naive_raw) / naive_raw).abs()
        };
        assert!(
            err(0.1) <= err(0.9) + 1e-12,
            "ε=0.1 must not be worse than ε=0.9"
        );
    }

    #[test]
    fn work_decreases_with_eps() {
        let (sys, born) = sys_and_born(400, 5);
        let math = polaroct_geom::fastmath::MathMode::Exact;
        let near = |eps: f64| {
            let bins = ChargeBins::build_far(&sys, &born, eps, EpolFar::Binned);
            epol_octree_raw(&sys, &bins, &born, math).1.epol_near
        };
        assert!(near(0.9) <= near(0.1), "looser ε must do less exact work");
    }

    #[test]
    fn taylor2_work_decreases_with_mac() {
        let (sys, born) = sys_and_born(1_200, 5);
        let math = polaroct_geom::fastmath::MathMode::Exact;
        let (naive_raw, _) = epol_naive_raw(&sys, &born, math);
        let run = |mac: f64| {
            let bins = ChargeBins::build_far(&sys, &born, 0.9, EpolFar::Taylor2 { mac });
            let (raw, ops) = epol_octree_raw(&sys, &bins, &born, math);
            (((raw - naive_raw) / naive_raw).abs(), ops.epol_near)
        };
        let (strict_err, strict_near) = run(1.0 + 2.0 / 0.9);
        let (loose_err, loose_near) = run(2.0);
        assert!(loose_near < strict_near, "a looser MAC must do less exact work");
        assert!(strict_err < 1e-3 && loose_err < 1e-3, "{strict_err} / {loose_err}");
    }

    #[test]
    fn taylor2_exact_when_every_pair_is_near() {
        let (sys, born) = sys_and_born(150, 17);
        let math = polaroct_geom::fastmath::MathMode::Exact;
        let (naive_raw, _) = epol_naive_raw(&sys, &born, math);
        let bins = ChargeBins::build_far(&sys, &born, 0.9, EpolFar::Taylor2 { mac: 1e9 });
        let (raw, ops) = epol_octree_raw(&sys, &bins, &born, math);
        assert_eq!(ops.epol_far, 0);
        assert!(((raw - naive_raw) / naive_raw).abs() < 1e-12, "{raw} vs {naive_raw}");
    }

    /// Two well-separated clusters with one radius bin, far enough that
    /// the GB kernel is Coulomb: the second-order term must take most of
    /// the monopole's error away.
    #[test]
    fn taylor2_far_value_beats_the_monopole_on_a_far_pair() {
        let (sys, _) = sys_and_born(300, 4);
        let born = vec![1.5; sys.n_atoms()];
        let math = polaroct_geom::fastmath::MathMode::Exact;
        let root = sys.atoms.node(0);
        let kids: Vec<NodeId> = root.children().collect();
        let (a, b) = (kids[0], kids[kids.len() - 1]);
        let (na, nb) = (sys.atoms.node(a), sys.atoms.node(b));
        // Shift b's atoms far away along x by translating the centre only:
        // the far value sees centres, the reference sees atoms.
        let shift = Vec3::new(20.0 * (na.radius + nb.radius), 0.0, 0.0);
        let mut exact = 0.0;
        for i in na.range() {
            for j in nb.range() {
                let r = sys.atoms.points[i].dist(sys.atoms.points[j] + shift);
                exact += sys.charge[i] * sys.charge[j] / r;
            }
        }
        let value = |far: EpolFar| {
            let bins = ChargeBins::build_far(&sys, &born, 0.9, far);
            let mut v = bins.side(&sys, b);
            v.center += shift;
            far_value(&bins, &bins.side(&sys, a), &v, math)
        };
        let mono = (value(EpolFar::Binned) - exact).abs();
        let second = (value(EpolFar::Taylor2 { mac: 2.0 }) - exact).abs();
        assert!(second < 0.1 * mono, "Taylor2 error {second} vs monopole {mono}");
    }

    #[test]
    fn leaf_sums_partition_total() {
        // Summing per-leaf contributions over a leaf partition equals the
        // whole sum (Step 6/7 identity).
        let (sys, born) = sys_and_born(350, 13);
        let math = polaroct_geom::fastmath::MathMode::Exact;
        let bins = ChargeBins::build(&sys, &born, 0.9);
        let (total, _) = epol_octree_raw(&sys, &bins, &born, math);
        let ranges = sys.atoms.partition_leaves(4);
        let all = 0..sys.n_atoms();
        let mut sum = 0.0;
        for r in ranges {
            for &v in &sys.atoms.leaf_ids[r] {
                sum += approx_epol_leaf(&sys, &bins, &born, v, &all, math).0;
            }
        }
        assert!((total - sum).abs() < 1e-9 * total.abs().max(1.0));
    }

    #[test]
    fn atom_bins_round_trip_at_bin_boundaries() {
        let (sys, _) = sys_and_born(100, 2);
        let (eps, bins_wanted) = (0.3f64, 6);
        let edge = |k: usize| (1.0 + eps).powi(k as i32);
        // Radii probing every bin: just above its lower edge and at its
        // geometric midpoint, and (above bin 0) just below that edge.
        // R_min = 1 is the first radius and the last bin's midpoint the
        // largest, so `build_far` makes exactly `bins_wanted` bins; the
        // atoms past the probes sit at R_min.
        let mut probes = vec![(1.0, 0)];
        for k in 0..bins_wanted {
            probes.push((edge(k) * (1.0 + 1e-9), k));
            probes.push((edge(k) * (1.0 + eps).sqrt(), k));
            if k > 0 {
                probes.push((edge(k) * (1.0 - 1e-9), k - 1));
            }
        }
        assert!(probes.len() <= sys.n_atoms());
        let mut born = vec![1.0; sys.n_atoms()];
        for (b, &(r, _)) in born.iter_mut().zip(&probes) {
            *b = r;
        }
        let bins = ChargeBins::build(&sys, &born, eps);
        assert_eq!(bins.m_eps, bins_wanted);
        assert_eq!(bins.r_min, 1.0);
        // The running-product table matches the closed form.
        for (s, &rr) in bins.rr_table.iter().enumerate() {
            let direct = bins.r_min * bins.r_min * (1.0 + eps).powi(s as i32);
            assert!(((rr - direct) / direct).abs() < 1e-12, "rr_table[{s}]");
        }
        // `build_far`'s per-atom bins: the formula production runs.
        for (i, &(r, k)) in probes.iter().enumerate() {
            assert_eq!(bins.atom_bin[i] as usize, k, "radius {r} (atom {i})");
        }
        assert!(bins.atom_bin[probes.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn uniform_radii_collapse_to_one_bin() {
        let (sys, _) = sys_and_born(100, 2);
        let born = vec![2.0; sys.n_atoms()];
        let bins = ChargeBins::build(&sys, &born, 0.9);
        assert_eq!(bins.m_eps, 1);
        assert!(bins.atom_bin.iter().all(|&b| b == 0));
    }

    #[test]
    fn clipped_view_with_disabled_mac_matches_naive() {
        // ε huge => MAC multiplier 1+2/ε → 1, but clipping exactness:
        // instead force exact by tiny ε? tiny ε => mac huge => all exact.
        let (sys, born) = sys_and_born(150, 17);
        let math = polaroct_geom::fastmath::MathMode::Exact;
        let (naive_raw, _) = epol_naive_raw(&sys, &born, math);
        let eps = 1e-6; // forces exact everywhere
        let bins = ChargeBins::build_far(&sys, &born, eps, EpolFar::Binned);
        let m = sys.n_atoms();
        let mid = m / 3;
        let mut raw = 0.0;
        for &v in &sys.atoms.leaf_ids {
            raw += approx_epol_leaf(&sys, &bins, &born, v, &(0..mid), math).0;
            raw += approx_epol_leaf(&sys, &bins, &born, v, &(mid..m), math).0;
        }
        assert!(
            ((raw - naive_raw) / naive_raw).abs() < 1e-9,
            "clipped exact sum {raw} vs naive {naive_raw}"
        );
    }

    #[test]
    fn atom_division_error_varies_with_boundaries() {
        // §IV.A: atom-based division error changes with P because leaves
        // get split differently. Compare two different partitions at a
        // coarse ε and require they disagree (while both stay within the
        // error bound). A hollow capsid guarantees clipped leaves take
        // part in far-field interactions (a compact 400-atom globule may
        // evaluate everything exactly, making the partitions coincide).
        let mol = synth::capsid("cap", 1_500, 23);
        let sys = GbSystem::prepare(&mol, &crate::params::ApproxParams::default());
        let (born, _) = born_radii_naive(&sys, polaroct_geom::fastmath::MathMode::Exact);
        let math = polaroct_geom::fastmath::MathMode::Exact;
        let eps = 0.9;
        let bins = ChargeBins::build(&sys, &born, eps);
        let m = sys.n_atoms();
        let run = |cuts: &[usize]| {
            let mut raw = 0.0;
            let mut lo = 0;
            for &c in cuts.iter().chain(std::iter::once(&m)) {
                for &v in &sys.atoms.leaf_ids {
                    raw += approx_epol_leaf(&sys, &bins, &born, v, &(lo..c), math).0;
                }
                lo = c;
            }
            raw
        };
        let a = run(&[m / 2]);
        let b = run(&[m / 3, 2 * m / 3]);
        assert!(
            (a - b).abs() > 1e-12 * a.abs(),
            "different atom partitions should give (slightly) different sums"
        );
    }
}
