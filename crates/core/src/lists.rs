//! Interaction-list execution engine: traversal/execution separation for
//! the three tree algorithms (single-tree Born, single-tree E_pol,
//! dual-tree `OCT_CILK` variants).
//!
//! The recursive traversals in `born.rs` / `epol.rs` / `dual.rs`
//! interleave branch decisions with kernel math, so every evaluation
//! re-pays the whole walk. This module splits them into
//!
//! 1. a **traversal pass** ([`BornLists::build_single`] /
//!    [`BornLists::build_dual`] / [`EpolLists::build_single`] /
//!    [`EpolLists::build_dual`]) that replays the recursion's *control
//!    flow* — identical branch tests on identical floats, in identical
//!    order — but emits a flat list of [`ListEntry`] records instead of
//!    evaluating kernels, and
//! 2. an **execution pass** that sweeps the list through the `soa.rs`
//!    lane-batched kernels, reading straight from the persistent flat
//!    leaf arenas in [`GbSystem`] (zero gather traffic — every leaf is a
//!    slice of the Morton-ordered arenas, DESIGN.md §12), in two phases:
//!    * **Phase A** (parallelizable): every entry's kernel output is a
//!      *pure function* of the system — a per-atom vector for Born near
//!      entries, one scalar otherwise — computed over cost-balanced
//!      chunks ([`polaroct_sched::partition_by_cost`], fixed at build
//!      time, independent of thread count);
//!    * **Phase B** (serial, cheap): outputs are folded **in emission
//!      order** — per-slot adds for Born, and for E_pol a stack machine
//!      driven by each entry's `opens`/`closes` counters that replays
//!      the recursion's exact sum-tree association.
//!
//! Because Phase A is pure and Phase B replays the serial recursion's
//! every floating-point add in order, list execution is **bit-identical
//! to the recursive traversal at any thread count** (see DESIGN.md §11
//! for the full argument, and `tests/lists_match_recursion.rs` for the
//! proptest).
//!
//! On top, [`ListEngine`] adds Verlet-skin reuse for MD: trees are built
//! with node radii inflated by a `skin` margin
//! ([`polaroct_octree::Octree::inflate_radii`]), and lists stay valid —
//! every far/near classification remains conservative — while no atom
//! has moved more than `skin / 2` from the build geometry. Repeated
//! evaluations then pay only kernel cost; the octrees and lists are
//! rebuilt only when the tracked max displacement crosses the boundary.

use crate::born::{push_integrals_to_atoms, BornAccumulators};
use crate::epol::ChargeBins;
use crate::gb::epol_from_raw_sum;
use crate::params::ApproxParams;
use crate::soa::StillScratch;
use crate::system::GbSystem;
use polaroct_cluster::simtime::OpCounts;
use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use polaroct_molecule::Molecule;
use polaroct_octree::NodeId;
use polaroct_sched::{partition_by_cost, WorkStealingPool};
use std::ops::Range;

/// Chunks per list for cost-balanced parallel execution. Fixed — not a
/// function of the worker count — mirroring `drivers::THREAD_BLOCKS`, so
/// the partition is identical at every pool width. (With the two-phase
/// executor the chunking cannot affect energies at all; the fixed count
/// keeps scheduling behavior reproducible too.)
pub const LIST_CHUNKS: usize = 64;

/// One interaction-list record. `a` is always an atoms-tree node; `b` is
/// a quadrature-tree node for Born lists and an atoms-tree node for
/// E_pol lists.
///
/// For E_pol lists, `opens`/`closes` encode the recursion's sum tree:
/// Phase B pushes a fresh partial (`0.0`) per open *before* adding this
/// entry's value, and after adding it pops/folds one level per close —
/// exactly the `raw += child` left-fold the recursion performs. Born
/// lists leave both at zero (Born accumulates into per-node / per-atom
/// slots, so emission order alone fixes every add).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListEntry {
    /// Atoms-tree node id.
    pub a: NodeId,
    /// Source node id (q-tree for Born, atoms tree for E_pol).
    pub b: NodeId,
    /// Far (node-level approximation) vs near (exact leaf×leaf block).
    pub far: bool,
    /// Sum-tree frames that open at this entry (E_pol only).
    pub opens: u32,
    /// Sum-tree frames that close after this entry (E_pol only).
    pub closes: u32,
}

/// Per-entry cost for the balanced chunking: `len_a · len_b` for a near
/// (leaf×leaf) block, 1 for a far approximation.
fn entry_cost(sys: &GbSystem, e: &ListEntry, q_side: bool) -> u64 {
    if e.far {
        return 1;
    }
    let la = sys.atoms.node(e.a).len() as u64;
    let lb = if q_side {
        sys.qtree.node(e.b).len() as u64
    } else {
        sys.atoms.node(e.b).len() as u64
    };
    la * lb
}

fn chunk_entries(sys: &GbSystem, entries: &[ListEntry], q_side: bool) -> Vec<Range<usize>> {
    let costs: Vec<u64> = entries.iter().map(|e| entry_cost(sys, e, q_side)).collect();
    partition_by_cost(&costs, LIST_CHUNKS.min(entries.len()).max(1))
}

/// `(θ+1)/(θ−1)` with `θ = 1+ε` — must match `born.rs` /
/// `dual::born_radii_dual` bit-for-bit (same expression, same order).
#[inline]
fn born_mac(eps: f64) -> f64 {
    let theta = 1.0 + eps;
    (theta + 1.0) / (theta - 1.0)
}

// ---------------------------------------------------------------------------
// Born lists
// ---------------------------------------------------------------------------

/// Stable-sort Born entries by their atoms-tree node. Bit-neutral:
/// Phase B folds each entry into slots owned by exactly `e.a` (the
/// per-atom slots of a near leaf, or `acc.node[e.a]` for a far entry),
/// and a stable sort preserves the relative order of entries sharing an
/// `e.a` — so every accumulator slot sees the same floats in the same
/// order as the raw traversal emission. What it buys: atom locality per
/// cost-balanced chunk, which is what lets `core::delta` mark only a
/// handful of chunks dirty when a few atoms move (the raw single-tree
/// order is q-leaf-major, which scatters one atom's entries across
/// nearly every chunk).
fn sort_by_atom_node(entries: &mut [ListEntry]) {
    entries.sort_by_key(|e| e.a);
}

/// Interaction lists for the Born-integral phase (`APPROX-INTEGRALS`),
/// single- or dual-tree. Execution reproduces the source recursion's
/// accumulator bits exactly (see the module docs).
#[derive(Clone, Debug)]
pub struct BornLists {
    pub entries: Vec<ListEntry>,
    /// Fixed cost-balanced chunk partition of `entries`.
    pub chunks: Vec<Range<usize>>,
    /// Op counts of one execution (identical to what the recursion
    /// reports: traversal visits + kernel pair counts).
    pub ops: OpCounts,
}

impl BornLists {
    /// Lists for the single-tree traversal (`born.rs::recurse` swept over
    /// every quadrature leaf in leaf-id order — the `run_serial` /
    /// `run_oct_threads` emission order).
    pub fn build_single(sys: &GbSystem, eps_born: f64) -> BornLists {
        let mac = born_mac(eps_born);
        let mut entries = Vec::new();
        let mut ops = OpCounts::default();
        for &q in &sys.qtree.leaf_ids {
            build_born_single(sys, 0, q, mac, &mut entries, &mut ops);
        }
        sort_by_atom_node(&mut entries);
        let chunks = chunk_entries(sys, &entries, true);
        BornLists { entries, chunks, ops }
    }

    /// Lists for the dual-tree traversal (`dual::born_recurse` from the
    /// root pair), approximating at internal `Q` nodes too.
    pub fn build_dual(sys: &GbSystem, eps_born: f64) -> BornLists {
        let mac = born_mac(eps_born);
        let mut entries = Vec::new();
        let mut ops = OpCounts::default();
        build_born_dual(sys, 0, 0, mac, &mut entries, &mut ops);
        sort_by_atom_node(&mut entries);
        let chunks = chunk_entries(sys, &entries, true);
        BornLists { entries, chunks, ops }
    }

    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total entries (near + far).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes held by the list structure (capacity-based — the entry
    /// vector is grown by pushes, so its reserved tail is resident too).
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<ListEntry>()
            + self.chunks.capacity() * std::mem::size_of::<Range<usize>>()
    }

    /// Number of Phase-A output slots one entry produces: `len(a)` for a
    /// near entry (one per atom slot, in range order), one for a far
    /// entry. This is the stride `core::delta`'s entry-granular cache
    /// uses to splice a recomputed entry back into its chunk's stream.
    #[inline]
    pub fn entry_out_len(sys: &GbSystem, e: &ListEntry) -> usize {
        if e.far {
            1
        } else {
            sys.atoms.node(e.a).len()
        }
    }

    /// Phase A for one entry: append its kernel output(s) to `out` —
    /// exactly the floats [`BornLists::run_chunk`] emits for this entry,
    /// in the same order. Pure: reads only the system snapshot, so any
    /// number of entries may run concurrently.
    #[inline]
    pub fn run_entry(sys: &GbSystem, e: &ListEntry, out: &mut Vec<f64>) {
        let a = sys.atoms.node(e.a);
        let q = sys.qtree.node(e.b);
        if e.far {
            // Same float expressions as the recursions' far branch.
            let d = q.center - a.center;
            let r2 = d.norm2();
            let inv2 = 1.0 / r2;
            // PANIC-OK: e.b is a qtree node id recorded at list build.
            out.push(sys.q_node_normal[e.b as usize].dot(d) * inv2 * inv2 * inv2);
        } else {
            let qv = sys.q_arena.view(q.range());
            sys.born_block_terms(qv, a.range(), |_, t| out.push(t));
        }
    }

    /// Phase A for one chunk: the flat kernel outputs of its entries, in
    /// entry order — `len(a)` values for a near entry (one per atom slot,
    /// in range order), one value for a far entry. Pure: no shared state,
    /// so any number of chunks may run concurrently. Near entries slice
    /// the persistent q-point arena directly (no gather, no per-chunk
    /// scratch) and read atom positions from the flat atom arena.
    pub fn run_chunk(&self, sys: &GbSystem, c: usize) -> Vec<f64> {
        let entries = &self.entries[self.chunks[c].clone()];
        let cap: usize = entries.iter().map(|e| Self::entry_out_len(sys, e)).sum();
        let mut out = Vec::with_capacity(cap);
        for e in entries {
            Self::run_entry(sys, e, &mut out);
        }
        out
    }

    /// Phase B: fold per-chunk outputs into the accumulators in emission
    /// order. Serial by design — this is what pins the floating-point
    /// add order regardless of how Phase A was scheduled. Generic over
    /// the per-chunk storage (`Vec<f64>` or `&[f64]`). Every caller
    /// passes `Vec<f64>`, but a non-generic `&[Vec<f64>]` signature
    /// measured 2–3% slower per `mutscan` delta query, a code-generation
    /// effect (the folded bits are the same).
    pub fn apply<S: AsRef<[f64]>>(&self, sys: &GbSystem, outputs: &[S], acc: &mut BornAccumulators) {
        debug_assert_eq!(outputs.len(), self.chunks.len());
        for (chunk, vals) in self.chunks.iter().zip(outputs) {
            let vals = vals.as_ref();
            let mut cur = 0usize;
            for e in &self.entries[chunk.clone()] {
                if e.far {
                    acc.node[e.a as usize] += vals[cur];
                    cur += 1;
                } else {
                    for ai in sys.atoms.node(e.a).range() {
                        acc.atom[ai] += vals[cur];
                        cur += 1;
                    }
                }
            }
            debug_assert_eq!(cur, vals.len());
        }
    }

    /// Full execution: Phase A over the pool (or serially when `None`),
    /// Phase B serially. Returns the op counts of the run.
    pub fn execute(
        &self,
        sys: &GbSystem,
        pool: Option<&WorkStealingPool>,
        acc: &mut BornAccumulators,
    ) -> OpCounts {
        let outputs: Vec<Vec<f64>> = match pool {
            Some(p) => p.map(self.n_chunks(), |c| self.run_chunk(sys, c)),
            None => (0..self.n_chunks()).map(|c| self.run_chunk(sys, c)).collect(),
        };
        self.apply(sys, &outputs, acc);
        self.ops
    }
}

/// Mirror of `born.rs::recurse` for a whole quadrature leaf: identical
/// floats, identical branch order (far test with the `r2 > 0` guard
/// first, then leaf, else descend the atoms side).
fn build_born_single(
    sys: &GbSystem,
    a_id: NodeId,
    q_id: NodeId,
    mac: f64,
    entries: &mut Vec<ListEntry>,
    ops: &mut OpCounts,
) {
    let a = sys.atoms.node(a_id);
    let q = sys.qtree.node(q_id);
    ops.nodes_visited += 1;
    let d = q.center - a.center;
    let r2 = d.norm2();
    let sep = (a.radius + q.radius) * mac;
    if r2 > sep * sep && r2 > 0.0 {
        entries.push(ListEntry { a: a_id, b: q_id, far: true, opens: 0, closes: 0 });
        ops.born_far += 1;
        return;
    }
    if a.is_leaf() {
        entries.push(ListEntry { a: a_id, b: q_id, far: false, opens: 0, closes: 0 });
        ops.born_near += (a.len() * q.len()) as u64;
        return;
    }
    for c in a.children() {
        build_born_single(sys, c, q_id, mac, entries, ops);
    }
}

/// Mirror of `dual::born_recurse`: far first (same guard), then the
/// four-way leaf split with the larger-radius refinement rule.
fn build_born_dual(
    sys: &GbSystem,
    a_id: NodeId,
    q_id: NodeId,
    mac: f64,
    entries: &mut Vec<ListEntry>,
    ops: &mut OpCounts,
) {
    let a = sys.atoms.node(a_id);
    let q = sys.qtree.node(q_id);
    ops.nodes_visited += 1;
    let d = q.center - a.center;
    let r2 = d.norm2();
    let sep = (a.radius + q.radius) * mac;
    if r2 > sep * sep && r2 > 0.0 {
        entries.push(ListEntry { a: a_id, b: q_id, far: true, opens: 0, closes: 0 });
        ops.born_far += 1;
        return;
    }
    match (a.is_leaf(), q.is_leaf()) {
        (true, true) => {
            entries.push(ListEntry { a: a_id, b: q_id, far: false, opens: 0, closes: 0 });
            ops.born_near += (a.len() * q.len()) as u64;
        }
        (true, false) => {
            for qc in q.children() {
                build_born_dual(sys, a_id, qc, mac, entries, ops);
            }
        }
        (false, true) => {
            for ac in a.children() {
                build_born_dual(sys, ac, q_id, mac, entries, ops);
            }
        }
        (false, false) => {
            if a.radius >= q.radius {
                for ac in a.children() {
                    build_born_dual(sys, ac, q_id, mac, entries, ops);
                }
            } else {
                for qc in q.children() {
                    build_born_dual(sys, a_id, qc, mac, entries, ops);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// E_pol lists
// ---------------------------------------------------------------------------

/// Interaction lists for the E_pol phase (`APPROX-E_pol`), single- or
/// dual-tree. The sum-tree replay (entry `opens`/`closes`) makes the
/// executed total bit-identical to the recursion's nested folds.
#[derive(Clone, Debug)]
pub struct EpolLists {
    pub entries: Vec<ListEntry>,
    pub chunks: Vec<Range<usize>>,
    pub ops: OpCounts,
}

impl EpolLists {
    /// Lists for the single-tree traversal (`epol.rs::epol_recurse` swept
    /// over every atoms leaf in leaf-id order, with the driver's
    /// `raw += leaf` fold as the outermost frame). `bins` is only
    /// consulted to count far-field bin pairs for the op report; the
    /// traversal itself is pure geometry.
    pub fn build_single(sys: &GbSystem, bins: &ChargeBins, eps_epol: f64) -> EpolLists {
        let mac = 1.0 + 2.0 / eps_epol;
        let mut entries = Vec::new();
        let mut ops = OpCounts::default();
        for &v in &sys.atoms.leaf_ids {
            let mut pending = 0u32;
            build_epol_single(sys, bins, 0, v, mac, &mut pending, &mut entries, &mut ops);
        }
        let chunks = chunk_entries(sys, &entries, false);
        EpolLists { entries, chunks, ops }
    }

    /// Lists for the dual-tree traversal (`dual::epol_recurse` from the
    /// root pair, ordered child-pair expansion on the diagonal).
    pub fn build_dual(sys: &GbSystem, bins: &ChargeBins, eps_epol: f64) -> EpolLists {
        let mac = 1.0 + 2.0 / eps_epol;
        let mut entries = Vec::new();
        let mut ops = OpCounts::default();
        let mut pending = 0u32;
        build_epol_dual(sys, bins, 0, 0, mac, &mut pending, &mut entries, &mut ops);
        let chunks = chunk_entries(sys, &entries, false);
        EpolLists { entries, chunks, ops }
    }

    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes held by the list structure (capacity-based, like
    /// [`BornLists::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<ListEntry>()
            + self.chunks.capacity() * std::mem::size_of::<Range<usize>>()
    }

    /// Phase A for one entry: the scalar [`EpolLists::run_chunk`] would
    /// emit for it — the binned far kernel or the exact SoA STILL block.
    /// Pure (the scratch is write-before-read workspace, see the
    /// stale-scratch-reuse kernel tests), so any number of entries may
    /// run concurrently with private scratches.
    #[inline]
    pub fn run_entry(
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        math: MathMode,
        e: &ListEntry,
        scratch: &mut StillScratch,
    ) -> f64 {
        let u = sys.atoms.node(e.a);
        let v = sys.atoms.node(e.b);
        if e.far {
            // Identical to the recursions' far branch: bin × bin with
            // zero-charge rows/columns skipped, folded in index order.
            let r2 = u.center.dist2(v.center);
            let qu = bins.of(e.a);
            let qv = bins.of(e.b);
            let mut raw = 0.0;
            for (i, &qi) in qu.iter().enumerate() {
                if qi == 0.0 {
                    continue;
                }
                for (j, &qj) in qv.iter().enumerate() {
                    if qj == 0.0 {
                        continue;
                    }
                    // PANIC-OK: i + j < 2·m_eps by the bins' table construction.
                    let rr = bins.rr_table[i + j];
                    let inner = r2 + rr * math.exp(-r2 / (4.0 * rr));
                    raw += qi * qj * math.rsqrt(inner);
                }
            }
            raw
        } else {
            let vv = sys.atom_arena.view(born, v.range());
            sys.still_block_raw(born, u.range(), vv, math, scratch)
        }
    }

    /// Phase A for one chunk: one scalar per entry, in entry order. Near
    /// entries evaluate the exact SoA STILL block (the same internal fold
    /// as the recursion's leaf case) over a zero-copy slice of the
    /// persistent atom arena; far entries the binned kernel.
    pub fn run_chunk(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        math: MathMode,
        c: usize,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.chunks[c].len());
        let mut scratch = StillScratch::default();
        for e in &self.entries[self.chunks[c].clone()] {
            out.push(Self::run_entry(sys, bins, born, math, e, &mut scratch));
        }
        out
    }

    /// Phase B: replay the recursion's sum tree. The stack starts with
    /// one global frame (the drivers' `raw += leaf` fold); each entry
    /// pushes `opens` fresh frames, adds its value to the innermost one,
    /// then folds `closes` completed frames into their parents. The
    /// global frame ends up holding exactly the recursion's total.
    /// Generic over the per-chunk storage for the same reason as
    /// [`BornLists::apply`].
    pub fn apply<S: AsRef<[f64]>>(&self, outputs: &[S]) -> f64 {
        debug_assert_eq!(outputs.len(), self.chunks.len());
        let mut stack: Vec<f64> = vec![0.0];
        for (chunk, vals) in self.chunks.iter().zip(outputs) {
            let vals = vals.as_ref();
            debug_assert_eq!(vals.len(), chunk.len());
            for (e, &v) in self.entries[chunk.clone()].iter().zip(vals) {
                stack.resize(stack.len() + e.opens as usize, 0.0);
                if let Some(top) = stack.last_mut() {
                    *top += v;
                }
                for _ in 0..e.closes {
                    if let Some(t) = stack.pop() {
                        if let Some(parent) = stack.last_mut() {
                            *parent += t;
                        }
                    }
                }
            }
        }
        stack[0]
    }

    /// Full execution: Phase A over the pool (or serially when `None`),
    /// Phase B serially. Returns `(raw, ops)` like the recursions do.
    pub fn execute(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        math: MathMode,
        pool: Option<&WorkStealingPool>,
    ) -> (f64, OpCounts) {
        let outputs: Vec<Vec<f64>> = match pool {
            Some(p) => p.map(self.n_chunks(), |c| self.run_chunk(sys, bins, born, math, c)),
            None => (0..self.n_chunks())
                .map(|c| self.run_chunk(sys, bins, born, math, c))
                .collect(),
        };
        (self.apply(&outputs), self.ops)
    }
}

/// Count the far-field bin pairs the binned kernel would evaluate (for
/// op reporting — matches the recursions' `pairs` counter).
fn far_pairs(bins: &ChargeBins, u: NodeId, v: NodeId) -> u64 {
    let nu = bins.of(u).iter().filter(|&&q| q != 0.0).count() as u64;
    let nv = bins.of(v).iter().filter(|&&q| q != 0.0).count() as u64;
    nu * nv
}

/// Mirror of `epol.rs::epol_recurse` (leaf test **first**, then the far
/// test without a `r2 > 0` guard, else descend the `u` side).
#[allow(clippy::too_many_arguments)]
fn build_epol_single(
    sys: &GbSystem,
    bins: &ChargeBins,
    u_id: NodeId,
    v_id: NodeId,
    mac: f64,
    pending: &mut u32,
    entries: &mut Vec<ListEntry>,
    ops: &mut OpCounts,
) {
    let u = sys.atoms.node(u_id);
    let v = sys.atoms.node(v_id);
    ops.nodes_visited += 1;
    if u.is_leaf() {
        let opens = std::mem::take(pending);
        entries.push(ListEntry { a: u_id, b: v_id, far: false, opens, closes: 0 });
        ops.epol_near += (u.len() * v.len()) as u64;
        return;
    }
    let r2 = u.center.dist2(v.center);
    let sep = (u.radius + v.radius) * mac;
    if r2 > sep * sep {
        let opens = std::mem::take(pending);
        entries.push(ListEntry { a: u_id, b: v_id, far: true, opens, closes: 0 });
        ops.epol_far += far_pairs(bins, u_id, v_id);
        return;
    }
    *pending += 1;
    for c in u.children() {
        build_epol_single(sys, bins, c, v_id, mac, pending, entries, ops);
    }
    // Every call emits at least one entry, so the frame that just
    // finished closes after the most recently emitted one.
    if let Some(last) = entries.last_mut() {
        last.closes += 1;
    }
}

/// Mirror of `dual::epol_recurse` (far test **first** with the
/// `sep > 0` point-pair guard, then the four-way leaf split with the
/// ordered child-pair diagonal expansion).
#[allow(clippy::too_many_arguments)]
fn build_epol_dual(
    sys: &GbSystem,
    bins: &ChargeBins,
    u_id: NodeId,
    v_id: NodeId,
    mac: f64,
    pending: &mut u32,
    entries: &mut Vec<ListEntry>,
    ops: &mut OpCounts,
) {
    let u = sys.atoms.node(u_id);
    let v = sys.atoms.node(v_id);
    ops.nodes_visited += 1;
    let r2 = u.center.dist2(v.center);
    let sep = (u.radius + v.radius) * mac;
    if sep > 0.0 && r2 > sep * sep {
        let opens = std::mem::take(pending);
        entries.push(ListEntry { a: u_id, b: v_id, far: true, opens, closes: 0 });
        ops.epol_far += far_pairs(bins, u_id, v_id);
        return;
    }
    match (u.is_leaf(), v.is_leaf()) {
        (true, true) => {
            let opens = std::mem::take(pending);
            entries.push(ListEntry { a: u_id, b: v_id, far: false, opens, closes: 0 });
            ops.epol_near += (u.len() * v.len()) as u64;
            return;
        }
        (true, false) => {
            *pending += 1;
            for vc in v.children() {
                build_epol_dual(sys, bins, u_id, vc, mac, pending, entries, ops);
            }
        }
        (false, true) => {
            *pending += 1;
            for uc in u.children() {
                build_epol_dual(sys, bins, uc, v_id, mac, pending, entries, ops);
            }
        }
        (false, false) => {
            *pending += 1;
            if u_id == v_id {
                for uc in u.children() {
                    for vc in v.children() {
                        build_epol_dual(sys, bins, uc, vc, mac, pending, entries, ops);
                    }
                }
            } else if u.radius >= v.radius {
                for uc in u.children() {
                    build_epol_dual(sys, bins, uc, v_id, mac, pending, entries, ops);
                }
            } else {
                for vc in v.children() {
                    build_epol_dual(sys, bins, u_id, vc, mac, pending, entries, ops);
                }
            }
        }
    }
    if let Some(last) = entries.last_mut() {
        last.closes += 1;
    }
}

// ---------------------------------------------------------------------------
// Verlet-skin MD engine
// ---------------------------------------------------------------------------

/// Result of one [`ListEngine::evaluate`] call.
#[derive(Clone, Debug)]
pub struct EngineEval {
    /// Polarization energy (kcal/mol) at the supplied positions.
    pub energy_kcal: f64,
    /// Raw ordered-pair E_pol sum.
    pub raw: f64,
    /// Whether the octrees and lists were rebuilt for this evaluation.
    pub rebuilt: bool,
    /// Max atom displacement from the last rebuild geometry (Å).
    pub max_disp: f64,
    /// Kernel op counts of this evaluation.
    pub ops: OpCounts,
}

/// Persistent single-tree evaluator for MD: octrees with skin-inflated
/// node bounds, prebuilt interaction lists, and per-step revalidation by
/// max-displacement tracking.
///
/// **Reuse protocol.** Lists (and trees) built at reference geometry `X₀`
/// with every node radius inflated by `skin` stay conservative while
/// `max_i |x_i − x₀_i| ≤ skin/2`: any node pair classified *far* against
/// the inflated radii is still separated by more than the uninflated MAC
/// threshold after both sides drift by `skin/2` (the MAC multiplier is
/// ≥ 1, so the inflation covers the drift on both sides of the
/// inequality). On a reuse step only the Morton-ordered atom positions
/// are refreshed; node centers/aggregates and the quadrature surface
/// stay frozen at `X₀` — a skin-bounded approximation on top of the
/// ε-approximation, which vanishes as `skin → 0`. Once
/// `max_disp > skin/2`, everything is rebuilt at the current geometry
/// (with `skin = 0` that means every time the positions change at all).
pub struct ListEngine {
    pub(crate) approx: ApproxParams,
    pub(crate) skin: f64,
    pub(crate) sys: GbSystem,
    pub(crate) born_lists: BornLists,
    pub(crate) epol_lists: EpolLists,
    /// Born radii from the last [`Self::evaluate`] (Morton order).
    pub(crate) born: Vec<f64>,
    /// Positions (original order) the current trees/lists were built at.
    pub(crate) reference: Vec<Vec3>,
    pub(crate) work: Molecule,
    /// Evaluations served by prebuilt lists.
    pub lists_reused: u64,
    /// Evaluations (incl. the initial build) that rebuilt trees + lists.
    pub lists_rebuilt: u64,
}

impl ListEngine {
    /// Build the engine at the molecule's current geometry. Counts as the
    /// first rebuild. `skin` is the Verlet margin in Å (`>= 0`).
    pub fn new(mol: &Molecule, approx: &ApproxParams, skin: f64) -> ListEngine {
        assert!(skin >= 0.0 && skin.is_finite(), "skin must be a finite non-negative margin");
        let work = mol.clone();
        let mut engine = ListEngine {
            approx: *approx,
            skin,
            // Placeholder fields; `rebuild` fills them all in.
            sys: GbSystem::prepare(&work, approx),
            born_lists: BornLists { entries: Vec::new(), chunks: Vec::new(), ops: OpCounts::default() },
            epol_lists: EpolLists { entries: Vec::new(), chunks: Vec::new(), ops: OpCounts::default() },
            born: Vec::new(),
            reference: mol.positions.clone(),
            work,
            lists_reused: 0,
            lists_rebuilt: 0,
        };
        let positions = mol.positions.clone();
        engine.rebuild(&positions);
        engine.lists_rebuilt = 1;
        // Populate Born radii at the build geometry so force kernels can
        // run before the first `evaluate` call.
        let mut acc = BornAccumulators::zeros(&engine.sys);
        engine.born_lists.execute(&engine.sys, None, &mut acc);
        let mut born = vec![0.0; engine.sys.n_atoms()];
        push_integrals_to_atoms(&engine.sys, &acc, 0..engine.sys.n_atoms(), approx.math, &mut born);
        engine.born = born;
        engine
    }

    /// The system snapshot (inflated trees, positions as of the last
    /// evaluate/rebuild) — for force kernels and inspection.
    pub fn system(&self) -> &GbSystem {
        &self.sys
    }

    /// Born radii of the last evaluation (Morton order; pair with
    /// `system()`). Populated from construction onward.
    pub fn born(&self) -> &[f64] {
        &self.born
    }

    /// The configured skin margin.
    pub fn skin(&self) -> f64 {
        self.skin
    }

    /// Resident bytes of the engine's persistent state: the prepared
    /// system (trees + payloads + flat leaf arenas) plus both interaction
    /// lists.
    pub fn memory_bytes(&self) -> usize {
        self.sys.memory_bytes() + self.born_lists.memory_bytes() + self.epol_lists.memory_bytes()
    }

    pub(crate) fn rebuild(&mut self, positions: &[Vec3]) {
        // PANIC-OK: rebuild always receives positions for the same molecule (same atom count).
        self.work.positions.copy_from_slice(positions);
        self.sys = GbSystem::prepare(&self.work, &self.approx);
        if self.skin > 0.0 {
            self.sys.atoms.inflate_radii(self.skin);
            self.sys.qtree.inflate_radii(self.skin);
        }
        self.born_lists = BornLists::build_single(&self.sys, self.approx.eps_born);
        // The E_pol traversal is pure geometry; bins only feed the op
        // report. Build them from intrinsic radii here — the energy path
        // always executes with the current step's real bins.
        let bins = ChargeBins::build(&self.sys, &self.sys.radius.clone(), self.approx.eps_epol);
        self.epol_lists = EpolLists::build_single(&self.sys, &bins, self.approx.eps_epol);
        self.reference = positions.to_vec();
    }

    /// Evaluate Born radii and the polarization energy at `positions`
    /// (original atom order), rebuilding trees + lists only when the
    /// max displacement since the last rebuild exceeds `skin / 2`.
    pub fn evaluate(&mut self, positions: &[Vec3]) -> EngineEval {
        assert_eq!(positions.len(), self.reference.len());
        let max_disp = positions
            .iter()
            .zip(&self.reference)
            .map(|(p, r)| p.dist(*r))
            .fold(0.0f64, f64::max);
        let rebuilt = max_disp > 0.5 * self.skin;
        if rebuilt {
            self.rebuild(positions);
            self.lists_rebuilt += 1;
        } else {
            // Refresh only the Morton-ordered atom positions (octree
            // copies + flat atom arena); topology, node centers/aggregates
            // and the surface stay frozen (the skin-bounded approximation
            // documented on the type).
            self.sys.refresh_atom_positions(positions);
            self.lists_reused += 1;
        }
        let math = self.approx.math;
        let n = self.sys.n_atoms();

        let mut acc = BornAccumulators::zeros(&self.sys);
        let mut ops = self.born_lists.execute(&self.sys, None, &mut acc);
        let mut born = vec![0.0; n];
        ops.add(&push_integrals_to_atoms(&self.sys, &acc, 0..n, math, &mut born));

        let bins = ChargeBins::build(&self.sys, &born, self.approx.eps_epol);
        let (raw, eops) = self.epol_lists.execute(&self.sys, &bins, &born, math, None);
        ops.add(&eops);
        self.born = born;

        EngineEval {
            energy_kcal: epol_from_raw_sum(raw, self.approx.eps_solvent),
            raw,
            rebuilt,
            max_disp,
            ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::born::born_radii_octree;
    use crate::dual::{born_radii_dual, epol_dual_raw};
    use crate::epol::epol_octree_raw;
    use crate::naive::born_radii_naive;
    use polaroct_molecule::synth;

    fn system(n: usize, seed: u64) -> GbSystem {
        GbSystem::prepare(&synth::protein("p", n, seed), &ApproxParams::default())
    }

    #[test]
    fn single_born_lists_match_recursion_bits() {
        let sys = system(400, 3);
        let eps = 0.9;
        let (reference, rops) = born_radii_octree(&sys, eps, MathMode::Exact);
        let lists = BornLists::build_single(&sys, eps);
        for pool in [None, Some(WorkStealingPool::new(3))] {
            let mut acc = BornAccumulators::zeros(&sys);
            let mut ops = lists.execute(&sys, pool.as_ref(), &mut acc);
            let mut out = vec![0.0; sys.n_atoms()];
            ops.add(&push_integrals_to_atoms(
                &sys,
                &acc,
                0..sys.n_atoms(),
                MathMode::Exact,
                &mut out,
            ));
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
            assert_eq!(ops.born_near, rops.born_near);
            assert_eq!(ops.born_far, rops.born_far);
            assert_eq!(ops.nodes_visited, rops.nodes_visited);
        }
    }

    #[test]
    fn single_epol_lists_match_recursion_bits() {
        let sys = system(400, 7);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        for eps in [0.9, 0.3] {
            let bins = ChargeBins::build(&sys, &born, eps);
            let (reference, rops) = epol_octree_raw(&sys, &bins, &born, eps, MathMode::Exact);
            let lists = EpolLists::build_single(&sys, &bins, eps);
            for pool in [None, Some(WorkStealingPool::new(4))] {
                let (raw, ops) =
                    lists.execute(&sys, &bins, &born, MathMode::Exact, pool.as_ref());
                assert_eq!(raw.to_bits(), reference.to_bits(), "{raw} vs {reference}");
                assert_eq!(ops.epol_near, rops.epol_near);
                assert_eq!(ops.epol_far, rops.epol_far);
                assert_eq!(ops.nodes_visited, rops.nodes_visited);
            }
        }
    }

    #[test]
    fn dual_lists_match_dual_recursion_bits() {
        let sys = system(350, 11);
        let eps = 0.9;
        let (reference, rops) = born_radii_dual(&sys, eps, MathMode::Exact);
        let lists = BornLists::build_dual(&sys, eps);
        let mut acc = BornAccumulators::zeros(&sys);
        let mut ops = lists.execute(&sys, None, &mut acc);
        let mut out = vec![0.0; sys.n_atoms()];
        ops.add(&push_integrals_to_atoms(
            &sys,
            &acc,
            0..sys.n_atoms(),
            MathMode::Exact,
            &mut out,
        ));
        for (a, b) in out.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        assert_eq!(ops.born_near, rops.born_near);
        assert_eq!(ops.born_far, rops.born_far);

        let bins = ChargeBins::build(&sys, &out, eps);
        let (eref, erops) = epol_dual_raw(&sys, &bins, &out, eps, MathMode::Exact);
        let elists = EpolLists::build_dual(&sys, &bins, eps);
        for pool in [None, Some(WorkStealingPool::new(2))] {
            let (raw, eops) = elists.execute(&sys, &bins, &out, MathMode::Exact, pool.as_ref());
            assert_eq!(raw.to_bits(), eref.to_bits(), "{raw} vs {eref}");
            assert_eq!(eops.epol_near, erops.epol_near);
            assert_eq!(eops.epol_far, erops.epol_far);
        }
    }

    #[test]
    fn chunked_execution_is_width_invariant() {
        let sys = system(300, 5);
        let eps = 0.9;
        let lists = BornLists::build_single(&sys, eps);
        assert!(lists.n_chunks() <= LIST_CHUNKS);
        let run = |width: Option<usize>| {
            let pool = width.map(WorkStealingPool::new);
            let mut acc = BornAccumulators::zeros(&sys);
            lists.execute(&sys, pool.as_ref(), &mut acc);
            acc
        };
        let serial = run(None);
        for w in [1usize, 2, 5, 8] {
            let par = run(Some(w));
            for (a, b) in par.node.iter().zip(&serial.node) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in par.atom.iter().zip(&serial.atom) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn epol_sum_tree_replay_closes_every_frame() {
        // Structural check on the opens/closes encoding: over the whole
        // list, opens == closes (every frame closes), and the running
        // depth never goes negative.
        let sys = system(250, 13);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let bins = ChargeBins::build(&sys, &born, 0.9);
        for lists in [
            EpolLists::build_single(&sys, &bins, 0.9),
            EpolLists::build_dual(&sys, &bins, 0.9),
        ] {
            let mut depth = 0i64;
            for e in &lists.entries {
                depth += e.opens as i64;
                assert!(depth >= 0);
                depth -= e.closes as i64;
                assert!(depth >= 0, "frame closed below the global frame");
            }
            assert_eq!(depth, 0, "unclosed frames at end of list");
        }
    }

    #[test]
    fn skin_zero_engine_matches_direct_lists() {
        let mol = synth::ligand("md", 40, 5);
        let approx = ApproxParams::default();
        let mut engine = ListEngine::new(&mol, &approx, 0.0);
        let eval = engine.evaluate(&mol.positions);
        assert!(!eval.rebuilt, "unmoved positions must reuse the build");
        // Reference: the plain single-tree pipeline on the same geometry.
        let sys = GbSystem::prepare(&mol, &approx);
        let (born, _) = born_radii_octree(&sys, approx.eps_born, approx.math);
        let bins = ChargeBins::build(&sys, &born, approx.eps_epol);
        let (raw, _) = epol_octree_raw(&sys, &bins, &born, approx.eps_epol, approx.math);
        assert_eq!(eval.raw.to_bits(), raw.to_bits());
        // Any movement at skin 0 must rebuild.
        let mut moved = mol.positions.clone();
        moved[0].x += 1e-9;
        let eval2 = engine.evaluate(&moved);
        assert!(eval2.rebuilt);
        assert_eq!(engine.lists_rebuilt, 2);
        assert_eq!(engine.lists_reused, 1);
    }

    #[test]
    fn skinned_engine_reuses_within_half_skin() {
        let mol = synth::ligand("md", 40, 9);
        let approx = ApproxParams::default();
        let skin = 1.0;
        let mut engine = ListEngine::new(&mol, &approx, skin);
        let mut pos = mol.positions.clone();
        pos[3].y += 0.49; // < skin/2
        let eval = engine.evaluate(&pos);
        assert!(!eval.rebuilt, "displacement {} within skin/2", eval.max_disp);
        assert!(eval.energy_kcal.is_finite() && eval.energy_kcal < 0.0);
        pos[3].y += 0.49; // cumulative 0.98 > skin/2
        let eval = engine.evaluate(&pos);
        assert!(eval.rebuilt, "displacement {} must trip the rebuild", eval.max_disp);
        assert_eq!(engine.lists_rebuilt, 2);
        assert_eq!(engine.lists_reused, 1);
    }

    #[test]
    fn rebuild_energy_matches_fresh_engine_bits() {
        // After a rebuild the engine must be indistinguishable from a
        // brand-new engine at the same geometry.
        let mol = synth::ligand("md", 35, 21);
        let approx = ApproxParams::default();
        let mut engine = ListEngine::new(&mol, &approx, 0.4);
        let mut pos = mol.positions.clone();
        for p in &mut pos {
            p.x += 0.3; // > skin/2 = 0.2 → rebuild
        }
        let eval = engine.evaluate(&pos);
        assert!(eval.rebuilt);
        let mut fresh_mol = mol.clone();
        fresh_mol.positions = pos.clone();
        let mut fresh = ListEngine::new(&fresh_mol, &approx, 0.4);
        let fresh_eval = fresh.evaluate(&pos);
        assert_eq!(eval.raw.to_bits(), fresh_eval.raw.to_bits());
        assert_eq!(eval.energy_kcal.to_bits(), fresh_eval.energy_kcal.to_bits());
    }

    #[test]
    fn list_memory_is_reported() {
        let sys = system(200, 1);
        let lists = BornLists::build_single(&sys, 0.9);
        assert!(lists.memory_bytes() > 0);
        assert!(!lists.is_empty());
        assert_eq!(
            lists.len(),
            (lists.ops.born_far
                + lists.entries.iter().filter(|e| !e.far).count() as u64) as usize
        );
    }
}
