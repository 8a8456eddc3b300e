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
//!    slice of the Morton-ordered arenas, DESIGN.md §11), in two phases:
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
//! to the recursive traversal at any thread count** (see DESIGN.md §10
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

use crate::born::{push_segment, BornAccumulators};
use crate::drivers::PhaseTimes;
use crate::epol::{far_pairs, far_value, ChargeBins};
use crate::gb::epol_from_raw_sum;
use crate::params::ApproxParams;
use crate::soa::{still_pair_block, StillScratch};
use crate::system::GbSystem;
use polaroct_cluster::fault::phase;
use polaroct_cluster::simtime::OpCounts;
use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use polaroct_molecule::Molecule;
use polaroct_octree::{NodeId, Octree};
use polaroct_sched::{partition_by_cost, WorkStealingPool};
use std::borrow::Cow;
use std::convert::Infallible;
use std::ops::Range;
use std::time::Instant;

/// Chunks per list for cost-balanced parallel execution, and atom blocks
/// of a pooled push. Fixed — not a function of the worker count — so the
/// partition is identical at every pool width. (With the two-phase
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
/// slots, so emission order alone fixes every add). Both fit a `u8`: an
/// octree is at most `morton::BITS_PER_AXIS` = 21 levels deep (enforced
/// by `octree::try_build`), so a single-tree entry opens or closes at
/// most 22 frames and a dual-tree entry at most 2·21 + 1.
///
/// `partner` links a near E_pol entry `(u, v)` to its mirror `(v, u)` in
/// the same list ([`ListEntry::NO_PARTNER`] when there is none, and
/// always for Born, far and diagonal entries): Phase A evaluates the
/// pair's STILL tile once for both (DESIGN.md §10.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListEntry {
    /// Atoms-tree node id.
    pub a: NodeId,
    /// Source node id (q-tree for Born, atoms tree for E_pol).
    pub b: NodeId,
    /// Index of the mirror entry, or [`ListEntry::NO_PARTNER`].
    pub partner: u32,
    /// Far (node-level approximation) vs near (exact leaf×leaf block).
    pub far: bool,
    /// Sum-tree frames that open at this entry (E_pol only).
    pub opens: u8,
    /// Sum-tree frames that close after this entry (E_pol only).
    pub closes: u8,
}

impl ListEntry {
    /// `partner` of an entry without a mirror.
    pub const NO_PARTNER: u32 = u32::MAX;

    fn new(a: NodeId, b: NodeId, far: bool, opens: u8) -> ListEntry {
        ListEntry { a, b, partner: Self::NO_PARTNER, far, opens, closes: 0 }
    }

    /// Index of the mirror entry, if this entry has one.
    #[inline]
    pub fn mirror(&self) -> Option<usize> {
        (self.partner != Self::NO_PARTNER).then_some(self.partner as usize)
    }
}

/// Per-entry cost for the balanced chunking: `len_a · len_b` for a near
/// (leaf×leaf) block, 1 for a far approximation. A mirrored pair is
/// charged in full on both entries, although the lower-indexed one does
/// the pair's work: the partition is pinned by the delta goldens'
/// chunk counters, so pairing leaves it as it was.
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

/// The fixed chunk partition of a finished list. Also trims the entry
/// vector (grown by pushes) and the partition to their lengths, so the
/// resident list is what `memory_bytes` reports and no more.
fn chunk_entries(
    sys: &GbSystem,
    entries: &mut Vec<ListEntry>,
    q_side: bool,
) -> Vec<Range<usize>> {
    entries.shrink_to_fit();
    let costs: Vec<u64> = entries.iter().map(|e| entry_cost(sys, e, q_side)).collect();
    let mut chunks = partition_by_cost(&costs, LIST_CHUNKS.min(entries.len()).max(1));
    chunks.shrink_to_fit();
    chunks
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

/// Stable-sort Born entries by their atoms-tree node: the order
/// [`BornLists::build_single`] emits by construction, restored here for
/// the dual-tree emission (whose recursion refines the q side too).
/// Bit-neutral: Phase B folds each entry into slots owned by exactly
/// `e.a` (the per-atom slots of a near leaf, or `acc.node[e.a]` for a far
/// entry), and a stable sort preserves the relative order of entries
/// sharing an `e.a` — so every accumulator slot sees the same floats in
/// the same order as the raw traversal emission. What it buys: atom
/// locality per cost-balanced chunk, which is what lets `core::delta`
/// mark only a handful of chunks dirty when a few atoms move.
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
    /// every quadrature leaf in leaf-id order), emitted atoms-node-major:
    /// the entries of each atoms node are contiguous, nodes in id order,
    /// and within a node in q-leaf order. That is exactly the q-major
    /// recursion's emission stably sorted by atoms node, with the same
    /// op counts, but built without a sort (see `emit_born_single`).
    pub fn build_single(sys: &GbSystem, eps_born: f64) -> BornLists {
        let (mut entries, ops) = emit_born_single(sys, born_mac(eps_born));
        let chunks = chunk_entries(sys, &mut entries, true);
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
        let chunks = chunk_entries(sys, &mut entries, true);
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

    /// Heap bytes held by the list structure (capacity-based; the build
    /// trims both vectors to their lengths).
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<ListEntry>()
            + self.chunks.capacity() * std::mem::size_of::<Range<usize>>()
    }

    /// Number of Phase-A output slots one entry produces: `len(a)` for a
    /// near entry (one per atom slot, in range order), one for a far
    /// entry.
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
        let n = self.n_chunks();
        let outputs = recovering_map(pool, n, None, |c| self.run_chunk(sys, c), &mut 0);
        self.apply(sys, &outputs, acc);
        self.ops
    }
}

/// The single-tree Born emission, atoms-node-major, in one pass over
/// the atoms tree in node-id order.
///
/// Each atoms node tests its *candidate* q-leaves — those its parent
/// tested and did not find far, all of `leaf_ids` at the root — in
/// candidate order, with `born.rs::recurse`'s branch order: far test
/// (with the `r2 > 0` guard) first, then a near entry at a leaf, else
/// the q-leaf passes down to every child. Pass-down lists
/// live in one flat id vector, a span per node, written when the parent
/// is processed. That span is ready in time because `octree::build`
/// numbers every child after its parent (`Octree::check_invariants`
/// checks it), and candidates stay in `leaf_ids` order at every level.
/// So each node's entries are the recursion's for that node in q-leaf
/// order, and the same `(a, q)` pairs are tested: the output equals the
/// q-major recursion stably sorted by atoms node, entry for entry, with
/// the same op counts.
fn emit_born_single(sys: &GbSystem, mac: f64) -> (Vec<ListEntry>, OpCounts) {
    let mut entries = Vec::new();
    let mut ops = OpCounts::default();
    let mut pass: Vec<NodeId> = sys.qtree.leaf_ids.clone();
    let mut span: Vec<Range<usize>> = vec![0..0; sys.atoms.nodes.len()];
    if let Some(root) = span.first_mut() {
        *root = 0..pass.len();
    }
    for (a_id, a) in (0..).zip(&sys.atoms.nodes) {
        let cand = span.get(a_id as usize).cloned().unwrap_or_default();
        let down = pass.len();
        for i in cand {
            let Some(&q_id) = pass.get(i) else { break };
            let q = sys.qtree.node(q_id);
            ops.nodes_visited += 1;
            let d = q.center - a.center;
            let r2 = d.norm2();
            let sep = (a.radius + q.radius) * mac;
            if r2 > sep * sep && r2 > 0.0 {
                entries.push(ListEntry::new(a_id, q_id, true, 0));
                ops.born_far += 1;
            } else if a.is_leaf() {
                entries.push(ListEntry::new(a_id, q_id, false, 0));
                ops.born_near += (a.len() * q.len()) as u64;
            } else {
                pass.push(q_id);
            }
        }
        if pass.len() > down {
            for c in a.children() {
                if let Some(s) = span.get_mut(c as usize) {
                    *s = down..pass.len();
                }
            }
        }
    }
    (entries, ops)
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
        entries.push(ListEntry::new(a_id, q_id, true, 0));
        ops.born_far += 1;
        return;
    }
    match (a.is_leaf(), q.is_leaf()) {
        (true, true) => {
            entries.push(ListEntry::new(a_id, q_id, false, 0));
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
    /// `raw += leaf` fold as the outermost frame). The traversal is pure
    /// geometry at the bins' MAC ([`ChargeBins::mac`], the far rule's);
    /// the bin values are only consulted to count far-field bin pairs
    /// for the op report. `eps_epol` is the ε `bins` were built with.
    pub fn build_single(sys: &GbSystem, bins: &ChargeBins, _eps_epol: f64) -> EpolLists {
        let mut entries = Vec::new();
        let mut ops = OpCounts::default();
        for &v in &sys.atoms.leaf_ids {
            let mut pending = 0u8;
            build_epol_single(sys, bins, 0, v, &mut pending, &mut entries, &mut ops);
        }
        pair_mirrors(&sys.atoms, &mut entries);
        let chunks = chunk_entries(sys, &mut entries, false);
        EpolLists { entries, chunks, ops }
    }

    /// Lists for the dual-tree traversal (`dual::epol_recurse` from the
    /// root pair, ordered child-pair expansion on the diagonal), at the
    /// bins' MAC like [`EpolLists::build_single`].
    pub fn build_dual(sys: &GbSystem, bins: &ChargeBins, _eps_epol: f64) -> EpolLists {
        let mut entries = Vec::new();
        let mut ops = OpCounts::default();
        let mut pending = 0u8;
        build_epol_dual(sys, bins, 0, 0, &mut pending, &mut entries, &mut ops);
        pair_mirrors(&sys.atoms, &mut entries);
        let chunks = chunk_entries(sys, &mut entries, false);
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
    /// emit for it — the recursions' far kernel ([`far_value`]) or the
    /// exact SoA STILL block. Pure (the scratch is write-before-read
    /// workspace, see the stale-scratch-reuse kernel tests), so any
    /// number of entries may run concurrently with private scratches.
    #[inline]
    pub fn run_entry(
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        math: MathMode,
        e: &ListEntry,
        scratch: &mut StillScratch,
    ) -> f64 {
        if e.far {
            far_value(bins, &bins.side(sys, e.a), &bins.side(sys, e.b), math)
        } else {
            let uv = sys.atoms.node(e.a).range();
            let vv = sys.atom_arena.view(born, sys.atoms.node(e.b).range());
            sys.still_block_raw(born, uv, vv, math, scratch)
        }
    }

    /// Phase A for one chunk: one scalar per entry, in entry order, plus
    /// `(entry, value)` for mirrors that lie in a later chunk. Near
    /// entries evaluate the exact SoA STILL block (the same internal fold
    /// as the recursion's leaf case) over a zero-copy slice of the
    /// persistent atom arena; far entries the binned kernel. The
    /// lower-indexed entry of a mirrored pair evaluates the shared tile
    /// and emits both values; the higher one is filled from it, here when
    /// it lies in this chunk and by `EpolLists::run_phase_a` otherwise.
    /// Pure, like [`EpolLists::run_entry`].
    pub fn run_chunk(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        math: MathMode,
        c: usize,
    ) -> (Vec<f64>, Vec<(usize, f64)>) {
        let range = self.chunks[c].clone();
        let mut out = Vec::with_capacity(range.len());
        let mut mirrors = Vec::new();
        let mut scratch = StillScratch::default();
        for (i, e) in range.clone().zip(&self.entries[range.clone()]) {
            let val = match e.mirror() {
                None => Self::run_entry(sys, bins, born, math, e, &mut scratch),
                Some(p) if p > i => {
                    // Both values bit-equal `run_entry`'s (DESIGN.md §11.4).
                    let uv = sys.atom_arena.view(born, sys.atoms.node(e.a).range());
                    let vv = sys.atom_arena.view(born, sys.atoms.node(e.b).range());
                    let (own, mirror) = still_pair_block(uv, vv, math, &mut scratch);
                    mirrors.push((p, mirror));
                    own
                }
                // Written by the lower-indexed owner of the pair.
                Some(_) => 0.0,
            };
            out.push(val);
        }
        // `p > i >= range.start`, so the offset cannot underflow.
        mirrors.retain(|&(p, v)| match out.get_mut(p - range.start) {
            Some(slot) => {
                *slot = v;
                false
            }
            None => true,
        });
        (out, mirrors)
    }

    /// Phase A over every chunk: over `pool` when given (a `poison`ed slot
    /// is lost and re-executed, see [`recovering_map`]), serially
    /// otherwise. One serial pass then writes the mirror values each chunk
    /// handed on into their chunks, so every per-chunk vector is complete
    /// before [`EpolLists::apply`]. Each chunk is a pure function, so the
    /// outputs are the same bits at every pool width.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_phase_a(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        math: MathMode,
        pool: Option<&WorkStealingPool>,
        poison: Option<usize>,
        recovered: &mut u32,
    ) -> Vec<Vec<f64>> {
        let run = |c| self.run_chunk(sys, bins, born, math, c);
        let parts = recovering_map(pool, self.n_chunks(), poison, run, recovered);
        let (mut outputs, handed_on): (Vec<Vec<f64>>, Vec<_>) = parts.into_iter().unzip();
        for (p, v) in handed_on.into_iter().flatten() {
            let c = self.chunks.partition_point(|r| r.end <= p);
            let chunk = self.chunks.get(c).zip(outputs.get_mut(c));
            if let Some(slot) = chunk.and_then(|(r, out)| out.get_mut(p - r.start)) {
                *slot = v;
            }
        }
        outputs
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
        let outputs = self.run_phase_a(sys, bins, born, math, pool, None, &mut 0);
        (self.apply(&outputs), self.ops)
    }
}

/// Link every near entry `(u, v)` to its mirror `(v, u)` when the list
/// holds both (DESIGN.md §10.7). One pass for single- and dual-tree
/// lists, linear in the near entries:
///
/// 1. rank the leaves by range start (Morton order);
/// 2. bucket the near entries by target leaf, stably (a counting sort);
/// 3. walk the buckets in rank order. For each entry `(u, v)` with
///    `rank(u) > rank(v)`, advance a per-bucket cursor through `u`'s
///    bucket to source `v`; a match is the mirror.
///
/// Both traversals emit a target leaf's sources in depth-first order,
/// so source ranks rise strictly within a bucket. And each bucket is
/// queried with rising source ranks, so every cursor only moves
/// forward. Should an order ever not hold, a mirror is missed, which is
/// slower but never wrong: only an exact `(v, u)` match is linked.
fn pair_mirrors(tree: &Octree, entries: &mut [ListEntry]) {
    if entries.len() >= ListEntry::NO_PARTNER as usize {
        return;
    }
    let mut leaves = tree.leaf_ids.clone();
    leaves.sort_unstable_by_key(|&l| tree.node(l).begin);
    let mut rank = vec![usize::MAX; tree.nodes.len()];
    for (r, &l) in leaves.iter().enumerate() {
        if let Some(slot) = rank.get_mut(l as usize) {
            *slot = r;
        }
    }
    let rank_of = |id: NodeId| rank.get(id as usize).copied().unwrap_or(usize::MAX);

    // `start[r]..start[r + 1]` is leaf r's bucket in `order`.
    let mut start = vec![0usize; leaves.len() + 1];
    for e in entries.iter().filter(|e| !e.far) {
        if let Some(n) = rank_of(e.b).checked_add(1).and_then(|k| start.get_mut(k)) {
            *n += 1;
        }
    }
    let mut total = 0;
    for n in start.iter_mut() {
        total += *n;
        *n = total;
    }
    let mut order = vec![0u32; total];
    let mut next = start.clone();
    for (i, e) in entries.iter().enumerate().filter(|(_, e)| !e.far) {
        if let Some(n) = next.get_mut(rank_of(e.b)) {
            if let Some(slot) = order.get_mut(*n) {
                *slot = i as u32;
            }
            *n += 1;
        }
    }

    let mut cursor = start.clone();
    for (b, w) in start.windows(2).enumerate() {
        let &[lo, hi] = w else { continue };
        for &i in order.get(lo..hi).unwrap_or(&[]) {
            let Some(&e) = entries.get(i as usize) else { continue };
            let a = rank_of(e.a);
            if a <= b || a == usize::MAX {
                continue;
            }
            let (Some(cur), Some(&end)) = (cursor.get_mut(a), start.get(a + 1)) else {
                continue;
            };
            while *cur < end {
                let Some(&j) = order.get(*cur) else { break };
                let src = entries.get(j as usize).map_or(usize::MAX, |m| rank_of(m.a));
                if src < b {
                    *cur += 1;
                    continue;
                }
                if src == b {
                    if let Some(m) = entries.get_mut(j as usize) {
                        m.partner = i;
                    }
                    if let Some(m) = entries.get_mut(i as usize) {
                        m.partner = j;
                    }
                }
                break;
            }
        }
    }
}

/// Mirror of `epol.rs::epol_recurse` (leaf test **first**, then the far
/// test without a `r2 > 0` guard, else descend the `u` side).
#[allow(clippy::too_many_arguments)]
fn build_epol_single(
    sys: &GbSystem,
    bins: &ChargeBins,
    u_id: NodeId,
    v_id: NodeId,
    pending: &mut u8,
    entries: &mut Vec<ListEntry>,
    ops: &mut OpCounts,
) {
    let u = sys.atoms.node(u_id);
    let v = sys.atoms.node(v_id);
    ops.nodes_visited += 1;
    if u.is_leaf() {
        let opens = std::mem::take(pending);
        entries.push(ListEntry::new(u_id, v_id, false, opens));
        ops.epol_near += (u.len() * v.len()) as u64;
        return;
    }
    let r2 = u.center.dist2(v.center);
    let sep = (u.radius + v.radius) * bins.mac;
    if r2 > sep * sep {
        let opens = std::mem::take(pending);
        entries.push(ListEntry::new(u_id, v_id, true, opens));
        ops.epol_far += far_pairs(bins.of(u_id), bins.of(v_id));
        return;
    }
    *pending += 1;
    for c in u.children() {
        build_epol_single(sys, bins, c, v_id, pending, entries, ops);
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
    pending: &mut u8,
    entries: &mut Vec<ListEntry>,
    ops: &mut OpCounts,
) {
    let u = sys.atoms.node(u_id);
    let v = sys.atoms.node(v_id);
    ops.nodes_visited += 1;
    let r2 = u.center.dist2(v.center);
    let sep = (u.radius + v.radius) * bins.mac;
    if sep > 0.0 && r2 > sep * sep {
        let opens = std::mem::take(pending);
        entries.push(ListEntry::new(u_id, v_id, true, opens));
        ops.epol_far += far_pairs(bins.of(u_id), bins.of(v_id));
        return;
    }
    match (u.is_leaf(), v.is_leaf()) {
        (true, true) => {
            let opens = std::mem::take(pending);
            entries.push(ListEntry::new(u_id, v_id, false, opens));
            ops.epol_near += (u.len() * v.len()) as u64;
            return;
        }
        (true, false) => {
            *pending += 1;
            for vc in v.children() {
                build_epol_dual(sys, bins, u_id, vc, pending, entries, ops);
            }
        }
        (false, true) => {
            *pending += 1;
            for uc in u.children() {
                build_epol_dual(sys, bins, uc, v_id, pending, entries, ops);
            }
        }
        (false, false) => {
            *pending += 1;
            if u_id == v_id {
                for uc in u.children() {
                    for vc in v.children() {
                        build_epol_dual(sys, bins, uc, vc, pending, entries, ops);
                    }
                }
            } else if u.radius >= v.radius {
                for uc in u.children() {
                    build_epol_dual(sys, bins, uc, v_id, pending, entries, ops);
                }
            } else {
                for vc in v.children() {
                    build_epol_dual(sys, bins, u_id, vc, pending, entries, ops);
                }
            }
        }
    }
    if let Some(last) = entries.last_mut() {
        last.closes += 1;
    }
}

// ---------------------------------------------------------------------------
// The one-process evaluation pipeline
// ---------------------------------------------------------------------------

/// Map `f` over `0..n`: over `pool` when given, serially otherwise. The
/// `poison`ed slot panics inside the pool (fault injection); `try_map`
/// contains the panic, and every slot the pool lost is re-executed
/// serially by the same pure `f` before the caller sees the outputs, so
/// they are bitwise those of a clean run. `recovered` counts the
/// re-executed slots.
pub(crate) fn recovering_map<T, F>(
    pool: Option<&WorkStealingPool>,
    n: usize,
    poison: Option<usize>,
    f: F,
    recovered: &mut u32,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let Some(pool) = pool else {
        return (0..n).map(f).collect();
    };
    let (slots, _) = pool.try_map(n, |k| {
        if Some(k) == poison {
            // PANIC-OK: deliberate fault injection; contained by the pool's try_map.
            panic!("injected worker panic in slot {k}");
        }
        f(k)
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(k, slot)| {
            slot.unwrap_or_else(|| {
                *recovered += 1;
                f(k)
            })
        })
        .collect()
}

/// Traversal variant of the lists a one-shot run builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Traversal {
    /// The Fig. 2/3 single-tree recursions.
    Single,
    /// [6]'s dual-tree recursions (`OCT_CILK`).
    Dual,
}

/// Where a [`Pipeline::run`] takes its interaction lists from.
#[derive(Clone, Copy)]
pub(crate) enum ListSource<'l> {
    /// Build both lists inside the run (one-shot drivers); the build
    /// passes are timed as `phases.lists`.
    Build(Traversal),
    /// Prebuilt lists, reused as they are ([`ListEngine`], `core::delta`).
    Reuse(&'l BornLists, &'l EpolLists),
}

impl<'l> ListSource<'l> {
    fn born(self, sys: &GbSystem, eps: f64) -> Cow<'l, BornLists> {
        match self {
            ListSource::Build(Traversal::Single) => Cow::Owned(BornLists::build_single(sys, eps)),
            ListSource::Build(Traversal::Dual) => Cow::Owned(BornLists::build_dual(sys, eps)),
            ListSource::Reuse(born, _) => Cow::Borrowed(born),
        }
    }

    fn epol(self, sys: &GbSystem, bins: &ChargeBins, eps: f64) -> Cow<'l, EpolLists> {
        match self {
            ListSource::Build(Traversal::Single) => {
                Cow::Owned(EpolLists::build_single(sys, bins, eps))
            }
            ListSource::Build(Traversal::Dual) => Cow::Owned(EpolLists::build_dual(sys, bins, eps)),
            ListSource::Reuse(_, epol) => Cow::Borrowed(epol),
        }
    }
}

/// What `core::delta` keeps of a run: the Born Phase-B accumulators (the
/// far node sums and every atom's near integral) and the E_pol Phase-A
/// outputs, one vector per chunk.
#[derive(Clone, Debug, Default)]
pub(crate) struct PhaseOutputs {
    pub born: BornAccumulators,
    pub epol: Vec<Vec<f64>>,
}

/// What one [`Pipeline::run`] produced.
pub(crate) struct Evaluation {
    /// Born radii, Morton order.
    pub born: Vec<f64>,
    pub bins: ChargeBins,
    /// Raw ordered-pair E_pol sum and the energy (kcal/mol) it gives.
    pub raw: f64,
    pub energy_kcal: f64,
    pub ops: OpCounts,
    /// Measured phase times (`build` stays zero).
    pub phases: PhaseTimes,
    /// Heap bytes of the two interaction lists the run used.
    pub list_bytes: usize,
    /// Slots re-executed after a lost (poisoned) pool task.
    pub recovered: u32,
}

/// The fault hook of a run that injects none.
pub(crate) fn no_faults(_phase: u32, _slots: usize) -> Result<Option<usize>, Infallible> {
    Ok(None)
}

/// The one-process evaluation sequence of Fig. 4, shared by `run_serial`,
/// `run_oct_cilk`, `run_oct_threads_ft`, [`ListEngine`] and `core::delta`:
/// APPROX-INTEGRALS Phase A/B → push → [`ChargeBins`] → APPROX-E_pol
/// Phase A/B, with every phase timed. Callers differ only in where the
/// lists come from ([`ListSource`]), the pool Phase A and the push fan
/// over (serial when `None`), and the fault hook.
///
/// `faults(phase, slots)` runs at the start of each parallel phase
/// (`INTEGRALS`, `PUSH`, `EPOL`, with that phase's slot count). It
/// returns the slot to poison, or the error that ends the run.
pub(crate) struct Pipeline<'a, F> {
    sys: &'a GbSystem,
    approx: &'a ApproxParams,
    pool: Option<&'a WorkStealingPool>,
    faults: F,
    ops: OpCounts,
    phases: PhaseTimes,
    recovered: u32,
}

impl<'a, E, F> Pipeline<'a, F>
where
    F: FnMut(u32, usize) -> Result<Option<usize>, E>,
{
    pub(crate) fn new(
        sys: &'a GbSystem,
        approx: &'a ApproxParams,
        pool: Option<&'a WorkStealingPool>,
        faults: F,
    ) -> Self {
        Pipeline {
            sys,
            approx,
            pool,
            faults,
            ops: OpCounts::default(),
            phases: PhaseTimes::default(),
            recovered: 0,
        }
    }

    /// Born radii (Morton order): APPROX-INTEGRALS Phase A (poisoned
    /// slots re-executed) and Phase B, then the push — [`LIST_CHUNKS`]
    /// atom blocks with a pool, one range without. Radii are written
    /// independently per atom, so the blocking cannot change them; only
    /// `nodes_visited` grows with the shared ancestors each block
    /// re-walks. The Phase-B accumulators go to `keep` when given.
    pub(crate) fn born_radii(
        &mut self,
        lists: &BornLists,
        keep: Option<&mut BornAccumulators>,
    ) -> Result<Vec<f64>, E> {
        let (sys, math, n) = (self.sys, self.approx.math, self.sys.n_atoms());
        let t = Instant::now();
        let poison = (self.faults)(phase::INTEGRALS, lists.n_chunks())?;
        let outputs = recovering_map(
            self.pool,
            lists.n_chunks(),
            poison,
            |c| lists.run_chunk(sys, c),
            &mut self.recovered,
        );
        let mut acc = BornAccumulators::zeros(sys);
        lists.apply(sys, &outputs, &mut acc);
        self.ops.add(&lists.ops);
        self.phases.integrals += t.elapsed().as_secs_f64();
        drop(outputs);

        let t = Instant::now();
        let blocks = if self.pool.is_some() { LIST_CHUNKS.min(n.max(1)) } else { 1 };
        let poison = (self.faults)(phase::PUSH, blocks)?;
        let segments = recovering_map(
            self.pool,
            blocks,
            poison,
            |c| push_segment(sys, &acc, c * n / blocks..(c + 1) * n / blocks, math),
            &mut self.recovered,
        );
        let mut born = Vec::with_capacity(n);
        for (seg, ops) in segments {
            born.extend_from_slice(&seg);
            self.ops.add(&ops);
        }
        self.phases.push += t.elapsed().as_secs_f64();
        if let Some(keep) = keep {
            *keep = acc;
        }
        Ok(born)
    }

    /// The whole sequence. What `core::delta` caches goes to `keep` when
    /// given ([`PhaseOutputs`]); it is dropped after its use otherwise.
    pub(crate) fn run(
        mut self,
        lists: ListSource<'_>,
        mut keep: Option<&mut PhaseOutputs>,
    ) -> Result<Evaluation, E> {
        let (sys, approx) = (self.sys, self.approx);
        let t = Instant::now();
        let born_lists = lists.born(sys, approx.eps_born);
        self.phases.lists += t.elapsed().as_secs_f64();
        let born = self.born_radii(&born_lists, keep.as_deref_mut().map(|k| &mut k.born))?;

        let t = Instant::now();
        let bins = ChargeBins::for_params(sys, &born, approx);
        self.phases.bins += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let epol_lists = lists.epol(sys, &bins, approx.eps_epol);
        self.phases.lists += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let poison = (self.faults)(phase::EPOL, epol_lists.n_chunks())?;
        let outputs = epol_lists.run_phase_a(
            sys,
            &bins,
            &born,
            approx.math,
            self.pool,
            poison,
            &mut self.recovered,
        );
        let raw = epol_lists.apply(&outputs);
        self.ops.add(&epol_lists.ops);
        self.phases.epol += t.elapsed().as_secs_f64();
        if let Some(keep) = keep {
            keep.epol = outputs;
        }

        Ok(Evaluation {
            born,
            bins,
            raw,
            energy_kcal: epol_from_raw_sum(raw, approx.eps_solvent),
            ops: self.ops,
            phases: self.phases,
            list_bytes: born_lists.memory_bytes() + epol_lists.memory_bytes(),
            recovered: self.recovered,
        })
    }
}

// ---------------------------------------------------------------------------
// Verlet-skin MD engine
// ---------------------------------------------------------------------------

/// A [`ListEngine`]'s scaffold at `mol`'s geometry: the prepared system
/// with every node radius inflated by `skin`, and both single-tree lists.
fn scaffold(mol: &Molecule, approx: &ApproxParams, skin: f64) -> (GbSystem, BornLists, EpolLists) {
    let mut sys = GbSystem::prepare(mol, approx);
    if skin > 0.0 {
        sys.atoms.inflate_radii(skin);
        sys.qtree.inflate_radii(skin);
    }
    let born_lists = BornLists::build_single(&sys, approx.eps_born);
    // The E_pol traversal is pure geometry at the far rule's MAC; bin
    // values only feed the op report. Build them from intrinsic radii
    // here — the energy path always executes with the current step's
    // real bins.
    let bins = ChargeBins::for_params(&sys, &sys.radius, approx);
    let epol_lists = EpolLists::build_single(&sys, &bins, approx.eps_epol);
    (sys, born_lists, epol_lists)
}

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
        let mut engine = ListEngine::scaffold_only(mol, approx, skin);
        // Populate Born radii at the build geometry so force kernels can
        // run before the first `evaluate` call.
        let mut pipeline = Pipeline::new(&engine.sys, approx, None, no_faults);
        let Ok(born) = pipeline.born_radii(&engine.born_lists, None);
        engine.born = born;
        engine
    }

    /// [`ListEngine::new`] without the Born pass: the scaffold and lists
    /// only, with no radii yet. For `core::delta`, which executes both
    /// lists in full right after and would otherwise pay the pass twice.
    pub(crate) fn scaffold_only(mol: &Molecule, approx: &ApproxParams, skin: f64) -> ListEngine {
        assert!(skin >= 0.0 && skin.is_finite(), "skin must be a finite non-negative margin");
        let (sys, born_lists, epol_lists) = scaffold(mol, approx, skin);
        ListEngine {
            approx: *approx,
            skin,
            sys,
            born_lists,
            epol_lists,
            born: Vec::new(),
            reference: mol.positions.clone(),
            work: mol.clone(),
            lists_reused: 0,
            lists_rebuilt: 1,
        }
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
        (self.sys, self.born_lists, self.epol_lists) =
            scaffold(&self.work, &self.approx, self.skin);
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
        let lists = ListSource::Reuse(&self.born_lists, &self.epol_lists);
        let Ok(ev) = Pipeline::new(&self.sys, &self.approx, None, no_faults).run(lists, None);
        self.born = ev.born;
        EngineEval {
            energy_kcal: ev.energy_kcal,
            raw: ev.raw,
            rebuilt,
            max_disp,
            ops: ev.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::born::{born_radii_octree, push_integrals_to_atoms};
    use crate::dual::{born_radii_dual, epol_dual_raw};
    use crate::epol::epol_octree_raw;
    use crate::naive::born_radii_naive;
    use polaroct_molecule::{synth, Atom, Element};

    fn system(n: usize, seed: u64) -> GbSystem {
        GbSystem::prepare(&synth::protein("p", n, seed), &ApproxParams::default())
    }

    /// The q-major emission [`BornLists::build_single`] replaced, kept as
    /// its oracle: [`build_born_single`] swept over every quadrature leaf
    /// in leaf-id order, then the stable sort by atoms node.
    fn born_single_q_major(sys: &GbSystem, eps_born: f64) -> (Vec<ListEntry>, OpCounts) {
        let mac = born_mac(eps_born);
        let mut entries = Vec::new();
        let mut ops = OpCounts::default();
        for &q in &sys.qtree.leaf_ids {
            build_born_single(sys, 0, q, mac, &mut entries, &mut ops);
        }
        sort_by_atom_node(&mut entries);
        (entries, ops)
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
            entries.push(ListEntry::new(a_id, q_id, true, 0));
            ops.born_far += 1;
            return;
        }
        if a.is_leaf() {
            entries.push(ListEntry::new(a_id, q_id, false, 0));
            ops.born_near += (a.len() * q.len()) as u64;
            return;
        }
        for c in a.children() {
            build_born_single(sys, c, q_id, mac, entries, ops);
        }
    }

    fn assert_matches_q_major(sys: &GbSystem, eps: f64, lists: &BornLists, what: &str) {
        let (entries, ops) = born_single_q_major(sys, eps);
        assert!(entries.iter().any(|e| !e.far), "{what}: no near entries to exercise");
        assert_eq!(lists.entries.len(), entries.len(), "{what}: entry count");
        assert!(lists.entries == entries, "{what}: entries differ");
        assert_eq!(lists.ops, ops, "{what}: op counts");
    }

    #[test]
    fn single_born_build_equals_q_major_emission_plus_stable_sort() {
        for eps in [0.3, 0.9] {
            let approx = ApproxParams { eps_born: eps, ..ApproxParams::default() };
            for mol in [synth::ligand("lig", 70, 4), synth::protein("prot", 600, 8)] {
                let sys = GbSystem::prepare(&mol, &approx);
                let what = format!("{} eps {eps}", mol.name);
                assert_matches_q_major(&sys, eps, &BornLists::build_single(&sys, eps), &what);
                for skin in [0.0, 1.0] {
                    let engine = ListEngine::new(&mol, &approx, skin);
                    let what = format!("{what} skin {skin}");
                    assert_matches_q_major(engine.system(), eps, &engine.born_lists, &what);
                }
            }

            let sys = GbSystem::prepare(&synth::ligand("leaf", 6, 2), &approx);
            assert_eq!(sys.atoms.nodes.len(), 1, "the atoms tree must be a single leaf");
            let what = format!("single leaf eps {eps}");
            assert_matches_q_major(&sys, eps, &BornLists::build_single(&sys, eps), &what);

            let deep = ApproxParams { leaf_cap_atoms: 1, ..approx };
            let sys = GbSystem::prepare(&deep_molecule(), &deep);
            assert_eq!(sys.atoms.nodes.iter().map(|n| n.depth).max(), Some(21));
            let what = format!("depth 21 eps {eps}");
            assert_matches_q_major(&sys, eps, &BornLists::build_single(&sys, eps), &what);
        }
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
            let (reference, rops) = epol_octree_raw(&sys, &bins, &born, MathMode::Exact);
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
        let (eref, erops) = epol_dual_raw(&sys, &bins, &out, MathMode::Exact);
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
        let (raw, _) = epol_octree_raw(&sys, &bins, &born, approx.math);
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

    /// Number of near entries `(a, b)`, `a ≠ b`, whose mirror `(b, a)` is
    /// also a near entry — counted by brute force.
    fn mirrored_near_entries(entries: &[ListEntry]) -> usize {
        use std::collections::HashSet;
        let near: HashSet<(NodeId, NodeId)> =
            entries.iter().filter(|e| !e.far).map(|e| (e.a, e.b)).collect();
        entries
            .iter()
            .filter(|e| !e.far && e.a != e.b && near.contains(&(e.b, e.a)))
            .count()
    }

    /// The partner relation is an involution between near entries with
    /// swapped ends, and it links every mirrored entry.
    fn assert_pairing_complete(entries: &[ListEntry]) {
        let mut paired = 0;
        for (i, e) in entries.iter().enumerate() {
            let Some(p) = e.mirror() else { continue };
            paired += 1;
            let m = entries[p];
            assert!(!e.far && !m.far, "entry {i}: far entries never pair");
            assert_ne!(p, i, "entry {i} paired with itself");
            assert_eq!((m.a, m.b), (e.b, e.a), "entry {i}: partner is not the mirror");
            assert_eq!(m.mirror(), Some(i), "entry {i}: partner relation not an involution");
        }
        assert_eq!(paired, mirrored_near_entries(entries), "a mirrored entry went unpaired");
        assert!(paired > 0, "no mirrored entries to exercise");
    }

    #[test]
    fn pairing_links_every_mirror_single_dual_and_skinned() {
        let sys = system(500, 19);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        for eps in [0.9, 0.3] {
            let bins = ChargeBins::build(&sys, &born, eps);
            assert_pairing_complete(&EpolLists::build_single(&sys, &bins, eps).entries);
            assert_pairing_complete(&EpolLists::build_dual(&sys, &bins, eps).entries);
        }
        let engine = ListEngine::new(&synth::protein("skin", 400, 23), &ApproxParams::default(), 1.0);
        assert_pairing_complete(&engine.epol_lists.entries);
        assert!(engine.born_lists.entries.iter().all(|e| e.mirror().is_none()));
    }

    #[test]
    fn list_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<ListEntry>(), 16);
    }

    /// Atoms at 50·2^-i Å: at leaf capacity 1 every halving opens one
    /// more octree level, until the Morton resolution caps the depth.
    fn deep_molecule() -> Molecule {
        let mut mol = Molecule::with_capacity("deep", 32);
        for i in 0..28 {
            let x = 50.0 * 0.5f64.powi(i);
            let q = if i % 2 == 0 { 0.4 } else { -0.3 };
            mol.push(Atom::of_element(Element::C, Vec3::new(x, 0.1 * x, 0.0), q));
        }
        mol.push(Atom::of_element(Element::O, Vec3::new(-50.0, 3.0, 1.0), -0.5));
        mol
    }

    #[test]
    fn depth_21_tree_stays_within_the_u8_frame_bound() {
        let approx = ApproxParams { leaf_cap_atoms: 1, ..ApproxParams::default() };
        let sys = GbSystem::prepare(&deep_molecule(), &approx);
        let depth = sys.atoms.nodes.iter().map(|n| n.depth).max();
        assert_eq!(depth, Some(21), "the tree must reach the Morton resolution");
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let bins = ChargeBins::build(&sys, &born, 0.3);
        let (single_ref, _) = epol_octree_raw(&sys, &bins, &born, MathMode::Exact);
        let (dual_ref, _) = epol_dual_raw(&sys, &bins, &born, MathMode::Exact);
        for (lists, reference, bound) in [
            (EpolLists::build_single(&sys, &bins, 0.3), single_ref, 22),
            (EpolLists::build_dual(&sys, &bins, 0.3), dual_ref, 2 * 21 + 1),
        ] {
            let most = lists.entries.iter().map(|e| e.opens.max(e.closes)).max();
            assert!(most.is_some_and(|m| m >= 20 && m <= bound), "{most:?} vs {bound}");
            let (raw, _) = lists.execute(&sys, &bins, &born, MathMode::Exact, None);
            assert_eq!(raw.to_bits(), reference.to_bits(), "{raw} vs {reference}");
        }
    }

    #[test]
    fn paired_phase_a_matches_run_entry_at_every_width_and_after_a_lost_slot() {
        let sys = system(450, 31);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        for math in [MathMode::Exact, MathMode::Approx] {
            let bins = ChargeBins::build(&sys, &born, 0.6);
            for lists in [
                EpolLists::build_single(&sys, &bins, 0.6),
                EpolLists::build_dual(&sys, &bins, 0.6),
            ] {
                let mut scratch = StillScratch::default();
                let want: Vec<u64> = lists
                    .entries
                    .iter()
                    .map(|e| EpolLists::run_entry(&sys, &bins, &born, math, e, &mut scratch))
                    .map(f64::to_bits)
                    .collect();
                let check = |pool: Option<&WorkStealingPool>, poison: Option<usize>| {
                    let mut recovered = 0;
                    let out =
                        lists.run_phase_a(&sys, &bins, &born, math, pool, poison, &mut recovered);
                    assert_eq!(recovered, u32::from(poison.is_some()));
                    let got: Vec<u64> = out.iter().flatten().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{math:?} pool {:?} poison {poison:?}", pool.map(|_| ()));
                };
                check(None, None);
                for w in [1usize, 2, 5, 8] {
                    check(Some(&WorkStealingPool::new(w)), None);
                }
                check(Some(&WorkStealingPool::new(3)), Some(lists.n_chunks() / 2));
            }
        }
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
