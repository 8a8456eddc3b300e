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
//! E_pol Phase A has one evaluator (`EpolLists::run_set`), which the
//! full pass, a pooled chunk and a `core::delta` query's dirty entries
//! all run. It takes ascending entry ids and a set rule `in_set(p)`: an
//! entry whose mirror is in the set shares one STILL tile with it (the
//! lower-indexed entry evaluates it and emits both values), and every
//! other entry, one whose mirror lies outside the set included, runs
//! its own kernel. Both give the same bits (DESIGN.md §10.7, §11.4), so
//! the set decides only the work. The values go to one flat vector, one
//! per entry in entry order ([`EpolLists::run_phase_a`]), which Phase B
//! ([`EpolLists::apply`]) reads and `core::delta` keeps.
//!
//! Because Phase A is pure and Phase B replays the serial recursion's
//! every floating-point add in order, list execution is **bit-identical
//! to the recursive traversal at any thread count** (see DESIGN.md §10
//! for the full argument, and `tests/lists_match_recursion.rs` for the
//! proptest).
//!
//! Without a pool the Born pass needs neither phase split: each entry is
//! folded into the accumulators as soon as its kernel returns, read from
//! a reused list ([`BornLists::execute`] with `None`) or straight from
//! the traversal, with no list at all ([`BornLists::fold_single`] /
//! [`BornLists::fold_dual`]). Every accumulator slot is owned by one
//! atoms node, so the adds land in the same order and the bits are the
//! same (`tests/born_stream_matches_lists.rs`).
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
use crate::params::{born_mac, ApproxParams};
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
        let mut entries = Vec::new();
        let ops = emit_born_single(sys, born_mac(eps_born), |e| entries.push(e));
        let chunks = chunk_entries(sys, &mut entries, true);
        BornLists { entries, chunks, ops }
    }

    /// Lists for the dual-tree traversal (`dual::born_recurse` from the
    /// root pair), approximating at internal `Q` nodes too.
    pub fn build_dual(sys: &GbSystem, eps_born: f64) -> BornLists {
        let mut entries = Vec::new();
        let ops = emit_born_dual(sys, born_mac(eps_born), |e| entries.push(e));
        sort_by_atom_node(&mut entries);
        let chunks = chunk_entries(sys, &mut entries, true);
        BornLists { entries, chunks, ops }
    }

    /// [`BornLists::build_single`] followed by `execute(sys, None, acc)`,
    /// without the list: each entry is folded into `acc` as the traversal
    /// emits it. The emission is already in list order, so every slot
    /// receives the same adds in the same order. Returns the op counts.
    pub fn fold_single(sys: &GbSystem, eps_born: f64, acc: &mut BornAccumulators) -> OpCounts {
        emit_born_single(sys, born_mac(eps_born), |e| Self::fold_entry(sys, &e, acc))
    }

    /// [`BornLists::build_dual`] followed by `execute(sys, None, acc)`,
    /// without the list. The raw emission differs from the list only by
    /// the stable sort on `e.a`, and every slot is owned by one `e.a`, so
    /// every slot still receives the same adds in the same order.
    pub fn fold_dual(sys: &GbSystem, eps_born: f64, acc: &mut BornAccumulators) -> OpCounts {
        emit_born_dual(sys, born_mac(eps_born), |e| Self::fold_entry(sys, &e, acc))
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

    /// The kernel of one entry: `sink(slot, term)` for each of its terms,
    /// in order. A far entry gives one term for `acc.node[e.a]`, a near
    /// entry one term per atom `acc.atom[ai]` of leaf `e.a`, in range
    /// order. Pure: reads only the system snapshot.
    #[inline]
    fn entry_terms(sys: &GbSystem, e: &ListEntry, mut sink: impl FnMut(usize, f64)) {
        let a = sys.atoms.node(e.a);
        let q = sys.qtree.node(e.b);
        if e.far {
            // Same float expressions as the recursions' far branch.
            let d = q.center - a.center;
            let r2 = d.norm2();
            let inv2 = 1.0 / r2;
            // PANIC-OK: e.b is a qtree node id recorded at list build.
            let normal = sys.q_node_normal[e.b as usize];
            sink(e.a as usize, normal.dot(d) * inv2 * inv2 * inv2);
        } else {
            let qv = sys.q_arena.view(q.range());
            sys.born_block_terms(qv, a.range(), sink);
        }
    }

    /// Phase A for one entry: append its kernel output(s) to `out` —
    /// exactly the floats [`BornLists::run_chunk`] emits for this entry,
    /// in the same order. Pure: reads only the system snapshot, so any
    /// number of entries may run concurrently.
    #[inline]
    pub fn run_entry(sys: &GbSystem, e: &ListEntry, out: &mut Vec<f64>) {
        Self::entry_terms(sys, e, |_, t| out.push(t));
    }

    /// One entry's kernel, added straight into the slots it owns: the
    /// serial pass, with no Phase-A buffer. Each add is the one
    /// [`BornLists::apply`] makes for this entry, on the same floats.
    #[inline]
    fn fold_entry(sys: &GbSystem, e: &ListEntry, acc: &mut BornAccumulators) {
        let slots = if e.far { &mut acc.node } else { &mut acc.atom };
        Self::entry_terms(sys, e, |i, t| {
            if let Some(s) = slots.get_mut(i) {
                *s += t;
            }
        });
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

    /// Phase B of a pooled run: fold per-chunk outputs into the
    /// accumulators in emission order. Serial by design — this is what
    /// pins the floating-point add order regardless of how Phase A was
    /// scheduled. A run without a pool makes the same adds with no
    /// buffers (`BornLists::fold_entry`).
    pub fn apply(&self, sys: &GbSystem, outputs: &[Vec<f64>], acc: &mut BornAccumulators) {
        debug_assert_eq!(outputs.len(), self.chunks.len());
        for (chunk, vals) in self.chunks.iter().zip(outputs) {
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

    /// Full execution. With a pool, Phase A over its workers and Phase B
    /// serially. Without one, a single pass in list order folds each
    /// entry as it is computed (`BornLists::fold_entry`): the same
    /// adds in the same order, with no per-chunk buffers. Returns the op
    /// counts of the run.
    pub fn execute(
        &self,
        sys: &GbSystem,
        pool: Option<&WorkStealingPool>,
        acc: &mut BornAccumulators,
    ) -> OpCounts {
        if pool.is_none() {
            for e in &self.entries {
                Self::fold_entry(sys, e, acc);
            }
            return self.ops;
        }
        let n = self.n_chunks();
        let outputs = recovering_map(pool, n, None, |c| self.run_chunk(sys, c), &mut 0);
        self.apply(sys, &outputs, acc);
        self.ops
    }
}

/// The single-tree Born emission, atoms-node-major, in one pass over
/// the atoms tree in node-id order; each entry goes to `sink` as it is
/// found. Returns the op counts.
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
fn emit_born_single(sys: &GbSystem, mac: f64, mut sink: impl FnMut(ListEntry)) -> OpCounts {
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
                sink(ListEntry::new(a_id, q_id, true, 0));
                ops.born_far += 1;
            } else if a.is_leaf() {
                sink(ListEntry::new(a_id, q_id, false, 0));
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
    ops
}

/// The dual-tree Born emission in `dual::born_recurse`'s order (before
/// [`BornLists::build_dual`]'s stable sort); each entry goes to `sink`
/// as it is found. Returns the op counts.
fn emit_born_dual(sys: &GbSystem, mac: f64, mut sink: impl FnMut(ListEntry)) -> OpCounts {
    let mut ops = OpCounts::default();
    build_born_dual(sys, 0, 0, mac, &mut sink, &mut ops);
    ops
}

/// Mirror of `dual::born_recurse`: far first (same guard), then the
/// four-way leaf split with the larger-radius refinement rule.
fn build_born_dual(
    sys: &GbSystem,
    a_id: NodeId,
    q_id: NodeId,
    mac: f64,
    sink: &mut impl FnMut(ListEntry),
    ops: &mut OpCounts,
) {
    let a = sys.atoms.node(a_id);
    let q = sys.qtree.node(q_id);
    ops.nodes_visited += 1;
    let d = q.center - a.center;
    let r2 = d.norm2();
    let sep = (a.radius + q.radius) * mac;
    if r2 > sep * sep && r2 > 0.0 {
        sink(ListEntry::new(a_id, q_id, true, 0));
        ops.born_far += 1;
        return;
    }
    match (a.is_leaf(), q.is_leaf()) {
        (true, true) => {
            sink(ListEntry::new(a_id, q_id, false, 0));
            ops.born_near += (a.len() * q.len()) as u64;
        }
        (true, false) => {
            for qc in q.children() {
                build_born_dual(sys, a_id, qc, mac, sink, ops);
            }
        }
        (false, true) => {
            for ac in a.children() {
                build_born_dual(sys, ac, q_id, mac, sink, ops);
            }
        }
        (false, false) => {
            if a.radius >= q.radius {
                for ac in a.children() {
                    build_born_dual(sys, ac, q_id, mac, sink, ops);
                }
            } else {
                for qc in q.children() {
                    build_born_dual(sys, a_id, qc, mac, sink, ops);
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

    /// Phase A for one entry: its scalar — the recursions' far kernel
    /// ([`far_value`]) or the exact SoA STILL block. Pure (the scratch is
    /// write-before-read workspace, see the stale-scratch-reuse kernel
    /// tests), so any number of entries may run concurrently with private
    /// scratches.
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

    /// The one E_pol Phase-A evaluator: `emit(entry, value)` for each of
    /// the ascending entry `ids`, in no fixed order. `in_set(p)` says
    /// whether entry `p` belongs to the evaluated set — these ids and
    /// those of any other call whose values join them. An entry whose
    /// mirror is in the set shares one [`still_pair_block`] tile with it:
    /// the lower-indexed entry evaluates the tile and emits both values
    /// (the mirror may lie beyond `ids`), and the higher one emits
    /// nothing itself. Every other entry — a mirror outside the set
    /// included — runs [`EpolLists::run_entry`]. Both tile values equal
    /// `run_entry`'s bits (DESIGN.md §11.4), so any set gives the same
    /// values. Pure, like `run_entry`.
    ///
    /// Every production set holds its mirrors (a delta query's dirty set
    /// is closed under them), so the "mirror outside the set runs alone"
    /// branch is reached only by the unit tests' subsets and, later, by
    /// ranks whose mirrors lie on another rank (ROADMAP item 5).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_set(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        math: MathMode,
        ids: impl IntoIterator<Item = usize>,
        in_set: impl Fn(usize) -> bool,
        mut emit: impl FnMut(usize, f64),
    ) {
        let mut scratch = StillScratch::default();
        for i in ids {
            let Some(e) = self.entries.get(i) else { continue };
            match e.mirror().filter(|&p| in_set(p)) {
                // Emitted by the lower-indexed owner of the pair.
                Some(p) if p < i => {}
                Some(p) => {
                    let uv = sys.atom_arena.view(born, sys.atoms.node(e.a).range());
                    let vv = sys.atom_arena.view(born, sys.atoms.node(e.b).range());
                    let (own, mirror) = still_pair_block(uv, vv, math, &mut scratch);
                    emit(i, own);
                    emit(p, mirror);
                }
                None => emit(i, Self::run_entry(sys, bins, born, math, e, &mut scratch)),
            }
        }
    }

    /// Phase A over every entry: one value per entry, in entry order, in
    /// one vector of exactly [`EpolLists::len`] slots. Without a pool, one
    /// pass of the evaluator (`EpolLists::run_set`) over the whole list
    /// writes it. Over `pool`, each chunk runs its own range with every
    /// entry in the set, so an owner hands on `(entry, value)` for a
    /// mirror in a later chunk; a `poison`ed chunk panics, is contained
    /// and re-executed serially (`recovered` counts it), and one serial
    /// pass writes what the chunks emitted. Each chunk is a pure function, so the values are the same
    /// bits at every pool width.
    #[allow(clippy::too_many_arguments)]
    pub fn run_phase_a(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        math: MathMode,
        pool: Option<&WorkStealingPool>,
        poison: Option<usize>,
        recovered: &mut u32,
    ) -> Vec<f64> {
        let mut values = vec![0.0; self.len()];
        let mut write = |i: usize, v: f64| {
            if let Some(slot) = values.get_mut(i) {
                *slot = v;
            }
        };
        if pool.is_none() {
            self.run_set(sys, bins, born, math, 0..self.len(), |_| true, &mut write);
            return values;
        }
        let run = |c: usize| {
            let range = self.chunks.get(c).cloned().unwrap_or_default();
            let mut out = Vec::with_capacity(range.len());
            self.run_set(sys, bins, born, math, range, |_| true, |i, v| out.push((i, v)));
            out
        };
        let parts = recovering_map(pool, self.n_chunks(), poison, run, recovered);
        for (i, v) in parts.into_iter().flatten() {
            write(i, v);
        }
        values
    }

    /// Phase A for the sorted entry subset `ids` (a delta query's dirty
    /// entries): `(entry, value)` for each, in no fixed order, the set
    /// being `ids` itself, so an entry whose mirror is not in `ids` runs
    /// alone. Without a pool, one [`EpolLists::run_set`] pass. Over
    /// `pool`, one group per list chunk holding an id ([`by_chunk`]); a
    /// `poison`ed group is lost and re-executed, like a chunk of
    /// [`EpolLists::run_phase_a`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_subset(
        &self,
        sys: &GbSystem,
        bins: &ChargeBins,
        born: &[f64],
        math: MathMode,
        ids: &[u32],
        pool: Option<&WorkStealingPool>,
        poison: Option<usize>,
        recovered: &mut u32,
    ) -> Vec<(usize, f64)> {
        let in_set = |p: usize| ids.binary_search(&(p as u32)).is_ok();
        let run = |group: &[u32]| {
            let mut out = Vec::with_capacity(group.len());
            let group = group.iter().map(|&e| e as usize);
            self.run_set(sys, bins, born, math, group, in_set, |i, v| out.push((i, v)));
            out
        };
        if pool.is_none() {
            return run(ids);
        }
        let groups: Vec<&[u32]> = by_chunk(&self.chunks, ids).collect();
        let group = |g: usize| run(groups.get(g).copied().unwrap_or_default());
        recovering_map(pool, groups.len(), poison, group, recovered).concat()
    }

    /// Phase B: replay the recursion's sum tree over one value per entry.
    /// The stack starts with one global frame (the drivers' `raw += leaf`
    /// fold); each entry pushes `opens` fresh frames, adds its value to
    /// the innermost one, then folds `closes` completed frames into their
    /// parents. The global frame ends up holding exactly the recursion's
    /// total.
    pub fn apply(&self, values: &[f64]) -> f64 {
        debug_assert_eq!(values.len(), self.len());
        let mut stack: Vec<f64> = vec![0.0];
        for (e, &v) in self.entries.iter().zip(values) {
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
        stack.first().copied().unwrap_or(0.0)
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
        let values = self.run_phase_a(sys, bins, born, math, pool, None, &mut 0);
        (self.apply(&values), self.ops)
    }
}

/// The E_pol sum tree of an [`EpolLists`] as frames, one cached total
/// each: the incremental form of [`EpolLists::apply`] (DESIGN.md §15.1).
///
/// A frame is what `apply` keeps on its stack: frame 0 is the global
/// one, and every other frame opens at an entry's `opens` and closes at
/// an entry's `closes`. Frames are numbered in opening order, so a
/// frame's descendants follow it and a child's number is above its
/// parent's. A frame's total is the left fold from `0.0` over its
/// operands in entry order: the values of its own entries and the
/// totals of its child frames, each at the entry where `apply` adds it.
/// That is `apply`'s add for add, so frame 0's total is `apply`'s
/// result bit for bit. After some entry values change, re-folding
/// exactly their frames and those frames' ancestors, children first,
/// gives those bits again: every other frame's operands are unchanged.
#[derive(Clone, Debug, Default)]
pub(crate) struct SumFrames {
    frames: Vec<Frame>,
    /// Per frame: the cached fold.
    total: Vec<f64>,
}

/// One sum-tree frame of [`SumFrames`].
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// Its first entry.
    start: u32,
    /// One past its last entry.
    end: u32,
    /// Its parent frame ([`SumFrames::NONE`] for the global frame).
    parent: u32,
    /// The first frame after its subtree.
    after: u32,
}

impl SumFrames {
    const NONE: u32 = u32::MAX;

    /// The frames of `lists`, every total `0.0` until
    /// [`SumFrames::fold_all`].
    pub(crate) fn new(lists: &EpolLists) -> SumFrames {
        let len = lists.entries.len() as u32;
        let opens: usize = lists.entries.iter().map(|e| e.opens as usize).sum();
        let mut frames = Vec::with_capacity(opens + 1);
        frames.push(Frame {
            start: 0,
            end: len,
            parent: Self::NONE,
            after: 0,
        });
        let mut stack = vec![0usize];
        for (i, e) in lists.entries.iter().enumerate() {
            for _ in 0..e.opens {
                let parent = stack.last().map_or(Self::NONE, |&p| p as u32);
                stack.push(frames.len());
                frames.push(Frame {
                    start: i as u32,
                    end: len,
                    parent,
                    after: 0,
                });
            }
            for _ in 0..e.closes {
                // The global frame never closes (`apply` keeps it).
                if stack.len() > 1 {
                    let after = frames.len() as u32;
                    if let Some(f) = stack.pop().and_then(|f| frames.get_mut(f)) {
                        f.end = i as u32 + 1;
                        f.after = after;
                    }
                }
            }
        }
        let after = frames.len() as u32;
        for f in stack {
            if let Some(f) = frames.get_mut(f) {
                f.after = after;
            }
        }
        let total = vec![0.0; frames.len()];
        SumFrames { frames, total }
    }

    /// Fold every frame over the entry `values` and return the root
    /// total.
    pub(crate) fn fold_all(&mut self, values: &[f64]) -> f64 {
        for f in (0..self.frames.len()).rev() {
            let t = self.fold(f, values);
            if let Some(slot) = self.total.get_mut(f) {
                *slot = t;
            }
        }
        self.root()
    }

    /// Re-fold the frames holding the sorted entry ids `dirty`, and their
    /// ancestors, each once and after its descendants; append
    /// `(frame, old total)` for each to `saved`. Returns the root total.
    pub(crate) fn refold(
        &mut self,
        values: &[f64],
        dirty: &[u32],
        saved: &mut Vec<(u32, f64)>,
    ) -> f64 {
        // Past about one dirty entry in sixteen, finding the frames costs
        // more than folding them all.
        if dirty.len() * 16 > values.len() {
            saved.extend(self.total.iter().enumerate().map(|(f, &t)| (f as u32, t)));
            return self.fold_all(values);
        }
        // The frames holding the current entry, root first. The entries
        // ascend and a frame spans a contiguous run of them, so once they
        // pass a frame's end none lies in it again: it is re-folded as it
        // leaves, after every descendant that held one.
        let mut open: Vec<usize> = Vec::new();
        // The last frame opening at or before the current entry. The
        // innermost frame holding the entry is this frame or an ancestor.
        let mut last = 0usize;
        for &e in dirty {
            let opening = self.last_opening(last, e);
            // No frame opened since the previous entry and the innermost
            // open frame still holds this one: it is this one's innermost.
            if opening == last && open.last().is_some_and(|&g| self.end(g) > e) {
                continue;
            }
            last = opening;
            while let Some(&f) = open.last().filter(|&&f| self.end(f) <= e) {
                open.pop();
                self.refold_one(f, values, saved);
            }
            let (top, stop) = (open.len(), open.last().copied());
            let mut f = Some(last);
            while let Some(g) = f.filter(|&g| Some(g) != stop) {
                if self.end(g) > e {
                    open.push(g);
                }
                f = self.parent(g);
            }
            open.get_mut(top..).unwrap_or_default().reverse();
        }
        while let Some(f) = open.pop() {
            self.refold_one(f, values, saved);
        }
        self.root()
    }

    /// Write back totals saved by [`SumFrames::refold`].
    pub(crate) fn restore(&mut self, saved: &[(u32, f64)]) {
        for &(f, t) in saved {
            if let Some(slot) = self.total.get_mut(f as usize) {
                *slot = t;
            }
        }
    }

    /// Number of frames.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    /// The global frame's total: the raw E_pol sum.
    pub(crate) fn root(&self) -> f64 {
        self.total.first().copied().unwrap_or(0.0)
    }

    /// Heap bytes (capacity-based).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.frames.capacity() * std::mem::size_of::<Frame>()
            + self.total.capacity() * std::mem::size_of::<f64>()
    }

    /// One past frame `f`'s last entry.
    fn end(&self, f: usize) -> u32 {
        self.frames.get(f).map_or(0, |fr| fr.end)
    }

    /// Frame `f`'s parent; `None` for the global frame.
    fn parent(&self, f: usize) -> Option<usize> {
        let p = self.frames.get(f)?.parent;
        (p != Self::NONE).then_some(p as usize)
    }

    /// The last frame opening at or before entry `e`, searched from
    /// frame `from` on (which opens at or before `e`): galloping, so the
    /// cost grows with the log of the distance.
    fn last_opening(&self, from: usize, e: u32) -> usize {
        let (mut lo, mut step) = (from, 1usize);
        while self.frames.get(lo + step).is_some_and(|fr| fr.start <= e) {
            lo += step;
            step *= 2;
        }
        // Frame `lo` opens by `e`; frame `lo + step` does not, or is past
        // the last frame.
        let hi = (lo + step).min(self.frames.len());
        let tail = self.frames.get(lo + 1..hi).unwrap_or_default();
        lo + tail.partition_point(|fr| fr.start <= e)
    }

    /// Re-fold frame `f`, saving its old total.
    fn refold_one(&mut self, f: usize, values: &[f64], saved: &mut Vec<(u32, f64)>) {
        let t = self.fold(f, values);
        if let Some(slot) = self.total.get_mut(f) {
            saved.push((f as u32, std::mem::replace(slot, t)));
        }
    }

    /// Frame `f`'s fold from `0.0`: its own entries' `values` and its
    /// children's cached totals, in entry order.
    fn fold(&self, f: usize, values: &[f64]) -> f64 {
        let Some(&Frame { start, end, .. }) = self.frames.get(f) else {
            return 0.0;
        };
        let (mut acc, mut i, mut child) = (0.0, start, f + 1);
        loop {
            // The next child, if it opens inside this frame (the first
            // frame after this frame's subtree opens at or after `end`).
            let next = self.frames.get(child).filter(|c| c.start < end);
            let upto = next.map_or(end, |c| c.start);
            for &v in values.get(i as usize..upto as usize).unwrap_or_default() {
                acc += v;
            }
            let Some(&Frame {
                end: child_end,
                after,
                ..
            }) = next
            else {
                return acc;
            };
            // The child's entries are folded into its total, which joins
            // this frame as one operand.
            acc += self.total.get(child).copied().unwrap_or(0.0);
            i = child_end;
            child = after as usize;
        }
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

/// The sorted entry `ids` split by the chunk of `chunks` (a partition
/// tiling the entry list in order) that holds them, one slice per chunk.
pub(crate) fn by_chunk<'a>(
    chunks: &'a [Range<usize>],
    mut ids: &'a [u32],
) -> impl Iterator<Item = &'a [u32]> + 'a {
    std::iter::from_fn(move || {
        let &first = ids.first()?;
        let c = chunks.partition_point(|r| r.end <= first as usize);
        let end = chunks.get(c).map_or(usize::MAX, |r| r.end);
        let (group, rest) = ids.split_at(ids.partition_point(|&e| (e as usize) < end));
        ids = rest;
        Some(group)
    })
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
    /// passes are timed as `phases.lists`. Without a pool no Born list is
    /// built: the Born traversal folds each entry as it emits it, timed
    /// inside `phases.integrals`.
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

/// What `core::delta` keeps of a run: the Born accumulators (the far
/// node sums and every atom's near integral) and the E_pol Phase-A
/// outputs, one value per entry in entry order.
#[derive(Clone, Debug, Default)]
pub(crate) struct PhaseOutputs {
    pub born: BornAccumulators,
    pub epol: Vec<f64>,
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
    /// Heap bytes of the interaction lists the run used: the E_pol list,
    /// plus the Born list unless the Born pass streamed without one.
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
/// APPROX-INTEGRALS → push → [`ChargeBins`] → APPROX-E_pol Phase A/B,
/// with every phase timed. Callers differ only in where the lists come
/// from ([`ListSource`]), the pool Phase A and the push fan over (serial
/// when `None`), and the fault hook. With a pool, APPROX-INTEGRALS is
/// Phase A over the list's chunks and Phase B; without one, it is a
/// single pass that folds each Born entry as it is reached (Fig. 2's
/// order of adds), from the list when one is reused and straight from
/// the traversal otherwise.
///
/// `faults(phase, slots)` runs at the start of each parallel phase
/// (`INTEGRALS`, `PUSH`, `EPOL`, with that phase's slot count; a serial
/// Born pass or push is one slot). It returns the slot to poison, or the
/// error that ends the run.
pub(crate) struct Pipeline<'a, F> {
    sys: &'a GbSystem,
    approx: &'a ApproxParams,
    pool: Option<&'a WorkStealingPool>,
    faults: F,
    ops: OpCounts,
    phases: PhaseTimes,
    /// Heap bytes of the Born list the run used (none when streamed).
    born_list_bytes: usize,
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
            born_list_bytes: 0,
            recovered: 0,
        }
    }

    /// APPROX-INTEGRALS into fresh accumulators. With a pool: the Born
    /// list is built (timed as `phases.lists`) or reused, then Phase A
    /// runs over the pool (poisoned slots re-executed) and Phase B folds
    /// its outputs. Without one: every entry is folded as it is reached —
    /// emitted by the traversal ([`BornLists::fold_single`] /
    /// [`BornLists::fold_dual`]) or read from the reused list — so no
    /// Born list and no Phase-A buffers are allocated, and the traversal
    /// is timed in `phases.integrals`. Both give the same bits.
    fn integrals(&mut self, lists: ListSource<'_>) -> Result<BornAccumulators, E> {
        let (sys, eps) = (self.sys, self.approx.eps_born);
        let mut acc = BornAccumulators::zeros(sys);
        let Some(pool) = self.pool else {
            let t = Instant::now();
            // No pool, so no slot to poison: only the hook's error counts.
            (self.faults)(phase::INTEGRALS, 1)?;
            let ops = match lists {
                ListSource::Build(Traversal::Single) => BornLists::fold_single(sys, eps, &mut acc),
                ListSource::Build(Traversal::Dual) => BornLists::fold_dual(sys, eps, &mut acc),
                ListSource::Reuse(born, _) => {
                    self.born_list_bytes = born.memory_bytes();
                    born.execute(sys, None, &mut acc)
                }
            };
            self.ops.add(&ops);
            self.phases.integrals += t.elapsed().as_secs_f64();
            return Ok(acc);
        };

        let t = Instant::now();
        let lists = lists.born(sys, eps);
        self.phases.lists += t.elapsed().as_secs_f64();
        self.born_list_bytes = lists.memory_bytes();
        let t = Instant::now();
        let poison = (self.faults)(phase::INTEGRALS, lists.n_chunks())?;
        let outputs = recovering_map(
            Some(pool),
            lists.n_chunks(),
            poison,
            |c| lists.run_chunk(sys, c),
            &mut self.recovered,
        );
        lists.apply(sys, &outputs, &mut acc);
        self.ops.add(&lists.ops);
        self.phases.integrals += t.elapsed().as_secs_f64();
        Ok(acc)
    }

    /// Born radii (Morton order): APPROX-INTEGRALS (see
    /// `Pipeline::integrals`), then the push — [`LIST_CHUNKS`] atom
    /// blocks with a pool, one range without. Radii are written
    /// independently per atom, so the blocking cannot change them; only
    /// `nodes_visited` grows with the shared ancestors each block
    /// re-walks. The accumulators go to `keep` when given.
    pub(crate) fn born_radii(
        &mut self,
        lists: ListSource<'_>,
        keep: Option<&mut BornAccumulators>,
    ) -> Result<Vec<f64>, E> {
        let (sys, math, n) = (self.sys, self.approx.math, self.sys.n_atoms());
        let acc = self.integrals(lists)?;

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
        let born = self.born_radii(lists, keep.as_deref_mut().map(|k| &mut k.born))?;

        let t = Instant::now();
        let bins = ChargeBins::for_params(sys, &born, approx);
        self.phases.bins += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let epol_lists = lists.epol(sys, &bins, approx.eps_epol);
        self.phases.lists += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let poison = (self.faults)(phase::EPOL, epol_lists.n_chunks())?;
        let values = epol_lists.run_phase_a(
            sys,
            &bins,
            &born,
            approx.math,
            self.pool,
            poison,
            &mut self.recovered,
        );
        let raw = epol_lists.apply(&values);
        self.ops.add(&epol_lists.ops);
        self.phases.epol += t.elapsed().as_secs_f64();
        if let Some(keep) = keep {
            keep.epol = values;
        }

        Ok(Evaluation {
            born,
            bins,
            raw,
            energy_kcal: epol_from_raw_sum(raw, approx.eps_solvent),
            ops: self.ops,
            phases: self.phases,
            list_bytes: self.born_list_bytes + epol_lists.memory_bytes(),
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
        let lists = ListSource::Reuse(&engine.born_lists, &engine.epol_lists);
        let Ok(born) = pipeline.born_radii(lists, None);
        engine.born = born;
        engine
    }

    /// [`ListEngine::new`] without the Born pass: the scaffold and lists
    /// only, with no radii yet. For `core::delta`, which executes both
    /// lists in full right after and would otherwise pay the pass twice.
    pub(crate) fn scaffold_only(mol: &Molecule, approx: &ApproxParams, skin: f64) -> ListEngine {
        // PANIC-OK: documented precondition of ListEngine::new/DeltaEngine::new (`skin >= 0`).
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
        // PANIC-OK: precondition; one position per atom of the prepared molecule.
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

    /// The frame cache folds as `apply` replays, single- and dual-tree:
    /// in full, after re-folding a sparse and a dense set of scattered
    /// changed entries (with the first and last entry), and back after a
    /// restore.
    #[test]
    fn sum_frames_refold_matches_the_replay() {
        let sys = system(250, 13);
        let (born, _) = born_radii_naive(&sys, MathMode::Exact);
        let bins = ChargeBins::build(&sys, &born, 0.9);
        for lists in [
            EpolLists::build_single(&sys, &bins, 0.9),
            EpolLists::build_dual(&sys, &bins, 0.9),
        ] {
            let replay = |values: &[f64]| lists.apply(values).to_bits();
            // Values of mixed sign and scale, so the fold order shows.
            let mut values: Vec<f64> = (0..lists.len())
                .map(|i| ((i as f64 * 0.618).fract() - 0.4) * 10f64.powi((i % 7) as i32 - 3))
                .collect();
            let mut frames = SumFrames::new(&lists);
            assert_eq!(frames.fold_all(&values).to_bits(), replay(&values));
            let before = frames.root().to_bits();

            let last = lists.len() as u32 - 1;
            for (shift, sparse) in [(27, true), (29, false)] {
                let dirty: Vec<u32> = (0..=last)
                    .filter(|&e| e == 0 || e == last || e.wrapping_mul(0x9e37_79b9) >> shift == 3)
                    .collect();
                let old = values.clone();
                for &e in &dirty {
                    values[e as usize] *= -1.5;
                }
                let mut saved = Vec::new();
                assert_eq!(
                    frames.refold(&values, &dirty, &mut saved).to_bits(),
                    replay(&values)
                );
                let mut seen: Vec<u32> = saved.iter().map(|&(f, _)| f).collect();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), saved.len(), "a frame was re-folded twice");
                assert_eq!(
                    saved.len() < frames.frames.len(),
                    sparse,
                    "sparse sets re-fold some frames"
                );
                frames.restore(&saved);
                assert_eq!(frames.root().to_bits(), before);
                values = old;
            }
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

    /// Phase A against `run_entry`, entry by entry, single- and
    /// dual-tree: over the whole list, and over sorted subsets holding
    /// the first and last entry, dirty pairs and entries whose mirror is
    /// outside the subset; serially, at several pool widths, and after a
    /// lost chunk or chunk group.
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
                    assert_eq!(out.capacity(), lists.len());
                    let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{math:?} pool {:?} poison {poison:?}", pool.map(|_| ()));
                };
                check(None, None);
                for w in [1usize, 2, 5, 8] {
                    check(Some(&WorkStealingPool::new(w)), None);
                }
                check(Some(&WorkStealingPool::new(3)), Some(lists.n_chunks() / 2));

                let last = lists.len() as u32 - 1;
                // A dense (five eighths) and a sparse (one eighth)
                // pseudo-random subset.
                for keep in [0..5u32, 3..4] {
                    let hash = |e: u32| e.wrapping_mul(0x9e37_79b9) >> 29;
                    let ids: Vec<u32> = (0..=last)
                        .filter(|&e| e == 0 || e == last || keep.contains(&hash(e)))
                        .collect();
                    let in_ids = |p: usize| ids.binary_search(&(p as u32)).is_ok();
                    let mirrors = ids.iter().filter_map(|&e| lists.entries[e as usize].mirror());
                    assert!(mirrors.clone().any(in_ids), "no pair inside the subset");
                    assert!(mirrors.clone().any(|p| !in_ids(p)), "no mirror outside the subset");
                    let check = |pool: Option<&WorkStealingPool>, poison: Option<usize>| {
                        let mut recovered = 0;
                        let mut out = lists.run_subset(
                            &sys, &bins, &born, math, &ids, pool, poison, &mut recovered,
                        );
                        assert_eq!(recovered, u32::from(poison.is_some()));
                        out.sort_unstable_by_key(|&(e, _)| e);
                        assert!(out.iter().map(|&(e, _)| e as u32).eq(ids.iter().copied()));
                        for &(e, v) in &out {
                            assert_eq!(v.to_bits(), want[e], "{math:?} entry {e} poison {poison:?}");
                        }
                    };
                    check(None, None);
                    for w in [1usize, 3] {
                        check(Some(&WorkStealingPool::new(w)), None);
                    }
                    let groups = by_chunk(&lists.chunks, &ids).count();
                    check(Some(&WorkStealingPool::new(3)), Some(groups / 2));
                }
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
