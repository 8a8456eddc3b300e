//! Incremental ΔE_pol perturbation engine: recompute only what changed.
//!
//! [`ListEngine`] reuses lists while nothing moved past the Verlet skin,
//! but every `evaluate` still re-runs *all* Phase-A chunks. For mutation /
//! perturbation scans (ROADMAP item 3) that is the wrong cost model:
//! moving k atoms should cost what those atoms touch, not a full
//! re-execution.
//!
//! [`DeltaEngine`] upgrades a [`ListEngine`] with cached phase state and
//! an entry-granular dirtiness protocol (DESIGN.md §14–15):
//!
//! * **Node-keyed entry tables** (built once per scaffold, sized by the
//!   atoms tree and the lists, not by atoms × entries): two compact (CSR)
//!   tables from atoms-tree node to E_pol entries — a leaf's near entries
//!   reading it as `a` or `b`, and a node's far entries. The Born list is
//!   sorted by `a`, so a node's Born entries are one run of it, found by
//!   binary search. Near entries of both lists sit on leaves only, so a
//!   moved atom's near entries are those of its leaf.
//! * A [`Perturbation`] query writes the moved positions / mutated
//!   charges through the O(k) subset-refresh paths
//!   ([`GbSystem::refresh_atom_subset`] / [`GbSystem::set_atom_charge`]),
//!   marks dirty entries from the tables of the touched atoms' leaves
//!   and nodes, and re-executes **only those** through the same pure
//!   kernels the full pipeline runs.
//! * **Born, per moved atom.** The engine caches the Born Phase-B
//!   accumulators: the far node sums and every atom's near integral. A
//!   dirty Born entry evaluates only the rows of the moved atoms in its
//!   range ([`GbSystem::born_block_terms`] over the span from the first
//!   to the last of them). Each atom's term starts at `0.0` and takes its
//!   q-points in order whatever block it sits in, so these rows are the
//!   whole entry's bits for those atoms. Each moved atom's integral
//!   restarts at `0.0` and adds its fresh terms in ascending entry order:
//!   exactly the adds a full Phase B gives that slot. Far records are
//!   never dirty, and an unmoved atom's integral reads only its own
//!   position, frozen q-points and frozen far sums, so only the moved
//!   atoms are pushed to radii; the *born-changed* set is the moved atoms
//!   whose radius bits changed.
//! * **E_pol, per pair.** Each entry's Phase-A output is one cached
//!   value, written in place. The dirty entries run through the list's
//!   one Phase-A evaluator with the dirty set as its set, so a dirty
//!   entry whose mirror is dirty too shares one STILL tile with it, as in
//!   the full Phase A, and one whose mirror is clean runs alone. A clean
//!   entry's cached value is bitwise what a fresh execution would produce
//!   (its operands read only unchanged inputs — that is what "clean"
//!   means).
//! * **E_pol Phase B, per frame.** The engine caches one total per frame
//!   of the serial sum tree (the entries' `opens`/`closes`). A query
//!   re-folds only the frames holding a dirty entry and their ancestors,
//!   each from `0.0` over the same operands in the same order as the full
//!   replay: cached values for its entries, cached totals for its clean
//!   child frames. So the perturbed energy is **bit-identical to a fresh
//!   full run by construction**, and the fold costs what the dirty
//!   entries touch.
//! * [`ChargeBins`], in place. The bin layout derives from the *global*
//!   Born-radius extremes, so one changed radius can relabel every
//!   node's bins. While `R_min` and `M_ε` hold (always, unless a radius
//!   changed), the `rr_table` holds too: the engine re-bins only the
//!   atoms whose radius changed and recomputes bins and moments only for
//!   the ancestors of the moved, recharged or re-radiused atoms, by the
//!   same range sums as a full build, then diffs those nodes bitwise. A
//!   node's bins and moments read only its own atoms, so the changed
//!   nodes are exactly those a whole-table diff finds. A new layout takes
//!   the whole-table path: a full rebuild diffed against the cached
//!   generation. Far entries are dirty exactly where their endpoints'
//!   bins or moments (or the shared table) changed; under the default
//!   rule a move or a charge change dirties the far entries of the
//!   touched atom's ancestors (DESIGN.md §10.8).
//!
//! Queries whose cumulative displacement exceeds `skin/2` fall back to a
//! full rebuild at the perturbed geometry — the same boundary, and the
//! same resulting state, as [`ListEngine::evaluate`].
//!
//! [`DeltaEngine::revert`] pops the last perturbation: an incremental
//! query is undone by restoring the saved positions/charges, the moved
//! atoms' integrals and radii, the replaced E_pol values, the changed
//! bins (the atoms' and nodes', or the whole generation), the re-folded
//! frame totals and the totals directly (bit-exact, no recomputation); a
//! rebuilt query is undone by deterministically rebuilding the previous
//! scaffold and re-executing (prepare is a pure function, so the
//! restored state is bit-identical too). Scoring N independent candidates against one base
//! state is therefore an apply → revert loop.
//!
//! The FT story is the list engine's, unchanged: dirty units (one per
//! dirty Born entry, one per list chunk holding dirty E_pol entries) fan
//! out over [`WorkStealingPool::try_map`], a poisoned unit's panic is
//! contained, and the lost slot is re-executed serially by the same pure
//! kernel before the fold ([`DeltaEngine::apply_perturbation_ft`]).

use crate::born::push_integrals_to_atoms;
use crate::epol::ChargeBins;
use crate::gb::epol_from_raw_sum;
use crate::lists::{
    by_chunk, no_faults, recovering_map, ListEngine, ListEntry, ListSource, PhaseOutputs,
    Pipeline, SumFrames,
};
use crate::params::ApproxParams;
use crate::system::GbSystem;
use polaroct_cluster::comm::checksum;
use polaroct_cluster::fault::{phase, FaultKind, FaultPlan};
use polaroct_geom::Vec3;
use polaroct_molecule::Molecule;
use polaroct_octree::{NodeId, Octree};
use polaroct_sched::WorkStealingPool;
use std::ops::Range;

/// One perturbation query: absolute new positions for k moved atoms and
/// absolute new charges for mutated atoms, both in the molecule's
/// **original** atom order (the engine translates to Morton internally).
#[derive(Clone, Debug, Default)]
pub struct Perturbation {
    /// `(atom, new_position)` — original-order index, absolute target.
    pub moves: Vec<(usize, Vec3)>,
    /// `(atom, new_charge)` — original-order index, absolute value.
    pub charges: Vec<(usize, f64)>,
}

impl Perturbation {
    /// Builder: move one atom to an absolute position.
    pub fn move_atom(mut self, atom: usize, to: Vec3) -> Self {
        self.moves.push((atom, to));
        self
    }

    /// Builder: set one atom's charge.
    pub fn set_charge(mut self, atom: usize, q: f64) -> Self {
        self.charges.push((atom, q));
        self
    }

    pub fn is_empty(&self) -> bool {
        self.moves.is_empty() && self.charges.is_empty()
    }
}

/// Result of one [`DeltaEngine::apply_perturbation`] query.
#[derive(Clone, Copy, Debug)]
pub struct DeltaEval {
    /// Polarization energy (kcal/mol) at the perturbed geometry/charges.
    pub energy_kcal: f64,
    /// Raw ordered-pair E_pol sum.
    pub raw: f64,
    /// Whether this query crossed the skin boundary and fully rebuilt.
    pub rebuilt: bool,
    /// Max cumulative displacement from the scaffold geometry (Å).
    pub max_disp: f64,
    /// Born chunks holding at least one dirty entry.
    pub born_chunks_redone: usize,
    /// E_pol chunks holding at least one dirty entry.
    pub epol_chunks_redone: usize,
    /// Total chunks touched (`born + epol`; equals `total_chunks` on a
    /// rebuild).
    pub chunks_redone: usize,
    /// Chunks holding no dirty entry.
    pub chunks_cached: usize,
    /// Total chunks across both lists.
    pub total_chunks: usize,
    /// Dirty list entries re-executed by this query (both lists). A
    /// dirty Born entry evaluates only the rows of its moved atoms.
    pub entries_redone: usize,
    /// List entries not re-executed: their cached contributions were
    /// served as they are.
    pub entries_cached: usize,
    /// Total entries across both lists
    /// (`entries_redone + entries_cached`).
    pub total_entries: usize,
    /// Poisoned dirty units recovered by serial re-execution (FT path).
    pub recovered_chunks: u32,
}

/// Undo record for one applied perturbation (LIFO).
enum UndoRecord {
    /// Within-skin query: everything it replaced, restored directly.
    Incremental {
        /// Original-order `(atom, old_position)`, in application order.
        moves: Vec<(usize, Vec3)>,
        /// Original-order `(atom, old_charge)`, in application order.
        charges: Vec<(usize, f64)>,
        /// `(Morton atom, old near integral, old Born radius)` for every
        /// moved atom.
        born: Vec<(usize, f64, f64)>,
        /// `(entry, old value)` for every re-executed E_pol entry.
        epol: Vec<(u32, f64)>,
        bins: BinsUndo,
        /// `(frame, old total)` for every re-folded sum-tree frame.
        frames: Vec<(u32, f64)>,
        raw: f64,
        energy_kcal: f64,
    },
    /// Boundary-crossing query: revert re-prepares the old scaffold.
    Rebuilt {
        moves: Vec<(usize, Vec3)>,
        charges: Vec<(usize, f64)>,
        /// The scaffold (reference geometry) that was discarded.
        scaffold: Vec<Vec3>,
    },
}

/// What a query changed in the bins, for [`DeltaEngine::revert`].
enum BinsUndo {
    /// The layout changed: the whole previous generation.
    Whole(ChargeBins),
    /// The layout held and the bins were updated in place.
    Nodes {
        /// `(Morton atom, old bin)` for every re-binned atom.
        atoms: Vec<(usize, u16)>,
        /// The nodes whose bins or moments changed, in order.
        nodes: Vec<NodeId>,
        /// Their old bins, each followed by its old moments.
        old: Vec<f64>,
    },
}

/// Whether two float slices hold the same bits (and length).
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Incremental perturbation engine over a prepared [`ListEngine`]. See
/// the module docs for the dirtiness protocol and the bit-identity
/// argument.
pub struct DeltaEngine {
    base: ListEngine,
    /// Cached Born Phase-B accumulators and E_pol Phase-A outputs (one
    /// value per entry, in entry order).
    outputs: PhaseOutputs,
    /// Atoms-tree leaf → the near E_pol entries reading it as `a` or `b`.
    epol_near: NodeEntries,
    /// Atoms-tree node → the far E_pol entries holding it as `a` or `b`.
    epol_far: NodeEntries,
    /// Bin generation the cached far-entry outputs were computed with.
    bins: ChargeBins,
    /// The E_pol sum tree's frames with their cached totals.
    frames: SumFrames,
    raw: f64,
    energy_kcal: f64,
    /// Current positions / charges, original atom order.
    positions: Vec<Vec3>,
    charges: Vec<f64>,
    /// Per-atom displacement from the scaffold geometry (original order).
    disp: Vec<f64>,
    /// Original index → Morton index for the current scaffold.
    inv_order: Vec<u32>,
    undo: Vec<UndoRecord>,
    /// Queries served incrementally vs via full rebuild.
    pub queries_incremental: u64,
    pub queries_rebuilt: u64,
}

impl DeltaEngine {
    /// Build a fresh engine at the molecule's geometry (counts as the
    /// first rebuild, like [`ListEngine::new`]). Pays one Born pass: the
    /// scaffold is built without radii and executed in full once.
    pub fn new(mol: &Molecule, approx: &ApproxParams, skin: f64) -> DeltaEngine {
        let base = ListEngine::scaffold_only(mol, approx, skin);
        // Recover the positions and charges in original order from the
        // Morton snapshot; the full pass below populates the caches.
        let n = base.sys.n_atoms();
        let mut positions = vec![Vec3::ZERO; n];
        let mut charges = vec![0.0f64; n];
        for (mi, &oi) in base.sys.atoms.point_order.iter().enumerate() {
            // PANIC-OK: point_order is a permutation of 0..n by construction.
            positions[oi as usize] = base.sys.atoms.points[mi];
            charges[oi as usize] = base.sys.charge[mi]; // PANIC-OK: same permutation.
        }
        let mut engine = DeltaEngine {
            base,
            outputs: PhaseOutputs::default(),
            epol_near: NodeEntries::default(),
            epol_far: NodeEntries::default(),
            bins: ChargeBins::default(),
            frames: SumFrames::default(),
            raw: 0.0,
            energy_kcal: 0.0,
            positions,
            charges,
            disp: vec![0.0; n],
            inv_order: Vec::new(),
            undo: Vec::new(),
            queries_incremental: 0,
            queries_rebuilt: 0,
        };
        engine.rebuild_caches();
        engine.full_execute(None);
        engine
    }

    /// Rebuild the scaffold-derived caches after a prepare: the inverse
    /// permutation and the node-keyed entry tables.
    fn rebuild_caches(&mut self) {
        let n = self.base.sys.n_atoms();
        let mut inv = vec![0u32; n];
        for (mi, &oi) in self.base.sys.atoms.point_order.iter().enumerate() {
            // PANIC-OK: point_order is a permutation of 0..n by construction.
            inv[oi as usize] = mi as u32;
        }
        self.inv_order = inv;

        let tree = &self.base.sys.atoms;
        let (born, epol) = (&self.base.born_lists.entries, &self.base.epol_lists.entries);
        let leaf = |id: NodeId| tree.node(id).is_leaf();
        debug_assert!(born.is_sorted_by_key(|e| e.a), "Born entries are atoms-node-major");
        debug_assert!(
            born.iter().all(|e| e.far || leaf(e.a))
                && epol.iter().all(|e| e.far || leaf(e.a) && leaf(e.b)),
            "near entries sit on atoms leaves only"
        );
        let ends = |far: bool| {
            (0u32..).zip(epol).filter(move |(_, e)| e.far == far).flat_map(|(i, e)| {
                let b = (e.b != e.a).then_some((e.b, i));
                std::iter::once((e.a, i)).chain(b)
            })
        };
        self.epol_near = NodeEntries::build(tree.nodes.len(), ends(false));
        self.epol_far = NodeEntries::build(tree.nodes.len(), ends(true));
        self.frames = SumFrames::new(&self.base.epol_lists);
    }

    /// Resident bytes of the node-keyed entry tables: the E_pol near and
    /// far tables, each `4·(n_nodes + 1)` B of offsets plus 4 B per entry
    /// end (two per entry, one per diagonal near entry). The Born list,
    /// sorted by `a`, is its own node index.
    pub fn entry_cache_bytes(&self) -> usize {
        self.epol_near.memory_bytes() + self.epol_far.memory_bytes()
    }

    /// The near Born entries of atoms-tree leaf `leaf`: its run of the
    /// list, which is sorted by `a`, without the far records.
    fn born_near(&self, leaf: NodeId) -> impl Iterator<Item = u32> + '_ {
        let entries = &self.base.born_lists.entries;
        let start = entries.partition_point(|e| e.a < leaf);
        let run = start..entries.partition_point(|e| e.a <= leaf);
        run.filter(|&i| entries.get(i).is_some_and(|e| !e.far)).map(|i| i as u32)
    }

    /// Refresh all Morton positions to `self.positions` and execute every
    /// chunk of both lists from scratch (the rebuild / adopt path). Pure
    /// recomputation — produces exactly the state an incremental query
    /// sequence would have cached.
    fn full_execute(&mut self, pool: Option<&WorkStealingPool>) {
        self.base.sys.refresh_atom_positions(&self.positions);
        for (d, (p, r)) in self
            .disp
            .iter_mut()
            .zip(self.positions.iter().zip(&self.base.reference))
        {
            *d = p.dist(*r);
        }
        let base = &self.base;
        let lists = ListSource::Reuse(&base.born_lists, &base.epol_lists);
        let Ok(ev) = Pipeline::new(&base.sys, &base.approx, pool, no_faults)
            .run(lists, Some(&mut self.outputs));
        self.bins = ev.bins;
        let raw = self.frames.fold_all(&self.outputs.epol);
        debug_assert_eq!(
            raw.to_bits(),
            ev.raw.to_bits(),
            "the frames fold as Phase B does"
        );
        self.raw = ev.raw;
        self.energy_kcal = ev.energy_kcal;
        self.base.born = ev.born;
    }

    /// Apply a perturbation and return the re-evaluated energy, bit-identical
    /// to a fresh full run (see the module docs for the exact contract).
    /// Dirty units run over `pool` when given, serially otherwise — the
    /// result is bitwise the same either way.
    pub fn apply_perturbation(
        &mut self,
        p: &Perturbation,
        pool: Option<&WorkStealingPool>,
    ) -> DeltaEval {
        self.apply_inner(p, pool, None)
    }

    /// [`DeltaEngine::apply_perturbation`] under fault injection: a
    /// `PanicWorker` entry at [`phase::INTEGRALS`] / [`phase::EPOL`]
    /// poisons one dirty unit of the corresponding list; the pool
    /// contains the panic and the unit is re-executed serially before
    /// the fold, so the query result is still bit-identical
    /// (`recovered_chunks` reports the retries).
    pub fn apply_perturbation_ft(
        &mut self,
        p: &Perturbation,
        pool: &WorkStealingPool,
        plan: &FaultPlan,
    ) -> DeltaEval {
        // Clone resets the one-shot fired flags (same convention as the
        // drivers), so one plan value can drive many queries.
        let plan = plan.clone();
        self.apply_inner(p, Some(pool), Some(&plan))
    }

    fn apply_inner(
        &mut self,
        p: &Perturbation,
        pool: Option<&WorkStealingPool>,
        plan: Option<&FaultPlan>,
    ) -> DeltaEval {
        let n = self.positions.len();
        let mut old_moves = Vec::with_capacity(p.moves.len());
        for &(oi, np) in &p.moves {
            // PANIC-OK: perturbation preconditions, checked before any state is touched.
            assert!(oi < n, "moved atom {oi} out of range ({n} atoms)");
            // PANIC-OK: non-finite positions would poison every downstream comparison.
            assert!(
                np.x.is_finite() && np.y.is_finite() && np.z.is_finite(),
                "non-finite target position for atom {oi}"
            );
            old_moves.push((oi, self.positions[oi])); // PANIC-OK: oi < n asserted above.
            self.positions[oi] = np; // PANIC-OK: oi < n asserted above.
        }
        let mut old_charges = Vec::with_capacity(p.charges.len());
        for &(oi, nq) in &p.charges {
            // PANIC-OK: perturbation preconditions, checked before any state is touched.
            assert!(oi < n, "charged atom {oi} out of range ({n} atoms)");
            // PANIC-OK: non-finite charges would poison every downstream comparison.
            assert!(nq.is_finite(), "non-finite charge for atom {oi}");
            old_charges.push((oi, self.charges[oi])); // PANIC-OK: oi < n asserted above.
            self.charges[oi] = nq; // PANIC-OK: oi < n asserted above.
        }
        for &(oi, _) in &p.moves {
            // PANIC-OK: oi < n asserted above; disp/reference are n-length.
            self.disp[oi] = self.positions[oi].dist(self.base.reference[oi]);
        }
        let max_disp = self.disp.iter().copied().fold(0.0f64, f64::max);
        let total = self.total_chunks();

        if max_disp > 0.5 * self.base.skin {
            // Skin boundary crossed: rebuild the scaffold at the
            // perturbed geometry — same fallback, same resulting state,
            // as ListEngine::evaluate past the boundary.
            let scaffold = self.base.reference.clone();
            // PANIC-OK: both are the same molecule's n-atom charge arrays.
            self.base.work.charges.copy_from_slice(&self.charges);
            let positions = self.positions.clone();
            self.base.rebuild(&positions);
            self.rebuild_caches();
            self.full_execute(pool);
            self.base.lists_rebuilt += 1;
            self.queries_rebuilt += 1;
            self.undo.push(UndoRecord::Rebuilt {
                moves: old_moves,
                charges: old_charges,
                scaffold,
            });
            let total = self.total_chunks();
            let total_entries = self.total_entries();
            return DeltaEval {
                energy_kcal: self.energy_kcal,
                raw: self.raw,
                rebuilt: true,
                max_disp,
                born_chunks_redone: self.base.born_lists.n_chunks(),
                epol_chunks_redone: self.base.epol_lists.n_chunks(),
                chunks_redone: total,
                chunks_cached: 0,
                total_chunks: total,
                entries_redone: total_entries,
                entries_cached: 0,
                total_entries,
                recovered_chunks: 0,
            };
        }

        // ---- Subset refresh: O(k) writes into the Morton tree copy,
        // the flat arena and the charge payload.
        let moved_m: Vec<usize> = p
            .moves
            .iter()
            .map(|&(oi, _)| self.inv_order[oi] as usize) // PANIC-OK: oi < n asserted above.
            .collect();
        let subset: Vec<(usize, Vec3)> = moved_m
            .iter()
            .zip(&p.moves)
            .map(|(&mi, &(_, np))| (mi, np))
            .collect();
        self.base.sys.refresh_atom_subset(&subset);
        let charged_m: Vec<usize> = p
            .charges
            .iter()
            .map(|&(oi, _)| self.inv_order[oi] as usize) // PANIC-OK: oi < n asserted above.
            .collect();
        for (&mi, &(_, nq)) in charged_m.iter().zip(&p.charges) {
            self.base.sys.set_atom_charge(mi, nq);
        }
        self.base.lists_reused += 1;

        // ---- Born dirtiness: an entry is dirty iff its near record's
        // leaf holds a moved atom (far records read only frozen node
        // aggregates and can never go stale).
        let poison_at = |len: usize, ph: u32| {
            plan.and_then(|pl| match pl.fire_exec(0, ph) {
                Some(FaultKind::PanicWorker) => Some(pl.seed() as usize % len.max(1)),
                _ => None,
            })
        };
        let mut recovered = 0u32;
        let mut moved = moved_m.clone();
        moved.sort_unstable();
        moved.dedup();
        let tree = &self.base.sys.atoms;
        let mut dirty: Vec<u32> = moved
            .iter()
            .filter_map(|&mi| path_to(tree, mi).last())
            .flat_map(|leaf| self.born_near(leaf))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        let poison = poison_at(dirty.len(), phase::INTEGRALS);
        let (born_undo, born_changed) =
            self.born_per_atom(&moved, &dirty, pool, poison, &mut recovered);
        let born_chunks_redone = by_chunk(&self.base.born_lists.chunks, &dirty).count();
        let born_entries_redone = dirty.len();

        // ---- E_pol dirtiness: near entries reading the leaf of a moved,
        // recharged or re-radiused atom (re-radiused atoms moved), plus
        // far entries whose far operands changed (the bins update below).
        // Near entries sit on leaves, so an internal node lists none.
        let nodes = ancestors(&self.base.sys.atoms, moved.iter().chain(&charged_m));
        let near = nodes.iter().flat_map(|&id| self.epol_near.of(id));
        let mut dirty: Vec<u32> = near.copied().collect();
        let old_bins = self.update_bins(nodes, &born_changed, &mut dirty);
        dirty.sort_unstable();
        dirty.dedup();
        // A near entry and its mirror read the same two leaves, and far
        // entries have no mirror: the dirty set is closed under mirrors,
        // so every dirty pair shares one tile below.
        debug_assert!(
            dirty
                .iter()
                .filter_map(|&e| self.base.epol_lists.entries.get(e as usize)?.mirror())
                .all(|p| dirty.binary_search(&(p as u32)).is_ok()),
            "the dirty E_pol set is closed under mirrors"
        );
        let epol_chunks_redone = by_chunk(&self.base.epol_lists.chunks, &dirty).count();
        let poison = poison_at(epol_chunks_redone, phase::EPOL);
        let epol_undo = self.epol_per_entry(&dirty, pool, poison, &mut recovered);
        let epol_entries_redone = dirty.len();

        // ---- Phase B (E_pol): re-fold the dirty entries' sum-tree
        // frames and their ancestors over the cached operands.
        let mut frames_undo = Vec::new();
        let raw = self
            .frames
            .refold(&self.outputs.epol, &dirty, &mut frames_undo);
        let energy_kcal = epol_from_raw_sum(raw, self.base.approx.eps_solvent);

        let old_raw = std::mem::replace(&mut self.raw, raw);
        let old_energy = std::mem::replace(&mut self.energy_kcal, energy_kcal);
        self.undo.push(UndoRecord::Incremental {
            moves: old_moves,
            charges: old_charges,
            born: born_undo,
            epol: epol_undo,
            bins: old_bins,
            frames: frames_undo,
            raw: old_raw,
            energy_kcal: old_energy,
        });
        self.queries_incremental += 1;

        let redone = born_chunks_redone + epol_chunks_redone;
        let entries_redone = born_entries_redone + epol_entries_redone;
        let total_entries = self.total_entries();
        DeltaEval {
            energy_kcal,
            raw,
            rebuilt: false,
            max_disp,
            born_chunks_redone,
            epol_chunks_redone,
            chunks_redone: redone,
            chunks_cached: total - redone,
            total_chunks: total,
            entries_redone,
            entries_cached: total_entries - entries_redone,
            total_entries,
            recovered_chunks: recovered,
        }
    }

    /// The Born half of a query, per moved atom: re-evaluate the moved
    /// atoms' rows of the sorted `dirty` entries (over `pool`, a
    /// `poison`ed slot re-executed serially), restart each moved
    /// integral at `0.0` and fold its fresh terms in ascending entry
    /// order, then push the moved atoms to radii. `moved` is sorted and
    /// deduplicated. Returns the undo record
    /// `(atom, old integral, old radius)` and the moved atoms whose
    /// radius bits changed.
    fn born_per_atom(
        &mut self,
        moved: &[usize],
        dirty: &[u32],
        pool: Option<&WorkStealingPool>,
        poison: Option<usize>,
        recovered: &mut u32,
    ) -> (Vec<(usize, f64, f64)>, Vec<usize>) {
        let (sys, lists) = (&self.base.sys, &self.base.born_lists);
        let entry = |k: usize| {
            // PANIC-OK: dirty ids come from an index built over this entry list.
            &lists.entries[dirty[k] as usize]
        };
        let fresh = recovering_map(
            pool,
            dirty.len(),
            poison,
            |k| moved_rows(sys, entry(k), moved),
            recovered,
        );

        let acc = &mut self.outputs.born.atom;
        let mut undo = Vec::with_capacity(moved.len());
        for &mi in moved {
            // PANIC-OK: moved atoms are Morton indices < n; both vectors are n-length.
            undo.push((mi, acc[mi], self.base.born[mi]));
            acc[mi] = 0.0; // PANIC-OK: same index.
        }
        for (k, terms) in fresh.iter().enumerate() {
            let atoms = moved_in(moved, sys.atoms.node(entry(k).a).range());
            for (&mi, &t) in atoms.iter().zip(terms) {
                acc[mi] += t; // PANIC-OK: moved atoms are Morton indices < n.
            }
        }

        let math = self.base.approx.math;
        let mut changed = Vec::new();
        for &(mi, _, old) in &undo {
            push_integrals_to_atoms(sys, &self.outputs.born, mi..mi + 1, math, &mut self.base.born);
            // PANIC-OK: mi < n, the radius vector's length.
            if self.base.born[mi].to_bits() != old.to_bits() {
                changed.push(mi);
            }
        }
        (undo, changed)
    }

    /// Bring the bins up to date after the query changed the radii of
    /// `born_changed` (Morton indices; moved atoms), given `nodes`, the
    /// ancestors of the moved and recharged atoms, and push onto `dirty`
    /// the far entries whose operands changed. Returns the undo record.
    ///
    /// A node's bins and moments read only its own atoms' bins, charges
    /// and positions. So while the layout (`R_min`, `M_ε`, hence the
    /// `rr_table`) holds, only the re-radiused atoms can change bin, and
    /// only the touched atoms' ancestors can change: those nodes are
    /// recomputed in place and diffed bitwise, which gives the set a full
    /// rebuild and whole-table diff would. A new layout relabels every
    /// node, so then the bins are rebuilt and diffed whole.
    fn update_bins(
        &mut self,
        mut nodes: Vec<NodeId>,
        born_changed: &[usize],
        dirty: &mut Vec<u32>,
    ) -> BinsUndo {
        let (sys, born, eps) = (&self.base.sys, &self.base.born, self.base.approx.eps_epol);
        if !born_changed.is_empty() && !self.bins.same_layout(born, eps) {
            let new_bins = ChargeBins::for_params(sys, born, &self.base.approx);
            let table_changed = new_bins.m_eps != self.bins.m_eps
                || !bits_equal(&new_bins.rr_table, &self.bins.rr_table);
            if table_changed {
                // Every far entry (listed under both its ends; the caller
                // deduplicates).
                dirty.extend_from_slice(&self.epol_far.ids);
            } else {
                for node in 0..sys.atoms.nodes.len() as u32 {
                    if !bits_equal(new_bins.of(node), self.bins.of(node))
                        || !bits_equal(new_bins.moments_of(node), self.bins.moments_of(node))
                    {
                        dirty.extend_from_slice(self.epol_far.of(node));
                    }
                }
            }
            return BinsUndo::Whole(std::mem::replace(&mut self.bins, new_bins));
        }
        let bins = &mut self.bins;
        let atoms = born_changed
            .iter()
            .filter_map(|&mi| Some((mi, bins.rebin(mi, *born.get(mi)?, eps))))
            .collect();
        let mut old = Vec::new();
        nodes.retain(|&id| {
            let mark = old.len();
            old.extend_from_slice(bins.of(id));
            old.extend_from_slice(bins.moments_of(id));
            bins.refresh_node(sys, id);
            let now = bins
                .of(id)
                .iter()
                .chain(bins.moments_of(id))
                .map(|v| v.to_bits());
            let same = old
                .get(mark..)
                .is_some_and(|o| o.iter().map(|v| v.to_bits()).eq(now));
            if same {
                old.truncate(mark);
            } else {
                dirty.extend_from_slice(self.epol_far.of(id));
            }
            !same
        });
        BinsUndo::Nodes { atoms, nodes, old }
    }

    /// The E_pol half of a query: re-evaluate the sorted `dirty` entries
    /// under the current bins and radii, with the dirty set as the
    /// evaluator's set ([`crate::lists::EpolLists::run_subset`]; over
    /// `pool` when given, a `poison`ed chunk group re-executed serially),
    /// and write each value over its cached one. Returns
    /// `(entry, old value)` for each.
    fn epol_per_entry(
        &mut self,
        dirty: &[u32],
        pool: Option<&WorkStealingPool>,
        poison: Option<usize>,
        recovered: &mut u32,
    ) -> Vec<(u32, f64)> {
        let (sys, born, math) = (&self.base.sys, &self.base.born, self.base.approx.math);
        let fresh = self
            .base
            .epol_lists
            .run_subset(sys, &self.bins, born, math, dirty, pool, poison, recovered);
        let values = &mut self.outputs.epol;
        fresh
            .into_iter()
            .filter_map(|(e, v)| Some((e as u32, std::mem::replace(values.get_mut(e)?, v))))
            .collect()
    }

    /// Undo the most recent perturbation; returns `false` when none is
    /// pending. An incremental query restores the saved state directly
    /// (bit-exact, no recomputation); a rebuilt query re-prepares the
    /// previous scaffold deterministically and re-executes over `pool`.
    pub fn revert(&mut self, pool: Option<&WorkStealingPool>) -> bool {
        let Some(rec) = self.undo.pop() else {
            return false;
        };
        match rec {
            UndoRecord::Incremental {
                moves,
                charges,
                born,
                epol,
                bins,
                frames,
                raw,
                energy_kcal,
            } => {
                // Reverse application order, so repeated writes to one
                // atom unwind to the first saved value.
                for &(oi, op) in moves.iter().rev() {
                    self.positions[oi] = op; // PANIC-OK: saved from a validated query.
                }
                for &(oi, oq) in charges.iter().rev() {
                    self.charges[oi] = oq; // PANIC-OK: saved from a validated query.
                }
                let subset: Vec<(usize, Vec3)> = moves
                    .iter()
                    .map(|&(oi, _)| {
                        // PANIC-OK: saved from a validated query; inv_order is n-length.
                        (self.inv_order[oi] as usize, self.positions[oi])
                    })
                    .collect();
                self.base.sys.refresh_atom_subset(&subset);
                for &(oi, _) in &charges {
                    // PANIC-OK: saved from a validated query; inv_order is n-length.
                    let mi = self.inv_order[oi] as usize;
                    self.base.sys.set_atom_charge(mi, self.charges[oi]); // PANIC-OK: same validated index as the line above.
                }
                for &(oi, _) in &moves {
                    // PANIC-OK: saved from a validated query; disp/reference are n-length.
                    self.disp[oi] = self.positions[oi].dist(self.base.reference[oi]);
                }
                // Saved slots within one record are distinct (moved atoms
                // deduplicated, dirty entries deduplicated), so restore
                // order is immaterial.
                for (mi, integral, radius) in born {
                    self.outputs.born.atom[mi] = integral; // PANIC-OK: saved from this engine.
                    self.base.born[mi] = radius; // PANIC-OK: saved from this engine.
                }
                for (e, old) in epol {
                    if let Some(slot) = self.outputs.epol.get_mut(e as usize) {
                        *slot = old;
                    }
                }
                match bins {
                    BinsUndo::Whole(bins) => self.bins = bins,
                    BinsUndo::Nodes { atoms, nodes, old } => {
                        for (mi, k) in atoms {
                            // PANIC-OK: saved from this engine's own bins.
                            self.bins.atom_bin[mi] = k;
                        }
                        // Each saved node holds its bins, then its moments
                        // (every node keeps as many as the root).
                        let stride = self.bins.m_eps + self.bins.moments_of(0).len();
                        for (&id, saved) in nodes.iter().zip(old.chunks(stride)) {
                            let (b, m) = self.bins.node_mut(id);
                            for (slot, &v) in b.iter_mut().chain(m).zip(saved) {
                                *slot = v;
                            }
                        }
                    }
                }
                self.frames.restore(&frames);
                self.raw = raw;
                self.energy_kcal = energy_kcal;
            }
            UndoRecord::Rebuilt { moves, charges, scaffold } => {
                for &(oi, op) in moves.iter().rev() {
                    self.positions[oi] = op; // PANIC-OK: saved from a validated query.
                }
                for &(oi, oq) in charges.iter().rev() {
                    self.charges[oi] = oq; // PANIC-OK: saved from a validated query.
                }
                // Re-prepare the *old* scaffold (prepare is deterministic,
                // so trees/lists/indexes come back bit-identical), then
                // re-execute at the restored positions/charges.
                // PANIC-OK: both are the same molecule's n-atom charge arrays.
                self.base.work.charges.copy_from_slice(&self.charges);
                self.base.rebuild(&scaffold);
                self.rebuild_caches();
                self.full_execute(pool);
                self.base.lists_rebuilt += 1;
            }
        }
        true
    }

    /// Polarization energy (kcal/mol) of the current state.
    pub fn energy_kcal(&self) -> f64 {
        self.energy_kcal
    }

    /// Raw ordered-pair E_pol sum of the current state.
    pub fn raw(&self) -> f64 {
        self.raw
    }

    /// Born radii of the current state (Morton order; pair with
    /// [`DeltaEngine::system`]).
    pub fn born(&self) -> &[f64] {
        self.base.born()
    }

    /// FNV-1a digest of the Born radii in original atom order — the
    /// order-independent fingerprint the differential harness compares.
    pub fn born_digest(&self) -> u64 {
        checksum(&self.base.sys.to_original_atom_order(self.base.born()))
    }

    /// The underlying system snapshot.
    pub fn system(&self) -> &GbSystem {
        &self.base.sys
    }

    /// The underlying [`ListEngine`] (counters, skin, lists).
    pub fn engine(&self) -> &ListEngine {
        &self.base
    }

    /// Current positions, original atom order.
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Current charges, original atom order.
    pub fn charges(&self) -> &[f64] {
        &self.charges
    }

    /// Scaffold (reference) geometry the current trees/lists were built
    /// at, original atom order.
    pub fn reference_positions(&self) -> &[Vec3] {
        &self.base.reference
    }

    /// Total chunks across both lists — the denominator of the
    /// `chunks_redone < total_chunks` op-accounting contract.
    pub fn total_chunks(&self) -> usize {
        self.base.born_lists.n_chunks() + self.base.epol_lists.n_chunks()
    }

    /// Total list entries across both lists — the denominator of the
    /// `entries_redone` accounting.
    pub fn total_entries(&self) -> usize {
        self.base.born_lists.len() + self.base.epol_lists.len()
    }

    /// Perturbations currently on the undo stack.
    pub fn pending_perturbations(&self) -> usize {
        self.undo.len()
    }

    /// Resident bytes: the base engine plus the cached Born accumulators
    /// and E_pol outputs, the entry tables
    /// ([`DeltaEngine::entry_cache_bytes`]) and the bin generation.
    pub fn memory_bytes(&self) -> usize {
        let acc = &self.outputs.born;
        let floats = acc.node.capacity() + acc.atom.capacity() + self.outputs.epol.capacity();
        self.base.memory_bytes()
            + floats * std::mem::size_of::<f64>()
            + self.entry_cache_bytes()
            + self.bins.memory_bytes()
            + self.frames.memory_bytes()
    }

    /// Test hook: additively corrupt every cached Born far sum. Far sums
    /// are never recomputed by a query, so the corruption reaches the
    /// radius of every atom a later query moves (an identity query reads
    /// no Born state at all). The golden recall test uses this to prove
    /// a stale far sum cannot survive the differential harness.
    #[doc(hidden)]
    pub fn debug_corrupt_cached_born_outputs(&mut self, delta: f64) {
        for v in &mut self.outputs.born.node {
            *v += delta;
        }
    }

    /// Test hook: additively corrupt every cached E_pol Phase-A output
    /// (dirty entries recomputed by the next query overwrite their
    /// values, so whatever stays cached stays corrupted). The stale
    /// values reach the cached frame totals, as a stale value that
    /// entered the cache would.
    #[doc(hidden)]
    pub fn debug_corrupt_cached_epol_outputs(&mut self, delta: f64) {
        for v in &mut self.outputs.epol {
            *v += delta;
        }
        self.frames.fold_all(&self.outputs.epol);
    }

    /// Test hook: locate one near E_pol entry and an original-order atom
    /// inside its source node range — moving that atom must dirty that
    /// entry (plus whatever else covers the atom). The entry-granular
    /// recall harness pairs this with
    /// [`DeltaEngine::debug_corrupt_cached_epol_entry`].
    #[doc(hidden)]
    pub fn debug_near_epol_entry_probe(&self) -> (usize, usize) {
        let (i, e) = self
            .base
            .epol_lists
            .entries
            .iter()
            .enumerate()
            .find(|(_, e)| !e.far)
            .expect("interaction lists always hold near entries"); // PANIC-OK: test hook.
        let mi = self.base.sys.atoms.node(e.a).range().start;
        let oi = self.base.sys.atoms.point_order[mi] as usize; // PANIC-OK: test hook.
        (i, oi)
    }

    /// Test hook: additively corrupt exactly one cached E_pol *entry*'s
    /// value (entry-granular recall test — proves a single stale entry,
    /// the smallest unit the cache manages, cannot survive the
    /// differential harness unless a query marks that very entry dirty).
    /// The stale value reaches the totals of the entry's frames.
    #[doc(hidden)]
    pub fn debug_corrupt_cached_epol_entry(&mut self, entry: usize, delta: f64) {
        *self.outputs.epol.get_mut(entry).expect("entry in range") += delta; // PANIC-OK: test hook.
        self.frames
            .refold(&self.outputs.epol, &[entry as u32], &mut Vec::new());
    }
}

/// Entry ids grouped by atoms-tree node, in compact (CSR) form: node
/// `id`'s ids are `ids[off[id]..off[id + 1]]`, ascending. Its size is
/// `n_nodes + 1` offsets plus one id per `(node, entry)` claim.
#[derive(Clone, Debug, Default)]
struct NodeEntries {
    off: Vec<u32>,
    ids: Vec<u32>,
}

impl NodeEntries {
    /// Group the `(node, entry)` claims, listed in ascending entry order,
    /// by node.
    fn build(n_nodes: usize, claims: impl Iterator<Item = (NodeId, u32)>) -> Self {
        let mut of = vec![Vec::new(); n_nodes];
        for (node, e) in claims {
            if let Some(ids) = of.get_mut(node as usize) {
                ids.push(e);
            }
        }
        let mut end = 0;
        let ends = of.iter().map(|ids| {
            end += ids.len() as u32;
            end
        });
        NodeEntries { off: std::iter::once(0).chain(ends).collect(), ids: of.concat() }
    }

    /// The entries of node `id`, ascending.
    fn of(&self, id: NodeId) -> &[u32] {
        let at = |i: usize| self.off.get(i).map_or(0, |&o| o as usize);
        self.ids.get(at(id as usize)..at(id as usize + 1)).unwrap_or_default()
    }

    fn memory_bytes(&self) -> usize {
        (self.off.capacity() + self.ids.capacity()) * std::mem::size_of::<u32>()
    }
}

/// The root-to-leaf path of `tree` to the leaf holding Morton atom `mi`.
fn path_to(tree: &Octree, mi: usize) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::successors(Some(0), move |&id| {
        tree.node(id).children().find(|&c| tree.node(c).range().contains(&mi))
    })
}

/// The nodes of `tree` holding one of `atoms` (Morton indices): their
/// root-to-leaf paths, sorted and deduplicated.
fn ancestors<'a>(tree: &Octree, atoms: impl Iterator<Item = &'a usize>) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = atoms.flat_map(|&mi| path_to(tree, mi)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// The sorted, deduplicated `moved` atoms that lie in `range`.
fn moved_in(moved: &[usize], range: Range<usize>) -> &[usize] {
    let lo = moved.partition_point(|&m| m < range.start);
    let hi = moved.partition_point(|&m| m < range.end);
    moved.get(lo..hi).unwrap_or_default()
}

/// The near Born terms of entry `e` for the moved atoms in its atom
/// range, in index order: one [`GbSystem::born_block_terms`] pass over
/// the span from the first to the last of them, keeping their rows. An
/// atom's term starts at `0.0` and takes the q-points in order whatever
/// block it sits in, so these are the bits a whole-entry pass gives
/// those atoms. Dirty entries are near records, never far ones.
fn moved_rows(sys: &GbSystem, e: &ListEntry, moved: &[usize]) -> Vec<f64> {
    let atoms = moved_in(moved, sys.atoms.node(e.a).range());
    let mut out = Vec::with_capacity(atoms.len());
    if let (Some(&first), Some(&last)) = (atoms.first(), atoms.last()) {
        let qv = sys.q_arena.view(sys.qtree.node(e.b).range());
        let mut next = atoms.iter().peekable();
        sys.born_block_terms(qv, first..last + 1, |ai, t| {
            if next.next_if_eq(&&ai).is_some() {
                out.push(t);
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::EpolLists;
    use crate::params::EpolFar;
    use crate::soa::StillScratch;
    use polaroct_molecule::{synth, Atom, Element};
    use polaroct_octree::NodeId;

    fn mol(n: usize, seed: u64) -> Molecule {
        synth::protein("delta", n, seed)
    }

    /// Fresh-reference energy for the engine's current state: an
    /// independent ListEngine prepared at the scaffold with the current
    /// charges, evaluated (full, all chunks) at the current positions.
    fn fresh_reference(eng: &DeltaEngine, approx: &ApproxParams, skin: f64) -> (f64, f64, u64) {
        fresh_reference_from(eng, &mol(eng.positions().len(), 0), approx, skin)
    }

    /// [`fresh_reference`] with the non-geometric fields of `template`.
    fn fresh_reference_from(
        eng: &DeltaEngine,
        template: &Molecule,
        approx: &ApproxParams,
        skin: f64,
    ) -> (f64, f64, u64) {
        let mut m = Molecule {
            positions: eng.reference_positions().to_vec(),
            charges: eng.charges().to_vec(),
            ..template.clone()
        };
        m.radii = eng
            .system()
            .to_original_atom_order(&eng.system().radius)
            .to_vec();
        let mut fresh = ListEngine::new(&m, approx, skin);
        let eval = fresh.evaluate(eng.positions());
        let digest = checksum(&fresh.system().to_original_atom_order(fresh.born()));
        (eval.raw, eval.energy_kcal, digest)
    }

    #[test]
    fn single_move_matches_fresh_engine_bits() {
        let approx = ApproxParams::default();
        let skin = 1.0;
        let mut eng = DeltaEngine::new(&mol(150, 3), &approx, skin);
        let p = Perturbation::default().move_atom(17, eng.positions()[17] + Vec3::new(0.2, -0.1, 0.15));
        let eval = eng.apply_perturbation(&p, None);
        assert!(!eval.rebuilt);
        assert!(eval.chunks_redone < eval.total_chunks, "no work was skipped");
        assert!(eval.chunks_redone > 0);
        let (raw, energy, digest) = fresh_reference(&eng, &approx, skin);
        assert_eq!(eval.raw.to_bits(), raw.to_bits());
        assert_eq!(eval.energy_kcal.to_bits(), energy.to_bits());
        assert_eq!(eng.born_digest(), digest);
    }

    /// A small move can leave every bin vector and the `rr_table` as they
    /// were and change only node moments. The far entries of the moved
    /// atom's ancestors must then be redone, or the cached far values go
    /// stale.
    #[test]
    fn moment_only_change_redoes_the_ancestors_far_entries() {
        let approx = ApproxParams::default();
        let skin = 0.4;
        let m = mol(1_200, 11);
        let mut eng = DeltaEngine::new(&m, &approx, skin);
        let (raw0, digest0) = (eng.raw(), eng.born_digest());
        let before = eng.bins.clone();
        // Far entries on a node holding Morton atom `mi`: the moved
        // atom's leaf and its ancestors.
        let far_on = |eng: &DeltaEngine, mi: usize| -> Vec<usize> {
            let (sys, lists) = (&eng.base.sys, &eng.base.epol_lists);
            let holds = |id: NodeId| sys.atoms.node(id).range().contains(&mi);
            (0..lists.len())
                .filter(|&i| {
                    let e = &lists.entries[i];
                    e.far && (holds(e.a) || holds(e.b))
                })
                .collect()
        };
        let mut found = None;
        for oi in 0..m.len() {
            let mi = eng.inv_order[oi] as usize;
            if far_on(&eng, mi).is_empty() {
                continue;
            }
            let p = Perturbation::default()
                .move_atom(oi, m.positions[oi] + Vec3::new(0.05, -0.03, 0.04));
            let eval = eng.apply_perturbation(&p, None);
            let bins = &eng.bins;
            if bits_equal(&bins.per_node, &before.per_node)
                && bits_equal(&bins.rr_table, &before.rr_table)
                && !bits_equal(&bins.moments, &before.moments)
            {
                found = Some((mi, eval));
                break;
            }
            assert!(eng.revert(None));
        }
        let (mi, eval) = found.expect("some move changes only the moments");
        assert!(!eval.rebuilt);
        let (raw, energy, digest) = fresh_reference(&eng, &approx, skin);
        assert_eq!(eval.raw.to_bits(), raw.to_bits());
        assert_eq!(eval.energy_kcal.to_bits(), energy.to_bits());
        assert_eq!(eng.born_digest(), digest);

        let Some(UndoRecord::Incremental { epol, .. }) = eng.undo.last() else {
            panic!("the query must be incremental");
        };
        let redone: std::collections::HashSet<usize> =
            epol.iter().map(|&(e, _)| e as usize).collect();
        let stale = far_on(&eng, mi).into_iter().filter(|i| !redone.contains(i)).count();
        assert_eq!(stale, 0, "far entries on the moved atom's ancestors went stale");

        assert!(eng.revert(None));
        assert_eq!(eng.raw().to_bits(), raw0.to_bits());
        assert_eq!(eng.born_digest(), digest0);
        let (raw, energy, digest) = fresh_reference(&eng, &approx, skin);
        assert_eq!(eng.raw().to_bits(), raw.to_bits());
        assert_eq!(eng.energy_kcal().to_bits(), energy.to_bits());
        assert_eq!(eng.born_digest(), digest);
    }

    #[test]
    fn charge_mutation_matches_fresh_engine_bits() {
        let approx = ApproxParams::default();
        let skin = 0.8;
        let mut eng = DeltaEngine::new(&mol(120, 9), &approx, skin);
        let p = Perturbation::default().set_charge(33, 2.5).set_charge(70, -1.25);
        let eval = eng.apply_perturbation(&p, None);
        assert!(!eval.rebuilt);
        // Charges don't feed Born radii at all.
        assert_eq!(eval.born_chunks_redone, 0);
        let (raw, energy, digest) = fresh_reference(&eng, &approx, skin);
        assert_eq!(eval.raw.to_bits(), raw.to_bits());
        assert_eq!(eval.energy_kcal.to_bits(), energy.to_bits());
        assert_eq!(eng.born_digest(), digest);
    }

    #[test]
    fn boundary_crossing_rebuilds_and_matches_fresh_prepare() {
        let approx = ApproxParams::default();
        let skin = 0.4;
        let m = mol(100, 5);
        let mut eng = DeltaEngine::new(&m, &approx, skin);
        let p = Perturbation::default().move_atom(8, m.positions[8] + Vec3::new(1.0, 0.0, 0.0));
        let eval = eng.apply_perturbation(&p, None);
        assert!(eval.rebuilt);
        assert_eq!(eval.chunks_cached, 0);
        // Past the boundary the scaffold is re-prepared at the perturbed
        // geometry, so the engine equals a fresh prepare of it.
        let mut pm = m.clone();
        pm.positions[8] += Vec3::new(1.0, 0.0, 0.0);
        let mut fresh = ListEngine::new(&pm, &approx, skin);
        let feval = fresh.evaluate(&pm.positions);
        assert_eq!(eval.raw.to_bits(), feval.raw.to_bits());
        assert_eq!(eval.energy_kcal.to_bits(), feval.energy_kcal.to_bits());
    }

    #[test]
    fn revert_restores_original_bits() {
        let approx = ApproxParams::default();
        let skin = 1.0;
        let m = mol(130, 7);
        let mut eng = DeltaEngine::new(&m, &approx, skin);
        let raw0 = eng.raw();
        let energy0 = eng.energy_kcal();
        let digest0 = eng.born_digest();
        let p1 = Perturbation::default()
            .move_atom(4, m.positions[4] + Vec3::new(0.1, 0.2, -0.1))
            .set_charge(60, 3.0);
        let p2 = Perturbation::default().move_atom(90, m.positions[90] + Vec3::new(-0.15, 0.0, 0.2));
        eng.apply_perturbation(&p1, None);
        eng.apply_perturbation(&p2, None);
        assert_eq!(eng.pending_perturbations(), 2);
        assert!(eng.revert(None));
        assert!(eng.revert(None));
        assert!(!eng.revert(None), "stack must be empty");
        assert_eq!(eng.raw().to_bits(), raw0.to_bits());
        assert_eq!(eng.energy_kcal().to_bits(), energy0.to_bits());
        assert_eq!(eng.born_digest(), digest0);
        for (a, b) in eng.positions().iter().zip(&m.positions) {
            assert_eq!(a, b);
        }
        for (a, b) in eng.charges().iter().zip(&m.charges) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pooled_queries_match_serial_bits() {
        let approx = ApproxParams::default();
        let pool = WorkStealingPool::new(3);
        let m = mol(140, 11);
        let two_moves = Perturbation::default()
            .move_atom(10, m.positions[10] + Vec3::new(0.2, 0.1, 0.0))
            .move_atom(77, m.positions[77] + Vec3::new(0.0, -0.2, 0.1));
        // A screen on one engine: six 4-atom queries, each reverted, so
        // pooled reverts run between pooled queries.
        let s = mol(120, 8);
        let screen: Vec<Perturbation> = (0..6)
            .map(|q| {
                (0..4).fold(Perturbation::default(), |p, k| {
                    let atom = (37 * q + 53 * k + 5) % s.len();
                    let sign = if (q + k) % 2 == 0 { 1.0 } else { -1.0 };
                    let d = Vec3::new(0.15, -0.1, 0.05 * k as f64) * sign;
                    p.move_atom(atom, s.positions[atom] + d)
                })
            })
            .collect();
        for (m, skin, queries) in [(&m, 1.0, vec![two_moves]), (&s, 0.8, screen)] {
            let mut serial = DeltaEngine::new(m, &approx, skin);
            let mut pooled = DeltaEngine::new(m, &approx, skin);
            for p in &queries {
                let es = serial.apply_perturbation(p, None);
                let ep = pooled.apply_perturbation(p, Some(&pool));
                assert!(!es.rebuilt, "the screen must stay incremental");
                assert_eq!(es.raw.to_bits(), ep.raw.to_bits());
                assert_eq!(es.chunks_redone, ep.chunks_redone);
                assert_eq!(ep.recovered_chunks, 0, "a healthy pool must not recover");
                assert_eq!(serial.born_digest(), pooled.born_digest());
                assert!(serial.revert(None));
                assert!(pooled.revert(Some(&pool)));
                assert_eq!(serial.raw().to_bits(), pooled.raw().to_bits());
                assert_eq!(serial.born_digest(), pooled.born_digest());
            }
        }
    }

    #[test]
    fn empty_perturbation_is_identity() {
        let approx = ApproxParams::default();
        let mut eng = DeltaEngine::new(&mol(80, 13), &approx, 0.5);
        let raw0 = eng.raw();
        let eval = eng.apply_perturbation(&Perturbation::default(), None);
        assert_eq!(eval.chunks_redone, 0);
        assert_eq!(eval.raw.to_bits(), raw0.to_bits());
        assert!(eng.revert(None));
        assert_eq!(eng.raw().to_bits(), raw0.to_bits());
    }

    #[test]
    fn corrupted_cache_is_caught_by_the_differential_harness() {
        let approx = ApproxParams::default();
        let skin = 1.0;
        let mut eng = DeltaEngine::new(&mol(110, 17), &approx, skin);
        eng.debug_corrupt_cached_epol_outputs(1e-3);
        // An identity query replays Phase B over the (corrupted) cache.
        let eval = eng.apply_perturbation(&Perturbation::default(), None);
        let (raw, _, _) = fresh_reference(&eng, &approx, skin);
        assert_ne!(
            eval.raw.to_bits(),
            raw.to_bits(),
            "a stale cached chunk must be visible to the harness"
        );
    }

    #[test]
    fn entry_tables_counted_in_memory_bytes() {
        let m = mol(100, 29);
        let eng = DeltaEngine::new(&m, &ApproxParams::default(), 0.8);
        assert!(eng.entry_cache_bytes() > 0);
        assert!(eng.memory_bytes() > eng.engine().memory_bytes() + eng.entry_cache_bytes());
    }

    #[test]
    #[should_panic]
    fn out_of_range_move_is_rejected() {
        let mut eng = DeltaEngine::new(&mol(40, 1), &ApproxParams::default(), 0.5);
        let p = Perturbation::default().move_atom(40, Vec3::ZERO);
        let _ = eng.apply_perturbation(&p, None);
    }
    /// Applies `p` and asserts the result is incremental and bit-equal to
    /// a fresh `ListEngine` (built from `template`'s non-geometric
    /// fields) at the perturbed state.
    fn assert_query_matches_fresh(
        eng: &mut DeltaEngine,
        template: &Molecule,
        p: &Perturbation,
        approx: &ApproxParams,
        skin: f64,
    ) -> DeltaEval {
        let eval = eng.apply_perturbation(p, None);
        assert!(!eval.rebuilt, "test queries stay inside the skin");
        let (raw, energy, digest) = fresh_reference_from(eng, template, approx, skin);
        assert_eq!(eval.raw.to_bits(), raw.to_bits());
        assert_eq!(eval.energy_kcal.to_bits(), energy.to_bits());
        assert_eq!(eng.born_digest(), digest);
        eval
    }

    #[test]
    fn far_sum_corruption_shows_only_where_a_query_reads_it() {
        let approx = ApproxParams::default();
        let skin = 1.0;
        let mut eng = DeltaEngine::new(&mol(110, 17), &approx, skin);
        let (raw0, digest0) = (eng.raw(), eng.born_digest());
        eng.debug_corrupt_cached_born_outputs(1e-3);
        // An identity query reads no Born state: the old bits stand.
        let eval = eng.apply_perturbation(&Perturbation::default(), None);
        assert_eq!(eval.raw.to_bits(), raw0.to_bits());
        assert_eq!(eng.born_digest(), digest0);
        // A moved atom's radius is pushed from the (corrupted) far sums.
        let p = Perturbation::default().move_atom(40, eng.positions()[40] + Vec3::new(0.1, 0.0, -0.1));
        let eval = eng.apply_perturbation(&p, None);
        let (raw, _, digest) = fresh_reference(&eng, &approx, skin);
        assert_ne!(eng.born_digest(), digest, "a stale far sum must reach the moved radius");
        assert_ne!(eval.raw.to_bits(), raw.to_bits(), "a stale far sum must reach the energy");
    }

    #[test]
    fn two_moved_atoms_in_one_leaf_match_fresh_bits() {
        let approx = ApproxParams::default();
        let skin = 1.0;
        let m = mol(200, 21);
        let mut eng = DeltaEngine::new(&m, &approx, skin);
        let sys = eng.system();
        let leaf = sys
            .atoms
            .leaf_ids
            .iter()
            .map(|&l| sys.atoms.node(l).range())
            .find(|r| r.len() >= 3)
            .expect("a leaf holds three atoms");
        // The first and third atom: the span between them holds an
        // unmoved row that must not be folded.
        let (a, b) = (
            sys.atoms.point_order[leaf.start] as usize,
            sys.atoms.point_order[leaf.start + 2] as usize,
        );
        let p = Perturbation::default()
            .move_atom(a, eng.positions()[a] + Vec3::new(0.12, -0.05, 0.08))
            .move_atom(b, eng.positions()[b] + Vec3::new(-0.07, 0.1, 0.02));
        let eval = assert_query_matches_fresh(&mut eng, &m, &p, &approx, skin);
        assert!(eval.born_chunks_redone > 0);
    }

    #[test]
    fn atom_listed_twice_matches_fresh_bits_and_reverts() {
        let approx = ApproxParams::default();
        let skin = 1.0;
        let m = mol(150, 8);
        let mut eng = DeltaEngine::new(&m, &approx, skin);
        let (raw0, digest0) = (eng.raw(), eng.born_digest());
        let p = Perturbation::default()
            .move_atom(31, m.positions[31] + Vec3::new(0.2, 0.1, 0.0))
            .move_atom(31, m.positions[31] + Vec3::new(-0.1, 0.15, 0.05));
        assert_query_matches_fresh(&mut eng, &m, &p, &approx, skin);
        assert_eq!(eng.positions()[31], m.positions[31] + Vec3::new(-0.1, 0.15, 0.05));
        assert!(eng.revert(None));
        assert_eq!(eng.raw().to_bits(), raw0.to_bits());
        assert_eq!(eng.born_digest(), digest0);
        assert_eq!(eng.positions()[31], m.positions[31]);
    }

    #[test]
    fn moved_atom_without_near_born_entry_matches_fresh_bits() {
        // A dense 7×7×7 grid with small leaves and a coarse Born ε: the
        // buried atoms see every surface leaf as far, so their leaves
        // hold no near Born record and their integrals are far sums only.
        let side = 7usize;
        let atoms = (0..side * side * side).map(|i| {
            let (x, y, z) = (i % side, i / side % side, i / side / side);
            Atom {
                pos: Vec3::new(x as f64, y as f64, z as f64) * 1.6,
                radius: 1.7,
                charge: if i % 2 == 0 { 0.5 } else { -0.5 },
                element: Element::C,
            }
        });
        let m = Molecule::from_atoms("grid", atoms);
        let approx = ApproxParams {
            leaf_cap_atoms: 4,
            leaf_cap_qpoints: 8,
            ..ApproxParams::default()
        }
        .with_eps(5.0, 0.5);
        let skin = 1.0;
        let mut eng = DeltaEngine::new(&m, &approx, skin);
        let mi = (0..m.len())
            .find(|&mi| {
                let leaf = path_to(&eng.system().atoms, mi).last();
                leaf.is_some_and(|l| eng.born_near(l).next().is_none())
            })
            .expect("a buried atom has no near Born entry");
        let oi = eng.system().atoms.point_order[mi] as usize;
        let p = Perturbation::default().move_atom(oi, m.positions[oi] + Vec3::new(0.1, 0.1, -0.1));
        let eval = assert_query_matches_fresh(&mut eng, &m, &p, &approx, skin);
        assert_eq!(eval.born_chunks_redone, 0);
    }

    #[test]
    fn sixty_four_moves_on_300_atoms_match_fresh_bits() {
        let approx = ApproxParams::default();
        let skin = 1.0;
        let m = mol(300, 6);
        let mut eng = DeltaEngine::new(&m, &approx, skin);
        let (raw0, digest0) = (eng.raw(), eng.born_digest());
        let mut p = Perturbation::default();
        for k in 0..64usize {
            let oi = (k * 37 + 5) % 300;
            let s = (k % 7) as f64 / 7.0 - 0.5;
            p = p.move_atom(oi, m.positions[oi] + Vec3::new(0.3 * s, -0.2 * s, 0.25));
        }
        assert_query_matches_fresh(&mut eng, &m, &p, &approx, skin);
        assert!(eng.revert(None));
        assert_eq!(eng.raw().to_bits(), raw0.to_bits());
        assert_eq!(eng.born_digest(), digest0);
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        assert!(bits_equal(a, b), "{what} differ");
    }

    /// The engine's in-place caches against what a full pass builds: the
    /// cached root total against [`EpolLists::apply`] over the cached
    /// values, the bins against [`ChargeBins::for_params`], and the raw
    /// sum, energy and radii against a fresh [`ListEngine`].
    fn assert_caches_match_fresh(
        eng: &DeltaEngine,
        template: &Molecule,
        approx: &ApproxParams,
        skin: f64,
    ) {
        let replayed = eng.base.epol_lists.apply(&eng.outputs.epol);
        assert_eq!(
            eng.frames.root().to_bits(),
            replayed.to_bits(),
            "cached root total"
        );
        assert_eq!(
            eng.raw().to_bits(),
            replayed.to_bits(),
            "raw vs the replayed fold"
        );

        let (bins, fresh) = (
            &eng.bins,
            ChargeBins::for_params(&eng.base.sys, &eng.base.born, approx),
        );
        assert_eq!(
            (bins.m_eps, bins.r_min.to_bits()),
            (fresh.m_eps, fresh.r_min.to_bits())
        );
        assert_eq!(bins.atom_bin, fresh.atom_bin, "atom bins differ");
        assert_bits(&bins.per_node, &fresh.per_node, "node bins");
        assert_bits(&bins.moments, &fresh.moments, "node moments");
        assert_bits(&bins.rr_table, &fresh.rr_table, "rr tables");

        let (raw, energy, digest) = fresh_reference_from(eng, template, approx, skin);
        assert_eq!(
            eng.raw().to_bits(),
            raw.to_bits(),
            "raw vs a fresh ListEngine"
        );
        assert_eq!(eng.energy_kcal().to_bits(), energy.to_bits());
        assert_eq!(eng.born_digest(), digest);
    }

    /// Chains of mixed queries applied without reverting, then unwound
    /// LIFO, under both far rules. One query moves the atom with the
    /// smallest Born radius, which changes `R_min`: the bins take the
    /// whole-table path there and the in-place path everywhere else. At
    /// this size the one-atom queries re-fold some frames and the
    /// four-atom ones all of them. The caches match a full pass after
    /// every apply and every revert, and every dirty E_pol set is closed
    /// under mirrors.
    #[test]
    fn mixed_query_chains_keep_bins_and_frames_fresh() {
        let skin = 1.0;
        let m = mol(500, 4);
        for far in [EpolFar::default(), EpolFar::Binned] {
            let approx = ApproxParams {
                epol_far: far,
                ..ApproxParams::default()
            };
            let mut eng = DeltaEngine::new(&m, &approx, skin);
            let (raw0, digest0) = (eng.raw(), eng.born_digest());
            let smallest = {
                let born = eng.born();
                let mi = (0..born.len())
                    .min_by(|&a, &b| born[a].total_cmp(&born[b]))
                    .expect("atoms");
                eng.system().atoms.point_order[mi] as usize
            };
            let at = |oi: usize, d: Vec3| m.positions[oi] + d;
            let d = |k: usize| {
                Vec3::new(0.12, -0.08, 0.05) * if k.is_multiple_of(2) { 1.0 } else { -1.0 }
            };
            let four = |first: usize| {
                (0..4).fold(Perturbation::default(), |p, k| {
                    let oi = (first + 61 * k) % m.len();
                    p.move_atom(oi, at(oi, d(k)))
                })
            };
            let chain = [
                Perturbation::default().move_atom(17, at(17, d(0))),
                Perturbation::default().set_charge(140, -0.75),
                four(33),
                Perturbation::default()
                    .move_atom(smallest, at(smallest, Vec3::new(0.2, -0.15, 0.1))),
                Perturbation::default()
                    .move_atom(211, at(211, d(1)))
                    .set_charge(5, 0.9),
                four(120),
                Perturbation::default().set_charge(17, 1.5),
            ];
            let (mut whole, mut in_place, mut some_frames, mut mirrored) = (0, 0, 0, 0);
            for p in &chain {
                let eval = eng.apply_perturbation(p, None);
                assert!(!eval.rebuilt, "the chain stays inside the skin");
                let Some(UndoRecord::Incremental { bins, frames, epol, .. }) = eng.undo.last() else {
                    panic!("the query must be incremental");
                };
                let dirty: std::collections::HashSet<u32> = epol.iter().map(|&(e, _)| e).collect();
                for &e in &dirty {
                    if let Some(p) = eng.base.epol_lists.entries[e as usize].mirror() {
                        assert!(dirty.contains(&(p as u32)), "entry {e} is dirty, its mirror {p} clean");
                        mirrored += 1;
                    }
                }
                match bins {
                    BinsUndo::Whole(_) => whole += 1,
                    BinsUndo::Nodes { nodes, .. } => in_place += usize::from(!nodes.is_empty()),
                }
                some_frames += usize::from(frames.len() < eng.frames.len());
                assert_caches_match_fresh(&eng, &m, &approx, skin);
            }
            assert!(whole >= 1, "no query changed the bin layout");
            assert!(in_place >= 1, "no query changed a node in place");
            assert!(some_frames >= 1, "every query re-folded every frame");
            assert!(mirrored > 0, "no dirty entry had a mirror");
            while eng.revert(None) {
                assert_caches_match_fresh(&eng, &m, &approx, skin);
            }
            assert_eq!(eng.raw().to_bits(), raw0.to_bits());
            assert_eq!(eng.born_digest(), digest0);
        }
    }

    /// The node-keyed tables against a brute-force scan of the lists: for
    /// every atom, the near entries of its leaf are the near entries whose
    /// `a` (or, for E_pol, `b`) range holds it; for every node, its far
    /// E_pol entries are the far entries on it. Both far rules, at the
    /// first scaffold and after a skin-crossing rebuild.
    #[test]
    fn node_tables_match_a_brute_force_scan() {
        let (skin, m) = (0.4, mol(500, 12));
        for far in [EpolFar::default(), EpolFar::Binned] {
            let approx = ApproxParams {
                epol_far: far,
                ..ApproxParams::default()
            };
            let mut eng = DeltaEngine::new(&m, &approx, skin);
            for scaffold in ["first", "rebuilt"] {
                let (sys, tree) = (&eng.base.sys, &eng.base.sys.atoms);
                let (born, epol) = (&eng.base.born_lists.entries, &eng.base.epol_lists.entries);
                let holds = |id: NodeId, mi: usize| tree.node(id).range().contains(&mi);
                let near_epol = epol.iter().filter(|e| !e.far).count();
                assert!(near_epol > 0 && near_epol < epol.len(), "{scaffold}: near and far entries");
                for mi in 0..sys.n_atoms() {
                    let leaf = path_to(tree, mi).last();
                    let got: Vec<u32> = leaf.iter().flat_map(|&l| eng.born_near(l)).collect();
                    let want: Vec<u32> = (0u32..)
                        .zip(born)
                        .filter(|(_, e)| !e.far && holds(e.a, mi))
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(got, want, "{scaffold}: near Born entries of atom {mi}");
                    let got: Vec<u32> = leaf.iter().flat_map(|&l| eng.epol_near.of(l)).copied().collect();
                    let want: Vec<u32> = (0u32..)
                        .zip(epol)
                        .filter(|(_, e)| !e.far && (holds(e.a, mi) || holds(e.b, mi)))
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(got, want, "{scaffold}: near E_pol entries of atom {mi}");
                }
                for id in 0..tree.nodes.len() as NodeId {
                    let want: Vec<u32> = (0u32..)
                        .zip(epol)
                        .filter(|(_, e)| e.far && (e.a == id || e.b == id))
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(eng.epol_far.of(id), want, "{scaffold}: far entries of node {id}");
                }
                let bound = 4 * (2 * (tree.nodes.len() + 1) + 2 * epol.len());
                assert!(eng.entry_cache_bytes() <= bound, "{scaffold}: tables outgrow the lists");
                // Push one atom past the skin: the next pass checks the
                // tables of the rebuilt scaffold.
                let p = Perturbation::default().move_atom(7, m.positions[7] + Vec3::new(0.5, 0.0, 0.0));
                assert!(eng.apply_perturbation(&p, None).rebuilt || scaffold == "rebuilt");
            }
        }
    }

    /// The query's E_pol write path: every dirty slot gets `run_entry`'s
    /// bits and one undo record, serially, at every pool width and after
    /// a lost chunk group. Dirty pairs share a tile; an entry whose
    /// mirror is clean runs alone.
    #[test]
    fn paired_epol_reexecution_matches_run_entry_per_entry() {
        let approx = ApproxParams::default();
        let mut eng = DeltaEngine::new(&mol(300, 3), &approx, 1.0);
        let entries = &eng.base.epol_lists.entries;
        // A pseudo-random two thirds of the entries: most mirrors are
        // dirty together, some entries lose theirs, far entries ride along.
        let dirty: Vec<u32> = (0..entries.len() as u32)
            .filter(|e| e.wrapping_mul(0x9e37_79b9) >> 29 < 5)
            .collect();
        let in_dirty = |p: usize| dirty.binary_search(&(p as u32)).is_ok();
        let mirrors = |e: &u32| entries[*e as usize].mirror();
        assert!(dirty.iter().filter_map(mirrors).any(in_dirty), "no dirty pair");
        assert!(
            dirty.iter().filter_map(mirrors).any(|p| !in_dirty(p)),
            "no entry with a clean mirror"
        );
        let mut scratch = StillScratch::default();
        let want: Vec<u64> = dirty
            .iter()
            .map(|&e| {
                let (sys, math) = (&eng.base.sys, approx.math);
                let e = &entries[e as usize];
                EpolLists::run_entry(sys, &eng.bins, &eng.base.born, math, e, &mut scratch).to_bits()
            })
            .collect();
        let groups = by_chunk(&eng.base.epol_lists.chunks, &dirty).count();
        let mut check = |pool: Option<&WorkStealingPool>, poison: Option<usize>| {
            for &e in &dirty {
                eng.outputs.epol[e as usize] = f64::NAN;
            }
            let mut recovered = 0;
            let mut undo = eng.epol_per_entry(&dirty, pool, poison, &mut recovered);
            assert_eq!(recovered, u32::from(poison.is_some()), "only the lost group re-runs");
            undo.sort_unstable_by_key(|&(e, _)| e);
            assert!(undo.iter().map(|&(e, _)| e).eq(dirty.iter().copied()));
            assert!(undo.iter().all(|&(_, old)| old.is_nan()));
            let got: Vec<u64> = dirty.iter().map(|&e| eng.outputs.epol[e as usize].to_bits()).collect();
            assert_eq!(got, want, "pool {:?} poison {poison:?}", pool.map(|_| ()));
        };
        check(None, None);
        for width in [1, 3] {
            check(Some(&WorkStealingPool::new(width)), None);
        }
        check(Some(&WorkStealingPool::new(3)), Some(groups / 2));
    }
}
