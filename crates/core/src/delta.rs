//! Incremental ΔE_pol perturbation engine: recompute only what changed.
//!
//! [`ListEngine`] reuses lists while nothing moved past the Verlet skin,
//! but every `evaluate` still re-runs *all* Phase-A chunks. For mutation /
//! perturbation scans (ROADMAP item 3) that is the wrong cost model:
//! moving k atoms should cost what those atoms touch, not a full
//! re-execution.
//!
//! [`DeltaEngine`] upgrades a [`ListEngine`] with cached phase state and
//! an entry-granular dirtiness protocol (DESIGN.md §15–16):
//!
//! * **Inverted indexes** ([`polaroct_sched::CoverageIndex`], built once
//!   per scaffold): Morton atom → the Born entries whose near records
//!   read that atom's position; the same map for the E_pol list;
//!   atoms-tree node → E_pol entries holding a far record on that node.
//! * A [`Perturbation`] query writes the moved positions / mutated
//!   charges through the O(k) subset-refresh paths
//!   ([`GbSystem::refresh_atom_subset`] / [`GbSystem::set_atom_charge`]),
//!   marks dirty entries from the indexes, and re-executes **only
//!   those** through the same pure kernels the full pipeline runs.
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
//! * **E_pol, per pair.** Each entry's Phase-A output is one value at
//!   `entry - chunk.start` of its chunk's cached stream, written in
//!   place. A dirty entry whose mirror is dirty too shares one STILL
//!   tile with it ([`crate::soa::still_pair_block`], the lower-indexed
//!   entry evaluates it), as in the full Phase A. Phase B then replays
//!   the serial sum tree over **all** chunks in emission order. A clean
//!   entry's cached value is bitwise what a fresh execution would produce
//!   (its operands read only unchanged inputs — that is what "clean"
//!   means), so the fold consumes identical floats in identical order
//!   and the perturbed energy is **bit-identical to a fresh full run by
//!   construction**.
//! * [`ChargeBins`]: the bin layout derives from the *global* Born-radius
//!   extremes, so one changed radius can relabel every node's bins.
//!   The engine rebuilds bins every query (O(M·M_ε), serial) and diffs
//!   the per-node bin vectors and the `rr_table` bitwise against the
//!   cached generation; far entries are dirty exactly where their
//!   endpoints' bins (or the shared table) changed.
//!
//! Queries whose cumulative displacement exceeds `skin/2` fall back to a
//! full rebuild at the perturbed geometry — the same boundary, and the
//! same resulting state, as [`ListEngine::evaluate`].
//!
//! [`DeltaEngine::revert`] pops the last perturbation: an incremental
//! query is undone by restoring the saved positions/charges, the moved
//! atoms' integrals and radii, the replaced E_pol values, the bins and
//! the totals directly (bit-exact, no recomputation); a rebuilt query is
//! undone by deterministically rebuilding the previous scaffold and
//! re-executing (prepare is a pure function, so the restored state is
//! bit-identical too). Scoring N independent candidates against one base
//! state is therefore an apply → revert loop.
//!
//! The FT story is the list engine's, unchanged: dirty units fan out
//! over [`WorkStealingPool::try_map`], a poisoned unit's panic is
//! contained, and the lost slot is re-executed serially by the same pure
//! kernel before the fold ([`DeltaEngine::apply_perturbation_ft`]).

use crate::born::push_integrals_to_atoms;
use crate::epol::ChargeBins;
use crate::gb::epol_from_raw_sum;
use crate::lists::{
    no_faults, recovering_map, EpolLists, ListEngine, ListEntry, ListSource, PhaseOutputs, Pipeline,
};
use crate::params::ApproxParams;
use crate::soa::{still_pair_block, StillScratch};
use crate::system::GbSystem;
use polaroct_cluster::comm::checksum;
use polaroct_cluster::fault::{phase, FaultKind, FaultPlan};
use polaroct_geom::Vec3;
use polaroct_molecule::Molecule;
use polaroct_sched::{CoverageIndex, WorkStealingPool};
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
        /// `(chunk, offset, old value)` for every re-executed E_pol entry.
        epol: Vec<(u32, u32, f64)>,
        bins: ChargeBins,
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

/// Incremental perturbation engine over a prepared [`ListEngine`]. See
/// the module docs for the dirtiness protocol and the bit-identity
/// argument.
pub struct DeltaEngine {
    base: ListEngine,
    /// Cached Born Phase-B accumulators and E_pol Phase-A outputs (one
    /// vector per chunk).
    outputs: PhaseOutputs,
    /// Morton atom → Born entries with a near record reading it.
    born_entry_touch: CoverageIndex,
    /// Morton atom → E_pol entries with a near record reading it.
    epol_entry_touch: CoverageIndex,
    /// Atoms-tree node → E_pol entries holding a far record on it.
    epol_far_entry_nodes: CoverageIndex,
    /// E_pol entries that are far records (for a global bin relayout).
    epol_far_entries: Vec<u32>,
    /// Bin generation the cached far-entry outputs were computed with.
    bins: ChargeBins,
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

impl ListEngine {
    /// Upgrade this engine into the incremental perturbation engine
    /// (`core::delta`): caches the phase state, builds the dirtiness
    /// indexes, and serves [`DeltaEngine::apply_perturbation`] /
    /// [`DeltaEngine::revert`] queries from then on.
    pub fn into_delta(self) -> DeltaEngine {
        DeltaEngine::from_engine(self)
    }
}

impl DeltaEngine {
    /// Build a fresh engine at the molecule's geometry (counts as the
    /// first rebuild, like [`ListEngine::new`]). Pays one Born pass: the
    /// scaffold is built without radii and executed in full once.
    pub fn new(mol: &Molecule, approx: &ApproxParams, skin: f64) -> DeltaEngine {
        DeltaEngine::from_engine(ListEngine::scaffold_only(mol, approx, skin))
    }

    /// Adopt a prepared [`ListEngine`]: recover its current positions
    /// from the Morton snapshot, then execute one full pass to populate
    /// the caches.
    pub fn from_engine(base: ListEngine) -> DeltaEngine {
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
            born_entry_touch: CoverageIndex::default(),
            epol_entry_touch: CoverageIndex::default(),
            epol_far_entry_nodes: CoverageIndex::default(),
            epol_far_entries: Vec::new(),
            bins: ChargeBins::default(),
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
    /// permutation and the entry-level coverage indexes.
    fn rebuild_caches(&mut self) {
        let n = self.base.sys.n_atoms();
        let mut inv = vec![0u32; n];
        for (mi, &oi) in self.base.sys.atoms.point_order.iter().enumerate() {
            // PANIC-OK: point_order is a permutation of 0..n by construction.
            inv[oi as usize] = mi as u32;
        }
        self.inv_order = inv;

        let sys = &self.base.sys;
        let born = &self.base.born_lists;
        self.born_entry_touch = CoverageIndex::build(
            n,
            born.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.far)
                .map(|(i, e)| (sys.atoms.node(e.a).range(), i as u32)),
        );

        let epol = &self.base.epol_lists;
        self.epol_entry_touch = CoverageIndex::build(
            n,
            epol.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.far)
                .flat_map(|(i, e)| {
                    [
                        (sys.atoms.node(e.a).range(), i as u32),
                        (sys.atoms.node(e.b).range(), i as u32),
                    ]
                }),
        );
        self.epol_far_entry_nodes = CoverageIndex::build(
            sys.atoms.nodes.len(),
            epol.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.far)
                .flat_map(|(i, e)| {
                    [
                        (e.a as usize..e.a as usize + 1, i as u32),
                        (e.b as usize..e.b as usize + 1, i as u32),
                    ]
                }),
        );
        self.epol_far_entries = epol
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.far)
            .map(|(i, _)| i as u32)
            .collect();
    }

    /// Resident bytes of the entry-granular tables alone (the coverage
    /// indexes and the far-entry list).
    pub fn entry_cache_bytes(&self) -> usize {
        self.epol_far_entries.capacity() * std::mem::size_of::<u32>()
            + self.born_entry_touch.memory_bytes()
            + self.epol_entry_touch.memory_bytes()
            + self.epol_far_entry_nodes.memory_bytes()
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
        // atom range contains a moved atom (far records read only frozen
        // node aggregates and can never go stale).
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
        let mut dirty: Vec<u32> = moved
            .iter()
            .flat_map(|&mi| self.born_entry_touch.chunks_for(mi))
            .copied()
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        let poison = poison_at(dirty.len(), phase::INTEGRALS);
        let (born_undo, born_changed) =
            self.born_per_atom(&moved, &dirty, pool, poison, &mut recovered);
        let born_chunks_redone = chunks_touched(&self.base.born_lists.chunks, &dirty, |_, _, _| {});
        let born_entries_redone = dirty.len();

        // ---- E_pol dirtiness: near entries reading a moved, recharged
        // or re-radiused atom, plus far entries whose bins changed. The
        // bin generation is rebuilt (cheap, serial) and compared bitwise:
        // a changed rr_table or bin count invalidates every far entry;
        // otherwise only far entries on a node whose bin vector changed.
        let new_bins =
            ChargeBins::build(&self.base.sys, &self.base.born, self.base.approx.eps_epol);
        let mut dirty: Vec<u32> = Vec::new();
        for &mi in moved_m.iter().chain(&charged_m).chain(&born_changed) {
            dirty.extend_from_slice(self.epol_entry_touch.chunks_for(mi));
        }
        let table_changed = new_bins.m_eps != self.bins.m_eps
            || new_bins.rr_table.len() != self.bins.rr_table.len()
            || new_bins
                .rr_table
                .iter()
                .zip(&self.bins.rr_table)
                .any(|(a, b)| a.to_bits() != b.to_bits());
        if table_changed {
            dirty.extend_from_slice(&self.epol_far_entries);
        } else {
            let m = new_bins.m_eps.max(1);
            for (node, (a, b)) in new_bins
                .per_node
                .chunks(m)
                .zip(self.bins.per_node.chunks(m))
                .enumerate()
            {
                if a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
                    dirty.extend_from_slice(self.epol_far_entry_nodes.chunks_for(node));
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        let old_bins = std::mem::replace(&mut self.bins, new_bins);
        let units = mirror_units(&self.base.epol_lists.entries, &dirty);
        let poison = poison_at(units.len(), phase::EPOL);
        let fresh = self.epol_fresh(&dirty, &units, pool, poison, &mut recovered);

        // ---- Write the fresh values in place, saving the old ones.
        let mut epol_undo = Vec::with_capacity(dirty.len());
        let outputs = &mut self.outputs.epol;
        let epol_chunks_redone =
            chunks_touched(&self.base.epol_lists.chunks, &dirty, |c, off, k| {
                let slot = outputs.get_mut(c).and_then(|out| out.get_mut(off));
                if let (Some(slot), Some(&v)) = (slot, fresh.get(k)) {
                    epol_undo.push((c as u32, off as u32, *slot));
                    *slot = v;
                }
            });
        let epol_entries_redone = dirty.len();

        // ---- Phase B (E_pol): full sum-tree replay over all chunks.
        let raw = self.base.epol_lists.apply(&self.outputs.epol);
        let energy_kcal = epol_from_raw_sum(raw, self.base.approx.eps_solvent);

        let old_raw = std::mem::replace(&mut self.raw, raw);
        let old_energy = std::mem::replace(&mut self.energy_kcal, energy_kcal);
        self.undo.push(UndoRecord::Incremental {
            moves: old_moves,
            charges: old_charges,
            born: born_undo,
            epol: epol_undo,
            bins: old_bins,
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

    /// E_pol Phase A for the sorted `dirty` entries under the current
    /// bins and radii: one value per entry, aligned with `dirty`. `units`
    /// is [`mirror_units`]`(dirty)`: a dirty entry whose mirror is dirty
    /// too shares one STILL tile with it, and both values equal
    /// [`EpolLists::run_entry`]'s bits (DESIGN.md §12.4). Units run over
    /// `pool` when given (a `poison`ed unit is re-executed serially),
    /// serially with one reused scratch otherwise.
    fn epol_fresh(
        &self,
        dirty: &[u32],
        units: &[(usize, Option<usize>)],
        pool: Option<&WorkStealingPool>,
        poison: Option<usize>,
        recovered: &mut u32,
    ) -> Vec<f64> {
        let (sys, bins, born) = (&self.base.sys, &self.bins, &self.base.born[..]);
        let (entries, math) = (&self.base.epol_lists.entries, self.base.approx.math);
        let run = |&(k, mirror): &(usize, Option<usize>), scratch: &mut StillScratch| {
            // PANIC-OK: unit positions index `dirty`, whose ids index the entry list.
            let e = &entries[dirty[k] as usize];
            match mirror {
                Some(_) => {
                    let uv = sys.atom_arena.view(born, sys.atoms.node(e.a).range());
                    let vv = sys.atom_arena.view(born, sys.atoms.node(e.b).range());
                    still_pair_block(uv, vv, math, scratch)
                }
                None => (EpolLists::run_entry(sys, bins, born, math, e, scratch), 0.0),
            }
        };
        let vals: Vec<(f64, f64)> = match pool {
            None => {
                // One scratch serves every unit: the kernels are
                // write-before-read, so reuse cannot change bits (see
                // the stale-scratch kernel tests).
                let mut scratch = StillScratch::default();
                units.iter().map(|u| run(u, &mut scratch)).collect()
            }
            Some(_) => recovering_map(
                pool,
                units.len(),
                poison,
                // PANIC-OK: i < units.len() by the runner's index space.
                |i| run(&units[i], &mut StillScratch::default()),
                recovered,
            ),
        };
        let mut fresh = vec![0.0; dirty.len()];
        for (&(k, mirror), (own, other)) in units.iter().zip(vals) {
            fresh[k] = own; // PANIC-OK: unit positions index `dirty`.
            if let Some(j) = mirror {
                fresh[j] = other; // PANIC-OK: same.
            }
        }
        fresh
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
                    self.base.sys.set_atom_charge(mi, self.charges[oi]);
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
                for (c, off, old) in epol {
                    // PANIC-OK: slot saved from this engine's own streams.
                    self.outputs.epol[c as usize][off as usize] = old;
                }
                self.bins = bins;
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
        let floats = acc.node.capacity()
            + acc.atom.capacity()
            + self.outputs.epol.iter().map(Vec::capacity).sum::<usize>();
        self.base.memory_bytes()
            + floats * std::mem::size_of::<f64>()
            + self.entry_cache_bytes()
            + self.bins.memory_bytes()
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
    /// values, so whatever stays cached stays corrupted).
    #[doc(hidden)]
    pub fn debug_corrupt_cached_epol_outputs(&mut self, delta: f64) {
        for v in self.outputs.epol.iter_mut().flatten() {
            *v += delta;
        }
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
    #[doc(hidden)]
    pub fn debug_corrupt_cached_epol_entry(&mut self, entry: usize, delta: f64) {
        let chunks = &self.base.epol_lists.chunks;
        let c = chunks.partition_point(|r| r.end <= entry);
        let slot = chunks
            .get(c)
            .zip(self.outputs.epol.get_mut(c))
            .and_then(|(r, out)| out.get_mut(entry.checked_sub(r.start)?));
        *slot.expect("entry in range") += delta; // PANIC-OK: test hook.
    }
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

/// Re-execution units for the sorted dirty E_pol entries, as positions
/// in `dirty`: `(k, Some(j))` when entry `dirty[k]`'s mirror is
/// `dirty[j]` with `j > k` (the lower-indexed entry evaluates the shared
/// tile for both), `(k, None)` for an entry with no dirty mirror.
fn mirror_units(entries: &[ListEntry], dirty: &[u32]) -> Vec<(usize, Option<usize>)> {
    let mut units = Vec::with_capacity(dirty.len());
    for (k, &e) in dirty.iter().enumerate() {
        let mirror = entries
            .get(e as usize)
            .and_then(ListEntry::mirror)
            .and_then(|p| dirty.binary_search(&(p as u32)).ok());
        match mirror {
            // The lower-indexed mirror's unit covers this entry.
            Some(j) if j < k => {}
            _ => units.push((k, mirror)),
        }
    }
    units
}

/// Walk the sorted entry `ids` with one cursor over `chunks` (a
/// partition tiling the entry list in order), calling
/// `f(chunk, offset in chunk, position in ids)` for each. Returns the
/// number of distinct chunks holding an id.
fn chunks_touched(
    chunks: &[Range<usize>],
    ids: &[u32],
    mut f: impl FnMut(usize, usize, usize),
) -> usize {
    let (mut c, mut touched, mut last) = (0usize, 0usize, usize::MAX);
    for (k, &e) in ids.iter().enumerate() {
        let e = e as usize;
        while chunks.get(c).is_some_and(|r| r.end <= e) {
            c += 1;
        }
        let Some(r) = chunks.get(c) else { break };
        if c != last {
            touched += 1;
            last = c;
        }
        f(c, e - r.start, k);
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaroct_molecule::{synth, Atom, Element};

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
        let skin = 1.0;
        let m = mol(140, 11);
        let mut serial = DeltaEngine::new(&m, &approx, skin);
        let mut pooled = DeltaEngine::new(&m, &approx, skin);
        let pool = WorkStealingPool::new(3);
        let p = Perturbation::default()
            .move_atom(10, m.positions[10] + Vec3::new(0.2, 0.1, 0.0))
            .move_atom(77, m.positions[77] + Vec3::new(0.0, -0.2, 0.1));
        let es = serial.apply_perturbation(&p, None);
        let ep = pooled.apply_perturbation(&p, Some(&pool));
        assert_eq!(es.raw.to_bits(), ep.raw.to_bits());
        assert_eq!(es.chunks_redone, ep.chunks_redone);
        assert_eq!(ep.recovered_chunks, 0, "a healthy pool must not recover");
        assert_eq!(serial.born_digest(), pooled.born_digest());
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
            .find(|&mi| eng.born_entry_touch.chunks_for(mi).is_empty())
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

    #[test]
    fn paired_epol_reexecution_matches_run_entry_per_entry() {
        let approx = ApproxParams::default();
        let eng = DeltaEngine::new(&mol(300, 3), &approx, 1.0);
        let entries = &eng.base.epol_lists.entries;
        // A pseudo-random two thirds of the entries: most mirrors are
        // dirty together, some entries lose theirs, far entries ride along.
        let dirty: Vec<u32> = (0..entries.len() as u32)
            .filter(|e| e.wrapping_mul(0x9e37_79b9) >> 29 < 5)
            .collect();
        let units = mirror_units(entries, &dirty);
        assert!(units.iter().any(|u| u.1.is_some()), "no pair units");
        assert!(
            units.iter().any(|&(k, m)| m.is_none() && entries[dirty[k] as usize].mirror().is_some()),
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
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let mut recovered = 0;
        assert_eq!(bits(eng.epol_fresh(&dirty, &units, None, None, &mut recovered)), want);
        for width in [1, 3] {
            let pool = WorkStealingPool::new(width);
            assert_eq!(bits(eng.epol_fresh(&dirty, &units, Some(&pool), None, &mut recovered)), want);
        }
        assert_eq!(recovered, 0);
        let pool = WorkStealingPool::new(3);
        let poison = Some(units.len() / 2);
        let poisoned = eng.epol_fresh(&dirty, &units, Some(&pool), poison, &mut recovered);
        assert_eq!(bits(poisoned), want);
        assert_eq!(recovered, 1, "exactly the poisoned unit re-executes");
    }
}
