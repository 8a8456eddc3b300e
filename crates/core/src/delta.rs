//! Incremental ΔE_pol perturbation engine: recompute only what changed.
//!
//! PR 5's [`ListEngine`] already separates traversal from execution and
//! reuses lists while nothing moved past the Verlet skin — but every
//! `evaluate` still re-runs *all* Phase-A chunks. For mutation /
//! perturbation scans (ROADMAP item 3) that is the wrong cost model:
//! moving k atoms should cost O(k · affected-lists), not a full
//! re-execution.
//!
//! [`DeltaEngine`] upgrades a [`ListEngine`] with per-chunk output
//! caches for both lists and an entry-granular dirtiness protocol
//! (DESIGN.md §15–16):
//!
//! * **Inverted indexes** ([`polaroct_sched::CoverageIndex`], built once
//!   per scaffold): Morton atom → the Born entries whose near records
//!   read that atom's position; the same map for the E_pol list;
//!   atoms-tree node → E_pol entries holding a far record on that node.
//! * A [`Perturbation`] query writes the moved positions / mutated
//!   charges through the O(k) subset-refresh paths
//!   ([`GbSystem::refresh_atom_subset`] / [`GbSystem::set_atom_charge`]),
//!   marks dirty entries from the indexes, and re-executes **only
//!   those** through the same pure Phase-A kernels
//!   ([`crate::lists::BornLists::run_entry`] /
//!   [`crate::lists::EpolLists::run_entry`], which `run_chunk` itself
//!   loops over). The E_pol list is why the unit is the entry and not
//!   the chunk: its entries cannot be sorted by atom (Phase B replays
//!   the recursion's sum tree in emission order), so one moved atom
//!   touches a few entries in *most* chunks.
//! * Recomputed outputs are **spliced in place** into the cached
//!   per-chunk streams (each entry owns a fixed `[offset, offset+len)`
//!   span of its chunk's stream — [`crate::lists::BornLists::entry_out_len`]
//!   values
//!   for Born, exactly one for E_pol), and Phase B then replays the
//!   serial fold over **all** chunks in emission order. A clean entry's
//!   cached span is bitwise equal to what a fresh execution would
//!   produce (its operands read only unchanged inputs — that is what
//!   "clean" means), so the fold consumes identical floats in identical
//!   order and the perturbed energy is **bit-identical to a fresh full
//!   run by construction**.
//!
//! Scoring N independent candidates against one base state is an
//! apply → [`DeltaEngine::revert`] loop; revert restores the replaced
//! spans directly, so the loop pays no recomputation for the undo.
//!
//! Two global couplings need care (both are diffed, not assumed):
//!
//! * Born radii: recomputed for every atom each query (the serial
//!   apply + push pass is O(M·depth), far below kernel cost). Changed
//!   radii are detected *bitwise* against the previous vector and feed
//!   the E_pol near-entry dirtiness set — no reliance on the "only
//!   moved atoms change" theorem, though it holds for this kernel.
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
//! query is undone by restoring the saved positions/charges, chunk
//! outputs, Born vector, bins and totals directly (bit-exact, no
//! recomputation); a rebuilt query is undone by deterministically
//! rebuilding the previous scaffold and re-executing (prepare is a pure
//! function, so the restored state is bit-identical too).
//!
//! The FT story is the list engine's, unchanged: dirty entries fan out
//! over [`WorkStealingPool::try_map`], a poisoned entry's panic is
//! contained, and the lost slot is re-executed serially by the same pure
//! kernel before the apply pass ([`DeltaEngine::apply_perturbation_ft`]).

use crate::born::{push_integrals_to_atoms, BornAccumulators};
use crate::epol::ChargeBins;
use crate::gb::epol_from_raw_sum;
use crate::lists::ListEngine;
use crate::params::ApproxParams;
use crate::soa::StillScratch;
use crate::system::GbSystem;
use polaroct_cluster::comm::checksum;
use polaroct_cluster::fault::{phase, FaultKind, FaultPlan};
use polaroct_geom::Vec3;
use polaroct_molecule::Molecule;
use polaroct_sched::{CoverageIndex, WorkStealingPool};

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
    /// Born chunks holding at least one re-executed entry.
    pub born_chunks_redone: usize,
    /// E_pol chunks holding at least one re-executed entry.
    pub epol_chunks_redone: usize,
    /// Total chunks touched (`born + epol`; equals `total_chunks` on a
    /// rebuild).
    pub chunks_redone: usize,
    /// Chunks none of whose entries were re-executed.
    pub chunks_cached: usize,
    /// Total chunks across both lists.
    pub total_chunks: usize,
    /// Dirty list entries re-executed by this query (both lists).
    pub entries_redone: usize,
    /// List entries whose cached output spans were served as-is.
    pub entries_cached: usize,
    /// Total entries across both lists
    /// (`entries_redone + entries_cached`).
    pub total_entries: usize,
    /// Poisoned dirty entries recovered by serial re-execution (FT
    /// path).
    pub recovered_chunks: u32,
}

/// One replaced span of a cached Phase-A stream: `(chunk, offset, old
/// values)` — exactly one spliced entry's span.
type UndoSpan = (u32, u32, Vec<f64>);

/// Undo record for one applied perturbation (LIFO).
enum UndoRecord {
    /// Within-skin query: everything it replaced, restored directly.
    Incremental {
        /// Original-order `(atom, old_position)`, in application order.
        moves: Vec<(usize, Vec3)>,
        /// Original-order `(atom, old_charge)`, in application order.
        charges: Vec<(usize, f64)>,
        born_spans: Vec<UndoSpan>,
        epol_spans: Vec<UndoSpan>,
        born: Vec<f64>,
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
    /// Cached Phase-A outputs, one vector per chunk, for both lists.
    born_outputs: Vec<Vec<f64>>,
    epol_outputs: Vec<Vec<f64>>,
    /// Born entry id → owning chunk / offset of its span in that chunk's
    /// cached stream; E_pol entry id → owning chunk (its span is always
    /// one value at `entry - chunk.start`).
    born_entry_chunk: Vec<u32>,
    born_entry_offset: Vec<u32>,
    epol_entry_chunk: Vec<u32>,
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

/// Execute `n` dirty work units (entries or whole chunks) through a pure
/// kernel, optionally over a pool with one poisoned slot; a poisoned
/// unit's panic is contained by `try_map` and the slot is re-executed
/// serially by the same kernel (`recovered` counts them). Returns
/// outputs in slot order.
fn run_dirty_units<T, F>(
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
    match pool {
        Some(p) => {
            let (mut parts, _) = p.try_map(n, |k| {
                if Some(k) == poison {
                    // PANIC-OK: deliberate fault injection; contained by the pool's try_map.
                    panic!("injected worker panic in delta work slot {k}");
                }
                f(k)
            });
            parts
                .iter_mut()
                .enumerate()
                .map(|(k, slot)| {
                    slot.take().unwrap_or_else(|| {
                        *recovered += 1;
                        f(k)
                    })
                })
                .collect()
        }
        None => (0..n).map(&f).collect(),
    }
}

impl ListEngine {
    /// Upgrade this engine into the incremental perturbation engine
    /// (`core::delta`): caches every Phase-A chunk output, builds the
    /// dirtiness indexes, and serves [`DeltaEngine::apply_perturbation`]
    /// / [`DeltaEngine::revert`] queries from then on.
    pub fn into_delta(self) -> DeltaEngine {
        DeltaEngine::from_engine(self)
    }
}

impl DeltaEngine {
    /// Build a fresh engine at the molecule's geometry (counts as the
    /// first rebuild, like [`ListEngine::new`]).
    pub fn new(mol: &Molecule, approx: &ApproxParams, skin: f64) -> DeltaEngine {
        ListEngine::new(mol, approx, skin).into_delta()
    }

    /// Adopt a prepared [`ListEngine`]: recover its current positions
    /// from the Morton snapshot, then execute one full pass to populate
    /// the chunk caches.
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
            born_outputs: Vec::new(),
            epol_outputs: Vec::new(),
            born_entry_chunk: Vec::new(),
            born_entry_offset: Vec::new(),
            epol_entry_chunk: Vec::new(),
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
    /// permutation, the entry → chunk/offset splice maps and the
    /// entry-level coverage indexes.
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
        self.born_entry_chunk = polaroct_sched::chunk_lookup(&born.chunks, born.len());
        let mut offsets = vec![0u32; born.len()];
        for range in &born.chunks {
            let mut off = 0u32;
            for e in range.clone() {
                offsets[e] = off; // PANIC-OK: chunks tile 0..len() by construction.
                off += crate::lists::BornLists::entry_out_len(sys, &born.entries[e]) as u32;
            }
        }
        self.born_entry_offset = offsets;
        self.born_entry_touch = CoverageIndex::build(
            n,
            born.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.far)
                .map(|(i, e)| (sys.atoms.node(e.a).range(), i as u32)),
        );

        let epol = &self.base.epol_lists;
        self.epol_entry_chunk = polaroct_sched::chunk_lookup(&epol.chunks, epol.len());
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

    /// Resident bytes of the entry-granular tables alone (splice maps
    /// and coverage indexes).
    pub fn entry_cache_bytes(&self) -> usize {
        (self.born_entry_chunk.capacity()
            + self.born_entry_offset.capacity()
            + self.epol_entry_chunk.capacity()
            + self.epol_far_entries.capacity())
            * std::mem::size_of::<u32>()
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
        let nb = self.base.born_lists.n_chunks();
        let base = &self.base;
        let mut recovered = 0u32;
        self.born_outputs = run_dirty_units(
            pool,
            nb,
            None,
            |c| base.born_lists.run_chunk(&base.sys, c),
            &mut recovered,
        );
        let n = self.base.sys.n_atoms();
        let mut acc = BornAccumulators::zeros(&self.base.sys);
        self.base.born_lists.apply(&self.base.sys, &self.born_outputs, &mut acc);
        let mut born = vec![0.0; n];
        push_integrals_to_atoms(&self.base.sys, &acc, 0..n, self.base.approx.math, &mut born);
        self.bins = ChargeBins::build(&self.base.sys, &born, self.base.approx.eps_epol);

        let ne = self.base.epol_lists.n_chunks();
        let base = &self.base;
        let (bins, math) = (&self.bins, self.base.approx.math);
        self.epol_outputs = run_dirty_units(
            pool,
            ne,
            None,
            |c| base.epol_lists.run_chunk(&base.sys, bins, &born, math, c),
            &mut recovered,
        );
        self.raw = self.base.epol_lists.apply(&self.epol_outputs);
        self.energy_kcal = epol_from_raw_sum(self.raw, self.base.approx.eps_solvent);
        self.base.born = born;
    }

    /// Apply a perturbation and return the re-evaluated energy, bit-identical
    /// to a fresh full run (see the module docs for the exact contract).
    /// Dirty chunks run over `pool` when given, serially otherwise — the
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
    /// poisons one dirty chunk of the corresponding list; the pool
    /// contains the panic and the chunk is re-executed serially before
    /// the apply pass, so the query result is still bit-identical
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
        let mut dirty: Vec<u32> = moved_m
            .iter()
            .flat_map(|&mi| self.born_entry_touch.chunks_for(mi))
            .copied()
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        let poison = poison_at(dirty.len(), phase::INTEGRALS);
        let base = &self.base;
        let dirty_ref = &dirty;
        let fresh: Vec<Vec<f64>> = run_dirty_units(
            pool,
            dirty.len(),
            poison,
            |k| {
                let mut out = Vec::new();
                // PANIC-OK: k < dirty.len() by the runner's index space; ids index the entry list.
                let e = &base.born_lists.entries[dirty_ref[k] as usize];
                crate::lists::BornLists::run_entry(&base.sys, e, &mut out);
                out
            },
            &mut recovered,
        );
        let (undo_born_spans, born_chunks_redone) = self.splice_born_entries(&dirty, fresh);
        let born_entries_redone = dirty.len();

        // ---- Phase B (Born): full serial fold over all chunks in
        // emission order — cached outputs for clean chunks, fresh for
        // dirty — then the full push pass. Identical floats in identical
        // order to a fresh run.
        let mut acc = BornAccumulators::zeros(&self.base.sys);
        self.base.born_lists.apply(&self.base.sys, &self.born_outputs, &mut acc);
        let mut new_born = vec![0.0; n];
        push_integrals_to_atoms(&self.base.sys, &acc, 0..n, self.base.approx.math, &mut new_born);
        let born_changed: Vec<usize> = self
            .base
            .born
            .iter()
            .zip(&new_born)
            .enumerate()
            .filter_map(|(mi, (a, b))| (a.to_bits() != b.to_bits()).then_some(mi))
            .collect();

        // ---- E_pol dirtiness: near entries reading a moved, recharged
        // or re-radiused atom, plus far entries whose bins changed. The
        // bin generation is rebuilt (cheap, serial) and compared bitwise:
        // a changed rr_table or bin count invalidates every far entry;
        // otherwise only far entries on a node whose bin vector changed.
        let new_bins = ChargeBins::build(&self.base.sys, &new_born, self.base.approx.eps_epol);
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
        let math = self.base.approx.math;
        let poison = poison_at(dirty.len(), phase::EPOL);
        let base = &self.base;
        let dirty_ref = &dirty;
        let fresh: Vec<f64> = match pool {
            None => {
                // Serial fast path: one scratch reused across entries
                // (the kernels are write-before-read, so reuse cannot
                // change bits — see the stale-scratch kernel tests).
                let mut scratch = StillScratch::default();
                dirty
                    .iter()
                    .map(|&e| {
                        crate::lists::EpolLists::run_entry(
                            &base.sys,
                            &new_bins,
                            &new_born,
                            math,
                            // PANIC-OK: ids come from indexes built over this entry list.
                            &base.epol_lists.entries[e as usize],
                            &mut scratch,
                        )
                    })
                    .collect()
            }
            Some(_) => run_dirty_units(
                pool,
                dirty.len(),
                poison,
                |k| {
                    let mut scratch = StillScratch::default();
                    crate::lists::EpolLists::run_entry(
                        &base.sys,
                        &new_bins,
                        &new_born,
                        math,
                        // PANIC-OK: k < dirty.len(); ids index the entry list.
                        &base.epol_lists.entries[dirty_ref[k] as usize],
                        &mut scratch,
                    )
                },
                &mut recovered,
            ),
        };
        let (undo_epol_spans, epol_chunks_redone) = self.splice_epol_entries(&dirty, &fresh);
        let epol_entries_redone = dirty.len();

        // ---- Phase B (E_pol): full sum-tree replay over all chunks.
        let raw = self.base.epol_lists.apply(&self.epol_outputs);
        let energy_kcal = epol_from_raw_sum(raw, self.base.approx.eps_solvent);

        let old_born = std::mem::replace(&mut self.base.born, new_born);
        let old_bins = std::mem::replace(&mut self.bins, new_bins);
        let old_raw = std::mem::replace(&mut self.raw, raw);
        let old_energy = std::mem::replace(&mut self.energy_kcal, energy_kcal);
        self.undo.push(UndoRecord::Incremental {
            moves: old_moves,
            charges: old_charges,
            born_spans: undo_born_spans,
            epol_spans: undo_epol_spans,
            born: old_born,
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

    /// Splice freshly recomputed Born entry outputs into the cached
    /// per-chunk streams in place, returning the replaced spans (for
    /// undo) and the number of distinct chunks touched. `dirty` must be
    /// sorted — entry ids within a chunk are contiguous, so the touched
    /// chunk ids are non-decreasing and counted by a single scan.
    fn splice_born_entries(
        &mut self,
        dirty: &[u32],
        fresh: Vec<Vec<f64>>,
    ) -> (Vec<UndoSpan>, usize) {
        let mut spans = Vec::with_capacity(dirty.len());
        let mut chunks = 0usize;
        let mut last_chunk = u32::MAX;
        for (&e, v) in dirty.iter().zip(fresh) {
            let c = self.born_entry_chunk[e as usize]; // PANIC-OK: ids index the entry list.
            let off = self.born_entry_offset[e as usize] as usize; // PANIC-OK: same length.
            if c != last_chunk {
                chunks += 1;
                last_chunk = c;
            }
            // PANIC-OK: the entry's span lies inside its chunk's stream by construction.
            let dst = &mut self.born_outputs[c as usize][off..off + v.len()];
            spans.push((c, off as u32, dst.to_vec()));
            dst.copy_from_slice(&v); // PANIC-OK: fresh output has the entry's fixed span length.
        }
        (spans, chunks)
    }

    /// [`DeltaEngine::splice_born_entries`] for the E_pol list, where
    /// every entry's span is exactly one value at `entry - chunk.start`.
    fn splice_epol_entries(&mut self, dirty: &[u32], fresh: &[f64]) -> (Vec<UndoSpan>, usize) {
        let mut spans = Vec::with_capacity(dirty.len());
        let mut chunks = 0usize;
        let mut last_chunk = u32::MAX;
        for (&e, &v) in dirty.iter().zip(fresh) {
            let c = self.epol_entry_chunk[e as usize]; // PANIC-OK: ids index the entry list.
            // PANIC-OK: entry e lives in chunk c, so e >= chunk.start.
            let off = e as usize - self.base.epol_lists.chunks[c as usize].start;
            if c != last_chunk {
                chunks += 1;
                last_chunk = c;
            }
            // PANIC-OK: off < chunk len by construction.
            let slot = &mut self.epol_outputs[c as usize][off];
            spans.push((c, off as u32, vec![*slot]));
            *slot = v;
        }
        (spans, chunks)
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
                born_spans,
                epol_spans,
                born,
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
                // Spans within one record are disjoint (distinct dirty
                // units), so restore order is immaterial.
                for (c, off, old) in born_spans {
                    let off = off as usize;
                    // PANIC-OK: span saved from this engine's own streams.
                    self.born_outputs[c as usize][off..off + old.len()].copy_from_slice(&old);
                }
                for (c, off, old) in epol_spans {
                    let off = off as usize;
                    // PANIC-OK: span saved from this engine's own streams.
                    self.epol_outputs[c as usize][off..off + old.len()].copy_from_slice(&old);
                }
                self.base.born = born;
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

    /// Resident bytes: the base engine plus the output caches, the entry
    /// tables ([`DeltaEngine::entry_cache_bytes`]) and the bin generation.
    pub fn memory_bytes(&self) -> usize {
        let outputs: usize = self
            .born_outputs
            .iter()
            .chain(&self.epol_outputs)
            .map(|v| v.capacity() * 8)
            .sum();
        self.base.memory_bytes()
            + outputs
            + self.entry_cache_bytes()
            + self.bins.memory_bytes()
    }

    /// Test hook: additively corrupt every *cached* Phase-A Born output
    /// (dirty entries recomputed by the next query overwrite their spans,
    /// so whatever stays cached stays corrupted). The golden recall test
    /// uses this to prove a stale cached chunk cannot survive the
    /// differential harness.
    #[doc(hidden)]
    pub fn debug_corrupt_cached_born_outputs(&mut self, delta: f64) {
        for out in &mut self.born_outputs {
            for v in out.iter_mut() {
                *v += delta;
            }
        }
    }

    /// Test hook: locate one near Born entry and an original-order atom
    /// inside its node range — moving that atom must dirty exactly that
    /// entry (plus whatever else covers the atom). The entry-granular
    /// recall harness pairs this with
    /// [`DeltaEngine::debug_corrupt_cached_born_entry`].
    #[doc(hidden)]
    pub fn debug_near_born_entry_probe(&self) -> (usize, usize) {
        let born = &self.base.born_lists;
        let (i, e) = born
            .entries
            .iter()
            .enumerate()
            .find(|(_, e)| !e.far)
            .expect("interaction lists always hold near entries"); // PANIC-OK: test hook.
        let mi = self.base.sys.atoms.node(e.a).range().start;
        let oi = self.base.sys.atoms.point_order[mi] as usize; // PANIC-OK: test hook.
        (i, oi)
    }

    /// Test hook: additively corrupt exactly one cached Born *entry*'s
    /// output span (entry-granular recall test — proves a single stale
    /// entry span, the smallest corruptible unit the entry-granular
    /// cache manages, cannot survive the differential harness unless a
    /// query marks that very entry dirty).
    #[doc(hidden)]
    pub fn debug_corrupt_cached_born_entry(&mut self, entry: usize, delta: f64) {
        let born = &self.base.born_lists;
        assert!(entry < born.len(), "entry {entry} out of range"); // PANIC-OK: test hook.
        let c = self.born_entry_chunk[entry] as usize; // PANIC-OK: test hook; entry < len.
        let off = self.born_entry_offset[entry] as usize; // PANIC-OK: test hook; entry < len.
        let len = crate::lists::BornLists::entry_out_len(&self.base.sys, &born.entries[entry]);
        for v in &mut self.born_outputs[c][off..off + len] {
            *v += delta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaroct_molecule::synth;

    fn mol(n: usize, seed: u64) -> Molecule {
        synth::protein("delta", n, seed)
    }

    /// Fresh-reference energy for the engine's current state: an
    /// independent ListEngine prepared at the scaffold with the current
    /// charges, evaluated (full, all chunks) at the current positions.
    fn fresh_reference(eng: &DeltaEngine, approx: &ApproxParams, skin: f64) -> (f64, f64, u64) {
        let mut m = Molecule {
            positions: eng.reference_positions().to_vec(),
            charges: eng.charges().to_vec(),
            ..mol(eng.positions().len(), 0)
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
        eng.debug_corrupt_cached_born_outputs(1e-3);
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
}
