//! Minimal molecular-dynamics loop over the GB polarization forces.
//!
//! The paper situates its algorithm inside "molecular dynamics simulations
//! for determining the molecular conformation with minimal total free
//! energy" (§I). This module closes that loop at demonstration scale: a
//! velocity-Verlet integrator driven by [`crate::forces`] (plus an
//! optional harmonic restraint so a bare polarization surface — which is
//! not a full force field — stays bounded). It is the consumer that makes
//! the force API's contract concrete and testable (energy drift, time
//! reversibility).
//!
//! Energies and Born radii come from a persistent
//! [`crate::lists::ListEngine`]: octrees and interaction lists are built
//! with node bounds inflated by [`MdParams::skin`] and reused across
//! steps, rebuilt only when the tracked max displacement from the build
//! geometry exceeds `skin / 2` (the Verlet-list protocol, DESIGN.md §10).

use crate::forces::forces_cutoff;
use crate::lists::ListEngine;
use crate::params::ApproxParams;
use crate::system::GbSystem;
use polaroct_cluster::simtime::OpCounts;
use polaroct_geom::Vec3;
use polaroct_molecule::Molecule;

/// Integrator settings.
#[derive(Clone, Copy, Debug)]
pub struct MdParams {
    /// Time step (fs). GB-only surfaces are smooth; 1–2 fs is safe.
    pub dt_fs: f64,
    /// Pair cutoff for the force kernel (Å).
    pub cutoff: f64,
    /// Harmonic restraint to each atom's start position
    /// (kcal/mol/Å²; 0 disables).
    pub restraint_k: f64,
    /// Verlet skin (Å): node bounds are inflated by this margin at build
    /// time, so octrees and interaction lists stay valid until any atom
    /// drifts more than `skin / 2` from the build geometry. `0.0`
    /// rebuilds whenever the geometry changes at all.
    pub skin: f64,
}

impl Default for MdParams {
    fn default() -> Self {
        MdParams {
            dt_fs: 1.0,
            cutoff: 20.0,
            restraint_k: 1.0,
            skin: 0.5,
        }
    }
}

/// Trajectory statistics returned by [`run_md`].
#[derive(Clone, Debug)]
pub struct MdReport {
    /// Polarization energy after each step (kcal/mol).
    pub energies: Vec<f64>,
    /// Max displacement of any atom from its start (Å).
    pub max_displacement: f64,
    /// Final positions.
    pub positions: Vec<Vec3>,
    /// Steps whose energy was served by previously built interaction
    /// lists (Verlet-skin hit count).
    pub lists_reused: u64,
    /// Octree + list rebuilds over the trajectory (includes the initial
    /// build before step 0).
    pub lists_rebuilt: u64,
    /// Total kernel ops across all energy evaluations.
    pub ops: OpCounts,
    /// Bytes held by the list engine at the end of the trajectory
    /// (prepared system incl. persistent leaf arenas, plus both
    /// interaction lists).
    pub memory_bytes: usize,
}

/// Run `steps` of velocity Verlet on `mol` (masses from the element
/// table). Returns per-step polarization energies and the final geometry.
pub fn run_md(mol: &Molecule, approx: &ApproxParams, md: &MdParams, steps: usize) -> MdReport {
    // Unit bookkeeping: x in Å, t in fs, m in Da, E in kcal/mol.
    // F [kcal/mol/Å] → a [Å/fs²] via the standard conversion 4.184e-4.
    const ACC: f64 = 4.184e-4;
    let n = mol.len();
    let masses: Vec<f64> = mol.elements.iter().map(|e| e.mass()).collect();
    let start = mol.positions.clone();
    let mut pos = mol.positions.clone();
    let mut vel = vec![Vec3::ZERO; n];
    let mut energies = Vec::with_capacity(steps);
    let mut ops = OpCounts::default();

    let mut engine = ListEngine::new(mol, approx, md.skin);
    let mut forces = force_field(engine.system(), engine.born(), &pos, &start, approx, md);

    for _ in 0..steps {
        let dt = md.dt_fs;
        // Kick-drift.
        for i in 0..n {
            vel[i] += forces[i] * (0.5 * dt * ACC / masses[i]);
            pos[i] += vel[i] * dt;
        }
        // Refresh radii + energy through the list engine: lists are
        // reused while max displacement stays within skin/2, rebuilt
        // (with the octrees) the moment it does not.
        let eval = engine.evaluate(&pos);
        ops.add(&eval.ops);
        forces = force_field(engine.system(), engine.born(), &pos, &start, approx, md);
        // Second kick.
        for i in 0..n {
            vel[i] += forces[i] * (0.5 * dt * ACC / masses[i]);
        }
        energies.push(eval.energy_kcal);
    }

    let max_displacement = pos
        .iter()
        .zip(&start)
        .map(|(p, s)| p.dist(*s))
        .fold(0.0f64, f64::max);
    MdReport {
        energies,
        max_displacement,
        positions: pos,
        lists_reused: engine.lists_reused,
        lists_rebuilt: engine.lists_rebuilt,
        ops,
        memory_bytes: engine.memory_bytes(),
    }
}

/// GB forces at `pos` (approximating with the radii/octree snapshot from
/// the last refresh) plus the harmonic restraint.
fn force_field(
    sys: &GbSystem,
    born: &[f64],
    pos: &[Vec3],
    start: &[Vec3],
    approx: &ApproxParams,
    md: &MdParams,
) -> Vec<Vec3> {
    // Forces are computed on the snapshot geometry inside `sys` (the list
    // engine refreshes its Morton-ordered positions every evaluate, so
    // only node bounds/aggregates lag by at most skin/2); the restraint
    // follows the live positions.
    let (sorted, _) = forces_cutoff(sys, born, approx.eps_solvent, md.cutoff, approx.math);
    let mut f = crate::forces::forces_original_order(sys, &sorted);
    if md.restraint_k > 0.0 {
        for i in 0..pos.len() {
            f[i] += (start[i] - pos[i]) * md.restraint_k;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaroct_molecule::synth;

    #[test]
    fn md_runs_and_stays_bounded() {
        let mol = synth::ligand("md", 30, 5);
        let report = run_md(&mol, &ApproxParams::default(), &MdParams::default(), 10);
        assert_eq!(report.energies.len(), 10);
        for e in &report.energies {
            assert!(e.is_finite());
        }
        // Restrained demo dynamics must not explode.
        assert!(
            report.max_displacement < 5.0,
            "atoms flew {} Å in 10 fs",
            report.max_displacement
        );
        // Every step either reused or rebuilt, plus the initial build.
        assert_eq!(report.lists_reused + report.lists_rebuilt, 11);
        assert!(report.ops.total() > 0);
        assert!(report.memory_bytes > 0);
    }

    #[test]
    fn zero_steps_is_empty_report() {
        let mol = synth::ligand("md", 10, 1);
        let report = run_md(&mol, &ApproxParams::default(), &MdParams::default(), 0);
        assert!(report.energies.is_empty());
        assert_eq!(report.max_displacement, 0.0);
        assert_eq!(report.positions, mol.positions);
        assert_eq!(report.lists_reused, 0);
        assert_eq!(report.lists_rebuilt, 1);
    }

    #[test]
    fn stronger_restraint_moves_less() {
        let mol = synth::ligand("md", 25, 9);
        let loose = run_md(
            &mol,
            &ApproxParams::default(),
            &MdParams {
                restraint_k: 0.1,
                ..Default::default()
            },
            15,
        );
        let tight = run_md(
            &mol,
            &ApproxParams::default(),
            &MdParams {
                restraint_k: 20.0,
                ..Default::default()
            },
            15,
        );
        assert!(
            tight.max_displacement <= loose.max_displacement + 1e-9,
            "tight {} vs loose {}",
            tight.max_displacement,
            loose.max_displacement
        );
    }

    #[test]
    fn skin_reuses_lists_on_most_steps() {
        // Restrained ligand dynamics moves ≪ 0.25 Å/step, so a 0.5 Å
        // skin must serve the majority of steps from prebuilt lists.
        let mol = synth::ligand("md", 30, 5);
        let report = run_md(
            &mol,
            &ApproxParams::default(),
            &MdParams {
                skin: 0.5,
                ..Default::default()
            },
            12,
        );
        assert!(
            report.lists_reused > report.lists_rebuilt,
            "reused {} vs rebuilt {}",
            report.lists_reused,
            report.lists_rebuilt
        );
    }

    #[test]
    fn zero_skin_rebuilds_every_step() {
        let mol = synth::ligand("md", 20, 3);
        let steps = 6;
        let report = run_md(
            &mol,
            &ApproxParams::default(),
            &MdParams {
                skin: 0.0,
                ..Default::default()
            },
            steps,
        );
        // Atoms move every step (forces are nonzero), so skin 0 rebuilds
        // on every evaluate plus the initial build.
        assert_eq!(report.lists_rebuilt, steps as u64 + 1);
        assert_eq!(report.lists_reused, 0);
    }
}
