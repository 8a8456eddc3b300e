//! # polaroct
//!
//! Octree-based hybrid distributed-shared-memory approximation of
//! **Generalized Born polarization energy** — a from-scratch Rust
//! reproduction of *"Polarization Energy on a Cluster of Multicores"*
//! (Tithi & Chowdhury, SC 2012).
//!
//! This meta-crate re-exports the whole workspace under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geom`] | `polaroct-geom` | vectors, AABBs, Morton codes, rigid transforms, fast approximate math |
//! | [`molecule`] | `polaroct-molecule` | SoA molecules, element tables, PQR/xyzrq I/O, synthetic ZDock/capsid/ligand generators |
//! | [`surface`] | `polaroct-surface` | icosphere triangulation, Dunavant quadrature, exposed-surface sampling |
//! | [`octree`] | `polaroct-octree` | Morton-ordered linear octree with node aggregates |
//! | [`sched`] | `polaroct-sched` | Chase–Lev work-stealing pool + makespan simulator |
//! | [`cluster`] | `polaroct-cluster` | simulated MPI: collectives, cost model, memory accounting |
//! | [`core`] | `polaroct-core` | `APPROX-INTEGRALS`, `APPROX-E_pol`, the four drivers of Table II |
//! | [`baselines`] | `polaroct-baselines` | Amber/Gromacs/NAMD/Tinker/GBr⁶ analogs over an nblist substrate |
//!
//! ## Quickstart
//!
//! ```
//! use polaroct::prelude::*;
//!
//! // A small synthetic protein (or read one via polaroct::molecule::io).
//! let mol = polaroct::molecule::synth::protein("demo", 500, 42);
//!
//! // Preprocess: surface sampling + both octrees (reusable across ε).
//! let params = ApproxParams::default(); // ε = 0.9 / 0.9, exact math
//! let sys = GbSystem::prepare(&mol, &params);
//!
//! // Serial octree run… (drivers validate inputs and return `Result`)
//! let cfg = DriverConfig::default();
//! let report = run_serial(&sys, &params, &cfg).unwrap();
//! assert!(report.energy_kcal < 0.0);
//!
//! // …and the paper's hybrid run on a simulated 12-node cluster.
//! let machine = MachineSpec::lonestar4();
//! let cluster = ClusterSpec::new(machine, Placement::hybrid_per_socket(144, &machine));
//! let hybrid = run_oct_hybrid(&sys, &params, &cfg, &cluster).unwrap();
//! assert!((hybrid.energy_kcal - report.energy_kcal).abs() / report.energy_kcal.abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod golden;

pub use polaroct_baselines as baselines;
pub use polaroct_cluster as cluster;
pub use polaroct_core as core;
pub use polaroct_geom as geom;
pub use polaroct_molecule as molecule;
pub use polaroct_octree as octree;
pub use polaroct_sched as sched;
pub use polaroct_surface as surface;

/// The names most programs need.
pub mod prelude {
    pub use polaroct_cluster::machine::{ClusterSpec, MachineSpec, Placement};
    pub use polaroct_cluster::fault::{phase, FaultPlan, FtPolicy};
    pub use polaroct_core::drivers::{
        run_naive, run_oct_cilk, run_oct_hybrid, run_oct_hybrid_ft, run_oct_mpi, run_oct_mpi_ft,
        run_oct_threads, run_oct_threads_ft, run_serial, validate_system, DriverConfig,
        DriverError, FtConfig, PhaseTimes, RecoveryMode, RunOutcome, RunReport,
    };
    pub use polaroct_core::{ApproxParams, EpolFar, GbSystem, WorkDivision};
    pub use polaroct_geom::fastmath::MathMode;
    pub use polaroct_molecule::{Atom, Element, Molecule};
    pub use polaroct_surface::SurfaceParams;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_runs_end_to_end() {
        let mol = polaroct_molecule::synth::ligand("l", 30, 1);
        let params = ApproxParams::default();
        let sys = GbSystem::prepare(&mol, &params);
        let r = run_serial(&sys, &params, &DriverConfig::default()).unwrap();
        assert!(r.energy_kcal.is_finite());
        assert!(r.energy_kcal < 0.0);
    }
}
