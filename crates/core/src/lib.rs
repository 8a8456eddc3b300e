//! # polaroct-core
//!
//! The paper's contribution: octree-based approximation of Generalized
//! Born (GB) polarization energy, with serial, shared-memory (`OCT_CILK`),
//! distributed (`OCT_MPI`) and hybrid (`OCT_MPI+CILK`) drivers.
//!
//! ## Pipeline
//!
//! 1. [`system::GbSystem::prepare`] — sample the molecular surface
//!    (`polaroct-surface`), build the atoms octree `T_A` and the
//!    quadrature-points octree `T_Q` (`polaroct-octree`), and permute all
//!    per-point payloads into Morton order.
//! 2. [`born`] — `APPROX-INTEGRALS` (Fig. 2): for each leaf `Q` of `T_Q`,
//!    traverse `T_A` accumulating the r⁶ surface integral at
//!    well-separated nodes (pseudo-particle approximation) or exactly at
//!    leaf pairs; then `PUSH-INTEGRALS-TO-ATOMS` flushes ancestor partial
//!    sums down and converts to Born radii
//!    `R_a = max(r_a, ((s_a+s+s_A)/4π)^(−1/3))`.
//! 3. [`epol`] — `APPROX-E_pol` (Fig. 3): bin each node's charge by Born
//!    radius (`q_U[k]`), then for each leaf `V` of `T_A` traverse `T_A`,
//!    using the binned far-field formula for well-separated pairs and the
//!    exact STILL pairwise form otherwise.
//! 4. [`drivers`] — the four execution models of Table II, including the
//!    Fig. 4 distributed algorithm (static node-based work division +
//!    `MPI_Allreduce`/`Allgatherv`/`Reduce` between phases) over the
//!    simulated cluster from `polaroct-cluster`.
//!
//! ## Conventions
//!
//! * Distances in Å, charges in elementary charges, energies in kcal/mol
//!   (the paper's Fig. 9/11 unit), via [`gb::COULOMB_KCAL`].
//! * `E_pol = −(τ/2) Σ_{i,j} q_i q_j / f_GB(r_ij, R_i, R_j)` over *ordered*
//!   pairs including `i = j` (the self-energy `q_i²/R_i` terms), with
//!   `τ = 1 − 1/ε_solv` — exactly Fig. 3's convention.
//! * The Fig. 2 far-field acceptance test is implemented per the Section
//!   II prose (see DESIGN.md "Pseudocode erratum we fix").

#![forbid(unsafe_code)]

pub mod born;
pub mod delta;
pub mod drivers;
pub mod dual;
pub mod epol;
pub mod error;
pub mod forces;
pub mod gb;
pub mod lists;
pub mod md;
pub mod naive;
pub mod params;
pub mod procexec;
pub mod soa;
pub mod system;
pub mod workdiv;

pub use drivers::{
    run_naive, run_oct_cilk, run_oct_hybrid, run_oct_hybrid_ft, run_oct_mpi, run_oct_mpi_ft,
    run_oct_threads, run_oct_threads_ft, run_serial, validate_system, DriverError, FtConfig,
    PhaseTimes, RecoveryMode, RunOutcome, RunReport, EPS_DEGRADED,
};
pub use delta::{DeltaEngine, DeltaEval, Perturbation};
pub use error::{energy_error_pct, ErrorStats};
pub use gb::{f_gb, COULOMB_KCAL};
pub use lists::{BornLists, EngineEval, EpolLists, ListEngine, ListEntry, LIST_CHUNKS};
pub use params::{ApproxParams, EpolFar};
#[cfg(unix)]
pub use procexec::run_oct_mpi_proc_ft;
pub use procexec::maybe_worker;
pub use system::GbSystem;
pub use workdiv::WorkDivision;
