//! Execution drivers: the four rows of Table II.
//!
//! | Name | Algorithm | Parallelism |
//! |---|---|---|
//! | `Naive` | Eq. 2/4 exact | serial |
//! | `OCT_serial` | single-tree (Fig. 2/3) | serial |
//! | `OCT_CILK` | dual-tree (\[6\]) | shared memory, `p` threads |
//! | `OCT_MPI` | Fig. 4 | distributed, `P` ranks × 1 thread |
//! | `OCT_MPI+CILK` | Fig. 4 | hybrid, `P` ranks × `p` threads |
//!
//! All drivers execute the real kernels (energies are exact outputs of the
//! algorithms); simulated times come from op counts × calibrated per-op
//! costs, the Grama collective model, intra-node work-stealing makespans,
//! and the §V.B memory-replication slowdown (see `polaroct-cluster`).

use crate::born::{approx_integrals, push_integrals_to_atoms, push_segment, BornAccumulators};
use crate::epol::{epol_leaf, ChargeBins, ShareMirrors};
use crate::gb::epol_from_raw_sum;
use crate::lists::{ListSource, Pipeline, Traversal};
use crate::naive::{born_radii_naive, epol_naive_raw};
use crate::params::{born_mac, ApproxParams, EpolFar};
use crate::system::GbSystem;
use crate::workdiv::WorkDivision;
use polaroct_cluster::{
    calib::KernelCosts,
    comm::Recovery,
    fault::{phase, FaultKind, FaultPlan, FtPolicy, FtReport, RecoverMode},
    machine::ClusterSpec,
    memory::MemoryModel,
    runner::{run_spmd_ft, RankContext, RankError},
    simtime::{OpCounts, SimClock},
};
use polaroct_geom::fastmath::MathMode;
use polaroct_sched::{StealSimParams, StealSimulator, WorkStealingPool};
use std::fmt;
use std::time::{Duration, Instant};

/// Driver tuning knobs with constants calibrated against the paper's
/// observations (documented per field).
#[derive(Clone, Copy, Debug)]
pub struct DriverConfig {
    /// Per-op costs (the Lonestar4 reference by default).
    pub costs: KernelCosts,
    /// Multiplier on OCT_CILK's compute: the paper's cilk-4.5.4 build was
    /// markedly less optimized than the MPI path (§V.C: "MPI turns out to
    /// be more optimized compared to the cilk++ implementation ... cilk++
    /// does not maintain thread affinity").
    pub cilk_efficiency: f64,
    /// Multiplier on the hybrid driver's intra-node compute (smaller than
    /// `cilk_efficiency`: the hybrid reuses the single-tree kernels and
    /// pins one process per socket, §V.A).
    pub hybrid_efficiency: f64,
    /// Per-phase cost of interfacing cilk++ with MPI in the hybrid driver
    /// (§V.C: "an additional overhead of interfacing cilk++ and MPI").
    pub hybrid_phase_overhead: f64,
    /// Virtual cost of one steal in the intra-node scheduler.
    pub steal_cost: f64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            costs: KernelCosts::lonestar4_reference(),
            cilk_efficiency: 1.35,
            hybrid_efficiency: 1.18,
            hybrid_phase_overhead: 400e-6,
            steal_cost: 1.5e-6,
        }
    }
}

/// Relaxed ε used when a lost contribution is regenerated in *degraded*
/// mode: the multipole-acceptance multiplier collapses to
/// `(2+ε)/ε = 1.25` (E_pol under the paper's [`EpolFar::Binned`] rule,
/// whatever the run's far rule), so almost every interaction takes the
/// cheap far-field path. The result is a fast, biased approximation — the run
/// reports [`RunOutcome::Degraded`] with widened error bars instead of
/// silently mixing it into an "exact" energy.
pub const EPS_DEGRADED: f64 = 8.0;

/// How the fault-tolerant drivers respond to lost contributions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryMode {
    /// No recovery: any lost contribution fails the run (within the
    /// collective timeout — never a hang).
    Disabled,
    /// Re-execute the lost rank's static segment with the same code over
    /// the same partition; the merged energy is bit-identical to the
    /// fault-free run.
    #[default]
    Reexecute,
    /// Regenerate lost contributions with the far-field-only
    /// approximation ([`EPS_DEGRADED`]) — cheaper, but the run degrades.
    Degrade,
}

impl RecoveryMode {
    pub(crate) fn prefer(self) -> Option<RecoverMode> {
        match self {
            RecoveryMode::Disabled => None,
            RecoveryMode::Reexecute => Some(RecoverMode::Exact),
            RecoveryMode::Degrade => Some(RecoverMode::Degraded),
        }
    }
}

/// Fault-injection + fault-tolerance configuration for the `_ft` driver
/// entry points. The default injects nothing and recovers by exact
/// re-execution.
#[derive(Clone, Debug, Default)]
pub struct FtConfig {
    /// Faults to inject (empty = none).
    pub plan: FaultPlan,
    /// Timeout / retry / degraded-fallback knobs.
    pub policy: FtPolicy,
    /// What to do about lost contributions.
    pub recovery: RecoveryMode,
}

/// How a driver run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutcome {
    /// Fault-free execution.
    Completed,
    /// Faults fired, every lost contribution was re-executed exactly:
    /// the energy is bit-identical to the fault-free run. `n_retries`
    /// counts recovery rounds (distributed) or re-executed blocks
    /// (threads driver).
    Recovered { n_retries: u32 },
    /// Some contributions were regenerated far-field-only;
    /// `est_error_pct` is the estimated additional relative-error bar
    /// (percent) from the degraded shares.
    Degraded { est_error_pct: f64 },
    /// The run produced no trustworthy energy (kept for reporting
    /// pipelines; drivers surface this case as `Err(DriverError)`).
    Failed { cause: String },
}

impl RunOutcome {
    /// Is the energy exact (bit-identical to a fault-free run)?
    pub fn is_exact(&self) -> bool {
        matches!(self, RunOutcome::Completed | RunOutcome::Recovered { .. })
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Completed => write!(f, "completed"),
            RunOutcome::Recovered { n_retries } => {
                write!(f, "recovered ({n_retries} retries)")
            }
            RunOutcome::Degraded { est_error_pct } => {
                write!(f, "degraded (~{est_error_pct:.2}% extra error)")
            }
            RunOutcome::Failed { cause } => write!(f, "failed: {cause}"),
        }
    }
}

/// Why a driver refused to run, or failed outright.
#[derive(Clone, Debug, PartialEq)]
pub enum DriverError {
    /// The input system carries non-finite (or non-physical) values;
    /// `index` is the offending atom's original input index (or the
    /// quadrature-point index, as stated by `what`).
    InvalidInput { index: usize, what: String },
    /// The run configuration is unusable for this driver (zero threads
    /// or ranks, a placement the driver does not model); `what` names
    /// the offending setting.
    InvalidConfig { what: String },
    /// The run failed: unrecovered faults, a dead root, or exhausted
    /// recovery retries.
    Failed { cause: String },
}

impl DriverError {
    /// Fold this error into the [`RunOutcome`] column of a report table.
    pub fn outcome(&self) -> RunOutcome {
        RunOutcome::Failed { cause: self.to_string() }
    }
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::InvalidInput { index, what } => {
                write!(f, "invalid input at index {index}: {what}")
            }
            DriverError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            DriverError::Failed { cause } => write!(f, "run failed: {cause}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// `Ok` when `ok` holds, otherwise [`DriverError::InvalidConfig`]
/// carrying `what`. Drivers check their configuration with this before
/// touching the system.
pub(crate) fn require_config(ok: bool, what: &str) -> Result<(), DriverError> {
    if ok {
        Ok(())
    } else {
        Err(DriverError::InvalidConfig { what: what.to_owned() })
    }
}

/// Reject systems carrying NaN/∞ coordinates, charges, weights, or
/// non-positive radii before any kernel runs. A single poisoned value
/// otherwise propagates through every collective and surfaces as a
/// far-away wrong energy with no indication of its origin. Every `run_*`
/// driver calls this at entry.
pub fn validate_system(sys: &GbSystem) -> Result<(), DriverError> {
    for i in 0..sys.n_atoms() {
        let index = sys.atoms.point_order[i] as usize;
        let p = sys.atoms.points[i];
        if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()) {
            return Err(DriverError::InvalidInput {
                index,
                what: format!("atom position ({}, {}, {}) is not finite", p.x, p.y, p.z),
            });
        }
        if !sys.charge[i].is_finite() {
            return Err(DriverError::InvalidInput {
                index,
                what: format!("atom charge {} is not finite", sys.charge[i]),
            });
        }
        let r = sys.radius[i];
        if !(r.is_finite() && r > 0.0) {
            return Err(DriverError::InvalidInput {
                index,
                what: format!("atom radius {r} is not finite and positive"),
            });
        }
    }
    for i in 0..sys.n_qpoints() {
        let p = sys.qtree.points[i];
        if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()) {
            return Err(DriverError::InvalidInput {
                index: i,
                what: format!(
                    "quadrature point ({}, {}, {}) is not finite",
                    p.x, p.y, p.z
                ),
            });
        }
        if !sys.q_weight[i].is_finite() {
            return Err(DriverError::InvalidInput {
                index: i,
                what: format!("quadrature weight {} is not finite", sys.q_weight[i]),
            });
        }
    }
    Ok(())
}

/// Measured wall-clock breakdown of one run's phases (Fig. 4 step
/// grouping), from `std::time::Instant` — as opposed to [`RunReport::time`],
/// which is *simulated* from op counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// `APPROX-INTEGRALS` over all quadrature leaves (Step 2).
    pub integrals: f64,
    /// `PUSH-INTEGRALS-TO-ATOMS` (Step 4).
    pub push: f64,
    /// Born-radius charge binning.
    pub bins: f64,
    /// `APPROX-E_pol` over all atom leaves (Step 6).
    pub epol: f64,
    /// Interaction-list construction (the traversal passes of
    /// `core::lists` — separate from `integrals`/`epol`, which time only
    /// the flat kernel sweeps and their folds). Zero for drivers that
    /// interleave traversal and kernels (naive, Fig. 4 cluster drivers).
    pub lists: f64,
}

impl PhaseTimes {
    /// Sum of the phase times (excludes setup not covered by a phase).
    pub fn total(&self) -> f64 {
        self.integrals + self.push + self.bins + self.epol + self.lists
    }
}

/// Outcome of one driver run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Driver name (Table II row).
    pub name: String,
    /// Polarization energy in kcal/mol.
    pub energy_kcal: f64,
    /// Born radii in the molecule's original atom order.
    pub born_radii: Vec<f64>,
    /// Simulated parallel wall time (seconds).
    pub time: f64,
    /// Max per-rank compute / comm / wait components.
    pub compute: f64,
    pub comm: f64,
    pub wait: f64,
    /// Total kernel ops across all ranks.
    pub ops: OpCounts,
    /// Bytes one process replica holds.
    pub memory_per_process: usize,
    /// Bytes held by the persistent flat leaf arenas (q-surface + atom
    /// SoA mirrors in Morton order); a subset of
    /// [`RunReport::memory_per_process`], surfaced separately so the
    /// arena cost of the lane-batched kernels is visible in reports.
    pub memory_arena_bytes: usize,
    /// Cores the configuration uses.
    pub cores: usize,
    /// Measured host wall-clock seconds for the whole run. For the
    /// simulated-cluster drivers this is the time to *execute* the
    /// simulation on this host (all ranks sequentially), not the modeled
    /// cluster time in [`RunReport::time`]. A process-transport run with
    /// workers also counts their launch, rank 0's prepare and the reap
    /// (`crate::procexec`).
    pub wall_seconds: f64,
    /// Measured per-phase breakdown; zeroed for drivers that interleave
    /// phases across simulated ranks (Fig. 4) where a per-phase host
    /// clock would be meaningless.
    pub phases: PhaseTimes,
    /// Fault-tolerance outcome ([`RunOutcome::Completed`] when no fault
    /// plan was active).
    pub outcome: RunOutcome,
    /// Raw fault-tolerance ledger behind [`RunReport::outcome`]: dead /
    /// recovered / degraded ranks, retry count, and — process transport
    /// only — captured worker OS exit statuses.
    pub ft: FtReport,
}

impl RunReport {
    /// The constructor every driver reports through: the energy from the
    /// raw sum, the radii back in input order, the system replica's
    /// bytes, and the wall clock since `wall`. The fields a driver
    /// models itself start empty (zero times and ops, one core,
    /// [`RunOutcome::Completed`]) and are set by the caller.
    pub(crate) fn new(
        name: &str,
        sys: &GbSystem,
        params: &ApproxParams,
        raw: f64,
        born: &[f64],
        wall: Instant,
    ) -> RunReport {
        RunReport {
            name: name.into(),
            energy_kcal: epol_from_raw_sum(raw, params.eps_solvent),
            born_radii: sys.to_original_atom_order(born),
            time: 0.0,
            compute: 0.0,
            comm: 0.0,
            wait: 0.0,
            ops: OpCounts::default(),
            memory_per_process: sys.memory_bytes(),
            memory_arena_bytes: sys.arena_bytes(),
            cores: 1,
            wall_seconds: wall.elapsed().as_secs_f64(),
            phases: PhaseTimes::default(),
            outcome: RunOutcome::Completed,
            ft: FtReport::default(),
        }
    }
}

pub(crate) fn seconds(cfg: &DriverConfig, ops: &OpCounts, math: MathMode) -> f64 {
    cfg.costs.seconds(ops, math == MathMode::Approx)
}

/// Serial naïve exact run (Table II "Naïve").
pub fn run_naive(
    sys: &GbSystem,
    params: &ApproxParams,
    cfg: &DriverConfig,
) -> Result<RunReport, DriverError> {
    validate_system(sys)?;
    let wall = Instant::now();
    let t = Instant::now();
    let (born, mut ops) = born_radii_naive(sys, params.math);
    let integrals = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (raw, eops) = epol_naive_raw(sys, &born, params.math);
    let epol = t.elapsed().as_secs_f64();
    ops.add(&eops);
    let time = seconds(cfg, &ops, params.math);
    Ok(RunReport {
        time,
        compute: time,
        ops,
        phases: PhaseTimes {
            integrals,
            epol,
            ..Default::default()
        },
        ..RunReport::new("Naive", sys, params, raw, &born, wall)
    })
}

/// The one-process drivers' shared body: [`Pipeline::run`] over lists
/// built with `traversal`, Phase A and the push over `pool` (serial when
/// `None`), `plan`'s rank-0 faults fired at each phase start, and the
/// modeled time from `model(ops)` plus any injected delay.
#[allow(clippy::too_many_arguments)]
fn run_one_process(
    sys: &GbSystem,
    params: &ApproxParams,
    name: &str,
    cores: usize,
    traversal: Traversal,
    pool: Option<&WorkStealingPool>,
    plan: &FaultPlan,
    model: impl FnOnce(&OpCounts) -> f64,
) -> Result<RunReport, DriverError> {
    validate_system(sys)?;
    // Clone resets the one-shot fired flags, so one plan value can drive
    // many runs identically.
    let plan = plan.clone();
    let wall = Instant::now();
    let mut delay_s = 0.0;
    let faults = |ph, slots| fire_threads_fault(&plan, ph, slots, &mut delay_s);
    let ev = Pipeline::new(sys, params, pool, faults).run(ListSource::Build(traversal), None)?;
    let time = model(&ev.ops) + delay_s;
    Ok(RunReport {
        time,
        compute: time,
        ops: ev.ops,
        memory_per_process: sys.memory_bytes() + ev.bins.memory_bytes() + ev.list_bytes,
        cores,
        phases: ev.phases,
        outcome: if ev.recovered > 0 {
            RunOutcome::Recovered {
                n_retries: ev.recovered,
            }
        } else {
            RunOutcome::Completed
        },
        ..RunReport::new(name, sys, params, ev.raw, &ev.born, wall)
    })
}

/// Serial single-tree octree run (one core; the baseline the speedup
/// plots divide by when assessing parallel efficiency).
///
/// Runs on the interaction-list engine (`core::lists`). With no pool the
/// Born pass streams: the traversal folds each entry into the
/// accumulators as it emits it, so no Born list is built, its traversal
/// is timed inside `phases.integrals`, and `memory_per_process` counts
/// the E_pol list alone. The E_pol list build is timed as
/// `phases.lists` and its kernel sweep as `phases.epol`. Both passes
/// replay the recursion's every floating-point add in order, so
/// energies and radii are bit-identical to the historical recursive
/// driver (the golden suite pins this) and to [`run_oct_threads_ft`] at
/// any width.
pub fn run_serial(
    sys: &GbSystem,
    params: &ApproxParams,
    cfg: &DriverConfig,
) -> Result<RunReport, DriverError> {
    let model = |ops: &OpCounts| seconds(cfg, ops, params.math);
    let plan = FaultPlan::none();
    run_one_process(sys, params, "OCT_serial", 1, Traversal::Single, None, &plan, model)
}

/// Shared-memory dual-tree run (`OCT_CILK`): one process, `p` threads,
/// randomized work stealing. Timing uses the Blumofe–Leiserson bound
/// `T_p ≈ T_1/p + c·T_∞` with the span estimated from the recursion depth.
///
/// The `p` threads are modeled; the host runs the dual-tree lists with
/// no pool, so, as in [`run_serial`], the Born pass streams with no list
/// (timed inside `phases.integrals`) and `memory_per_process` counts
/// the E_pol list alone.
pub fn run_oct_cilk(
    sys: &GbSystem,
    params: &ApproxParams,
    cfg: &DriverConfig,
    threads: usize,
) -> Result<RunReport, DriverError> {
    require_config(threads >= 1, "OCT_CILK needs at least one thread")?;
    // §V.A: cilk++ has no thread-affinity manager, so the working set is
    // not partitioned per core — each thread effectively streams the whole
    // replica. Model that as the one-core working-set slowdown.
    let no_affinity = polaroct_cluster::machine::ClusterSpec::new(
        polaroct_cluster::machine::MachineSpec::lonestar4(),
        polaroct_cluster::machine::Placement::new(1, 1),
    );
    // Squared: without affinity every reload misses both the L1/L2 the
    // task last ran on *and* the socket-local L3 half the time (calibrated
    // against the paper's OCT_CILK-vs-OCT_MPI gap at CMV scale).
    let slowdown = MemoryModel::new(sys.memory_bytes())
        .slowdown(&no_affinity)
        .powi(2);
    let stats = sys.atoms.stats();
    let model = |ops: &OpCounts| {
        let t1 = seconds(cfg, ops, params.math) * cfg.cilk_efficiency * slowdown;
        let depth = stats.max_depth as u32;
        fork_join_makespan(t1, stats.leaves, depth, threads, cfg.steal_cost)
    };
    // Dual-tree interaction lists ([6]'s traversal, flattened): far
    // entries may pair *internal* nodes of both trees. Execution is
    // bit-identical to `born_radii_dual` / `epol_dual_raw`; the `p`
    // threads are modeled, the host runs them serially.
    let plan = FaultPlan::none();
    run_one_process(sys, params, "OCT_CILK", threads, Traversal::Dual, None, &plan, model)
}

/// Brent/Blumofe–Leiserson makespan for a fork-join computation of total
/// work `t1`, about `n_tasks` leaf tasks and spawn-tree depth `depth` on
/// `p` workers.
fn fork_join_makespan(t1: f64, n_tasks: usize, depth: u32, p: usize, steal_cost: f64) -> f64 {
    if p <= 1 {
        return t1;
    }
    let span = (t1 / n_tasks.max(1) as f64) * (depth as f64 + 1.0);
    t1 / p as f64 + span + steal_cost * p as f64 * (depth as f64 + 1.0)
}

/// Shared-memory single-tree run on *real* OS threads: builds the
/// `core::lists` interaction lists once, then fans their cost-balanced
/// chunks over [`WorkStealingPool`] — the same SoA leaf kernels as
/// [`run_serial`], minus any traversal on the hot path.
///
/// **Determinism.** List entries are grouped into at most
/// [`crate::lists::LIST_CHUNKS`] chunks balanced by per-entry cost
/// (`len_a · len_q` near, O(1) far) via
/// [`polaroct_sched::partition_by_cost`] — a fixed partition independent
/// of `threads`. Each chunk task computes only *pure per-entry outputs*
/// (Phase A); the serial apply pass (Phase B) then folds them in
/// emission order, replaying the recursion's exact floating-point add
/// sequence. Energies are therefore bit-identical across thread counts
/// **and** bit-identical to [`run_serial`] — not merely within
/// reduction roundoff, as the pre-list block-merge driver was.
///
/// `RunReport::time` still carries the fork-join *model* prediction (for
/// modeled-vs-measured comparisons); the measured host times live in
/// `wall_seconds` / `phases`.
///
/// **Fault injection.** `plan`'s entries for rank 0 fire at phase starts
/// ([`FaultPlan::none`] for a fault-free run). A `PanicWorker` fault
/// poisons one list chunk — chosen from the plan seed — whose task
/// panics inside the pool; the pool contains it
/// ([`WorkStealingPool::try_map`]), and the driver re-executes the lost
/// chunk *serially, before the apply pass*, so the folded energy stays
/// bit-identical to the fault-free run ([`RunOutcome::Recovered`]).
pub fn run_oct_threads_ft(
    sys: &GbSystem,
    params: &ApproxParams,
    cfg: &DriverConfig,
    threads: usize,
    plan: &FaultPlan,
) -> Result<RunReport, DriverError> {
    require_config(threads >= 1, "the threads driver needs at least one thread")?;
    let stats = sys.atoms.stats();
    // Modeled fork-join makespan over the same work, for side-by-side
    // modeled-vs-measured reporting; injected straggler time rides on top.
    let model = |ops: &OpCounts| {
        let t1 = seconds(cfg, ops, params.math);
        let depth = stats.max_depth as u32;
        fork_join_makespan(t1, stats.leaves, depth, threads, cfg.steal_cost)
    };
    let pool = Some(WorkStealingPool::new(threads));
    let name = "OCT_THREADS";
    run_one_process(sys, params, name, threads, Traversal::Single, pool.as_ref(), plan, model)
}

/// Fire a rank-0 execution fault at a one-process phase start (the
/// [`Pipeline`] fault hook). Returns the poisoned slot for a
/// `PanicWorker` fault (the pool contains the panic and the pipeline
/// re-executes the slot); `Kill` and `PanicRank` fail the whole run — a
/// single process has no peer to recover on.
fn fire_threads_fault(
    plan: &FaultPlan,
    ph: u32,
    n_blocks: usize,
    delay_s: &mut f64,
) -> Result<Option<usize>, DriverError> {
    match plan.fire_exec(0, ph) {
        // KillMidSend is a wire-layer fault: there is no send in the
        // single-process driver, so it is a no-op here.
        None
        | Some(FaultKind::DropPayload)
        | Some(FaultKind::CorruptPayload)
        | Some(FaultKind::KillMidSend) => Ok(None),
        Some(FaultKind::Delay { virtual_s, real_ms }) => {
            *delay_s += virtual_s;
            std::thread::sleep(Duration::from_millis(real_ms));
            Ok(None)
        }
        Some(FaultKind::PanicWorker) => Ok(Some(plan.seed() as usize % n_blocks.max(1))),
        Some(FaultKind::Kill) => Err(DriverError::Failed {
            cause: format!(
                "rank killed by fault at phase {ph}; a single-process run has no peer to recover on"
            ),
        }),
        Some(FaultKind::PanicRank) => Err(DriverError::Failed {
            cause: format!("rank panicked by fault at phase {ph}"),
        }),
    }
}

/// Distributed run (`OCT_MPI`): Fig. 4 with one thread per rank, under
/// `ftc`'s fault plan and recovery policy ([`FtConfig::default`] for a
/// fault-free run).
pub fn run_oct_mpi_ft(
    sys: &GbSystem,
    params: &ApproxParams,
    cfg: &DriverConfig,
    cluster: &ClusterSpec,
    workdiv: WorkDivision,
    ftc: &FtConfig,
) -> Result<RunReport, DriverError> {
    require_config(
        cluster.placement.threads_per_process == 1,
        "OCT_MPI is the pure distributed configuration (one thread per rank)",
    )?;
    run_fig4(sys, params, cfg, cluster, workdiv, "OCT_MPI", ftc)
}

/// Hybrid run (`OCT_MPI+CILK`): Fig. 4 with `p > 1` threads per rank,
/// under `ftc`'s fault plan and recovery policy ([`FtConfig::default`]
/// for a fault-free run).
pub fn run_oct_hybrid_ft(
    sys: &GbSystem,
    params: &ApproxParams,
    cfg: &DriverConfig,
    cluster: &ClusterSpec,
    ftc: &FtConfig,
) -> Result<RunReport, DriverError> {
    require_config(
        cluster.placement.threads_per_process > 1,
        "OCT_MPI+CILK needs more than one thread per rank",
    )?;
    run_fig4(
        sys,
        params,
        cfg,
        cluster,
        WorkDivision::NodeNode,
        "OCT_MPI+CILK",
        ftc,
    )
}

/// Fig. 4 Step 2 for one rank's static share of the quadrature leaves,
/// one task per leaf. Called by the rank's own pass *and* by recovery
/// regeneration: re-executing it for a lost rank with the same ε yields
/// a bit-identical partial, because the share is static and leaves are
/// visited in leaf-id order.
pub(crate) fn step2_partial(
    sys: &GbSystem,
    workdiv: WorkDivision,
    size: usize,
    rank: usize,
    eps_born: f64,
) -> (BornAccumulators, Vec<OpCounts>) {
    let mut acc = BornAccumulators::zeros(sys);
    let (share, mac) = (workdiv.share(&sys.qtree, size, rank), born_mac(eps_born));
    let task_ops = share
        .tasks(&sys.qtree)
        .map(|q| approx_integrals(sys, q, &share.points, mac, &mut acc))
        .collect();
    (acc, task_ops)
}

/// Fig. 4 Step 6 for one rank's static share of the atom leaves (see
/// [`step2_partial`] for the bit-identity argument). Mirrored leaf tiles
/// inside the share are evaluated once ([`ShareMirrors`], DESIGN.md
/// §10.7); the raw sum and every task's op counts are those of
/// [`crate::epol::approx_epol_leaf`] per task.
pub(crate) fn step6_partial(
    sys: &GbSystem,
    bins: &ChargeBins,
    born: &[f64],
    workdiv: WorkDivision,
    size: usize,
    rank: usize,
    math: MathMode,
) -> (f64, Vec<OpCounts>) {
    let share = workdiv.share(&sys.atoms, size, rank);
    let mut mirrors = ShareMirrors::new(&sys.atoms, &share);
    let mut raw = 0.0;
    let mut task_ops = Vec::new();
    for v in share.tasks(&sys.atoms) {
        let (r, o) = epol_leaf(sys, bins, born, v, &share.points, math, Some(&mut mirrors));
        raw += r;
        task_ops.push(o);
    }
    (raw, task_ops)
}

/// A collective's recovery: regenerate lost shares with `regenerate`,
/// first in `prefer` mode, or no recovery at all.
fn recovery(
    prefer: Option<RecoverMode>,
    regenerate: &mut dyn FnMut(usize, RecoverMode) -> Vec<f64>,
) -> Recovery<'_> {
    match prefer {
        None => Recovery::Disabled,
        Some(prefer) => Recovery::Enabled { regenerate, prefer },
    }
}

/// Crude widened-error-bar estimate for a degraded run: each degraded
/// rank's Step 6 share is assumed to push its far-field fraction
/// `(2/ε)/(1+2/ε)` of interactions onto the binned approximation, whose
/// relative error the paper bounds near 1% at ε = 0.9 and which grows
/// roughly with that fraction at ε = 8. The share is the run's
/// [`WorkDivision::share`] of the atoms tree: its fraction of the leaves
/// under node-node, of the atoms under atom-based.
fn estimate_degraded_error(
    sys: &GbSystem,
    workdiv: WorkDivision,
    degraded: &[usize],
    size: usize,
) -> f64 {
    let tree = &sys.atoms;
    let far_frac = (2.0 / EPS_DEGRADED) / (1.0 + 2.0 / EPS_DEGRADED);
    let fraction = |rank: usize| {
        let share = workdiv.share(tree, size, rank);
        match workdiv {
            WorkDivision::NodeNode => share.leaves.len() as f64 / tree.leaf_count().max(1) as f64,
            WorkDivision::AtomBased => share.points.len() as f64 / tree.len().max(1) as f64,
        }
    };
    100.0
        * degraded
            .iter()
            .map(|&d| fraction(d) * far_frac)
            .sum::<f64>()
}

/// One rank's pass through Fig. 4 Steps 2–7 — the body shared by **both
/// transports**: [`run_fig4`] calls it from each rank thread over the
/// in-process channel fabric, and a worker *process* calls it directly
/// over its socket endpoint (`crate::procexec`). Everything it consumes
/// beyond the [`RankContext`] is recomputed deterministically from the
/// inputs (the memory-model slowdown included), so the same system +
/// cluster + fault plan yields bit-identical energies no matter which
/// transport carries the collectives.
pub(crate) fn fig4_rank_body(
    sys: &GbSystem,
    params: &ApproxParams,
    cfg: &DriverConfig,
    cluster: &ClusterSpec,
    workdiv: WorkDivision,
    prefer: Option<RecoverMode>,
    ctx: &mut RankContext,
) -> Result<(f64, Vec<f64>, OpCounts, FtReport), RankError> {
    let p_threads = cluster.placement.threads_per_process;
    let hybrid = p_threads > 1;
    let slowdown = MemoryModel::new(sys.memory_bytes()).slowdown(cluster);
    let math = params.math;

    // Charge a rank's phase: serial ranks convert op totals directly;
    // hybrid ranks run the per-task costs through the steal simulator.
    let charge_phase = |clock: &mut SimClock, task_ops: &[OpCounts], rank_seed: u64| {
        if hybrid {
            let costs: Vec<f64> = task_ops
                .iter()
                .map(|o| seconds(cfg, o, math) * cfg.hybrid_efficiency * slowdown)
                .collect();
            let sim = StealSimulator::new(StealSimParams {
                workers: p_threads,
                steal_cost: cfg.steal_cost,
                seed: 0xC11C ^ rank_seed,
                ..Default::default()
            });
            clock.add_compute(sim.simulate(&costs).makespan + cfg.hybrid_phase_overhead);
        } else {
            let mut total = OpCounts::default();
            for o in task_ops {
                total.add(o);
            }
            clock.add_compute(seconds(cfg, &total, math) * slowdown);
        }
    };

    // Recovery work is re-executed serially by the assignee while its
    // peers wait on the collective; charge it at the serial rate.
    let charge_recovery = |clock: &mut SimClock, ops: &OpCounts| {
        clock.add_compute(seconds(cfg, ops, math) * slowdown);
    };

    let size = ctx.size;
    let rank = ctx.rank;
    let mut clock = ctx.clock;
    let mut rank_ops = OpCounts::default();
    let mut summary = FtReport::default();

    // ---- Step 1: every rank "builds" both octrees (pre-processing,
    // excluded from timing per §IV.C Step 1). We share the replica.

    // ---- Step 2: approximated integrals for this rank's share of
    // quadrature leaves / q-points.
    ctx.fault_point(phase::INTEGRALS)?;
    let (mut acc, task_ops) = step2_partial(sys, workdiv, size, rank, params.eps_born);
    for o in &task_ops {
        rank_ops.add(o);
    }
    charge_phase(&mut clock, &task_ops, rank as u64);

    // ---- Step 3: gather partial integrals (MPI_Allreduce). A lost
    // rank's partial accumulator is regenerated by re-running its
    // Step 2 share.
    ctx.fault_point(phase::REDUCE_INTEGRALS)?;
    {
        let mut rec_ops = OpCounts::default();
        let mut regenerate = |lost: usize, mode: RecoverMode| {
            let eps = match mode {
                RecoverMode::Exact => params.eps_born,
                RecoverMode::Degraded => EPS_DEGRADED,
            };
            let (lost_acc, ops) = step2_partial(sys, workdiv, size, lost, eps);
            for o in &ops {
                rec_ops.add(o);
            }
            lost_acc.to_flat()
        };
        let mut flat = acc.to_flat();
        let recovery = recovery(prefer, &mut regenerate);
        let report = ctx.comm.allreduce_sum_ft(&mut flat, &mut clock, recovery)?;
        acc.from_flat(&flat);
        summary.merge(&report);
        rank_ops.add(&rec_ops);
        charge_recovery(&mut clock, &rec_ops);
    }

    // ---- Step 4: push integrals; rank i finalizes the i-th atom
    // segment.
    ctx.fault_point(phase::PUSH)?;
    let atom_ranges = sys.atoms.partition_points(size);
    let my_atoms = atom_ranges[rank].clone();
    let mut born = vec![0.0; sys.n_atoms()];
    let mut push_tasks: Vec<OpCounts> = Vec::new();
    if hybrid {
        // Split the segment into p*4 chunks for the intra-node pool.
        let chunks = (p_threads * 4).max(1);
        let len = my_atoms.len();
        for c in 0..chunks {
            let lo = my_atoms.start + c * len / chunks;
            let hi = my_atoms.start + (c + 1) * len / chunks;
            if lo < hi {
                push_tasks.push(push_integrals_to_atoms(sys, &acc, lo..hi, math, &mut born));
            }
        }
    } else {
        push_tasks.push(push_integrals_to_atoms(
            sys,
            &acc,
            my_atoms.clone(),
            math,
            &mut born,
        ));
    }
    for o in &push_tasks {
        rank_ops.add(o);
    }
    charge_phase(&mut clock, &push_tasks, rank as u64 ^ 0x4444);

    // ---- Step 5: gather Born radii (MPI_Allgatherv). The push is
    // deterministic and mode-independent, so even a degraded-mode
    // recovery round regenerates the exact segment — radii never
    // carry widened error bars.
    ctx.fault_point(phase::GATHER_RADII)?;
    let born = {
        let mut rec_ops = OpCounts::default();
        let mut regenerate = |lost: usize, _mode: RecoverMode| {
            let (seg, ops) = push_segment(sys, &acc, atom_ranges[lost].clone(), math);
            rec_ops.add(&ops);
            seg
        };
        let recovery = recovery(prefer, &mut regenerate);
        let mine = &born[my_atoms.clone()];
        let (full, report) = ctx.comm.allgatherv_ft(mine, &mut clock, recovery)?;
        summary.merge(&report);
        rank_ops.add(&rec_ops);
        charge_recovery(&mut clock, &rec_ops);
        full
    };
    // PANIC-OK: allgatherv returns every rank's segment, a lost one regenerated at full length.
    assert_eq!(born.len(), sys.n_atoms());

    // Charge binning: O(M·M_ε) on every rank, tiny next to the
    // kernels, charged as node visits.
    let bins = ChargeBins::for_params(sys, &born, params);
    let bin_ops = OpCounts {
        nodes_visited: sys.n_atoms() as u64,
        ..Default::default()
    };
    rank_ops.add(&bin_ops);
    charge_phase(&mut clock, &[bin_ops], rank as u64 ^ 0x5555);

    // ---- Step 6: partial energies for this rank's share of atom
    // leaves / atoms.
    ctx.fault_point(phase::EPOL)?;
    let (raw, epol_tasks) = step6_partial(sys, &bins, &born, workdiv, size, rank, math);
    for o in &epol_tasks {
        rank_ops.add(o);
    }
    charge_phase(&mut clock, &epol_tasks, rank as u64 ^ 0x6666);

    // ---- Step 7: master accumulates partial energies (MPI_Reduce).
    // A lost rank's scalar is regenerated by re-running its Step 6
    // share; the root folds all P entries in rank order either way.
    ctx.fault_point(phase::REDUCE_EPOL)?;
    let total_raw = {
        let mut rec_ops = OpCounts::default();
        let mut degraded_bins = None;
        let mut regenerate = |lost: usize, mode: RecoverMode| {
            let bins = match mode {
                RecoverMode::Exact => &bins,
                RecoverMode::Degraded => &*degraded_bins.get_or_insert_with(|| {
                    ChargeBins::build_far(sys, &born, EPS_DEGRADED, EpolFar::Binned)
                }),
            };
            let (r, ops) = step6_partial(sys, bins, &born, workdiv, size, lost, math);
            for o in &ops {
                rec_ops.add(o);
            }
            vec![r]
        };
        let recovery = recovery(prefer, &mut regenerate);
        let (v, report) = ctx.comm.reduce_sum_scalar_ft(raw, &mut clock, recovery)?;
        summary.merge(&report);
        rank_ops.add(&rec_ops);
        charge_recovery(&mut clock, &rec_ops);
        v
    };

    ctx.clock = clock;
    Ok((total_raw.unwrap_or(0.0), born, rank_ops, summary))
}

/// Fold a run's merged [`FtReport`] into its [`RunOutcome`] (see
/// [`fig4_report`], which both transports report through).
fn classify_outcome(
    sys: &GbSystem,
    workdiv: WorkDivision,
    summary: &FtReport,
    processes: usize,
) -> RunOutcome {
    if summary.clean() {
        RunOutcome::Completed
    } else if summary.degraded.is_empty() {
        RunOutcome::Recovered {
            n_retries: summary.retries,
        }
    } else {
        RunOutcome::Degraded {
            est_error_pct: estimate_degraded_error(sys, workdiv, &summary.degraded, processes),
        }
    }
}

/// The Fig. 4 algorithm, shared by `OCT_MPI` (p = 1) and `OCT_MPI+CILK`
/// (p > 1). Steps map one-to-one onto the paper's listing.
///
/// **Fault tolerance.** Each Fig. 4 step is a declared
/// [`polaroct_cluster::runner::RankContext::fault_point`], and every
/// collective runs its `_ft` variant with a regeneration closure that
/// re-executes a lost rank's static segment through the *same* step
/// helper the main path uses — so a recovered run's energy is
/// bit-identical to the fault-free one. Rank 0 (the star's root) is the
/// single point of failure by construction; its death fails the run.
#[allow(clippy::too_many_arguments)]
fn run_fig4(
    sys: &GbSystem,
    params: &ApproxParams,
    cfg: &DriverConfig,
    cluster: &ClusterSpec,
    workdiv: WorkDivision,
    name: &str,
    ftc: &FtConfig,
) -> Result<RunReport, DriverError> {
    validate_system(sys)?;
    let wall = Instant::now();
    let prefer = ftc.recovery.prefer();
    let res = run_spmd_ft(cluster, &ftc.plan, ftc.policy, |ctx| {
        fig4_rank_body(sys, params, cfg, cluster, workdiv, prefer, ctx)
    });

    // Root rank (0) holds the final energy and the authoritative
    // fault-tolerance summary; if the root itself failed, the run failed.
    let (raw, born, summary) = match &res.per_rank[0] {
        Ok((raw, born, _, summary)) => (*raw, born.clone(), summary.clone()),
        Err(_) => {
            let cause = res
                .failures()
                .iter()
                .map(|(r, e)| format!("rank {r}: {e}"))
                .collect::<Vec<_>>()
                .join("; ");
            return Err(DriverError::Failed { cause });
        }
    };
    let mut ops = OpCounts::default();
    for out in res.per_rank.iter().flatten() {
        ops.add(&out.2);
    }
    let survivors: Vec<SimClock> = res
        .per_rank
        .iter()
        .zip(&res.clocks)
        .filter(|(r, _)| r.is_ok())
        .map(|(_, c)| *c)
        .collect();
    let root = (raw, born, ops, summary);
    Ok(fig4_report(name, sys, params, cluster, workdiv, root, &survivors, wall))
}

/// The report of a Fig. 4 run over either transport: `root` is rank 0's
/// `(raw, born, ops, ft)` with `ops` summed over the surviving ranks, and
/// `survivors` their final clocks. Time aggregates run over survivors
/// only (a dead rank's clock stopped when it died), and the outcome is
/// classified from the root's ledger — so identical fault histories get
/// identical reports on both transports.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fig4_report(
    name: &str,
    sys: &GbSystem,
    params: &ApproxParams,
    cluster: &ClusterSpec,
    workdiv: WorkDivision,
    root: (f64, Vec<f64>, OpCounts, FtReport),
    survivors: &[SimClock],
    wall: Instant,
) -> RunReport {
    let (raw, born, ops, ft) = root;
    let max = |f: fn(&SimClock) -> f64| survivors.iter().map(f).fold(0.0, f64::max);
    RunReport {
        time: max(SimClock::total),
        compute: max(|c| c.compute),
        comm: max(|c| c.comm),
        wait: max(|c| c.wait),
        ops,
        cores: cluster.placement.total_cores(),
        // Ranks run sequentially on the host with phases interleaved, so
        // a per-phase host clock would be meaningless here: `phases`
        // stays zero.
        outcome: classify_outcome(sys, workdiv, &ft, cluster.placement.processes),
        ft,
        ..RunReport::new(name, sys, params, raw, &born, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaroct_cluster::machine::{MachineSpec, Placement};
    use polaroct_molecule::synth;

    fn system(n: usize, seed: u64) -> GbSystem {
        GbSystem::prepare(&synth::protein("p", n, seed), &ApproxParams::default())
    }

    fn cluster(cores: usize) -> ClusterSpec {
        ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(cores))
    }

    fn hybrid_cluster(cores: usize) -> ClusterSpec {
        let m = MachineSpec::lonestar4();
        ClusterSpec::new(m, Placement::hybrid_per_socket(cores, &m))
    }

    /// A fault-free `OCT_MPI` run on `cores` ranks.
    fn mpi(
        sys: &GbSystem,
        params: &ApproxParams,
        cfg: &DriverConfig,
        cores: usize,
        workdiv: WorkDivision,
    ) -> Result<RunReport, DriverError> {
        run_oct_mpi_ft(sys, params, cfg, &cluster(cores), workdiv, &FtConfig::default())
    }

    /// A fault-free `OCT_MPI+CILK` run on `cores` cores.
    fn hybrid(
        sys: &GbSystem,
        params: &ApproxParams,
        cfg: &DriverConfig,
        cores: usize,
    ) -> Result<RunReport, DriverError> {
        run_oct_hybrid_ft(sys, params, cfg, &hybrid_cluster(cores), &FtConfig::default())
    }

    #[test]
    fn all_drivers_agree_on_energy_within_tolerance() {
        let sys = system(400, 3);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let naive = run_naive(&sys, &params, &cfg).unwrap();
        let serial = run_serial(&sys, &params, &cfg).unwrap();
        let cilk = run_oct_cilk(&sys, &params, &cfg, 12).unwrap();
        let mpi = mpi(&sys, &params, &cfg, 12, WorkDivision::NodeNode).unwrap();
        let hyb = hybrid(&sys, &params, &cfg, 12).unwrap();
        // All octree variants within 1% of naive (the paper's bound).
        for r in [&serial, &cilk, &mpi, &hyb] {
            let err = ((r.energy_kcal - naive.energy_kcal) / naive.energy_kcal).abs();
            assert!(err < 0.01, "{}: error {err}", r.name);
            assert!(r.energy_kcal < 0.0, "{}: E_pol must be negative", r.name);
        }
        // Single-tree variants (serial / MPI / hybrid) agree bit-tightly.
        assert!(((serial.energy_kcal - mpi.energy_kcal) / serial.energy_kcal).abs() < 1e-9);
        assert!(((serial.energy_kcal - hyb.energy_kcal) / serial.energy_kcal).abs() < 1e-9);
    }

    #[test]
    fn mpi_energy_is_p_invariant_for_node_division() {
        let sys = system(300, 5);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let e1 = mpi(&sys, &params, &cfg, 1, WorkDivision::NodeNode).unwrap().energy_kcal;
        for cores in [2usize, 4, 12] {
            let e = mpi(&sys, &params, &cfg, cores, WorkDivision::NodeNode).unwrap().energy_kcal;
            assert!(
                ((e - e1) / e1).abs() < 1e-12,
                "node-node energy changed with P={cores}: {e} vs {e1}"
            );
        }
    }

    #[test]
    fn atom_division_energy_varies_with_p() {
        let sys = system(300, 5);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let e2 = mpi(&sys, &params, &cfg, 2, WorkDivision::AtomBased).unwrap().energy_kcal;
        let e7 = mpi(&sys, &params, &cfg, 7, WorkDivision::AtomBased).unwrap().energy_kcal;
        assert!(
            (e2 - e7).abs() > 1e-13 * e2.abs(),
            "atom-based division should vary with P ({e2} vs {e7})"
        );
        // ... but both stay within the error bound.
        let naive = run_naive(&sys, &params, &cfg).unwrap().energy_kcal;
        assert!(((e2 - naive) / naive).abs() < 0.01);
        assert!(((e7 - naive) / naive).abs() < 0.01);
    }

    #[test]
    fn divisions_agree_bit_for_bit_at_one_rank() {
        // At P = 1 the atom-based share clips every leaf to all of its
        // points, so both divisions run the same whole-leaf tasks.
        let sys = system(300, 5);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let node = mpi(&sys, &params, &cfg, 1, WorkDivision::NodeNode).unwrap();
        let atom = mpi(&sys, &params, &cfg, 1, WorkDivision::AtomBased).unwrap();
        assert_eq!(node.energy_kcal.to_bits(), atom.energy_kcal.to_bits());
        let bits = |r: &RunReport| r.born_radii.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&node), bits(&atom));
    }

    #[test]
    fn distributed_scales_down_time() {
        let sys = system(900, 7);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let t1 = mpi(&sys, &params, &cfg, 1, WorkDivision::NodeNode).unwrap().time;
        let t12 = mpi(&sys, &params, &cfg, 12, WorkDivision::NodeNode).unwrap().time;
        assert!(t12 < t1, "12 ranks ({t12}) should beat 1 ({t1})");
        assert!(t1 / t12 > 3.0, "speedup {} too small", t1 / t12);
    }

    #[test]
    fn octree_beats_naive_on_medium_molecules() {
        let sys = system(1200, 9);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let naive = run_naive(&sys, &params, &cfg).unwrap();
        let serial = run_serial(&sys, &params, &cfg).unwrap();
        assert!(
            serial.time < naive.time,
            "octree ({}) should beat naive ({})",
            serial.time,
            naive.time
        );
    }

    #[test]
    fn reports_have_consistent_metadata() {
        let sys = system(200, 1);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let r = mpi(&sys, &params, &cfg, 4, WorkDivision::NodeNode).unwrap();
        assert_eq!(r.cores, 4);
        assert_eq!(r.born_radii.len(), 200);
        assert!(r.memory_per_process > 0);
        assert!(r.ops.total() > 0);
        assert!(r.comm > 0.0, "distributed run must pay communication");
        assert_eq!(r.outcome, RunOutcome::Completed);
        let h = hybrid(&sys, &params, &cfg, 12).unwrap();
        assert_eq!(h.cores, 12);
        assert_eq!(h.name, "OCT_MPI+CILK");
        assert_eq!(h.outcome, RunOutcome::Completed);
    }

    #[test]
    fn born_radii_match_across_drivers() {
        let sys = system(250, 11);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let serial = run_serial(&sys, &params, &cfg).unwrap();
        let mpi = mpi(&sys, &params, &cfg, 6, WorkDivision::NodeNode).unwrap();
        for (a, b) in serial.born_radii.iter().zip(&mpi.born_radii) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn threads_driver_matches_serial_energy() {
        let sys = system(400, 3);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let serial = run_serial(&sys, &params, &cfg).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let thr = run_oct_threads_ft(&sys, &params, &cfg, threads, &FaultPlan::none()).unwrap();
            let rel = ((thr.energy_kcal - serial.energy_kcal) / serial.energy_kcal).abs();
            assert!(
                rel <= 1e-12,
                "threads={threads}: {} vs serial {} (rel {rel})",
                thr.energy_kcal,
                serial.energy_kcal
            );
            // Kernel pair counts match exactly; `nodes_visited` does not
            // (the chunked push re-walks shared ancestors per chunk).
            assert_eq!(thr.ops.born_near, serial.ops.born_near);
            assert_eq!(thr.ops.born_far, serial.ops.born_far);
            assert_eq!(thr.ops.epol_near, serial.ops.epol_near);
            assert_eq!(thr.ops.epol_far, serial.ops.epol_far);
            // Radii agree to reassociation error only: the threaded driver
            // merges per-block `BornAccumulators` subtotals, so each atom's
            // integral sums in a different association than serial's single
            // running sum. Bit-identity holds across thread *widths* (see
            // `threads_driver_is_bit_reproducible_across_widths`), not here.
            for (a, b) in thr.born_radii.iter().zip(&serial.born_radii) {
                assert!(((a - b) / b).abs() <= 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn threads_driver_is_bit_reproducible_across_widths() {
        // The block partition is fixed, so the FP reduction order — and
        // with it the energy bits — must not depend on the worker count.
        let sys = system(300, 7);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let e1 =
            run_oct_threads_ft(&sys, &params, &cfg, 1, &FaultPlan::none()).unwrap().energy_kcal;
        for threads in [2usize, 3, 4, 8] {
            let e = run_oct_threads_ft(&sys, &params, &cfg, threads, &FaultPlan::none())
                .unwrap()
                .energy_kcal;
            assert_eq!(e.to_bits(), e1.to_bits(), "threads={threads}: {e} vs {e1}");
        }
    }

    #[test]
    fn measured_wall_clock_is_populated() {
        let sys = system(200, 5);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        // Every one-process driver runs the same timed pipeline.
        for r in [
            run_serial(&sys, &params, &cfg).unwrap(),
            run_oct_cilk(&sys, &params, &cfg, 1).unwrap(),
            run_oct_threads_ft(&sys, &params, &cfg, 1, &FaultPlan::none()).unwrap(),
            run_oct_threads_ft(&sys, &params, &cfg, 2, &FaultPlan::none()).unwrap(),
        ] {
            assert!(r.wall_seconds > 0.0, "{}: wall clock not measured", r.name);
            let p = r.phases;
            for (phase, t) in [
                ("integrals", p.integrals),
                ("push", p.push),
                ("bins", p.bins),
                ("epol", p.epol),
                ("lists", p.lists),
            ] {
                assert!(t > 0.0, "{}: {phase} phase empty", r.name);
            }
            assert!(
                r.phases.total() <= r.wall_seconds,
                "{}: phases {} exceed wall {}",
                r.name,
                r.phases.total(),
                r.wall_seconds
            );
        }
        let f = mpi(&sys, &params, &cfg, 2, WorkDivision::NodeNode).unwrap();
        assert!(f.wall_seconds > 0.0);
        assert_eq!(f.phases, PhaseTimes::default());
    }

    #[test]
    fn phase_total_sums_every_phase() {
        let p = PhaseTimes { integrals: 2.0, push: 3.0, bins: 4.0, epol: 5.0, lists: 6.0 };
        assert_eq!(p.total(), 20.0);
        assert_eq!(PhaseTimes::default().total(), 0.0);
    }

    #[test]
    fn validation_rejects_non_finite_inputs() {
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let mut sys = system(50, 1);
        sys.charge[3] = f64::NAN;
        let err = run_serial(&sys, &params, &cfg).unwrap_err();
        assert!(matches!(err, DriverError::InvalidInput { .. }), "{err}");
        assert!(err.to_string().contains("charge"), "{err}");
        assert!(matches!(err.outcome(), RunOutcome::Failed { .. }));

        let mut sys = system(50, 1);
        sys.atoms.points[0].x = f64::INFINITY;
        assert!(mpi(&sys, &params, &cfg, 2, WorkDivision::NodeNode).is_err());

        let mut sys = system(50, 1);
        sys.radius[7] = -1.0;
        let err = run_oct_threads_ft(&sys, &params, &cfg, 2, &FaultPlan::none()).unwrap_err();
        assert!(err.to_string().contains("radius"), "{err}");

        let mut sys = system(50, 1);
        sys.q_weight[11] = f64::NAN;
        assert!(run_naive(&sys, &params, &cfg).is_err());
    }

    fn assert_config_error(r: Result<RunReport, DriverError>) {
        match r {
            Err(DriverError::InvalidConfig { what }) => assert!(!what.is_empty()),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn cilk_rejects_zero_threads() {
        let sys = system(50, 1);
        let r = run_oct_cilk(&sys, &ApproxParams::default(), &DriverConfig::default(), 0);
        assert_config_error(r);
    }

    #[test]
    fn threads_ft_rejects_zero_threads() {
        let sys = system(50, 1);
        let (params, cfg) = (ApproxParams::default(), DriverConfig::default());
        assert_config_error(run_oct_threads_ft(&sys, &params, &cfg, 0, &FaultPlan::none()));
    }

    #[test]
    fn mpi_ft_rejects_a_hybrid_placement() {
        let sys = system(50, 1);
        let (params, cfg) = (ApproxParams::default(), DriverConfig::default());
        assert_config_error(run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &hybrid_cluster(12),
            WorkDivision::NodeNode,
            &FtConfig::default(),
        ));
    }

    #[test]
    fn hybrid_ft_rejects_one_thread_per_rank() {
        let sys = system(50, 1);
        let (params, cfg) = (ApproxParams::default(), DriverConfig::default());
        assert_config_error(run_oct_hybrid_ft(
            &sys,
            &params,
            &cfg,
            &cluster(4),
            &FtConfig::default(),
        ));
    }

    #[test]
    fn threads_driver_recovers_poisoned_block_bit_identically() {
        let sys = system(300, 7);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let clean = run_oct_threads_ft(&sys, &params, &cfg, 4, &FaultPlan::none()).unwrap();
        // Poison one block in each parallel phase; the pool contains the
        // panics and the driver re-executes the blocks in order.
        let plan = FaultPlan::new(0xB10C)
            .panic_worker(0, phase::INTEGRALS)
            .panic_worker(0, phase::PUSH)
            .panic_worker(0, phase::EPOL);
        let faulty = run_oct_threads_ft(&sys, &params, &cfg, 4, &plan).unwrap();
        assert_eq!(
            faulty.outcome,
            RunOutcome::Recovered { n_retries: 3 },
            "got {:?}",
            faulty.outcome
        );
        assert_eq!(faulty.energy_kcal.to_bits(), clean.energy_kcal.to_bits());
        for (a, b) in faulty.born_radii.iter().zip(&clean.born_radii) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mpi_recovers_killed_rank_bit_identically() {
        let sys = system(250, 9);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let clean = mpi(&sys, &params, &cfg, 4, WorkDivision::NodeNode).unwrap();
        let ftc = FtConfig {
            plan: FaultPlan::new(1).kill(2, phase::INTEGRALS),
            policy: FtPolicy::with_timeout(std::time::Duration::from_millis(300)),
            recovery: RecoveryMode::Reexecute,
        };
        let rec =
            run_oct_mpi_ft(&sys, &params, &cfg, &cluster(4), WorkDivision::NodeNode, &ftc).unwrap();
        assert!(
            matches!(rec.outcome, RunOutcome::Recovered { n_retries } if n_retries >= 1),
            "got {:?}",
            rec.outcome
        );
        assert_eq!(rec.energy_kcal.to_bits(), clean.energy_kcal.to_bits());
        for (a, b) in rec.born_radii.iter().zip(&clean.born_radii) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mpi_without_recovery_fails_fast_instead_of_hanging() {
        let sys = system(150, 2);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let ftc = FtConfig {
            plan: FaultPlan::new(2).kill(1, phase::INTEGRALS),
            policy: FtPolicy::with_timeout(std::time::Duration::from_millis(200)),
            recovery: RecoveryMode::Disabled,
        };
        let t = Instant::now();
        let err = run_oct_mpi_ft(&sys, &params, &cfg, &cluster(3), WorkDivision::NodeNode, &ftc)
            .unwrap_err();
        assert!(matches!(err, DriverError::Failed { .. }), "{err}");
        assert!(
            t.elapsed() < std::time::Duration::from_secs(10),
            "must fail within the collective timeout, took {:?}",
            t.elapsed()
        );
    }

    #[test]
    fn fork_join_makespan_bounds() {
        let t1 = 1.0;
        assert_eq!(fork_join_makespan(t1, 100, 10, 1, 1e-6), t1);
        let t4 = fork_join_makespan(t1, 100, 10, 4, 1e-6);
        assert!(t4 >= t1 / 4.0);
        assert!(t4 < t1, "4 workers should beat serial");
    }

    /// Step 6 with mirrored tiles paired inside each share gives the bits
    /// of a plain fold of [`approx_epol_leaf`] per task: the same raw
    /// sum and the same op counts for every task, at every rank count,
    /// under both divisions and both far rules.
    #[test]
    fn step6_pairing_changes_no_bits() {
        use crate::epol::approx_epol_leaf;
        let sys = system(1_000, 9);
        let params = ApproxParams::default();
        let (born, _) = crate::born::born_radii_octree(&sys, params.eps_born, params.math);
        let leaves = sys.atoms.leaf_count();
        for far in [EpolFar::Binned, EpolFar::default()] {
            let bins = ChargeBins::build_far(&sys, &born, params.eps_epol, far);
            for div in [WorkDivision::NodeNode, WorkDivision::AtomBased] {
                for parts in [1, 2, 3, 8, leaves + 2] {
                    for rank in 0..parts {
                        let share = div.share(&sys.atoms, parts, rank);
                        let (mut plain, mut plain_ops) = (0.0, Vec::new());
                        for v in share.tasks(&sys.atoms) {
                            let (r, o) =
                                approx_epol_leaf(&sys, &bins, &born, v, &share.points, params.math);
                            plain += r;
                            plain_ops.push(o);
                        }
                        let (raw, ops) =
                            step6_partial(&sys, &bins, &born, div, parts, rank, params.math);
                        let at = format!("{far:?} {div:?} P={parts} rank {rank}");
                        assert_eq!(raw.to_bits(), plain.to_bits(), "{at}: {raw} vs {plain}");
                        assert_eq!(ops, plain_ops, "{at}: op counts");
                    }
                }
                // One rank holds every leaf whole: pairs must form.
                let share = div.share(&sys.atoms, 1, 0);
                let mut mirrors = ShareMirrors::new(&sys.atoms, &share);
                for v in share.tasks(&sys.atoms) {
                    epol_leaf(
                        &sys,
                        &bins,
                        &born,
                        v,
                        &share.points,
                        params.math,
                        Some(&mut mirrors),
                    );
                }
                assert!(mirrors.paired > 0, "{far:?} {div:?}: no tile was paired");
            }
        }
    }

    /// The percent estimate for one degraded rank when it holds all of
    /// the atoms tree (one rank).
    fn whole_share_pct() -> f64 {
        100.0 * (2.0 / EPS_DEGRADED) / (1.0 + 2.0 / EPS_DEGRADED)
    }

    #[test]
    fn degraded_error_sizes_an_atom_based_share_by_its_atoms() {
        let sys = system(300, 4);
        let (n, parts) = (sys.atoms.len() as f64, 4);
        let est = |div, ranks: &[usize]| estimate_degraded_error(&sys, div, ranks, parts);
        for (r, range) in sys.atoms.partition_points(parts).iter().enumerate() {
            let want = whole_share_pct() * range.len() as f64 / n;
            let got = est(WorkDivision::AtomBased, &[r]);
            assert!((got - want).abs() < 1e-12, "rank {r}: {got} vs {want}");
        }
        let leaves = sys.atoms.leaf_count() as f64;
        for (r, range) in sys.atoms.partition_leaves(parts).iter().enumerate() {
            let want = whole_share_pct() * range.len() as f64 / leaves;
            let got = est(WorkDivision::NodeNode, &[r]);
            assert!((got - want).abs() < 1e-12, "rank {r}: {got} vs {want}");
        }
        for div in [WorkDivision::NodeNode, WorkDivision::AtomBased] {
            let all = est(div, &[0, 1, 2, 3]);
            assert!(
                (all - whole_share_pct()).abs() < 1e-9,
                "{div:?}: all ranks give {all}"
            );
        }
    }

    #[test]
    fn degraded_error_past_the_last_leaf() {
        let sys = system(300, 4);
        let leaves = sys.atoms.leaf_count();
        let parts = leaves + 3;
        assert!(
            parts < sys.atoms.len(),
            "every atom-based rank must own atoms"
        );
        let est = |div, ranks: &[usize]| estimate_degraded_error(&sys, div, ranks, parts);
        for r in leaves..parts {
            assert_eq!(
                est(WorkDivision::NodeNode, &[r]),
                0.0,
                "node-node rank {r} owns no leaf"
            );
            assert!(
                est(WorkDivision::AtomBased, &[r]) > 0.0,
                "atom-based rank {r} owns atoms"
            );
        }
        let every: Vec<usize> = (0..parts).collect();
        for div in [WorkDivision::NodeNode, WorkDivision::AtomBased] {
            let all = est(div, &every);
            assert!(
                (all - whole_share_pct()).abs() < 1e-9,
                "{div:?}: all ranks give {all}"
            );
        }
    }
}
