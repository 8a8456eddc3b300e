//! Fig. 4 over the **process transport**: real OS worker processes,
//! real `SIGKILL`, same bits.
//!
//! [`run_oct_mpi_proc_ft`] plays rank 0 in the calling process and
//! spawns one worker process per member rank (a re-exec of the current
//! executable — test binaries and benches opt in by calling
//! [`maybe_worker`] at the top of `main`). The job ships over the
//! checksummed wire format of `polaroct_cluster::wire`; collectives run
//! through the same two-round FT protocol as the in-process driver, via
//! `polaroct_cluster::proc`.
//!
//! **Start-up order.** Launch the workers, ship each its `JOB`, then
//! prepare rank 0's system while the workers prepare theirs (Fig. 4
//! Step 1 runs on every rank at once), then wait for every `READY`.
//! Rank 0 validates its own replica before waiting: bad input ends in
//! the same [`DriverError::InvalidInput`] as on the in-process path, and
//! the supervisor kills the workers it launched on the way out. Only a
//! launch that fails outright (no executable path, no socket) returns
//! [`DriverError::Failed`] before the input is checked.
//!
//! **What `wall_seconds` covers.** [`RunReport::wall_seconds`] runs from
//! the worker launch to the last worker reaped: launch, rank 0's prepare
//! (overlapping the workers'), the Fig. 4 body and the reap. A
//! one-rank run has no workers and, like the in-process drivers, starts
//! its clock after the prepare.
//!
//! **Bit-identity across transports.** Both transports execute
//! `crate::drivers::fig4_rank_body` — the identical rank body — and
//! the root-side collective protocol does not depend on which transport
//! carries the frames: ranks are polled in rank order, recovery uses the
//! same round-robin assignment, and the root folds contributions in rank
//! order. Payload floats travel as raw IEEE-754 bit patterns, so the
//! same molecule + seed + fault plan yields byte-identical energies and
//! Born radii on both transports (the golden suite and the
//! `transports_match` proptest pin this).

use crate::drivers::{
    fig4_rank_body, fig4_report, require_config, validate_params, validate_system, DriverConfig,
    DriverError, FtConfig, RunReport,
};
use crate::params::{ApproxParams, EpolFar};
use crate::system::GbSystem;
use crate::workdiv::WorkDivision;
use polaroct_cluster::wire::{self, Dec, Enc, WireError};
use polaroct_geom::Vec3;
use polaroct_molecule::{Element, Molecule};
use polaroct_surface::SurfaceParams;

/// Env var carrying the supervisor's socket path to a worker process.
pub const ENV_SOCK: &str = "POLAROCT_WORKER_SOCK";
/// Env var carrying the worker's member rank.
pub const ENV_RANK: &str = "POLAROCT_WORKER_RANK";
/// Startup-hardening test hook: `exit:<code>:<rank>` makes the matching
/// worker exit with `<code>` *before* connecting — exercising the
/// dead-before-handshake path with a captured exit status.
pub const ENV_SELFTEST: &str = "POLAROCT_WORKER_SELFTEST";

/// Worker entry hook. Call this first in `main` of any binary that runs
/// the process-transport driver: if the worker env vars are set, the
/// process runs one member rank to completion and **exits** (never
/// returns); otherwise it is a no-op.
pub fn maybe_worker() {
    #[cfg(unix)]
    imp::maybe_worker_unix();
}

/// Everything a worker needs to reproduce the run, bit for bit.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub molecule: Molecule,
    pub params: ApproxParams,
    pub cfg: DriverConfig,
    pub workdiv: WorkDivision,
    pub recovery: crate::drivers::RecoveryMode,
    pub plan: polaroct_cluster::FaultPlan,
}

/// Encode a job for the `JOB` frame. All floats travel as raw bit
/// patterns: the worker re-validates through [`validate_system`] after
/// [`GbSystem::prepare`], exactly like the supervisor did.
pub fn encode_job(job: &JobSpec) -> Vec<u8> {
    let mut e = Enc::new();
    let mol = &job.molecule;
    e.put_str(&mol.name);
    e.put_usize(mol.positions.len());
    for p in &mol.positions {
        e.put_f64(p.x);
        e.put_f64(p.y);
        e.put_f64(p.z);
    }
    e.put_f64s(&mol.radii);
    e.put_f64s(&mol.charges);
    for &el in &mol.elements {
        // PANIC-OK: Element::ALL contains every variant by definition.
        let idx = Element::ALL.iter().position(|&a| a == el).unwrap_or(6);
        e.put_u8(idx as u8);
    }
    let p = &job.params;
    e.put_f64(p.eps_born);
    e.put_f64(p.eps_epol);
    e.put_u8(match p.math {
        polaroct_geom::fastmath::MathMode::Exact => 0,
        polaroct_geom::fastmath::MathMode::Approx => 1,
    });
    e.put_usize(p.leaf_cap_atoms);
    e.put_usize(p.leaf_cap_qpoints);
    e.put_u32(p.surface.icosphere_level);
    e.put_u32(p.surface.quadrature_degree);
    e.put_f64(p.surface.probe_radius);
    e.put_f64(p.surface.burial_slack);
    e.put_f64(p.eps_solvent);
    // The far rule travels as a (tag, MAC) pair; `Binned` derives its
    // MAC from ε and sends 0.0.
    e.put_u8(match p.epol_far {
        EpolFar::Binned => 0,
        EpolFar::Taylor2 { .. } => 1,
    });
    e.put_f64(match p.epol_far {
        EpolFar::Binned => 0.0,
        EpolFar::Taylor2 { mac } => mac,
    });
    let c = &job.cfg;
    e.put_f64(c.costs.born_far);
    e.put_f64(c.costs.born_near);
    e.put_f64(c.costs.epol_far);
    e.put_f64(c.costs.epol_near);
    e.put_f64(c.costs.node_visit);
    e.put_f64(c.costs.approx_math_factor);
    e.put_f64(c.cilk_efficiency);
    e.put_f64(c.hybrid_efficiency);
    e.put_f64(c.hybrid_phase_overhead);
    e.put_f64(c.steal_cost);
    e.put_u8(match job.workdiv {
        WorkDivision::NodeNode => 0,
        WorkDivision::AtomBased => 1,
    });
    e.put_u8(match job.recovery {
        crate::drivers::RecoveryMode::Disabled => 0,
        crate::drivers::RecoveryMode::Reexecute => 1,
        crate::drivers::RecoveryMode::Degrade => 2,
    });
    wire::put_fault_plan(&mut e, &job.plan);
    e.into_bytes()
}

/// Decode a `JOB` frame body. Rejects truncated/trailing bytes and bad
/// tags with a typed [`WireError`]; float payloads are accepted raw and
/// left to [`validate_system`] to judge.
pub fn decode_job(body: &[u8]) -> Result<JobSpec, WireError> {
    let mut d = Dec::new(body);
    let name = d.get_str("molecule name")?;
    let n = d.get_usize("atom count")?;
    // Guard n before the per-atom loops: each atom needs ≥ 3×8 bytes of
    // positions alone, so a huge count cannot pass the reads below, but
    // bound the allocations up front anyway.
    if n.saturating_mul(24) > body.len() {
        return Err(WireError::Truncated {
            what: "atom positions",
            wanted: n.saturating_mul(24),
            have: body.len(),
        });
    }
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        let x = d.get_f64_raw("position x")?;
        let y = d.get_f64_raw("position y")?;
        let z = d.get_f64_raw("position z")?;
        positions.push(Vec3::new(x, y, z));
    }
    let radii = d.get_f64s_raw("radii")?;
    let charges = d.get_f64s_raw("charges")?;
    if radii.len() != n || charges.len() != n {
        return Err(WireError::BadTag {
            what: "molecule arrays disagree on atom count",
            tag: radii.len().min(255) as u8,
        });
    }
    let mut elements = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = d.get_u8("element")?;
        let el = *Element::ALL
            .get(idx as usize)
            .ok_or(WireError::BadTag { what: "element", tag: idx })?;
        elements.push(el);
    }
    let molecule = Molecule { positions, radii, charges, elements, name };

    let eps_born = d.get_f64_raw("eps_born")?;
    let eps_epol = d.get_f64_raw("eps_epol")?;
    let math = match d.get_u8("math mode")? {
        0 => polaroct_geom::fastmath::MathMode::Exact,
        1 => polaroct_geom::fastmath::MathMode::Approx,
        t => return Err(WireError::BadTag { what: "math mode", tag: t }),
    };
    let leaf_cap_atoms = d.get_usize("leaf_cap_atoms")?;
    let leaf_cap_qpoints = d.get_usize("leaf_cap_qpoints")?;
    let surface = SurfaceParams {
        icosphere_level: d.get_u32("icosphere_level")?,
        quadrature_degree: d.get_u32("quadrature_degree")?,
        probe_radius: d.get_f64_raw("probe_radius")?,
        burial_slack: d.get_f64_raw("burial_slack")?,
    };
    let eps_solvent = d.get_f64_raw("eps_solvent")?;
    let far_tag = d.get_u8("epol_far")?;
    let far_mac = d.get_f64_raw("epol_far mac")?;
    let epol_far = match far_tag {
        0 => EpolFar::Binned,
        1 => EpolFar::Taylor2 { mac: far_mac },
        t => return Err(WireError::BadTag { what: "epol_far", tag: t }),
    };
    let params = ApproxParams {
        eps_born,
        eps_epol,
        math,
        leaf_cap_atoms,
        leaf_cap_qpoints,
        surface,
        eps_solvent,
        epol_far,
    };
    let cfg = DriverConfig {
        costs: polaroct_cluster::KernelCosts {
            born_far: d.get_f64_raw("born_far")?,
            born_near: d.get_f64_raw("born_near")?,
            epol_far: d.get_f64_raw("epol_far")?,
            epol_near: d.get_f64_raw("epol_near")?,
            node_visit: d.get_f64_raw("node_visit")?,
            approx_math_factor: d.get_f64_raw("approx_math_factor")?,
        },
        cilk_efficiency: d.get_f64_raw("cilk_efficiency")?,
        hybrid_efficiency: d.get_f64_raw("hybrid_efficiency")?,
        hybrid_phase_overhead: d.get_f64_raw("hybrid_phase_overhead")?,
        steal_cost: d.get_f64_raw("steal_cost")?,
    };
    let workdiv = match d.get_u8("workdiv")? {
        0 => WorkDivision::NodeNode,
        1 => WorkDivision::AtomBased,
        t => return Err(WireError::BadTag { what: "workdiv", tag: t }),
    };
    let recovery = match d.get_u8("recovery")? {
        0 => crate::drivers::RecoveryMode::Disabled,
        1 => crate::drivers::RecoveryMode::Reexecute,
        2 => crate::drivers::RecoveryMode::Degrade,
        t => return Err(WireError::BadTag { what: "recovery", tag: t }),
    };
    let plan = wire::get_fault_plan(&mut d)?;
    d.finish()?;
    Ok(JobSpec { molecule, params, cfg, workdiv, recovery, plan })
}

#[cfg(unix)]
pub use imp::run_oct_mpi_proc_ft;

#[cfg(unix)]
mod imp {
    use super::*;
    use crate::drivers::RecoveryMode;
    use polaroct_cluster::{
        comm::Communicator,
        costmodel::CommCostModel,
        fault::KillMode,
        machine::{ClusterSpec, MachineSpec, Placement},
        proc::{ProcError, Supervisor, WorkerEndpoint},
        runner::RankContext,
        simtime::{OpCounts, SimClock},
        transport::Transport,
        wire::kind,
    };
    use std::path::Path;
    use std::process::Command;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Window for a worker to be spawned, connect, and handshake. Wide:
    /// a loaded single-core host serializes every child's startup.
    const STARTUP_TIMEOUT: Duration = Duration::from_secs(20);
    /// Window for a worker to prepare + validate its system and report
    /// `READY` (covers surface sampling and two octree builds).
    const READY_TIMEOUT: Duration = Duration::from_secs(60);
    /// Window for a worker's `DONE` after the root finishes its own
    /// collectives (the final reduce synchronizes the fleet, so only the
    /// worker's epilogue remains).
    const DONE_TIMEOUT: Duration = Duration::from_secs(60);
    /// Grace before `reap` SIGKILLs a still-running child.
    const REAP_GRACE: Duration = Duration::from_secs(5);

    fn mpi_cluster(ranks: usize) -> ClusterSpec {
        ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(ranks))
    }

    pub(super) fn maybe_worker_unix() {
        let (Ok(sock), Ok(rank)) = (std::env::var(ENV_SOCK), std::env::var(ENV_RANK)) else {
            return;
        };
        let Ok(rank) = rank.parse::<usize>() else {
            eprintln!("polaroct worker: bad {ENV_RANK} value {rank:?}");
            std::process::exit(2);
        };
        let code = worker_main(Path::new(&sock), rank);
        std::process::exit(code);
    }

    /// Run one member rank to completion. Returns the process exit code;
    /// never panics on malformed input (frame/decode failures become
    /// `WORKER_ERR` + exit 1).
    fn worker_main(sock: &Path, rank: usize) -> i32 {
        if let Ok(spec) = std::env::var(ENV_SELFTEST) {
            // "exit:<code>:<rank>" — die before connecting.
            let parts: Vec<&str> = spec.split(':').collect();
            if parts.len() == 3 && parts[0] == "exit" {
                if let (Ok(code), Ok(r)) = (parts[1].parse::<i32>(), parts[2].parse::<usize>()) {
                    if r == rank {
                        std::process::exit(code);
                    }
                }
            }
        }
        let (endpoint, job_body) = match polaroct_cluster::proc::worker_connect(
            sock,
            rank,
            STARTUP_TIMEOUT,
        ) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("polaroct worker {rank}: {e}");
                return 1;
            }
        };
        let endpoint = Arc::new(endpoint);
        let reject = |endpoint: &WorkerEndpoint, msg: &str| {
            let mut e = Enc::new();
            e.put_str(msg);
            let _ = endpoint.send_raw(kind::WORKER_ERR, &e.into_bytes());
            1
        };
        let job = match decode_job(&job_body) {
            Ok(j) => j,
            Err(e) => return reject(&endpoint, &format!("job decode failed: {e}")),
        };
        let sys = GbSystem::prepare(&job.molecule, &job.params);
        if let Err(e) = validate_system(&sys) {
            return reject(&endpoint, &format!("system validation failed: {e}"));
        }
        if endpoint.send_raw(kind::READY, &[]).is_err() {
            return 1;
        }

        let size = endpoint.size();
        let cluster = mpi_cluster(size);
        let cost = CommCostModel::for_cluster(&cluster);
        let plan = Arc::new(job.plan.clone());
        let comm = Communicator::over(rank, cost, endpoint.clone() as Arc<dyn Transport>)
            .with_faults(plan.clone())
            .with_kill_mode(KillMode::Process);
        let mut ctx = RankContext {
            rank,
            size,
            comm,
            clock: SimClock::new(),
            threads: 1,
            faults: plan,
            kill: KillMode::Process,
        };
        let res = fig4_rank_body(
            &sys,
            &job.params,
            &job.cfg,
            &cluster,
            job.workdiv,
            job.recovery.prefer(),
            &mut ctx,
        );

        let mut e = Enc::new();
        let code = match res {
            Ok((_, _, rank_ops, _)) => {
                e.put_bool(true);
                e.put_u64(rank_ops.born_far);
                e.put_u64(rank_ops.born_near);
                e.put_u64(rank_ops.epol_far);
                e.put_u64(rank_ops.epol_near);
                e.put_u64(rank_ops.nodes_visited);
                e.put_f64(ctx.clock.compute);
                e.put_f64(ctx.clock.comm);
                e.put_f64(ctx.clock.wait);
                0
            }
            Err(err) => {
                e.put_bool(false);
                e.put_str(&err.to_string());
                1
            }
        };
        if endpoint.send_raw(kind::DONE, &e.into_bytes()).is_err() {
            return 1;
        }
        code
    }

    /// Decode one worker's `DONE` payload: `Some((ops, clock))` for a
    /// successful rank, `None` when the rank body failed (its error
    /// message is validated and discarded — the root's own collective
    /// reports already classify the run).
    fn decode_done(body: &[u8]) -> Result<Option<(OpCounts, SimClock)>, WireError> {
        let mut d = Dec::new(body);
        if d.get_bool("done ok flag")? {
            let ops = OpCounts {
                born_far: d.get_u64("ops born_far")?,
                born_near: d.get_u64("ops born_near")?,
                epol_far: d.get_u64("ops epol_far")?,
                epol_near: d.get_u64("ops epol_near")?,
                nodes_visited: d.get_u64("ops nodes_visited")?,
            };
            let clock = SimClock {
                compute: d.get_f64_raw("clock compute")?,
                comm: d.get_f64_raw("clock comm")?,
                wait: d.get_f64_raw("clock wait")?,
            };
            d.finish()?;
            Ok(Some((ops, clock)))
        } else {
            let _ = d.get_str("rank error")?;
            d.finish()?;
            Ok(None)
        }
    }

    /// Distributed Fig. 4 run (`OCT_MPI` semantics) over **real worker
    /// processes**: `ranks - 1` children are spawned as re-execs of the
    /// current executable, rank 0 runs in the calling process, and the
    /// two-round FT collectives flow over Unix sockets. Kill faults are
    /// realized as literal `SIGKILL`s of the children; recovery and
    /// degradation behave exactly as in [`crate::run_oct_mpi_ft`], and
    /// the resulting energies are bit-identical to the in-process
    /// transport under the same molecule + fault plan.
    ///
    /// The calling binary **must** invoke [`maybe_worker`] at the top of
    /// `main`, or the children will re-run `main` as supervisors.
    pub fn run_oct_mpi_proc_ft(
        mol: &Molecule,
        params: &ApproxParams,
        cfg: &DriverConfig,
        ranks: usize,
        workdiv: WorkDivision,
        ftc: &FtConfig,
    ) -> Result<RunReport, DriverError> {
        require_config(ranks >= 1, "the process transport needs at least one rank")?;
        validate_params(params)?;
        if ranks == 1 {
            let sys = GbSystem::prepare(mol, params);
            validate_system(&sys)?;
            // One rank has no workers — the transports are trivially
            // identical; run in process and relabel.
            let mut r = crate::drivers::run_oct_mpi_ft(
                &sys,
                params,
                cfg,
                &mpi_cluster(1),
                workdiv,
                ftc,
            )?;
            r.name = "OCT_MPI_PROC".into();
            return Ok(r);
        }
        let wall = Instant::now();
        let cluster = mpi_cluster(ranks);
        let exe = std::env::current_exe().map_err(|e| DriverError::Failed {
            cause: format!("cannot locate current executable for re-exec: {e}"),
        })?;
        let mut sup = Supervisor::launch(ranks, ftc.policy, STARTUP_TIMEOUT, &mut |r, sock| {
            let mut cmd = Command::new(&exe);
            cmd.env(ENV_SOCK, sock).env(ENV_RANK, r.to_string());
            cmd
        })
        .map_err(|e| DriverError::Failed { cause: format!("worker launch failed: {e}") })?;

        let fabric = sup.fabric();
        let job = encode_job(&JobSpec {
            molecule: mol.clone(),
            params: *params,
            cfg: *cfg,
            workdiv,
            recovery: ftc.recovery,
            plan: ftc.plan.clone(),
        });
        for r in 1..ranks {
            if fabric.is_dead(r) {
                continue;
            }
            if let Err(e) = sup.send_job(r, &job) {
                fabric.mark_dead(r);
                fabric.record_exit(r, e.to_string());
            }
        }

        // Step 1 on every rank at once: rank 0 prepares its replica while
        // the workers prepare theirs. Bad input ends here, before any
        // `READY` is awaited; dropping the supervisor kills the workers.
        let sys = GbSystem::prepare(mol, params);
        validate_system(&sys)?;

        // Workers that died (or hung) before the handshake: with recovery
        // disabled the run cannot tolerate them; otherwise the collectives
        // will find them dead and recover, like any other lost rank.
        if let (Some((rank, status)), RecoveryMode::Disabled) =
            (sup.startup_lost().first(), ftc.recovery)
        {
            return Err(DriverError::Failed {
                cause: format!("worker {rank} lost before joining ({status})"),
            });
        }
        for r in 1..ranks {
            if fabric.is_dead(r) {
                continue;
            }
            match sup.wait_ready(r, READY_TIMEOUT) {
                Ok(()) => {}
                Err(ProcError::WorkerRejected { rank, detail }) => {
                    // The supervisor validated the same system above, so
                    // a rejection means the job did not survive the wire
                    // — never recoverable by re-execution elsewhere.
                    drop(sup);
                    return Err(DriverError::Failed {
                        cause: format!("worker {rank} rejected the job: {detail}"),
                    });
                }
                Err(e) => {
                    if ftc.recovery == RecoveryMode::Disabled {
                        drop(sup);
                        return Err(DriverError::Failed { cause: e.to_string() });
                    }
                    // Already marked dead + status recorded by wait_ready;
                    // the collectives will recover its share.
                }
            }
        }

        // Rank 0 runs in this process over the root side of the fabric.
        let cost = CommCostModel::for_cluster(&cluster);
        let plan = Arc::new(ftc.plan.clone());
        let comm = Communicator::over(0, cost, fabric.clone() as Arc<dyn Transport>)
            .with_faults(plan.clone());
        let mut ctx = RankContext {
            rank: 0,
            size: ranks,
            comm,
            clock: SimClock::new(),
            threads: 1,
            faults: plan,
            kill: KillMode::Simulated,
        };
        let root = fig4_rank_body(
            &sys,
            params,
            cfg,
            &cluster,
            workdiv,
            ftc.recovery.prefer(),
            &mut ctx,
        );
        let (raw, born_sorted, root_ops, mut summary) = match root {
            Ok(v) => v,
            Err(e) => {
                sup.reap(REAP_GRACE);
                return Err(DriverError::Failed { cause: format!("rank 0: {e}") });
            }
        };

        // Collect surviving workers' op counts and simulated clocks; a
        // worker that fails here just drops out of the aggregates, same
        // as a dead rank's thread in the in-process runner.
        let mut ops = root_ops;
        let mut clocks = vec![ctx.clock];
        for r in 1..ranks {
            if fabric.is_dead(r) {
                continue;
            }
            match sup.recv_done(r, DONE_TIMEOUT).map_err(|e| e.to_string()).and_then(|body| {
                decode_done(&body).map_err(|e| format!("bad DONE frame: {e}"))
            }) {
                Ok(Some((o, clock))) => {
                    ops.add(&o);
                    clocks.push(clock);
                }
                Ok(None) => {}
                Err(detail) => {
                    fabric.mark_dead(r);
                    fabric.record_exit(r, detail);
                }
            }
        }

        // Reap every child; real OS exit statuses supersede the socket-
        // level details ("connection closed (EOF)") captured mid-run.
        let reaped = sup.reap(REAP_GRACE);
        for (r, status) in &reaped {
            if summary.dead.contains(r) {
                summary.exits.retain(|(er, _)| er != r);
                summary.exits.push((*r, status.clone()));
            }
        }
        summary.exits.sort_by_key(|(r, _)| *r);

        let root = (raw, born_sorted, ops, summary);
        Ok(fig4_report("OCT_MPI_PROC", &sys, params, &cluster, workdiv, root, &clocks, wall))
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use polaroct_cluster::fault::{phase, FaultPlan};
    use polaroct_molecule::synth;

    fn job(n: usize, seed: u64) -> JobSpec {
        JobSpec {
            molecule: synth::protein("p", n, seed),
            params: ApproxParams::default(),
            cfg: DriverConfig::default(),
            workdiv: WorkDivision::AtomBased,
            recovery: crate::drivers::RecoveryMode::Degrade,
            plan: FaultPlan::new(7).kill(1, phase::INTEGRALS).delay(2, phase::EPOL, 0.5),
        }
    }

    #[test]
    fn job_roundtrips_bit_exact() {
        let j = job(40, 3);
        let body = encode_job(&j);
        let back = decode_job(&body).unwrap();
        assert_eq!(back.molecule.name, j.molecule.name);
        assert_eq!(back.molecule.positions.len(), j.molecule.positions.len());
        for (a, b) in back.molecule.positions.iter().zip(&j.molecule.positions) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_eq!(back.molecule.elements, j.molecule.elements);
        assert_eq!(back.params.eps_born.to_bits(), j.params.eps_born.to_bits());
        assert_eq!(back.params.epol_far, j.params.epol_far);
        assert_eq!(back.params.leaf_cap_atoms, j.params.leaf_cap_atoms);
        assert_eq!(back.workdiv, j.workdiv);
        assert_eq!(back.recovery, j.recovery);
        assert_eq!(back.plan.seed(), j.plan.seed());
        assert_eq!(
            back.plan.entries().collect::<Vec<_>>(),
            j.plan.entries().collect::<Vec<_>>()
        );
        assert_eq!(
            back.cfg.costs.born_near.to_bits(),
            j.cfg.costs.born_near.to_bits()
        );
    }

    #[test]
    fn job_decode_rejects_truncation_everywhere() {
        let body = encode_job(&job(12, 5));
        // Every proper prefix must fail with a typed error, not panic.
        for cut in 0..body.len() {
            assert!(
                decode_job(&body[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn job_decode_rejects_trailing_garbage() {
        let mut body = encode_job(&job(12, 5));
        body.push(0);
        assert!(decode_job(&body).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn proc_transport_rejects_zero_ranks() {
        let j = job(20, 1);
        let r = run_oct_mpi_proc_ft(
            &j.molecule,
            &j.params,
            &j.cfg,
            0,
            WorkDivision::NodeNode,
            &FtConfig::default(),
        );
        assert!(matches!(r, Err(DriverError::InvalidConfig { .. })), "{r:?}");
    }

    /// A bad parameter set is refused before any worker is launched or
    /// any replica prepared (`GbSystem::prepare` panics on a zero leaf
    /// capacity).
    #[cfg(unix)]
    #[test]
    fn proc_transport_rejects_bad_params_before_prepare() {
        let mut j = job(20, 1);
        j.params.leaf_cap_atoms = 0;
        for ranks in [1, 2] {
            let ftc = FtConfig::default();
            let r = run_oct_mpi_proc_ft(&j.molecule, &j.params, &j.cfg, ranks, j.workdiv, &ftc);
            assert!(matches!(r, Err(DriverError::InvalidConfig { .. })), "{r:?}");
        }
    }

    #[test]
    fn epol_far_roundtrips_both_variants_and_rejects_unknown_tags() {
        let far_of = |far: EpolFar| {
            let mut j = job(10, 2);
            j.params.epol_far = far;
            let body = encode_job(&j);
            let back = decode_job(&body).unwrap().params.epol_far;
            (body, back)
        };
        let (binned, back) = far_of(EpolFar::Binned);
        assert_eq!(back, EpolFar::Binned);
        let taylor = EpolFar::Taylor2 { mac: 2.0 + f64::EPSILON };
        let (taylor_body, back) = far_of(taylor);
        match back {
            EpolFar::Taylor2 { mac } => assert_eq!(mac.to_bits(), (2.0 + f64::EPSILON).to_bits()),
            other => panic!("decoded {other:?}"),
        }
        // The first byte the two frames differ in is the far-rule tag.
        let at = binned.iter().zip(&taylor_body).position(|(a, b)| a != b).unwrap();
        assert_eq!((binned[at], taylor_body[at]), (0, 1));
        let mut bad = taylor_body;
        bad[at] = 7;
        assert!(matches!(
            decode_job(&bad),
            Err(WireError::BadTag { what: "epol_far", tag: 7 })
        ));
    }

    #[test]
    fn job_decode_rejects_bad_tags() {
        let j = job(8, 1);
        let body = encode_job(&j);
        // Workdiv tag lives right before the recovery tag and the plan;
        // find it by re-encoding with a poisoned value instead of byte
        // surgery: corrupt the element table (first element byte).
        let name_len = 8 + j.molecule.name.len();
        let n = j.molecule.positions.len();
        let elements_at = name_len + 8 + n * 24 + (8 + n * 8) * 2;
        let mut bad = body.clone();
        bad[elements_at] = 99;
        assert!(matches!(
            decode_job(&bad),
            Err(WireError::BadTag { what: "element", .. })
        ));
    }
}
