//! SPMD launcher: run `P` ranks of a closure over the simulated cluster.
//!
//! [`run_spmd_ft`] is the one entry point: the body returns `Result`,
//! panics are contained with `catch_unwind`, and a [`FaultPlan`] is
//! consulted at driver-declared phase boundaries via
//! [`RankContext::fault_point`] (pass [`FaultPlan::none`] for a
//! fault-free run).

use crate::comm::{CommError, CommFabric, Communicator};
use crate::costmodel::CommCostModel;
use crate::fault::{die_sigkill, FaultKind, FaultPlan, FtPolicy, KillMode};
use crate::machine::ClusterSpec;
use crate::simtime::SimClock;
use polaroct_sched::pool::WorkStealingPool;
use std::fmt;
use std::sync::Arc;

/// Why one rank of an SPMD run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum RankError {
    /// A collective failed (timeout / lost ranks / abort).
    Comm(CommError),
    /// An injected kill fault fired at this phase.
    Killed { phase: u32 },
    /// The rank body panicked; contained by `catch_unwind`.
    Panicked(String),
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankError::Comm(e) => write!(f, "{e}"),
            RankError::Killed { phase } => write!(f, "rank killed by fault at phase {phase}"),
            RankError::Panicked(msg) => write!(f, "rank panicked: {msg}"),
        }
    }
}

impl std::error::Error for RankError {}

impl From<CommError> for RankError {
    fn from(e: CommError) -> Self {
        RankError::Comm(e)
    }
}

/// Everything a rank body receives.
pub struct RankContext {
    pub rank: usize,
    pub size: usize,
    pub comm: Communicator,
    pub clock: SimClock,
    /// Threads available to this rank (the hybrid `p`).
    pub threads: usize,
    /// The run's fault plan ([`FaultPlan::none`] for a fault-free run).
    pub faults: Arc<FaultPlan>,
    /// How kill-class faults are realized: simulated (thread stops
    /// participating) for in-process ranks, a real `SIGKILL` when this
    /// rank is its own worker process.
    pub kill: KillMode,
}

impl RankContext {
    /// Declare a phase boundary (Fig. 4 step number): records the phase
    /// on the communicator (so payload faults target the right
    /// collective) and fires any pending execution fault for this rank.
    ///
    /// * `Kill` — returns `Err(RankError::Killed)`; the body should
    ///   propagate it so the rank exits silently (peers detect it by
    ///   collective timeout).
    /// * `Delay` — charges virtual straggler time and really sleeps a
    ///   bounded amount, exercising the timeout tolerance.
    /// * `PanicRank` — panics; contained by [`run_spmd_ft`].
    /// * `PanicWorker` — runs a probe task set on a real work-stealing
    ///   pool in which one task panics; the pool contains it (the lost
    ///   task is re-executed inline), demonstrating intra-rank
    ///   containment without failing the rank.
    pub fn fault_point(&mut self, phase: u32) -> Result<(), RankError> {
        self.comm.set_phase(phase);
        match self.faults.fire_exec(self.rank, phase) {
            None
            | Some(FaultKind::DropPayload)
            | Some(FaultKind::CorruptPayload)
            | Some(FaultKind::KillMidSend) => Ok(()),
            Some(FaultKind::Kill) => match self.kill {
                KillMode::Simulated => Err(RankError::Killed { phase }),
                // A worker process dies for real: the kernel delivers
                // SIGKILL, the socket drops, and the root learns of the
                // death from the transport, not from a return value.
                KillMode::Process => die_sigkill(),
            },
            Some(FaultKind::Delay { virtual_s, real_ms }) => {
                self.clock.add_compute(virtual_s);
                std::thread::sleep(std::time::Duration::from_millis(real_ms));
                Ok(())
            }
            Some(FaultKind::PanicRank) => {
                // PANIC-OK: deliberate fault injection; contained by run_spmd_ft's catch_unwind.
                panic!("injected rank panic at phase {phase}")
            }
            Some(FaultKind::PanicWorker) => {
                let pool = WorkStealingPool::new(self.threads.max(2));
                let (slots, metrics) = pool.try_map(4, |i| {
                    if i == 1 {
                        // PANIC-OK: deliberate fault injection; contained by the pool.
                        panic!("injected worker panic at phase {phase}");
                    }
                    i
                });
                debug_assert_eq!(metrics.panics, 1);
                debug_assert!(slots[1].is_none() && slots[0].is_some());
                Ok(())
            }
        }
    }
}

/// The result of a fault-aware SPMD run: per-rank `Result`s plus clocks
/// (a failed rank's clock reflects the time it accumulated before dying).
#[derive(Debug)]
pub struct FtSpmdResult<T> {
    pub per_rank: Vec<Result<T, RankError>>,
    pub clocks: Vec<SimClock>,
}

impl<T> FtSpmdResult<T> {
    /// Ranks that failed, with their errors.
    pub fn failures(&self) -> Vec<(usize, &RankError)> {
        self.per_rank
            .iter()
            .enumerate()
            .filter_map(|(r, res)| res.as_ref().err().map(|e| (r, e)))
            .collect()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Launch `cluster.placement.processes` ranks with fault injection and
/// containment: each rank's body runs under `catch_unwind`, consults
/// `plan` at its declared [`RankContext::fault_point`]s, and returns a
/// `Result` instead of panicking the whole run.
///
/// Ranks execute concurrently as OS threads (collectives rendezvous), so
/// results are exactly what an MPI run would compute; clocks are virtual.
pub fn run_spmd_ft<T, F>(
    cluster: &ClusterSpec,
    plan: &FaultPlan,
    policy: FtPolicy,
    body: F,
) -> FtSpmdResult<T>
where
    T: Send,
    F: Fn(&mut RankContext) -> Result<T, RankError> + Sync,
{
    let size = cluster.placement.processes;
    let threads = cluster.placement.threads_per_process;
    let cost_model = CommCostModel::for_cluster(cluster);
    let fabric = CommFabric::with_policy(size, policy);
    // Clone resets the one-shot fired flags: the caller's plan value can
    // drive many runs identically.
    let plan = Arc::new(plan.clone());

    let mut results: Vec<Option<(Result<T, RankError>, SimClock)>> =
        (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (rank, slot) in results.iter_mut().enumerate() {
            let fabric = fabric.clone();
            let plan = plan.clone();
            let body = &body;
            scope.spawn(move || {
                let comm = Communicator::over(rank, cost_model, fabric).with_faults(plan.clone());
                let mut ctx = RankContext {
                    rank,
                    size,
                    comm,
                    clock: SimClock::new(),
                    threads,
                    faults: plan,
                    kill: KillMode::Simulated,
                };
                let out =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut ctx)));
                let res = match out {
                    Ok(r) => r,
                    Err(p) => Err(RankError::Panicked(panic_message(p))),
                };
                *slot = Some((res, ctx.clock));
            });
        }
    });

    let mut per_rank = Vec::with_capacity(size);
    let mut clocks = Vec::with_capacity(size);
    for slot in results {
        // A missing slot means the rank thread died without even the
        // catch_unwind completing — report it as a failed rank rather
        // than taking the whole run down.
        let (v, c) = slot.unwrap_or_else(|| {
            (
                Err(RankError::Panicked("rank thread vanished before storing a result".into())),
                SimClock::new(),
            )
        });
        per_rank.push(v);
        clocks.push(c);
    }
    FtSpmdResult { per_rank, clocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Recovery;
    use crate::fault::{phase, RecoverMode};
    use crate::machine::{MachineSpec, Placement};
    use std::time::Duration;

    fn cluster(p: usize) -> ClusterSpec {
        ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(p))
    }

    /// A fault-free run: no plan, the default policy.
    fn run_clean<T: Send>(
        cluster: &ClusterSpec,
        body: impl Fn(&mut RankContext) -> Result<T, RankError> + Sync,
    ) -> FtSpmdResult<T> {
        run_spmd_ft(cluster, &FaultPlan::none(), FtPolicy::default(), body)
    }

    #[test]
    fn ranks_see_their_ids_and_results_are_ordered() {
        let res = run_clean(&cluster(6), |ctx| {
            assert_eq!(ctx.size, 6);
            Ok(ctx.rank * 2)
        });
        assert_eq!(res.per_rank, vec![Ok(0), Ok(2), Ok(4), Ok(6), Ok(8), Ok(10)]);
    }

    #[test]
    fn spmd_collective_roundtrip() {
        let res = run_clean(&cluster(4), |ctx| {
            let mut clock = ctx.clock;
            let mut buf = vec![1.0];
            ctx.comm.allreduce_sum_ft(&mut buf, &mut clock, Recovery::Disabled)?;
            ctx.clock = clock;
            Ok(buf[0])
        });
        assert!(res.per_rank.iter().all(|v| *v == Ok(4.0)));
        assert!(res.clocks.iter().map(SimClock::total).fold(0.0, f64::max) > 0.0);
    }

    #[test]
    fn parallel_time_is_max_rank_time() {
        let res = run_clean(&cluster(3), |ctx| {
            ctx.clock.add_compute((ctx.rank + 1) as f64);
            Ok(())
        });
        assert!(res.per_rank.iter().all(Result::is_ok));
        let slowest = res.clocks.iter().map(SimClock::total).fold(0.0, f64::max);
        let compute: f64 = res.clocks.iter().map(|c| c.compute).sum();
        assert!((slowest - 3.0).abs() < 1e-12);
        assert!((compute - 6.0).abs() < 1e-12);
    }

    #[test]
    fn hybrid_placement_exposes_thread_count() {
        let m = MachineSpec::lonestar4();
        let c = ClusterSpec::new(m, Placement::hybrid_per_socket(12, &m));
        let res = run_clean(&c, |ctx| Ok(ctx.threads));
        assert_eq!(res.per_rank, vec![Ok(6), Ok(6)]);
    }

    // ---- fault-aware launcher ----

    #[test]
    fn panicked_rank_is_contained_as_error() {
        let plan = FaultPlan::new(0).panic_rank(1, phase::INTEGRALS);
        let policy = FtPolicy::with_timeout(Duration::from_millis(200));
        let res = run_spmd_ft(&cluster(3), &plan, policy, |ctx| {
            ctx.fault_point(phase::INTEGRALS)?;
            Ok(ctx.rank)
        });
        assert_eq!(res.per_rank[0], Ok(0));
        assert!(
            matches!(res.per_rank[1], Err(RankError::Panicked(ref m)) if m.contains("injected")),
            "got {:?}",
            res.per_rank[1]
        );
        assert_eq!(res.per_rank[2], Ok(2));
        assert_eq!(res.failures().len(), 1);
    }

    #[test]
    fn killed_rank_surfaces_as_error_and_survivors_recover() {
        let plan = FaultPlan::new(0).kill(1, phase::INTEGRALS);
        let policy = FtPolicy::with_timeout(Duration::from_millis(200));
        let res = run_spmd_ft(&cluster(3), &plan, policy, |ctx| {
            ctx.fault_point(phase::INTEGRALS)?;
            let mut buf = vec![(ctx.rank + 1) as f64];
            let mut clock = ctx.clock;
            let mut regenerate = |lost: usize, _: RecoverMode| vec![(lost + 1) as f64];
            ctx.comm.set_phase(phase::REDUCE_INTEGRALS);
            let report = ctx.comm.allreduce_sum_ft(
                &mut buf,
                &mut clock,
                Recovery::Enabled { regenerate: &mut regenerate, prefer: RecoverMode::Exact },
            )?;
            ctx.clock = clock;
            Ok((buf[0], report.recovered.clone()))
        });
        assert_eq!(res.per_rank[1], Err(RankError::Killed { phase: phase::INTEGRALS }));
        for r in [0, 2] {
            let (sum, recovered) = res.per_rank[r].as_ref().unwrap();
            assert_eq!(*sum, 6.0, "rank {r}: recovered sum must match fault-free");
            assert_eq!(recovered, &vec![1]);
        }
    }

    #[test]
    fn delay_fault_charges_virtual_time_only_to_the_straggler() {
        let plan = FaultPlan::new(0).delay(2, phase::PUSH, 1.5);
        let res = run_spmd_ft(
            &cluster(3),
            &plan,
            FtPolicy::default(),
            |ctx| {
                ctx.fault_point(phase::PUSH)?;
                Ok(ctx.clock.compute)
            },
        );
        assert_eq!(res.per_rank[0], Ok(0.0));
        assert_eq!(res.per_rank[1], Ok(0.0));
        assert_eq!(res.per_rank[2], Ok(1.5));
    }

    #[test]
    fn worker_panic_is_contained_within_the_rank() {
        let plan = FaultPlan::new(0).panic_worker(1, phase::EPOL);
        let res = run_spmd_ft(
            &cluster(2),
            &plan,
            FtPolicy::default(),
            |ctx| {
                ctx.fault_point(phase::EPOL)?;
                Ok(ctx.rank)
            },
        );
        // The worker panic is contained by the pool: the rank survives.
        assert_eq!(res.per_rank, vec![Ok(0), Ok(1)]);
    }
}
