//! Process-transport integration tests (`harness = false`): this binary
//! re-execs **itself** as worker processes, so `main` must route worker
//! invocations into `maybe_worker` before any test logic runs.
//!
//! The suite pins the tentpole contract: the same molecule + seed +
//! fault plan yields **byte-identical** energies and Born radii on the
//! in-process channel transport and the multi-process socket transport —
//! including runs where a worker is killed by a real `SIGKILL`. A
//! watchdog aborts the whole binary if anything hangs: no test here is
//! allowed to block CI.

fn main() {
    polaroct_core::maybe_worker();
    run_all();
}

#[cfg(not(unix))]
fn run_all() {
    println!("proc_transport: skipped (process transport is unix-only)");
}

#[cfg(unix)]
fn run_all() {
    // No test may hang: every blocking read in the transport is
    // deadline-bounded, and this watchdog enforces it end to end.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(420));
        eprintln!("proc_transport: watchdog expired — aborting");
        std::process::abort();
    });
    let tests: &[(&str, fn())] = &[
        (
            "clean_run_matches_inprocess_bitwise",
            tests::clean_run_matches_inprocess_bitwise,
        ),
        (
            "real_sigkill_recovered_bit_identically",
            tests::real_sigkill_recovered_bit_identically,
        ),
        (
            "worker_dead_before_handshake_surfaces_lost",
            tests::worker_dead_before_handshake_surfaces_lost,
        ),
        (
            "kill_mid_send_no_poisoned_channel",
            tests::kill_mid_send_no_poisoned_channel,
        ),
        ("transports_match", tests::transports_match),
        (
            "bad_input_is_typed_and_leaves_no_worker",
            tests::bad_input_is_typed_and_leaves_no_worker,
        ),
    ];
    let mut failed = 0usize;
    for (name, f) in tests {
        println!("test {name} ...");
        match std::panic::catch_unwind(f) {
            Ok(()) => println!("test {name} ... ok"),
            Err(_) => {
                println!("test {name} ... FAILED");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("proc_transport: {failed} test(s) failed");
        std::process::exit(1);
    }
    println!("proc_transport: all tests passed");
}

#[cfg(unix)]
mod tests {
    use polaroct_cluster::fault::{phase, FaultPlan, FtPolicy};
    use polaroct_cluster::machine::{ClusterSpec, MachineSpec, Placement};
    use polaroct_core::drivers::{
        DriverConfig, DriverError, FtConfig, RecoveryMode, RunOutcome, RunReport,
    };
    use polaroct_core::procexec::ENV_SELFTEST;
    use polaroct_core::{
        run_oct_mpi_ft, run_oct_mpi_proc_ft, validate_system, ApproxParams, GbSystem, WorkDivision,
    };
    use polaroct_molecule::{synth, Molecule};
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    fn molecule(n: usize, seed: u64) -> Molecule {
        synth::protein("pt", n, seed)
    }

    fn mpi_cluster(p: usize) -> ClusterSpec {
        ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(p))
    }

    /// Generous next to the in-process suite's 400–500 ms: worker
    /// *processes* contend for cores instead of sharing one address
    /// space, so compute skew between ranks is larger.
    fn policy() -> FtPolicy {
        FtPolicy::with_timeout(Duration::from_secs(3))
    }

    fn ftc(plan: FaultPlan) -> FtConfig {
        FtConfig { plan, policy: policy(), recovery: RecoveryMode::Reexecute }
    }

    /// Run the same configuration on both transports.
    fn both(mol: &Molecule, ranks: usize, plan: &FaultPlan) -> (RunReport, RunReport) {
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let sys = GbSystem::prepare(mol, &params);
        let inproc = run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &mpi_cluster(ranks),
            WorkDivision::NodeNode,
            &ftc(plan.clone()),
        )
        .expect("in-process run failed");
        let proc = run_oct_mpi_proc_ft(
            mol,
            &params,
            &cfg,
            ranks,
            WorkDivision::NodeNode,
            &ftc(plan.clone()),
        )
        .expect("process-transport run failed");
        (inproc, proc)
    }

    fn assert_bit_identical(a: &RunReport, b: &RunReport, what: &str) {
        assert_eq!(
            a.energy_kcal.to_bits(),
            b.energy_kcal.to_bits(),
            "{what}: energies differ: {} vs {}",
            a.energy_kcal,
            b.energy_kcal
        );
        assert_eq!(a.born_radii.len(), b.born_radii.len(), "{what}: radii length");
        for (i, (x, y)) in a.born_radii.iter().zip(&b.born_radii).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: born radius {i}: {x} vs {y}");
        }
    }

    /// Outcome equality modulo wall-time fields (the classification and
    /// its parameters must match; measured host seconds may not).
    fn assert_same_outcome(a: &RunReport, b: &RunReport, what: &str) {
        assert_eq!(a.outcome, b.outcome, "{what}: outcomes differ");
    }

    pub fn clean_run_matches_inprocess_bitwise() {
        let mol = molecule(220, 11);
        let (inproc, proc) = both(&mol, 3, &FaultPlan::none());
        assert_bit_identical(&inproc, &proc, "clean run");
        assert_same_outcome(&inproc, &proc, "clean run");
        assert_eq!(inproc.outcome, RunOutcome::Completed);
        // The virtual clocks are deterministic functions of op counts,
        // so even simulated *time* matches across transports.
        assert_eq!(inproc.time.to_bits(), proc.time.to_bits(), "simulated time");
        assert_eq!(inproc.ops.total(), proc.ops.total(), "op totals");
        assert!(proc.ft.exits.is_empty(), "clean run captured exits: {:?}", proc.ft.exits);
    }

    pub fn real_sigkill_recovered_bit_identically() {
        let mol = molecule(220, 11);
        let clean = {
            let params = ApproxParams::default();
            let sys = GbSystem::prepare(&mol, &params);
            run_oct_mpi_ft(
                &sys,
                &params,
                &DriverConfig::default(),
                &mpi_cluster(3),
                WorkDivision::NodeNode,
                &ftc(FaultPlan::none()),
            )
            .unwrap()
        };
        let plan = FaultPlan::new(17).kill(1, phase::INTEGRALS);
        let (inproc, proc) = both(&mol, 3, &plan);
        // The worker really died: the supervisor captured SIGKILL.
        assert!(
            proc.ft.exits.iter().any(|(r, s)| *r == 1 && s.contains("signal 9")),
            "expected a SIGKILL exit status for rank 1, got {:?}",
            proc.ft.exits
        );
        assert!(
            matches!(proc.outcome, RunOutcome::Recovered { .. }),
            "expected Recovered, got {:?}",
            proc.outcome
        );
        assert_same_outcome(&inproc, &proc, "sigkill run");
        assert_bit_identical(&inproc, &proc, "sigkill run");
        // Recovery is exact: bit-identical to the fault-free energy too.
        assert_eq!(clean.energy_kcal.to_bits(), proc.energy_kcal.to_bits());
    }

    pub fn worker_dead_before_handshake_surfaces_lost() {
        let mol = molecule(160, 23);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        std::env::set_var(ENV_SELFTEST, "exit:3:1");
        // Recovery disabled: the startup loss must surface as a typed
        // error carrying the captured exit status — never a hang.
        let err = run_oct_mpi_proc_ft(
            &mol,
            &params,
            &cfg,
            3,
            WorkDivision::NodeNode,
            &FtConfig {
                plan: FaultPlan::none(),
                policy: policy(),
                recovery: RecoveryMode::Disabled,
            },
        )
        .expect_err("startup loss with recovery disabled must fail");
        let msg = err.to_string();
        assert!(
            msg.contains("exited with code 3"),
            "error should carry the worker's exit status, got: {msg}"
        );
        // Recovery enabled: the dead-at-startup rank is recovered like
        // any other lost rank, bit-identically.
        let rec = run_oct_mpi_proc_ft(
            &mol,
            &params,
            &cfg,
            3,
            WorkDivision::NodeNode,
            &ftc(FaultPlan::none()),
        )
        .unwrap();
        std::env::remove_var(ENV_SELFTEST);
        assert!(
            matches!(rec.outcome, RunOutcome::Recovered { .. }),
            "expected Recovered, got {:?}",
            rec.outcome
        );
        assert!(
            rec.ft.exits.iter().any(|(r, s)| *r == 1 && s.contains("exited with code 3")),
            "expected rank 1's exit status in the report, got {:?}",
            rec.ft.exits
        );
        let sys = GbSystem::prepare(&mol, &params);
        let clean = run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &mpi_cluster(3),
            WorkDivision::NodeNode,
            &ftc(FaultPlan::none()),
        )
        .unwrap();
        assert_eq!(clean.energy_kcal.to_bits(), rec.energy_kcal.to_bits());
    }

    pub fn kill_mid_send_no_poisoned_channel() {
        // The regression this guards: a rank killed *immediately after*
        // shipping its payload must leave no poisoned stream behind —
        // the root uses the orphaned frame, survivors see the rank dead
        // at the *next* collective, and both transports classify and
        // compute identically.
        let mol = molecule(200, 29);
        let plan = FaultPlan::new(31).kill_mid_send(1, phase::REDUCE_INTEGRALS);
        let (inproc, proc) = both(&mol, 3, &plan);
        assert!(
            matches!(proc.outcome, RunOutcome::Recovered { .. }),
            "expected Recovered, got {:?}",
            proc.outcome
        );
        assert_same_outcome(&inproc, &proc, "kill-mid-send run");
        assert_bit_identical(&inproc, &proc, "kill-mid-send run");
        // The orphaned contribution was used, and the dead rank is on
        // exactly one dead list (no double counting across collectives).
        assert_eq!(proc.ft.dead, vec![1]);
        assert_eq!(inproc.ft.dead, vec![1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Random molecules × fault plans × rank counts: bitwise-equal
        /// energies and Born radii, and equal outcome classification,
        /// across both transports.
        fn prop_transports_match(
            seed in 1u64..5_000,
            n in 120usize..260,
            ranks in 2usize..5,
            fault_roll in 0u32..2,
        ) {
            let mol = molecule(n, seed);
            let plan = if fault_roll == 1 {
                FaultPlan::random(seed, ranks, 0.3)
            } else {
                FaultPlan::none()
            };
            let (inproc, proc) = both(&mol, ranks, &plan);
            prop_assert_eq!(
                inproc.energy_kcal.to_bits(),
                proc.energy_kcal.to_bits(),
                "seed {} n {} ranks {}: {} vs {}",
                seed, n, ranks, inproc.energy_kcal, proc.energy_kcal
            );
            for (x, y) in inproc.born_radii.iter().zip(&proc.born_radii) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            prop_assert_eq!(&inproc.outcome, &proc.outcome);
        }
    }

    pub fn transports_match() {
        prop_transports_match();
    }

    /// Processes whose parent is this one, running or not yet reaped,
    /// read from `/proc`; `None` on a host without it.
    fn child_processes() -> Option<usize> {
        let me = std::process::id().to_string();
        let entries = std::fs::read_dir("/proc").ok()?;
        let is_child = |stat: String| {
            // `pid (comm) state ppid ...`; `comm` may hold spaces.
            let (_, rest) = stat.rsplit_once(')')?;
            Some(rest.split_whitespace().nth(1)? == me)
        };
        Some(
            entries
                .flatten()
                .filter(|e| {
                    let stat = std::fs::read_to_string(e.path().join("stat"));
                    stat.ok().and_then(is_child).unwrap_or(false)
                })
                .count(),
        )
    }

    /// Rank 0 validates its system after the workers are launched. A
    /// NaN coordinate and a zero radius still end in the in-process
    /// driver's `InvalidInput`, at once, and the launched workers are
    /// killed and reaped before the call returns.
    pub fn bad_input_is_typed_and_leaves_no_worker() {
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let base = molecule(160, 37);
        let mut nan = base.clone();
        nan.positions[17].y = f64::NAN;
        let mut zero = base;
        zero.radii[42] = 0.0;
        let before = child_processes();
        for (what, mol) in [("NaN coordinate", &nan), ("zero radius", &zero)] {
            let want = validate_system(&GbSystem::prepare(mol, &params))
                .expect_err("the system must fail validation");
            assert!(
                matches!(want, DriverError::InvalidInput { .. }),
                "{what}: {want:?}"
            );
            let t0 = Instant::now();
            let got = run_oct_mpi_proc_ft(
                mol,
                &params,
                &cfg,
                3,
                WorkDivision::NodeNode,
                &ftc(FaultPlan::none()),
            )
            .expect_err("bad input must not run");
            assert_eq!(got, want, "{what}");
            let took = t0.elapsed();
            assert!(took < Duration::from_secs(10), "{what}: took {took:?}");
            assert_eq!(
                child_processes(),
                before,
                "{what}: a worker outlived the call"
            );
        }
    }
}
