//! Fault-injection integration tests: the ISSUE's acceptance scenarios
//! plus a property test that *any* random fault plan — kills, delays,
//! dropped/corrupted payloads, rank panics — recovers to the fault-free
//! energy bit-for-bit when re-execute recovery is on.

use polaroct_cluster::fault::{phase, FaultPlan, FtPolicy};
use polaroct_cluster::machine::{ClusterSpec, MachineSpec, Placement};
use polaroct_core::drivers::{DriverConfig, FtConfig, RecoveryMode, RunOutcome};
use polaroct_core::{
    run_oct_hybrid_ft, run_oct_mpi_ft, ApproxParams, DriverError, GbSystem, WorkDivision,
};
use polaroct_molecule::synth;
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn system(n: usize, seed: u64) -> GbSystem {
    let mol = synth::protein("ft", n, seed);
    GbSystem::prepare(&mol, &ApproxParams::default())
}

fn mpi_cluster(p: usize) -> ClusterSpec {
    ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(p))
}

fn hybrid_cluster(cores: usize) -> ClusterSpec {
    let m = MachineSpec::lonestar4();
    ClusterSpec::new(m, Placement::hybrid_per_socket(cores, &m))
}

/// ISSUE acceptance scenario: a `FaultPlan` that kills one rank in
/// phase 2 and delays another in phase 4 must yield
/// `RunOutcome::Recovered` from `run_oct_hybrid_ft` with an `E_pol`
/// bit-identical to the fault-free run.
#[test]
fn hybrid_kill_phase2_delay_phase4_recovers_bit_identically() {
    let sys = system(260, 5);
    let params = ApproxParams::default();
    let cfg = DriverConfig::default();
    let cluster = hybrid_cluster(24); // 4 ranks x 6 threads

    let clean = run_oct_hybrid_ft(&sys, &params, &cfg, &cluster, &FtConfig::default()).unwrap();

    let ftc = FtConfig {
        plan: FaultPlan::new(7).kill(2, phase::INTEGRALS).delay(3, phase::PUSH, 0.25),
        policy: FtPolicy::with_timeout(Duration::from_millis(500)),
        recovery: RecoveryMode::Reexecute,
    };
    let rec = run_oct_hybrid_ft(&sys, &params, &cfg, &cluster, &ftc).unwrap();

    assert!(
        matches!(rec.outcome, RunOutcome::Recovered { n_retries } if n_retries >= 1),
        "expected Recovered, got {:?}",
        rec.outcome
    );
    assert_eq!(
        rec.energy_kcal.to_bits(),
        clean.energy_kcal.to_bits(),
        "recovered energy must be bit-identical: {} vs {}",
        rec.energy_kcal,
        clean.energy_kcal
    );
    for (i, (a, b)) in rec.born_radii.iter().zip(&clean.born_radii).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "born radius {i} differs");
    }
    // The delayed rank stretches the simulated makespan.
    assert!(rec.time > clean.time, "delay must show up in simulated time");
}

/// ISSUE acceptance scenario, flip side: with recovery disabled the same
/// kill must fail within the collective timeout — an error, not a hang.
#[test]
fn hybrid_kill_without_recovery_fails_within_timeout() {
    let sys = system(150, 6);
    let params = ApproxParams::default();
    let cfg = DriverConfig::default();
    let cluster = hybrid_cluster(18); // 3 ranks x 6 threads
    let ftc = FtConfig {
        plan: FaultPlan::new(9).kill(1, phase::INTEGRALS),
        policy: FtPolicy::with_timeout(Duration::from_millis(200)),
        recovery: RecoveryMode::Disabled,
    };
    let t = Instant::now();
    let err = run_oct_hybrid_ft(&sys, &params, &cfg, &cluster, &ftc).unwrap_err();
    assert!(matches!(err, DriverError::Failed { .. }), "{err}");
    assert!(
        t.elapsed() < Duration::from_secs(10),
        "must fail fast, took {:?}",
        t.elapsed()
    );
}

/// Regression: before the FT collectives, a killed rank left the star's
/// root blocked forever in `recv` — allreduce deadlocked the whole run.
/// Even the legacy non-FT entry point now sits on the timeout path, so a
/// dead rank with recovery on is invisible to the caller.
#[test]
fn killed_rank_no_longer_deadlocks_allreduce() {
    let sys = system(140, 3);
    let params = ApproxParams::default();
    let cfg = DriverConfig::default();
    let clean = run_oct_mpi_ft(
        &sys,
        &params,
        &cfg,
        &mpi_cluster(3),
        WorkDivision::NodeNode,
        &FtConfig::default(),
    )
    .unwrap();

    for ph in [phase::REDUCE_INTEGRALS, phase::GATHER_RADII, phase::REDUCE_EPOL] {
        let ftc = FtConfig {
            plan: FaultPlan::new(u64::from(ph)).kill(1, ph),
            policy: FtPolicy::with_timeout(Duration::from_millis(300)),
            recovery: RecoveryMode::Reexecute,
        };
        let t = Instant::now();
        let rec = run_oct_mpi_ft(&sys, &params, &cfg, &mpi_cluster(3), WorkDivision::NodeNode, &ftc)
            .unwrap();
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "collective at phase {ph} hung: {:?}",
            t.elapsed()
        );
        assert_eq!(
            rec.energy_kcal.to_bits(),
            clean.energy_kcal.to_bits(),
            "phase {ph}: recovery changed the energy"
        );
    }
}

/// Degraded recovery: when the lost segment is regenerated with the
/// far-field-only approximation, the run must say so and bound the
/// error estimate — and the energy stays finite and close.
#[test]
fn degraded_recovery_reports_error_estimate() {
    let sys = system(220, 11);
    let params = ApproxParams::default();
    let cfg = DriverConfig::default();
    let clean = run_oct_mpi_ft(
        &sys,
        &params,
        &cfg,
        &mpi_cluster(4),
        WorkDivision::NodeNode,
        &FtConfig::default(),
    )
    .unwrap();
    let ftc = FtConfig {
        plan: FaultPlan::new(13).kill(2, phase::INTEGRALS),
        policy: FtPolicy::with_timeout(Duration::from_millis(400)),
        recovery: RecoveryMode::Degrade,
    };
    let rec = run_oct_mpi_ft(&sys, &params, &cfg, &mpi_cluster(4), WorkDivision::NodeNode, &ftc)
        .unwrap();
    match rec.outcome {
        RunOutcome::Degraded { est_error_pct } => {
            assert!(est_error_pct > 0.0 && est_error_pct < 100.0, "{est_error_pct}");
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
    assert!(rec.energy_kcal.is_finite());
    let rel = ((rec.energy_kcal - clean.energy_kcal) / clean.energy_kcal).abs();
    assert!(rel < 0.2, "degraded energy off by {:.1}%", rel * 100.0);
}

proptest! {
    // Each case runs a 4-rank simulated cluster twice; keep counts modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any random fault plan — whatever mix of kills, delays, payload
    /// drops/corruptions and rank panics it drew — must recover to the
    /// fault-free energy bit-for-bit under re-execute recovery.
    #[test]
    fn any_random_plan_recovers_bit_identically(
        seed in 1u64..10_000,
        n in 80usize..200,
        rate in 0.05f64..0.55,
    ) {
        let sys = system(n, seed);
        let params = ApproxParams::default();
        let cfg = DriverConfig::default();
        let clean = run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &mpi_cluster(4),
            WorkDivision::NodeNode,
            &FtConfig::default(),
        )
        .unwrap();
        let ftc = FtConfig {
            plan: FaultPlan::random(seed, 4, rate),
            policy: FtPolicy::with_timeout(Duration::from_millis(500)),
            recovery: RecoveryMode::Reexecute,
        };
        let faulty = run_oct_mpi_ft(&sys, &params, &cfg, &mpi_cluster(4), WorkDivision::NodeNode, &ftc)
            .unwrap();
        prop_assert!(faulty.outcome.is_exact(), "outcome {:?}", faulty.outcome);
        prop_assert_eq!(
            faulty.energy_kcal.to_bits(),
            clean.energy_kcal.to_bits(),
            "seed {} rate {:.2}: {} vs {}",
            seed, rate, faulty.energy_kcal, clean.energy_kcal
        );
    }
}
