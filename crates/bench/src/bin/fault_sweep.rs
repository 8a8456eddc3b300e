//! Fault-injection sweep: recovery cost and fidelity vs fault rate,
//! on both cluster transports.
//!
//! Four measurements:
//!
//! 1. **Containment overhead** — wall-clock of the fault-free FT path
//!    (catch_unwind + try_map + checksummed collectives, nothing firing)
//!    against the plain driver entry point, on the real-thread driver.
//!    The acceptance bar is ≤2%.
//! 2. **Random-plan sweep** — `FaultPlan::random` at increasing rates;
//!    each plan must come back `Completed`/`Recovered` with an energy
//!    bit-identical to the fault-free run, and the simulated time shows
//!    what the retries cost.
//! 3. **Process-transport column** (unix only) — the *same* fault grid
//!    replayed on `run_oct_mpi_proc_ft`, where workers are real OS
//!    processes and `Kill` faults are literal `SIGKILL`s. A blocking
//!    equivalence gate asserts that every grid point classifies
//!    identically to the in-process run and lands on the same energy
//!    bits, plus one dedicated SIGKILL demo whose captured exit status
//!    must name signal 9.
//! 4. **Degraded recovery** — one killed rank regenerated far-field-only;
//!    reports the error estimate next to the actual error.
//!
//! Emits `BENCH_faults.json` (to `$POLAROCT_OUT` if set, else
//! `results/`) plus the usual TSV table.

#![forbid(unsafe_code)]

use polaroct_bench::{fmt_time, mpi_cluster, quick_mode, std_config, Table};
use polaroct_cluster::fault::{phase, FaultPlan, FtPolicy};
use polaroct_core::drivers::{FtConfig, RecoveryMode, RunOutcome, RunReport};
use polaroct_core::{run_oct_mpi_ft, run_oct_threads_ft, ApproxParams, GbSystem, WorkDivision};
use polaroct_molecule::synth;
use std::io::Write;
use std::time::Duration;

const RANKS: usize = 4;

struct Row {
    rate: f64,
    seed: u64,
    outcome: String,
    retries: u32,
    bit_identical: bool,
    time: f64,
}

/// One grid point replayed on the process transport, plus the verdict
/// of the equivalence gate against its in-process twin.
struct ProcRow {
    rate: f64,
    seed: u64,
    outcome: String,
    bit_identical: bool,
    time: f64,
}

/// Result of the dedicated real-SIGKILL demonstration.
struct SigkillDemo {
    outcome: String,
    exit_status: String,
    bit_identical: bool,
}

struct ProcColumn {
    rows: Vec<ProcRow>,
    sigkill: SigkillDemo,
}

/// Replay the sweep grid over real worker processes and gate the two
/// transports against each other. Panics (→ non-zero exit) on any
/// outcome or energy-bit mismatch: this is the blocking CI gate for
/// cross-transport equivalence.
#[cfg(unix)]
fn process_transport_column(
    mol: &polaroct_molecule::Molecule,
    clean: &RunReport,
    inproc_rows: &[Row],
) -> ProcColumn {
    use polaroct_core::run_oct_mpi_proc_ft;
    let params = ApproxParams::default();
    let cfg = std_config();
    // Worker processes contend for host cores instead of sharing one
    // address space, so rank skew is larger than in the thread fabric;
    // the timeout only bounds real waits and never enters the simulated
    // clock, so a generous value cannot change outcomes or energies.
    let policy = FtPolicy::with_timeout(Duration::from_secs(5));
    let mut rows = Vec::with_capacity(inproc_rows.len());
    for row in inproc_rows {
        let ftc = FtConfig {
            plan: FaultPlan::random(row.seed, RANKS, row.rate),
            policy,
            recovery: RecoveryMode::Reexecute,
        };
        let r = run_oct_mpi_proc_ft(mol, &params, &cfg, RANKS, WorkDivision::NodeNode, &ftc)
            .expect("process-transport re-execute recovery must survive any random plan");
        let outcome = format!("{:?}", r.outcome);
        let bit_identical = r.energy_kcal.to_bits() == clean.energy_kcal.to_bits();
        // Blocking equivalence gate: same plan → same classification and
        // the same energy bits on both transports.
        assert_eq!(
            outcome, row.outcome,
            "rate {} seed {}: transports classified differently",
            row.rate, row.seed
        );
        assert!(
            bit_identical,
            "rate {} seed {}: process-transport energy drifted",
            row.rate, row.seed
        );
        assert_eq!(
            r.time.to_bits(),
            row.time.to_bits(),
            "rate {} seed {}: simulated time diverged across transports",
            row.rate,
            row.seed
        );
        rows.push(ProcRow { rate: row.rate, seed: row.seed, outcome, bit_identical, time: r.time });
    }

    // Dedicated demo: a worker process killed by a real SIGKILL must be
    // recovered, its exit status captured, and the energy unchanged.
    let ftc = FtConfig {
        plan: FaultPlan::new(7).kill(1, phase::INTEGRALS),
        policy,
        recovery: RecoveryMode::Reexecute,
    };
    let r = run_oct_mpi_proc_ft(mol, &params, &cfg, RANKS, WorkDivision::NodeNode, &ftc)
        .expect("SIGKILL recovery must complete");
    assert!(
        matches!(r.outcome, RunOutcome::Recovered { .. }),
        "SIGKILL demo: expected Recovered, got {:?}",
        r.outcome
    );
    let exit_status = r
        .ft
        .exits
        .iter()
        .find(|(rank, _)| *rank == 1)
        .map(|(_, s)| s.clone())
        .unwrap_or_default();
    assert!(
        exit_status.contains("signal 9"),
        "SIGKILL demo: expected a signal-9 exit status for rank 1, got {:?}",
        r.ft.exits
    );
    let bit_identical = r.energy_kcal.to_bits() == clean.energy_kcal.to_bits();
    assert!(bit_identical, "SIGKILL demo: recovered energy drifted");
    eprintln!(
        "[fault_sweep] process transport: rank 1 {exit_status}; outcome {:?}; \
         energy bit-identical to in-process clean run",
        r.outcome
    );
    ProcColumn {
        rows,
        sigkill: SigkillDemo { outcome: format!("{:?}", r.outcome), exit_status, bit_identical },
    }
}

fn main() {
    // This binary re-execs itself as worker processes for the
    // process-transport column; route those invocations before any
    // bench logic runs.
    polaroct_core::maybe_worker();

    let n = if quick_mode() { 1_500 } else { 6_000 };
    let reps = if quick_mode() { 2 } else { 5 };
    eprintln!("[fault_sweep] generating protein ({n} atoms)...");
    let mol = synth::protein("faults", n, 0xFA17);
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = std_config();
    let policy = FtPolicy::with_timeout(Duration::from_secs(2));

    // 1. Containment overhead on the real-thread driver: plain entry vs
    // explicit FT entry with an empty plan (min-of-reps on both sides).
    let threads = 4;
    let mut wall_plain = f64::INFINITY;
    let mut wall_ft = f64::INFINITY;
    for _ in 0..reps {
        wall_plain = wall_plain.min(
            run_oct_threads_ft(&sys, &params, &cfg, threads, &FaultPlan::none())
                .unwrap()
                .wall_seconds,
        );
        wall_ft = wall_ft.min(
            run_oct_threads_ft(&sys, &params, &cfg, threads, &FaultPlan::none())
                .unwrap()
                .wall_seconds,
        );
    }
    let overhead_pct = (wall_ft / wall_plain - 1.0) * 100.0;
    eprintln!(
        "[fault_sweep] containment: plain {} vs ft {} ({overhead_pct:+.2}%)",
        fmt_time(wall_plain),
        fmt_time(wall_ft)
    );

    // 2. Fault-free reference for the distributed sweep.
    let clean = run_oct_mpi_ft(
        &sys,
        &params,
        &cfg,
        &mpi_cluster(RANKS),
        WorkDivision::NodeNode,
        &FtConfig::default(),
    )
    .unwrap();
    eprintln!(
        "[fault_sweep] clean run: E = {:.6e} kcal/mol, simulated {}",
        clean.energy_kcal,
        fmt_time(clean.time)
    );

    let mut t = Table::new(
        "fault_sweep",
        &["rate", "seed", "outcome", "retries", "bit_identical", "time_s", "time_overhead_pct"],
    );
    let mut rows: Vec<Row> = Vec::new();
    let seeds: &[u64] = if quick_mode() { &[1, 2] } else { &[1, 2, 3, 4, 5] };
    for &rate in &[0.1f64, 0.25, 0.5] {
        for &seed in seeds {
            let ftc = FtConfig {
                plan: FaultPlan::random(seed, RANKS, rate),
                policy,
                recovery: RecoveryMode::Reexecute,
            };
            let r = run_oct_mpi_ft(&sys, &params, &cfg, &mpi_cluster(RANKS), WorkDivision::NodeNode, &ftc)
                .expect("re-execute recovery must survive any random plan");
            let retries = match r.outcome {
                RunOutcome::Recovered { n_retries } => n_retries,
                _ => 0,
            };
            let bit_identical = r.energy_kcal.to_bits() == clean.energy_kcal.to_bits();
            assert!(bit_identical, "rate {rate} seed {seed}: energy drifted");
            rows.push(Row {
                rate,
                seed,
                outcome: format!("{:?}", r.outcome),
                retries,
                bit_identical,
                time: r.time,
            });
        }
    }
    for r in &rows {
        t.push(vec![
            format!("{:.2}", r.rate),
            r.seed.to_string(),
            r.outcome.clone(),
            r.retries.to_string(),
            r.bit_identical.to_string(),
            format!("{:.6}", r.time),
            format!("{:.2}", (r.time / clean.time - 1.0) * 100.0),
        ]);
    }
    t.emit();

    // 3. Process-transport column: same grid, real worker processes,
    // real SIGKILLs, blocking equivalence gate against the rows above.
    #[cfg(unix)]
    let proc_col: Option<ProcColumn> = {
        eprintln!(
            "[fault_sweep] replaying the grid on the process transport ({} runs)...",
            rows.len()
        );
        Some(process_transport_column(&mol, &clean, &rows))
    };
    #[cfg(not(unix))]
    let proc_col: Option<ProcColumn> = None;

    match &proc_col {
        Some(pc) => {
            let mut pt = Table::new(
                "fault_sweep_process",
                &["rate", "seed", "outcome", "bit_identical", "time_s"],
            );
            for r in &pc.rows {
                pt.push(vec![
                    format!("{:.2}", r.rate),
                    r.seed.to_string(),
                    r.outcome.clone(),
                    r.bit_identical.to_string(),
                    format!("{:.6}", r.time),
                ]);
            }
            pt.emit();
        }
        None => eprintln!("[fault_sweep] process transport skipped (unix-only)"),
    }

    // 4. Degraded recovery: one killed rank, far-field-only regeneration.
    let ftc = FtConfig {
        plan: FaultPlan::new(99).kill(2, phase::INTEGRALS),
        policy,
        recovery: RecoveryMode::Degrade,
    };
    let deg = run_oct_mpi_ft(&sys, &params, &cfg, &mpi_cluster(RANKS), WorkDivision::NodeNode, &ftc)
        .expect("degraded recovery must complete");
    let (est_err, actual_err) = match deg.outcome {
        RunOutcome::Degraded { est_error_pct } => (
            est_error_pct,
            ((deg.energy_kcal - clean.energy_kcal) / clean.energy_kcal).abs() * 100.0,
        ),
        ref other => {
            eprintln!("[fault_sweep] warning: expected Degraded, got {other:?}");
            (0.0, 0.0)
        }
    };
    eprintln!("[fault_sweep] degraded: est {est_err:.2}% vs actual {actual_err:.4}%");

    // BENCH_faults.json — machine-readable record.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"atoms\": {},\n", sys.n_atoms()));
    json.push_str(&format!("  \"ranks\": {RANKS},\n"));
    json.push_str(&format!("  \"clean_energy_kcal\": {:.12e},\n", clean.energy_kcal));
    json.push_str(&format!("  \"clean_time_s\": {:.6e},\n", clean.time));
    json.push_str(&format!(
        "  \"containment\": {{\"threads\": {threads}, \"wall_plain_s\": {wall_plain:.6e}, \
         \"wall_ft_s\": {wall_ft:.6e}, \"overhead_pct\": {overhead_pct:.3}}},\n"
    ));
    json.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rate\": {:.2}, \"seed\": {}, \"outcome\": \"{}\", \"retries\": {}, \
             \"bit_identical\": {}, \"time_s\": {:.6e}, \"time_overhead_pct\": {:.3}}}{}\n",
            r.rate,
            r.seed,
            r.outcome,
            r.retries,
            r.bit_identical,
            r.time,
            (r.time / clean.time - 1.0) * 100.0,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    match &proc_col {
        Some(pc) => {
            json.push_str("  \"process_sweep\": [\n");
            for (i, r) in pc.rows.iter().enumerate() {
                json.push_str(&format!(
                    "    {{\"rate\": {:.2}, \"seed\": {}, \"outcome\": \"{}\", \
                     \"bit_identical\": {}, \"time_s\": {:.6e}}}{}\n",
                    r.rate,
                    r.seed,
                    r.outcome,
                    r.bit_identical,
                    r.time,
                    if i + 1 == pc.rows.len() { "" } else { "," }
                ));
            }
            json.push_str("  ],\n");
            json.push_str(&format!(
                "  \"process_sigkill\": {{\"outcome\": \"{}\", \"exit_status\": \"{}\", \
                 \"bit_identical\": {}}},\n",
                pc.sigkill.outcome, pc.sigkill.exit_status, pc.sigkill.bit_identical
            ));
        }
        None => {
            json.push_str("  \"process_sweep\": null,\n");
            json.push_str("  \"process_sigkill\": null,\n");
        }
    }
    json.push_str(&format!(
        "  \"degraded\": {{\"est_error_pct\": {est_err:.4}, \"actual_error_pct\": {actual_err:.4}}}\n"
    ));
    json.push_str("}\n");
    let dir = std::env::var("POLAROCT_OUT").ok().filter(|d| !d.is_empty());
    let dir = dir.unwrap_or_else(|| "results".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join("BENCH_faults.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[fault_sweep] wrote {}", path.display()),
        Err(e) => eprintln!("[fault_sweep] could not write {}: {e}", path.display()),
    }
}
