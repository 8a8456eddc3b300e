//! Measured vs modeled parallel speedup for the real-thread driver.
//!
//! Sweeps `run_oct_threads_ft` over threads ∈ {1, 2, 4, 8} on a ≥10k-atom
//! synthetic protein and prints the *measured* wall-clock speedup (from
//! `RunReport::wall_seconds`) next to the fork-join model's prediction
//! (from `RunReport::time`) — the simulator's Table II numbers are
//! finally falsifiable against real host threads.
//!
//! Emits `BENCH_parallel.json` (to `$POLAROCT_OUT` if set, else
//! `results/`) plus the usual TSV table. Each configuration runs
//! `reps` times and keeps the minimum wall time to suppress scheduler
//! noise; energies are checked bit-identical across thread counts
//! (deterministic block reduction) before anything is reported.
//!
//! Note: on a single-core host the measured speedup saturates at ~1x
//! regardless of thread count — the modeled column then shows what the
//! fork-join analysis predicts for a machine that actually has the
//! cores. See EXPERIMENTS.md "Measured parallel speedup".

#![forbid(unsafe_code)]

use polaroct_bench::{fmt_time, quick_mode, std_config, Table};
use polaroct_cluster::fault::FaultPlan;
use polaroct_core::{run_oct_threads_ft, ApproxParams, GbSystem};
use polaroct_molecule::synth;
use std::io::Write;

fn main() {
    let n = if quick_mode() { 2_000 } else { 12_000 };
    let reps = if quick_mode() { 1 } else { 3 };
    eprintln!("[measured_speedup] generating protein ({n} atoms)...");
    let mol = synth::protein("bench", n, 0xBEEF);
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(&mol, &params);
    eprintln!(
        "[measured_speedup] system ready: {} atoms, {} q-points, {} host cores",
        sys.n_atoms(),
        sys.n_qpoints(),
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );
    let cfg = std_config();

    let mut t = Table::new(
        "measured_speedup",
        &[
            "threads",
            "wall_s",
            "modeled_s",
            "speedup_measured",
            "speedup_modeled",
        ],
    );

    struct Row {
        threads: usize,
        wall: f64,
        modeled: f64,
        energy: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        let mut wall = f64::INFINITY;
        let mut modeled = 0.0;
        let mut energy = 0.0;
        for _ in 0..reps {
            let r = run_oct_threads_ft(&sys, &params, &cfg, threads, &FaultPlan::none()).unwrap();
            wall = wall.min(r.wall_seconds);
            modeled = r.time;
            energy = r.energy_kcal;
        }
        eprintln!(
            "[measured_speedup] threads={threads}: wall {} | modeled {}",
            fmt_time(wall),
            fmt_time(modeled)
        );
        rows.push(Row {
            threads,
            wall,
            modeled,
            energy,
        });
    }

    // Determinism gate: the block reduction makes energies bit-identical
    // across widths; refuse to report numbers from a broken build.
    for r in &rows[1..] {
        assert_eq!(
            r.energy.to_bits(),
            rows[0].energy.to_bits(),
            "energy not reproducible across thread counts"
        );
    }

    let base_wall = rows[0].wall;
    let base_model = rows[0].modeled;
    println!("threads  measured speedup  modeled speedup");
    for r in &rows {
        let sm = base_wall / r.wall;
        let sp = base_model / r.modeled;
        println!("{:>7}  {:>16.2}  {:>15.2}", r.threads, sm, sp);
        t.push(vec![
            r.threads.to_string(),
            format!("{:.6}", r.wall),
            format!("{:.6}", r.modeled),
            format!("{:.3}", sm),
            format!("{:.3}", sp),
        ]);
    }
    t.emit();

    // BENCH_parallel.json — machine-readable record of the sweep.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"atoms\": {},\n", sys.n_atoms()));
    json.push_str(&format!("  \"qpoints\": {},\n", sys.n_qpoints()));
    json.push_str(&format!(
        "  \"host_cores\": {},\n",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    ));
    json.push_str(&format!("  \"energy_kcal\": {:.12e},\n", rows[0].energy));
    json.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"wall_s\": {:.6e}, \"modeled_s\": {:.6e}, \
             \"speedup_measured\": {:.4}, \"speedup_modeled\": {:.4}}}{}\n",
            r.threads,
            r.wall,
            r.modeled,
            base_wall / r.wall,
            base_model / r.modeled,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let dir = std::env::var("POLAROCT_OUT").ok().filter(|d| !d.is_empty());
    let dir = dir.unwrap_or_else(|| "results".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join("BENCH_parallel.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[measured_speedup] wrote {}", path.display()),
        Err(e) => eprintln!("[measured_speedup] could not write {}: {e}", path.display()),
    }
}
