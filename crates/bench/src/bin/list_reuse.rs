//! Verlet-skin interaction-list reuse: how often can MD steps be served
//! by prebuilt octrees + interaction lists, and what does a served step
//! cost next to a full recursive rebuild?
//!
//! Two sweeps, both over `skin ∈ {0, 0.5, 1.0, 2.0}` Å:
//!
//! 1. **MD sweep** — [`polaroct_core::md::run_md`] on a restrained
//!    ligand; reports the engine's `lists_reused` / `lists_rebuilt`
//!    counters (the Verlet hit rate under real restrained dynamics) and
//!    the per-step wall time.
//! 2. **Trajectory replay** — a deterministic ballistic drift
//!    (~0.03 Å/step, so rebuild cadence scales with skin) evaluated by a
//!    persistent [`polaroct_core::lists::ListEngine`] per skin, against
//!    a baseline that rebuilds the system and runs the *recursive*
//!    traversals every step. The skin-0 engine must match the recursive
//!    baseline **bit-for-bit at every step** (that gate is blocking),
//!    and skins > 0 must rebuild strictly fewer times than there are
//!    steps while keeping the average step no slower than the recursive
//!    baseline (generous margin in quick mode — single-core CI hosts
//!    time noisily at smoke sizes; see EXPERIMENTS.md for the caveat).
//!
//! Emits `BENCH_lists.json` (to `$POLAROCT_OUT` if set, else
//! `results/`) plus the usual TSV table. `POLAROCT_QUICK=1` shrinks the
//! molecule and step counts so CI can run it as a blocking step.

#![forbid(unsafe_code)]

use polaroct_bench::{fmt_time, quick_mode, Table};
use polaroct_core::born::born_radii_octree;
use polaroct_core::epol::{epol_octree_raw, ChargeBins};
use polaroct_core::lists::ListEngine;
use polaroct_core::md::{run_md, MdParams};
use polaroct_core::{ApproxParams, GbSystem};
use polaroct_geom::Vec3;
use polaroct_molecule::synth;
use std::io::Write;
use std::time::Instant;

const SKINS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

struct MdRow {
    skin: f64,
    reused: u64,
    rebuilt: u64,
    wall: f64,
    ops_total: u64,
}

struct ReplayRow {
    skin: f64,
    reuses: u64,
    rebuilds: u64,
    wall: f64,
    ops_total: u64,
    bitwise_equal: bool,
}

fn main() {
    let quick = quick_mode();
    let md_atoms = if quick { 25 } else { 60 };
    let md_steps = if quick { 10 } else { 30 };
    let replay_atoms = if quick { 70 } else { 250 };
    let replay_steps = if quick { 10 } else { 40 };
    let host_cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let approx = ApproxParams::default();

    // ---- Sweep 1: real restrained MD through the list engine.
    eprintln!("[list_reuse] MD sweep: {md_atoms}-atom ligand, {md_steps} steps");
    let md_mol = synth::ligand("listmd", md_atoms, 11);
    let mut md_rows: Vec<MdRow> = Vec::new();
    for &skin in &SKINS {
        let t = Instant::now();
        let report = run_md(&md_mol, &approx, &MdParams { skin, ..Default::default() }, md_steps);
        let wall = t.elapsed().as_secs_f64();
        eprintln!(
            "[list_reuse] md skin={skin}: reused {} rebuilt {} ({}/step)",
            report.lists_reused,
            report.lists_rebuilt,
            fmt_time(wall / md_steps as f64)
        );
        // Restrained ligand dynamics drifts ≪ skin/2 per step: any
        // positive skin must serve most steps from prebuilt lists.
        if skin > 0.0 {
            assert!(
                report.lists_rebuilt - 1 < md_steps as u64,
                "skin {skin} rebuilt on every MD step"
            );
            assert!(
                report.lists_reused > md_steps as u64 / 2,
                "skin {skin} reused only {} of {md_steps} MD steps",
                report.lists_reused
            );
        }
        md_rows.push(MdRow {
            skin,
            reused: report.lists_reused,
            rebuilt: report.lists_rebuilt,
            wall,
            ops_total: report.ops.total(),
        });
    }

    // ---- Sweep 2: trajectory replay vs the recursive baseline.
    eprintln!("[list_reuse] replay sweep: {replay_atoms}-atom protein, {replay_steps} steps");
    let mol = synth::protein("listreplay", replay_atoms, 0x115);
    // Ballistic drift: every atom translates ~0.03 Å/step in a fixed
    // direction (plus a small deterministic per-atom jitter), so the
    // displacement from any rebuild geometry grows linearly and the
    // rebuild cadence is proportional to the skin.
    let dir = Vec3::new(0.577350, 0.577350, 0.577350);
    let mut traj: Vec<Vec<Vec3>> = Vec::with_capacity(replay_steps);
    let mut pos = mol.positions.clone();
    for t in 0..replay_steps {
        for (i, p) in pos.iter_mut().enumerate() {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(t as u64 * 0x2545F4914F6CDD1D);
            let jitter = ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.004;
            *p += dir * (0.03 + jitter);
        }
        traj.push(pos.clone());
    }

    // Recursive baseline: full system rebuild + recursive traversals at
    // every trajectory frame (what every step cost before lists).
    let mut work = mol.clone();
    let mut baseline_raw: Vec<f64> = Vec::with_capacity(replay_steps);
    let t = Instant::now();
    for frame in &traj {
        // PANIC-OK: every synthesized trajectory frame has exactly positions.len() entries.
        work.positions.copy_from_slice(frame);
        let sys = GbSystem::prepare(&work, &approx);
        let (born, _) = born_radii_octree(&sys, approx.eps_born, approx.math);
        let bins = ChargeBins::build(&sys, &born, approx.eps_epol);
        let (raw, _) = epol_octree_raw(&sys, &bins, &born, approx.math);
        baseline_raw.push(raw);
    }
    let baseline_wall = t.elapsed().as_secs_f64();
    eprintln!(
        "[list_reuse] recursive baseline: {} total ({}/step)",
        fmt_time(baseline_wall),
        fmt_time(baseline_wall / replay_steps as f64)
    );

    let mut replay_rows: Vec<ReplayRow> = Vec::new();
    for &skin in &SKINS {
        let mut engine = ListEngine::new(&mol, &approx, skin);
        let mut reuses = 0u64;
        let mut rebuilds = 0u64;
        let mut ops_total = 0u64;
        let mut bitwise_equal = true;
        let t = Instant::now();
        for (step, frame) in traj.iter().enumerate() {
            let eval = engine.evaluate(frame);
            if eval.rebuilt {
                rebuilds += 1;
            } else {
                reuses += 1;
            }
            ops_total += eval.ops.total();
            if skin == 0.0 {
                // Blocking gate: the skin-0 engine rebuilds every frame
                // and must reproduce the recursive traversal bit-for-bit.
                assert!(
                    eval.raw.to_bits() == baseline_raw[step].to_bits(),
                    "skin-0 list engine diverged from recursion at step {step}: {} vs {}",
                    eval.raw,
                    baseline_raw[step]
                );
            } else {
                bitwise_equal = bitwise_equal && eval.raw.to_bits() == baseline_raw[step].to_bits();
            }
        }
        let wall = t.elapsed().as_secs_f64();
        if skin > 0.0 {
            assert!(
                rebuilds < replay_steps as u64,
                "skin {skin} rebuilt on every replay step"
            );
        }
        eprintln!(
            "[list_reuse] replay skin={skin}: {} rebuilds, {} reuses ({}/step)",
            rebuilds,
            reuses,
            fmt_time(wall / replay_steps as f64)
        );
        replay_rows.push(ReplayRow { skin, reuses, rebuilds, wall, ops_total, bitwise_equal });
    }

    // Timing gate: the cheapest skinned configuration must not lose to
    // rebuilding + recursing every step. Generous margin in quick mode
    // (tiny problem sizes time noisily on shared CI hosts).
    let mut best_skinned = f64::INFINITY;
    for r in replay_rows.iter().filter(|r| r.skin > 0.0) {
        best_skinned = best_skinned.min(r.wall);
    }
    let margin = if quick { 2.5 } else { 1.25 };
    assert!(
        best_skinned <= baseline_wall * margin,
        "best skinned replay {best_skinned:.6}s vs recursive baseline {baseline_wall:.6}s (margin {margin})"
    );

    // ---- TSV table.
    let mut t = Table::new(
        "list_reuse",
        &["mode", "skin_A", "steps", "reused", "rebuilt", "wall_s", "step_wall_s", "ops"],
    );
    println!("mode    skin   steps  reused  rebuilt  wall        per-step");
    for r in &md_rows {
        println!(
            "md      {:<5}  {:>5}  {:>6}  {:>7}  {:>10}  {:>10}",
            r.skin,
            md_steps,
            r.reused,
            r.rebuilt,
            fmt_time(r.wall),
            fmt_time(r.wall / md_steps as f64)
        );
        t.push(vec![
            "md".into(),
            format!("{}", r.skin),
            md_steps.to_string(),
            r.reused.to_string(),
            r.rebuilt.to_string(),
            format!("{:.6}", r.wall),
            format!("{:.6}", r.wall / md_steps as f64),
            r.ops_total.to_string(),
        ]);
    }
    for r in &replay_rows {
        println!(
            "replay  {:<5}  {:>5}  {:>6}  {:>7}  {:>10}  {:>10}",
            r.skin,
            replay_steps,
            r.reuses,
            r.rebuilds,
            fmt_time(r.wall),
            fmt_time(r.wall / replay_steps as f64)
        );
        t.push(vec![
            "replay".into(),
            format!("{}", r.skin),
            replay_steps.to_string(),
            r.reuses.to_string(),
            r.rebuilds.to_string(),
            format!("{:.6}", r.wall),
            format!("{:.6}", r.wall / replay_steps as f64),
            r.ops_total.to_string(),
        ]);
    }
    t.emit();

    // ---- BENCH_lists.json.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"md\": {{\"atoms\": {md_atoms}, \"steps\": {md_steps}, \"skins\": [\n"
    ));
    for (i, r) in md_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"skin_A\": {}, \"lists_reused\": {}, \"lists_rebuilt\": {}, \
             \"hit_rate\": {:.4}, \"wall_s\": {:.6e}, \"step_wall_s\": {:.6e}, \"ops\": {}}}{}\n",
            r.skin,
            r.reused,
            r.rebuilt,
            r.reused as f64 / md_steps as f64,
            r.wall,
            r.wall / md_steps as f64,
            r.ops_total,
            if i + 1 == md_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"replay\": {{\"atoms\": {replay_atoms}, \"steps\": {replay_steps}, \
         \"drift_per_step_A\": 0.03,\n"
    ));
    json.push_str(&format!(
        "    \"recursive_baseline\": {{\"wall_s\": {:.6e}, \"step_wall_s\": {:.6e}}},\n",
        baseline_wall,
        baseline_wall / replay_steps as f64
    ));
    json.push_str("    \"skins\": [\n");
    for (i, r) in replay_rows.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"skin_A\": {}, \"reuses\": {}, \"rebuilds\": {}, \"wall_s\": {:.6e}, \
             \"step_wall_s\": {:.6e}, \"speedup_vs_recursive\": {:.4}, \"ops\": {}, \
             \"bitwise_equal_to_recursive\": {}}}{}\n",
            r.skin,
            r.reuses,
            r.rebuilds,
            r.wall,
            r.wall / replay_steps as f64,
            baseline_wall / r.wall,
            r.ops_total,
            r.bitwise_equal,
            if i + 1 == replay_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    let dir = std::env::var("POLAROCT_OUT").ok().filter(|d| !d.is_empty());
    let dir = dir.unwrap_or_else(|| "results".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join("BENCH_lists.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[list_reuse] wrote {}", path.display()),
        Err(e) => eprintln!("[list_reuse] could not write {}: {e}", path.display()),
    }
}
