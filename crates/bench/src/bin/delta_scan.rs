//! Incremental ΔE_pol perturbation queries vs full list re-execution.
//!
//! A mutation/perturbation screen asks: move `k` atoms, what is the new
//! polarization energy? PR 5's list engine answers by re-running every
//! Phase-A chunk; `core::delta` answers by re-running only the list
//! entries whose operands read a moved atom (DESIGN.md §14–15), with a
//! result that is bit-identical **by construction**. This bench
//! measures what that buys, and gates that it costs nothing in
//! correctness:
//!
//! * k-sweep over `k ∈ {1, 4, 16, 64}` moved atoms per query, each
//!   query reverted before the next (screening mode: every query scored
//!   against the same base state). Two services per query: the delta
//!   engine and a persistent [`ListEngine`] re-executing all chunks.
//! * **Blocking bitwise gates** (both modes, no margin — this is the
//!   engine's contract, not a statistic): delta == full on every query,
//!   and every revert lands back on the base bits.
//! * **Blocking speedup gates**: delta beats full at `k ≤ 16`. Quick
//!   mode only smokes the machinery — single-core CI hosts time noisily
//!   at smoke sizes, so its margin is generous; see EXPERIMENTS.md.
//! * **Memory rows**: `state_bytes` (`memory_bytes`) and
//!   `entry_cache_bytes`, plus memory-only rows at 4,000 and 12,000 atoms
//!   in full mode. **Blocking size gate** (both modes): the entry tables
//!   stay O(nodes + entries).
//!
//! Emits `BENCH_delta.json` (to `$POLAROCT_OUT` if set, else
//! `results/`) plus the usual TSV table. `POLAROCT_QUICK=1` shrinks
//! the molecule and query counts so CI can run it as a blocking smoke
//! step.

#![forbid(unsafe_code)]

use polaroct_bench::{fmt_time, quick_mode, Table};
use polaroct_core::delta::{DeltaEngine, Perturbation};
use polaroct_core::lists::ListEngine;
use polaroct_core::ApproxParams;
use polaroct_geom::Vec3;
use polaroct_molecule::{synth, Molecule};
use std::io::Write;
use std::time::Instant;

const KS: [usize; 4] = [1, 4, 16, 64];
const SKIN: f64 = 0.8;
/// Per-component move amplitude (Å): well inside `SKIN / 2`, so no
/// query crosses the rebuild boundary (queries revert to base).
const AMPLITUDE: f64 = 0.1;

struct Row {
    k: usize,
    delta_wall: f64,
    revert_wall: f64,
    full_wall: f64,
    redone_mean: f64,
    cached_mean: f64,
    total_chunks: usize,
    entries_redone_mean: f64,
    total_entries: usize,
}

fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// One k-move query over distinct atoms, plus the perturbed frame for
/// the full-engine baseline.
fn make_query(mol: &Molecule, k: usize, rng: &mut u64) -> (Perturbation, Vec<Vec3>) {
    let atoms = mol.positions.len();
    let mut p = Perturbation::default();
    let mut frame = mol.positions.clone();
    let mut picked = vec![false; atoms];
    let mut placed = 0usize;
    while placed < k {
        let atom = (mix(rng) % atoms as u64) as usize;
        if picked[atom] {
            continue;
        }
        picked[atom] = true;
        placed += 1;
        let d = Vec3::new(
            unit(rng) * AMPLITUDE,
            unit(rng) * AMPLITUDE,
            unit(rng) * AMPLITUDE,
        );
        let target = mol.positions[atom] + d;
        p = p.move_atom(atom, target);
        frame[atom] = target;
    }
    (p, frame)
}

/// The memory row of `eng` as a JSON object. Gate: the entry tables are
/// two `n_nodes + 1` offset arrays plus at most two `u32` ids per entry.
fn memory_row(eng: &DeltaEngine) -> String {
    let (atoms, entries) = (eng.positions().len(), eng.total_entries());
    let nodes = eng.system().atoms.nodes.len();
    let (state, tables) = (eng.memory_bytes(), eng.entry_cache_bytes());
    let bound = 4 * (2 * (nodes + 1) + 2 * entries);
    eprintln!("[delta_scan] {atoms} atoms: state {state} B, entry tables {tables} B (bound {bound})");
    // PANIC-OK: blocking size gate of the bench (both modes).
    assert!(tables <= bound, "{atoms} atoms: entry tables {tables} B over {bound} B");
    format!(
        "{{\"atoms\": {atoms}, \"atoms_nodes\": {nodes}, \"entries\": {entries}, \
         \"state_bytes\": {state}, \"entry_cache_bytes\": {tables}}}"
    )
}

fn main() {
    let quick = quick_mode();
    let atoms = if quick { 120 } else { 800 };
    let queries = if quick { 4 } else { 16 };
    let host_cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let approx = ApproxParams::default();

    eprintln!("[delta_scan] {atoms}-atom protein, {queries} queries per k, skin {SKIN} A");
    let mol = synth::protein("deltascan", atoms, 0xD51);
    let mut delta = DeltaEngine::new(&mol, &approx, SKIN);
    let mut full = ListEngine::new(&mol, &approx, SKIN);
    // Warm the baseline at the base geometry (first evaluate pays the
    // accumulator allocations; keep it out of the timed loops).
    let base_eval = full.evaluate(&mol.positions);
    assert_eq!(
        base_eval.raw.to_bits(),
        delta.raw().to_bits(),
        "engines disagree at the base geometry"
    );

    let mut memory = vec![memory_row(&delta)];
    if !quick {
        for n in [4_000, 12_000] {
            let eng = DeltaEngine::new(&synth::protein("protein", n, 0), &approx, SKIN);
            memory.push(memory_row(&eng));
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut rng = 0xD51u64;
    for &k in &KS {
        let k = k.min(atoms);
        let mut delta_wall = 0.0f64;
        let mut revert_wall = 0.0f64;
        let mut full_wall = 0.0f64;
        let mut redone = 0u64;
        let mut cached = 0u64;
        let mut e_redone = 0u64;
        let mut total_chunks = 0usize;
        let mut total_entries = 0usize;
        for q in 0..queries {
            let (p, frame) = make_query(&mol, k, &mut rng);

            let t = Instant::now();
            let eval = delta.apply_perturbation(&p, None);
            delta_wall += t.elapsed().as_secs_f64();
            assert!(!eval.rebuilt, "k={k} query {q} crossed the skin boundary");
            redone += eval.chunks_redone as u64;
            cached += eval.chunks_cached as u64;
            e_redone += eval.entries_redone as u64;
            total_chunks = eval.total_chunks;
            total_entries = eval.total_entries;

            let t = Instant::now();
            let feval = full.evaluate(&frame);
            full_wall += t.elapsed().as_secs_f64();
            assert!(!feval.rebuilt, "baseline crossed the skin boundary");

            // Blocking bitwise gates: the incremental answer IS the full
            // answer, on every query, in both modes.
            assert_eq!(
                eval.raw.to_bits(),
                feval.raw.to_bits(),
                "k={k} query {q}: delta {} != full {}",
                eval.raw,
                feval.raw
            );
            assert_eq!(eval.energy_kcal.to_bits(), feval.energy_kcal.to_bits());

            let t = Instant::now();
            assert!(delta.revert(None), "nothing to revert");
            revert_wall += t.elapsed().as_secs_f64();
            let beval = full.evaluate(&mol.positions);
            assert_eq!(
                delta.raw().to_bits(),
                beval.raw.to_bits(),
                "k={k} query {q}: revert diverged from base"
            );
        }
        eprintln!(
            "[delta_scan] k={k}: delta {}/query (revert {}), full {}/query, \
             redone {:.1}/{} chunks, {:.1}/{} entries",
            fmt_time(delta_wall / queries as f64),
            fmt_time(revert_wall / queries as f64),
            fmt_time(full_wall / queries as f64),
            redone as f64 / queries as f64,
            total_chunks,
            e_redone as f64 / queries as f64,
            total_entries,
        );
        // Few moved atoms must leave cache hits on the table.
        if k <= 16 {
            assert!(
                redone < queries as u64 * total_chunks as u64,
                "k={k} redid every chunk of every query"
            );
        }
        rows.push(Row {
            k,
            delta_wall,
            revert_wall,
            full_wall,
            redone_mean: redone as f64 / queries as f64,
            cached_mean: cached as f64 / queries as f64,
            total_chunks,
            entries_redone_mean: e_redone as f64 / queries as f64,
            total_entries,
        });
    }

    // Blocking speedup gates (quick mode only smokes the machinery —
    // tiny sizes time noisily on shared single-core hosts, so the
    // margins are generous there).
    let margin = if quick { 2.5 } else { 1.0 };
    for r in rows.iter().filter(|r| r.k <= 16) {
        assert!(
            r.delta_wall <= r.full_wall * margin,
            "k={}: delta {:.6}s vs full {:.6}s (margin {margin})",
            r.k,
            r.delta_wall,
            r.full_wall
        );
    }

    // ---- TSV table.
    let mut t = Table::new(
        "delta_scan",
        &[
            "k", "queries", "delta_query_s", "revert_query_s", "full_query_s", "speedup",
            "chunks_redone_mean", "chunks_cached_mean", "total_chunks", "entries_redone_mean",
            "total_entries",
        ],
    );
    println!("k     delta/query  full/query  vs_full  redone/total");
    for r in &rows {
        let speedup = r.full_wall / r.delta_wall;
        println!(
            "{:<4}  {:>11}  {:>10}  {:>7.2}  {:>6.1}/{}",
            r.k,
            fmt_time(r.delta_wall / queries as f64),
            fmt_time(r.full_wall / queries as f64),
            speedup,
            r.redone_mean,
            r.total_chunks,
        );
        t.push(vec![
            r.k.to_string(),
            queries.to_string(),
            format!("{:.6e}", r.delta_wall / queries as f64),
            format!("{:.6e}", r.revert_wall / queries as f64),
            format!("{:.6e}", r.full_wall / queries as f64),
            format!("{:.4}", speedup),
            format!("{:.1}", r.redone_mean),
            format!("{:.1}", r.cached_mean),
            r.total_chunks.to_string(),
            format!("{:.1}", r.entries_redone_mean),
            r.total_entries.to_string(),
        ]);
    }
    t.emit();

    // ---- BENCH_delta.json.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"atoms\": {atoms}, \"skin_A\": {SKIN}, \"amplitude_A\": {AMPLITUDE}, \
         \"queries_per_k\": {queries},\n"
    ));
    json.push_str("  \"ks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"k\": {}, \"delta_query_s\": {:.6e}, \"revert_query_s\": {:.6e}, \
             \"full_query_s\": {:.6e}, \"speedup_vs_full\": {:.4}, \
             \"chunks_redone_mean\": {:.1}, \"chunks_cached_mean\": {:.1}, \
             \"total_chunks\": {}, \"entries_redone_mean\": {:.1}, \"total_entries\": {}, \
             \"bitwise_equal_to_full\": true}}{}\n",
            r.k,
            r.delta_wall / queries as f64,
            r.revert_wall / queries as f64,
            r.full_wall / queries as f64,
            r.full_wall / r.delta_wall,
            r.redone_mean,
            r.cached_mean,
            r.total_chunks,
            r.entries_redone_mean,
            r.total_entries,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!("  ],\n  \"memory\": [\n    {}\n", memory.join(",\n    ")));
    json.push_str("  ]\n}\n");
    let dir = std::env::var("POLAROCT_OUT").ok().filter(|d| !d.is_empty());
    let dir = dir.unwrap_or_else(|| "results".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join("BENCH_delta.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[delta_scan] wrote {}", path.display()),
        Err(e) => eprintln!("[delta_scan] could not write {}: {e}", path.display()),
    }
}
