//! Leaf-kernel throughput: what does one near-field interaction cost in
//! the r⁶ surface (Born) and STILL (E_pol) kernels, before and after
//! this repo's lane-batching + persistent-arena work?
//!
//! Two variants run the *same* near-entry workload (the interaction
//! lists' leaf×leaf blocks, positions refreshed per trajectory frame):
//!
//! * **gather_scalar** — the seed hot path: per-entry gather of the leaf
//!   out of the system into flat scratch lanes, then straight scalar
//!   loops (gather and loops written out longhand here, independent of
//!   `core::soa`, so they also serve as the bitwise reference).
//! * **arena_lanes** — the current hot path: zero-copy views into the
//!   persistent Morton-ordered arenas, lane-batched kernels.
//!
//! STILL has a third variant, **paired**: the list executor's Phase A,
//! which evaluates a near entry and its mirror entry from one shared
//! tile ([`still_pair_block`]). It computes each mirrored leaf pair
//! once, but its ns figure still divides by every *listed* interaction,
//! so it is directly comparable with the other two rows.
//!
//! Blocking gates (any mode, quick or full): the arena path must match
//! the gather+scalar path **bit-for-bit** — per-atom Born accumulators
//! and the raw E_pol sum at every frame, both `MathMode`s — and so must
//! the paired path (per entry, and the raw sum folded entry by entry).
//! Timing (ns/interaction per kernel × MathMode × variant, and the
//! combined Approx-mode per-step walls with their speedup) is reported
//! in `BENCH_kernels.json`; far-field entries cost the same in both
//! variants and are excluded from both. `POLAROCT_QUICK=1` shrinks the
//! molecule and frame count so CI can run this as a blocking smoke.
//! Single-core-host caveat: see EXPERIMENTS.md.

#![forbid(unsafe_code)]

use polaroct_bench::{fmt_time, quick_mode, Table};
use polaroct_core::born::born_radii_octree;
use polaroct_core::epol::ChargeBins;
use polaroct_core::lists::{BornLists, EpolLists};
use polaroct_core::soa::{still_pair_block, AtomView, QView, StillScratch, CHUNK};
use polaroct_core::{ApproxParams, GbSystem};
use polaroct_geom::fastmath::MathMode;
use polaroct_geom::Vec3;
use polaroct_molecule::synth;
use std::io::Write;
use std::ops::Range;
use std::time::Instant;

/// Seed-path scratch: a leaf range copied out of the system into flat
/// lanes, one allocation reused across a whole sweep.
#[derive(Default)]
struct Gather {
    lanes: [Vec<f64>; 6],
}

impl Gather {
    /// Copy q range `r` in: positions and `n_q * w_q`, the product the
    /// q arena stores.
    fn q(&mut self, sys: &GbSystem, r: Range<usize>) -> QView<'_> {
        self.lanes.iter_mut().for_each(Vec::clear);
        let [x, y, z, wnx, wny, wnz] = &mut self.lanes;
        let pts = sys.qtree.points.get(r.clone()).unwrap_or(&[]);
        let nrm = sys.q_normal.get(r.clone()).unwrap_or(&[]);
        let w = sys.q_weight.get(r).unwrap_or(&[]);
        for ((p, &n), &w) in pts.iter().zip(nrm).zip(w) {
            let wn = n * w;
            x.push(p.x);
            y.push(p.y);
            z.push(p.z);
            wnx.push(wn.x);
            wny.push(wn.y);
            wnz.push(wn.z);
        }
        QView {
            x,
            y,
            z,
            wnx,
            wny,
            wnz,
        }
    }

    /// Copy atom range `r` in: positions, charges and Born radii.
    fn atoms(&mut self, sys: &GbSystem, born: &[f64], r: Range<usize>) -> AtomView<'_> {
        self.lanes.iter_mut().for_each(Vec::clear);
        let [x, y, z, q, rad, _] = &mut self.lanes;
        let pts = sys.atoms.points.get(r.clone()).unwrap_or(&[]);
        let chg = sys.charge.get(r.clone()).unwrap_or(&[]);
        let br = born.get(r).unwrap_or(&[]);
        for ((p, &c), &b) in pts.iter().zip(chg).zip(br) {
            x.push(p.x);
            y.push(p.y);
            z.push(p.z);
            q.push(c);
            rad.push(b);
        }
        AtomView { x, y, z, q, r: rad }
    }
}

/// Seed-path scalar r⁶ surface kernel (pre-lane-batching loop body).
fn born_term_scalar(q: QView<'_>, xa: Vec3) -> f64 {
    let mut s = 0.0;
    for i in 0..q.len() {
        let dx = q.x[i] - xa.x;
        let dy = q.y[i] - xa.y;
        let dz = q.z[i] - xa.z;
        let inv2 = 1.0 / (dx * dx + dy * dy + dz * dz);
        s += (q.wnx[i] * dx + q.wny[i] * dy + q.wnz[i] * dz) * (inv2 * inv2 * inv2);
    }
    s
}

/// Seed-path scalar STILL kernel (per-element `exp`/`rsqrt` dispatch).
fn still_term_scalar(a: AtomView<'_>, xu: Vec3, ru: f64, math: MathMode) -> f64 {
    let mut acc = 0.0;
    for i in 0..a.len() {
        let dx = a.x[i] - xu.x;
        let dy = a.y[i] - xu.y;
        let dz = a.z[i] - xu.z;
        let d2 = dx * dx + dy * dy + dz * dz;
        let rr = ru * a.r[i];
        let e = math.exp(-d2 / (4.0 * rr));
        let f = d2 + rr * e;
        acc += a.q[i] * math.rsqrt(f);
    }
    acc
}

/// Born near sweep, seed style: gather each q leaf, scalar kernel.
fn born_sweep_gather(sys: &GbSystem, lists: &BornLists, acc: &mut [f64]) {
    let mut scratch = Gather::default();
    for e in lists.entries.iter().filter(|e| !e.far) {
        let a = sys.atoms.node(e.a);
        let qv = scratch.q(sys, sys.qtree.node(e.b).range());
        for ai in a.range() {
            acc[ai] += born_term_scalar(qv, sys.atoms.points[ai]);
        }
    }
}

/// Born near sweep, current style: arena views, block-form lane-batched
/// kernel (exactly the `BornLists::run_chunk` near path).
fn born_sweep_arena(sys: &GbSystem, lists: &BornLists, acc: &mut [f64]) {
    for e in lists.entries.iter().filter(|e| !e.far) {
        let a = sys.atoms.node(e.a);
        let q = sys.qtree.node(e.b);
        let qv = sys.q_arena.view(q.range());
        sys.born_block_terms(qv, a.range(), |ai, t| acc[ai] += t);
    }
}

/// STILL near sweep, seed style: gather each source leaf, scalar kernel.
fn still_sweep_gather(sys: &GbSystem, lists: &EpolLists, born: &[f64], math: MathMode) -> f64 {
    let mut scratch = Gather::default();
    let mut raw = 0.0;
    for e in lists.entries.iter().filter(|e| !e.far) {
        let u = sys.atoms.node(e.a);
        let vv = scratch.atoms(sys, born, sys.atoms.node(e.b).range());
        for ui in u.range() {
            let term = still_term_scalar(vv, sys.atoms.points[ui], born[ui], math);
            raw += sys.charge[ui] * term;
        }
    }
    raw
}

/// STILL near sweep, current style: arena views, block-form lane-batched
/// kernel (the `EpolLists::run_chunk` near path). The `q·term` fold goes
/// straight into the global `raw` in source-atom order — the same
/// association as the gather sweep above, so the two stay bit-comparable.
fn still_sweep_arena(sys: &GbSystem, lists: &EpolLists, born: &[f64], math: MathMode) -> f64 {
    let mut raw = 0.0;
    let mut buf = [0.0f64; CHUNK];
    let mut scratch = StillScratch::default();
    for e in lists.entries.iter().filter(|e| !e.far) {
        let u = sys.atoms.node(e.a);
        let v = sys.atoms.node(e.b);
        let vv = sys.atom_arena.view(born, v.range());
        let ur = u.range();
        let mut base = ur.start;
        while base < ur.end {
            let m = CHUNK.min(ur.end - base);
            let uv = sys.atom_arena.view(born, base..base + m);
            uv.still_block(vv, math, &mut scratch, &mut buf[..m]);
            for (k, &t) in buf[..m].iter().enumerate() {
                raw += uv.q[k] * t;
            }
            base += m;
        }
    }
    raw
}

/// Per-entry raw STILL values, seed style (gather + scalar kernel, each
/// entry folded from 0.0), far entries 0.0: the reference of the paired
/// variant, whose values are per entry too.
fn still_entries_gather(
    sys: &GbSystem,
    lists: &EpolLists,
    born: &[f64],
    math: MathMode,
) -> Vec<f64> {
    let mut scratch = Gather::default();
    let mut out = vec![0.0f64; lists.len()];
    for (o, e) in out.iter_mut().zip(&lists.entries).filter(|(_, e)| !e.far) {
        let vv = scratch.atoms(sys, born, sys.atoms.node(e.b).range());
        let u = sys.atom_arena.view(born, sys.atoms.node(e.a).range());
        for (((&x, &y), &z), (&q, &r)) in u.x.iter().zip(u.y).zip(u.z).zip(u.q.iter().zip(u.r)) {
            *o += q * still_term_scalar(vv, Vec3::new(x, y, z), r, math);
        }
    }
    out
}

/// Per-entry raw STILL values the way the list executor's Phase A makes
/// them: a mirrored pair's lower-indexed entry evaluates the shared tile
/// and writes both values; an unpaired entry runs the unpaired block.
fn still_entries_paired(
    sys: &GbSystem,
    lists: &EpolLists,
    born: &[f64],
    math: MathMode,
) -> Vec<f64> {
    let mut scratch = StillScratch::default();
    let mut out = vec![0.0f64; lists.len()];
    for (i, e) in lists.entries.iter().enumerate().filter(|(_, e)| !e.far) {
        let ur = sys.atoms.node(e.a).range();
        let vv = sys.atom_arena.view(born, sys.atoms.node(e.b).range());
        let (own, mirror) = match e.mirror() {
            Some(p) if p < i => continue,
            Some(p) => {
                let uv = sys.atom_arena.view(born, ur);
                let (own, theirs) = still_pair_block(uv, vv, math, &mut scratch);
                (own, Some((p, theirs)))
            }
            None => (sys.still_block_raw(born, ur, vv, math, &mut scratch), None),
        };
        if let Some(o) = out.get_mut(i) {
            *o = own;
        }
        if let Some((o, v)) = mirror.and_then(|(p, v)| out.get_mut(p).zip(Some(v))) {
            *o = v;
        }
    }
    out
}

/// Raw sum of per-entry values, folded in entry order.
fn entry_sum(vals: &[f64]) -> f64 {
    let mut raw = 0.0;
    for &v in vals {
        raw += v;
    }
    raw
}

struct KernelRow {
    kernel: &'static str,
    mode: &'static str,
    variant: &'static str,
    interactions: u64,
    wall: f64,
}

impl KernelRow {
    fn ns_per_interaction(&self) -> f64 {
        self.wall * 1e9 / self.interactions as f64
    }
}

fn main() {
    let quick = quick_mode();
    let atoms = if quick { 60 } else { 200 };
    let frames = if quick { 4 } else { 10 };
    let host_cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let approx = ApproxParams::default();

    eprintln!("[kernel_throughput] {atoms}-atom protein, {frames} frames");
    let mol = synth::protein("kernels", atoms, 0x2c9);
    let mut sys = GbSystem::prepare(&mol, &approx);
    let born_lists = BornLists::build_single(&sys, approx.eps_born);
    // Radii + bins frozen at frame 0: identical still-kernel inputs for
    // both variants at every frame (only positions move).
    let (born, _) = born_radii_octree(&sys, approx.eps_born, approx.math);
    let bins = ChargeBins::build(&sys, &born, approx.eps_epol);
    let epol_lists = EpolLists::build_single(&sys, &bins, approx.eps_epol);

    let n = sys.n_atoms();
    let born_pairs: u64 = born_lists
        .entries
        .iter()
        .filter(|e| !e.far)
        .map(|e| (sys.atoms.node(e.a).len() * sys.qtree.node(e.b).len()) as u64)
        .sum();
    let still_pairs: u64 = epol_lists
        .entries
        .iter()
        .filter(|e| !e.far)
        .map(|e| (sys.atoms.node(e.a).len() * sys.atoms.node(e.b).len()) as u64)
        .sum();
    assert!(born_pairs > 0 && still_pairs > 0, "no near entries at {atoms} atoms");
    eprintln!(
        "[kernel_throughput] near workload/frame: {born_pairs} born pairs, {still_pairs} still pairs"
    );

    // ---- Trajectory: deterministic ballistic drift inside a 1 Å skin
    // envelope equivalent (positions-only refresh each frame, the
    // list-reuse steady state).
    let dir = Vec3::new(0.577350, 0.577350, 0.577350);
    let mut traj: Vec<Vec<Vec3>> = Vec::with_capacity(frames);
    let mut pos = mol.positions.clone();
    for t in 0..frames {
        for (i, p) in pos.iter_mut().enumerate() {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(t as u64 * 0x2545F4914F6CDD1D);
            let jitter = ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.004;
            *p += dir * (0.02 + jitter);
        }
        traj.push(pos.clone());
    }

    // ---- Timed sweeps. Per repetition: replay the whole trajectory
    // (refresh positions, then run the near workload) through one
    // (kernel, mode, variant) combination; keep the **minimum** wall over
    // `reps` repetitions — the shared single-core bench host preempts
    // hard enough that sums/means are dominated by scheduler noise, and
    // the minimum is the standard robust throughput estimator. The
    // bitwise gate compares the two variants' accumulators on a separate
    // untimed replay first.
    let reps = if quick { 5 } else { 11 };
    for frame in &traj {
        sys.refresh_atom_positions(frame);
        let mut acc_g = vec![0.0f64; n];
        born_sweep_gather(&sys, &born_lists, &mut acc_g);
        let mut acc_a = vec![0.0f64; n];
        born_sweep_arena(&sys, &born_lists, &mut acc_a);
        // Blocking gate 1a: per-atom Born accumulators bit-equal.
        for (i, (g, a)) in acc_g.iter().zip(&acc_a).enumerate() {
            assert!(
                g.to_bits() == a.to_bits(),
                "born arena path diverged from gather+scalar at atom {i}: {g} vs {a}"
            );
        }
        for mode in [MathMode::Exact, MathMode::Approx] {
            let raw_g = still_sweep_gather(&sys, &epol_lists, &born, mode);
            let raw_a = still_sweep_arena(&sys, &epol_lists, &born, mode);
            // Blocking gate 1b: raw E_pol sum bit-equal.
            assert!(
                raw_g.to_bits() == raw_a.to_bits(),
                "still arena path diverged from gather+scalar ({mode:?}): {raw_g} vs {raw_a}"
            );
            // Blocking gate 2: the paired path, per entry and summed.
            let want = still_entries_gather(&sys, &epol_lists, &born, mode);
            let got = still_entries_paired(&sys, &epol_lists, &born, mode);
            let same = want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits());
            let (raw_w, raw_p) = (entry_sum(&want), entry_sum(&got));
            assert!(
                same && want.len() == got.len() && raw_w.to_bits() == raw_p.to_bits(),
                "still paired path diverged from gather+scalar ({mode:?}): {raw_w} vs {raw_p}"
            );
        }
    }
    eprintln!("[kernel_throughput] variant bitwise gate: {frames} frames checked");

    let mut rows: Vec<KernelRow> = Vec::new();
    let mut per_step = [[0.0f64; 2]; 2]; // [mode][variant] combined walls
    let mut sink = 0.0f64;
    for (mi, mode) in [MathMode::Exact, MathMode::Approx].into_iter().enumerate() {
        let mode_name = if mi == 0 { "Exact" } else { "Approx" };
        let mut walls = [[f64::INFINITY; 2]; 2]; // [kernel][variant] min over reps
        let mut paired_wall = f64::INFINITY;
        for _ in 0..reps {
            let mut acc = vec![0.0f64; n];

            let t = Instant::now();
            for frame in &traj {
                sys.refresh_atom_positions(frame);
                born_sweep_gather(&sys, &born_lists, &mut acc);
            }
            walls[0][0] = walls[0][0].min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for frame in &traj {
                sys.refresh_atom_positions(frame);
                born_sweep_arena(&sys, &born_lists, &mut acc);
            }
            walls[0][1] = walls[0][1].min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for frame in &traj {
                sys.refresh_atom_positions(frame);
                sink += still_sweep_gather(&sys, &epol_lists, &born, mode);
            }
            walls[1][0] = walls[1][0].min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for frame in &traj {
                sys.refresh_atom_positions(frame);
                sink += still_sweep_arena(&sys, &epol_lists, &born, mode);
            }
            walls[1][1] = walls[1][1].min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for frame in &traj {
                sys.refresh_atom_positions(frame);
                sink += entry_sum(&still_entries_paired(&sys, &epol_lists, &born, mode));
            }
            paired_wall = paired_wall.min(t.elapsed().as_secs_f64());

            sink += acc[0];
        }
        for (ki, kernel) in ["born_r6", "still"].into_iter().enumerate() {
            let pairs = if ki == 0 { born_pairs } else { still_pairs };
            for (vi, variant) in ["gather_scalar", "arena_lanes"].into_iter().enumerate() {
                rows.push(KernelRow {
                    kernel,
                    mode: mode_name,
                    variant,
                    interactions: pairs * frames as u64,
                    wall: walls[ki][vi],
                });
                per_step[mi][vi] += walls[ki][vi];
            }
        }
        rows.push(KernelRow {
            kernel: "still",
            mode: mode_name,
            variant: "paired",
            interactions: still_pairs * frames as u64,
            wall: paired_wall,
        });
    }
    assert!(sink.is_finite(), "benchmark accumulator overflowed");

    // Per-step numbers: combined born+still near-kernel wall per frame.
    let seed_step = [per_step[0][0], per_step[1][0]].map(|w| w / frames as f64);
    let arena_step = [per_step[0][1], per_step[1][1]].map(|w| w / frames as f64);
    let speedup = [seed_step[0] / arena_step[0], seed_step[1] / arena_step[1]];
    eprintln!(
        "[kernel_throughput] per-step Exact: seed {} vs arena {} ({:.2}x)",
        fmt_time(seed_step[0]),
        fmt_time(arena_step[0]),
        speedup[0]
    );
    eprintln!(
        "[kernel_throughput] per-step Approx: seed {} vs arena {} ({:.2}x)",
        fmt_time(seed_step[1]),
        fmt_time(arena_step[1]),
        speedup[1]
    );
    // ---- TSV table.
    let mut t = Table::new(
        "kernel_throughput",
        &["kernel", "mode", "variant", "interactions", "wall_s", "ns_per_interaction"],
    );
    println!("kernel    mode    variant        interactions  wall        ns/inter");
    for r in &rows {
        println!(
            "{:<8}  {:<6}  {:<13}  {:>12}  {:>10}  {:>8.2}",
            r.kernel,
            r.mode,
            r.variant,
            r.interactions,
            fmt_time(r.wall),
            r.ns_per_interaction()
        );
        t.push(vec![
            r.kernel.into(),
            r.mode.into(),
            r.variant.into(),
            r.interactions.to_string(),
            format!("{:.6}", r.wall),
            format!("{:.3}", r.ns_per_interaction()),
        ]);
    }
    t.emit();

    // ---- BENCH_kernels.json.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"atoms\": {atoms},\n"));
    json.push_str(&format!("  \"frames\": {frames},\n"));
    json.push_str(&format!("  \"near_pairs_per_frame\": {{\"born_r6\": {born_pairs}, \"still\": {still_pairs}}},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"mode\": \"{}\", \"variant\": \"{}\", \
             \"interactions\": {}, \"wall_s\": {:.6e}, \"ns_per_interaction\": {:.4}}}{}\n",
            r.kernel,
            r.mode,
            r.variant,
            r.interactions,
            r.wall,
            r.ns_per_interaction(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"per_step\": [\n");
    for (mi, mode_name) in ["Exact", "Approx"].into_iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"seed_gather_scalar_step_s\": {:.6e}, \
             \"arena_lanes_step_s\": {:.6e}, \"speedup\": {:.4}}}{}\n",
            mode_name,
            seed_step[mi],
            arena_step[mi],
            speedup[mi],
            if mi == 1 { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"bitwise_equal\": true\n");
    json.push_str("}\n");
    let dir = std::env::var("POLAROCT_OUT").ok().filter(|d| !d.is_empty());
    let dir = dir.unwrap_or_else(|| "results".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join("BENCH_kernels.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[kernel_throughput] wrote {}", path.display()),
        Err(e) => eprintln!("[kernel_throughput] could not write {}: {e}", path.display()),
    }

    // Timing gate, checked after the report is emitted so a failing run
    // still leaves its numbers behind. Full mode only — quick-mode smoke
    // sizes time too noisily on shared single-core CI hosts for a
    // blocking ratio.
    if !quick {
        assert!(
            speedup[1] >= 2.0,
            "Approx per-step speedup {:.2}x below the 2x target (seed {:.6}s vs arena {:.6}s)",
            speedup[1],
            seed_step[1],
            arena_step[1]
        );
    }
}
