//! The public calls into each layer, issued one by one from the
//! benchmark so each sits in its own span. Every workload uses these; a
//! traced run also uses them to probe the layers its own loop does not
//! reach (README.md, "Traced runs").

use crate::gen::{self, Kind};
use crate::report::{mean, median, quantile, Metrics, Tally};
use crate::speed::{Speed, Times};
use crate::trace::Recorder;
use polaroct_cluster::machine::{ClusterSpec, MachineSpec, Placement};
use polaroct_core::born::{push_integrals_to_atoms, BornAccumulators};
use polaroct_core::drivers::DriverConfig;
use polaroct_core::epol::ChargeBins;
use polaroct_core::gb::epol_from_raw_sum;
use polaroct_core::naive::{born_radii_naive, epol_naive};
use polaroct_core::{
    run_oct_mpi_ft, run_oct_mpi_proc_ft, run_serial, ApproxParams, BornLists, DeltaEngine,
    DeltaEval, EpolLists, FtConfig, GbSystem, ListEngine, RunOutcome, RunReport, WorkDivision,
};
use polaroct_geom::Vec3;
use polaroct_molecule::Molecule;
use polaroct_surface::surface_quadrature;
use std::time::Instant;

/// Verlet skin of the MD trajectory engine (Å).
pub const MD_SKIN: f64 = 0.5;
/// Verlet skin of the mutation-screen engine (Å).
pub const DELTA_SKIN: f64 = 0.8;
/// Ranks of the Fig. 4 process run: the benchmark process plus one worker.
pub const RANKS: usize = 2;

/// Seconds spent in `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Everything a run shares: settings, the span recorder, the speed
/// reference, request accounting and the two metric sets.
pub struct Run {
    /// `--trace 1`: this run reports per-layer metrics.
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub rec: Recorder,
    pub speed: Speed,
    pub tally: Tally,
    pub e2e: Metrics,
    pub layer: Metrics,
    pub params: ApproxParams,
    pub cfg: DriverConfig,
}

impl Run {
    /// Run `f` with spans off (an untraced request inside a traced run).
    pub fn untraced<T>(&mut self, f: impl FnOnce(&mut Run) -> T) -> T {
        self.rec.enabled = false;
        let out = f(self);
        self.rec.enabled = self.trace;
        out
    }

    /// Refresh the speed reference and return the current scale; call
    /// right before a timed request.
    pub fn scale(&mut self) -> f64 {
        self.speed.refresh();
        self.speed.scale()
    }

    /// Median self time of span `name` over the requests that have it.
    pub fn layer_time(&mut self, metric: &str, span: &str) -> f64 {
        let v = median(&self.rec.layer_self(span));
        self.layer.set(metric, v, "s");
        v
    }

    /// `trace.overhead_frac`: traced minus untraced median request time
    /// over untraced, from requests interleaved in one traced run.
    pub fn overhead(&mut self, traced: &Times, untraced: &Times) {
        let (t, u) = (median(&traced.scaled), median(&untraced.scaled));
        self.layer.set("trace.overhead_frac", (t - u) / u, "frac");
    }

    /// An end-to-end time metric at quantile `q` of the rescaled samples;
    /// the wall-time figure is printed beside it.
    pub fn time_metric(&mut self, name: &str, t: &Times, q: f64) {
        let (scaled, wall) = (quantile(&t.scaled, q), quantile(&t.raw, q));
        self.e2e.set(name, scaled, "s");
        println!(
            "# {name}: {scaled:.6} s at reference speed, {wall:.6} s wall, {} samples",
            t.len()
        );
    }

    /// The end-to-end metrics every workload reports the same way.
    pub fn request_metrics(&mut self, query: &Times, request: &Times) {
        self.time_metric("query_p50_s", query, 0.5);
        self.time_metric("query_p90_s", query, 0.9);
        let rate = |v: &[f64]| v.len() as f64 / v.iter().sum::<f64>();
        let (scaled, wall) = (rate(&request.scaled), rate(&request.raw));
        self.e2e.set("evals_per_s", scaled, "1/s");
        println!(
            "# evals_per_s: {scaled:.4} at reference speed, {wall:.4} wall, {} requests",
            request.len()
        );
    }

    /// Naive reference pass, outside any timed region: `energy_err_pct`,
    /// `born_err_pct`, and check (d) against the paper's 1% claim.
    /// `born` is in `sys`'s Morton order.
    pub fn accuracy(&mut self, sys: &GbSystem, energy: f64, born: &[f64]) {
        let math = self.params.math;
        let (naive_born, _) = born_radii_naive(sys, math);
        let naive_e = epol_naive(sys, &naive_born, math, self.params.eps_solvent);
        let e_err = (energy - naive_e).abs() / naive_e.abs() * 100.0;
        let b_err = born
            .iter()
            .zip(&naive_born)
            .map(|(b, n)| (b - n).abs() / n)
            .fold(0.0f64, f64::max)
            * 100.0;
        self.e2e.set("energy_err_pct", e_err, "%");
        self.e2e.set("born_err_pct", b_err, "%");
        println!("# accuracy: E={energy:.6} E_naive={naive_e:.6} kcal/mol, energy_err_pct={e_err:.5}, born_err_pct={b_err:.5}");
        self.tally.check(
            e_err < 1.0,
            format!("(d) energy_err_pct {e_err} is not below 1%"),
        );
    }

    pub fn peak_rss(&mut self) {
        self.e2e
            .set("peak_rss_bytes", crate::report::peak_rss_bytes(), "B");
    }
}

// ---------------------------------------------------------------------------
// molecule::io, surface, octree + core::system
// ---------------------------------------------------------------------------

/// Record the seed and the input sizes: atoms, q-points and one-shot
/// list entries of the system a workload is built on.
pub fn print_input(seed: u64, sys: &GbSystem, params: &ApproxParams) {
    let born = BornLists::build_single(sys, params.eps_born);
    // The E_pol traversal is pure geometry; intrinsic-radius bins serve.
    let bins = ChargeBins::build(sys, &sys.radius, params.eps_epol);
    let epol = EpolLists::build_single(sys, &bins, params.eps_epol);
    println!(
        "# input: seed={seed} atoms={} qpoints={} born_entries={} epol_entries={}",
        sys.n_atoms(),
        sys.n_qpoints(),
        born.len(),
        epol.len()
    );
}

pub struct Prepared {
    pub mol: Molecule,
    pub qpoints: usize,
    pub sys: GbSystem,
}

/// `pqr::read` → `surface_quadrature` → `GbSystem::prepare_with_surface`.
pub fn setup(rec: &mut Recorder, bytes: &[u8], params: &ApproxParams) -> Prepared {
    let mol = rec.span("molecule.parse", |_| gen::parse(bytes));
    let quad = rec.span("surface.quadrature", |_| {
        surface_quadrature(&mol, params.surface)
    });
    let sys = rec.span("system.prepare", |_| {
        GbSystem::prepare_with_surface(&mol, &quad, params)
    });
    Prepared {
        mol,
        qpoints: quad.len(),
        sys,
    }
}

/// Set-up layer metrics: medians of the recorded spans plus the counts
/// of one prepared system.
pub fn setup_metrics(run: &mut Run, p: &Prepared) {
    run.layer_time("molecule.parse_s", "molecule.parse");
    run.layer_time("surface.quadrature_s", "surface.quadrature");
    run.layer_time("system.prepare_s", "system.prepare");
    run.layer.set("surface.qpoints", p.qpoints as f64, "count");
    run.layer
        .set("system.atom_nodes", p.sys.atoms.nodes.len() as f64, "count");
    run.layer
        .set("system.q_nodes", p.sys.qtree.nodes.len() as f64, "count");
    run.layer
        .set("system.bytes", p.sys.memory_bytes() as f64, "B");
}

// ---------------------------------------------------------------------------
// core::lists + core::soa, core::born push, core::epol bins
// ---------------------------------------------------------------------------

/// The calls `run_serial` makes, in its order, one span each.
pub struct Decomposed {
    pub energy: f64,
    /// Born radii in the system's Morton order.
    pub born: Vec<f64>,
    pub born_lists: BornLists,
    pub epol_lists: EpolLists,
}

pub fn solve_decomposed(rec: &mut Recorder, sys: &GbSystem, params: &ApproxParams) -> Decomposed {
    let math = params.math;
    let n = sys.n_atoms();
    let born_lists = rec.span("lists.born_build", |_| {
        BornLists::build_single(sys, params.eps_born)
    });
    let acc = rec.span("lists.born_exec", |_| {
        let mut acc = BornAccumulators::zeros(sys);
        born_lists.execute(sys, None, &mut acc);
        acc
    });
    let born = rec.span("born.push", |_| {
        let mut born = vec![0.0; n];
        push_integrals_to_atoms(sys, &acc, 0..n, math, &mut born);
        born
    });
    let bins = rec.span("epol.bins", |_| {
        ChargeBins::build(sys, &born, params.eps_epol)
    });
    let epol_lists = rec.span("lists.epol_build", |_| {
        EpolLists::build_single(sys, &bins, params.eps_epol)
    });
    let (raw, _) = rec.span("lists.epol_exec", |_| {
        epol_lists.execute(sys, &bins, &born, math, None)
    });
    Decomposed {
        energy: epol_from_raw_sum(raw, params.eps_solvent),
        born,
        born_lists,
        epol_lists,
    }
}

/// Check (a): the call-by-call decomposition gives `run_serial`'s bits.
pub fn check_decomposition(tally: &mut Tally, sys: &GbSystem, d: &Decomposed, r: &RunReport) {
    let same_energy = d.energy.to_bits() == r.energy_kcal.to_bits();
    let born = sys.to_original_atom_order(&d.born);
    let same_born = born
        .iter()
        .zip(&r.born_radii)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    tally.check(
        same_energy && same_born,
        format!(
            "(a) decomposition {} vs run_serial {} (born radii equal: {same_born})",
            d.energy, r.energy_kcal
        ),
    );
}

/// One-shot list metrics: span medians plus the counts of `d`.
pub fn list_metrics(run: &mut Run, d: &Decomposed) {
    let born_build = run.layer_time("lists.born_build_s", "lists.born_build");
    let born_exec = run.layer_time("lists.born_exec_s", "lists.born_exec");
    run.layer_time("born.push_s", "born.push");
    run.layer_time("epol.bins_s", "epol.bins");
    let epol_build = run.layer_time("lists.epol_build_s", "lists.epol_build");
    let epol_exec = run.layer_time("lists.epol_exec_s", "lists.epol_exec");
    let far_frac = |far: usize, all: usize| far as f64 / all as f64;
    let (bl, el) = (&d.born_lists, &d.epol_lists);
    let born_far = bl.entries.iter().filter(|e| e.far).count();
    let epol_far = el.entries.iter().filter(|e| e.far).count();
    let born_ia = (bl.ops.born_near + bl.ops.born_far) as f64;
    let epol_ia = (el.ops.epol_near + el.ops.epol_far) as f64;
    let m = &mut run.layer;
    m.set("lists.born_entries", bl.len() as f64, "count");
    m.set("lists.born_far_frac", far_frac(born_far, bl.len()), "frac");
    m.set("lists.born_interactions", born_ia, "count");
    m.set(
        "lists.born_ns_per_interaction",
        born_exec / born_ia * 1e9,
        "ns",
    );
    m.set("lists.epol_entries", el.len() as f64, "count");
    m.set("lists.epol_far_frac", far_frac(epol_far, el.len()), "frac");
    m.set("lists.epol_interactions", epol_ia, "count");
    m.set(
        "lists.epol_ns_per_interaction",
        epol_exec / epol_ia * 1e9,
        "ns",
    );
    let build = born_build + epol_build;
    m.set(
        "lists.build_share",
        build / (build + born_exec + epol_exec),
        "frac",
    );
    m.set(
        "lists.bytes",
        (bl.memory_bytes() + el.memory_bytes()) as f64,
        "B",
    );
}

/// Set-up and one-shot list layers on a workload's base molecule, for the
/// workloads whose own loop does not decompose a one-shot solve.
pub fn probe_setup_and_lists(run: &mut Run, bytes: &[u8], reps: usize) {
    let mut last = None;
    for i in 0..reps {
        run.rec.set_request(PROBE_REQUEST + i as u64);
        let p = run
            .rec
            .span("request", |rec| setup(rec, bytes, &run.params));
        let d = run
            .rec
            .span("query", |rec| solve_decomposed(rec, &p.sys, &run.params));
        let r =
            run_serial(&p.sys, &run.params, &run.cfg).expect("run_serial on a generated molecule");
        check_decomposition(&mut run.tally, &p.sys, &d, &r);
        last = Some((p, d));
    }
    let (p, d) = last.expect("at least one probe repetition");
    setup_metrics(run, &p);
    list_metrics(run, &d);
}

/// Request ids of probe spans start here, clear of any workload loop.
pub const PROBE_REQUEST: u64 = 1 << 40;

// ---------------------------------------------------------------------------
// core::lists reuse path (ListEngine)
// ---------------------------------------------------------------------------

#[derive(Default)]
pub struct Frames {
    pub reused: usize,
    pub rebuilt: usize,
    pub interactions: Vec<f64>,
}

/// One `ListEngine::evaluate`, spanned as a reuse or a rebuild frame.
pub fn frame(rec: &mut Recorder, eng: &mut ListEngine, pos: &[Vec3], frames: &mut Frames) -> f64 {
    let ev = rec.span("lists.frame", |_| eng.evaluate(pos));
    if ev.rebuilt {
        frames.rebuilt += 1;
        rec.rename_last("lists.frame", "lists.rebuild_eval");
    } else {
        frames.reused += 1;
        rec.rename_last("lists.frame", "lists.reuse_eval");
    }
    let o = ev.ops;
    frames
        .interactions
        .push((o.born_near + o.born_far + o.epol_near + o.epol_far) as f64);
    ev.energy_kcal
}

pub fn reuse_metrics(run: &mut Run, f: &Frames) {
    let reuse = median(&run.rec.durations("lists.reuse_eval"));
    let rebuild = median(&run.rec.durations("lists.rebuild_eval"));
    let m = &mut run.layer;
    m.set("lists.reuse_eval_s", reuse, "s");
    m.set("lists.rebuild_eval_s", rebuild, "s");
    m.set(
        "lists.hit_rate",
        f.reused as f64 / (f.reused + f.rebuilt) as f64,
        "frac",
    );
    m.set("lists.rebuilds", f.rebuilt as f64, "count");
    m.set("lists.frame_interactions", median(&f.interactions), "count");
}

/// A frame every atom of which sits `jump` Å (per component, at most)
/// from `pos`: past `skin / 2` it forces a rebuild.
pub fn jump_frame(pos: &[Vec3], jump: f64) -> Vec<Vec3> {
    gen::probe_frame(pos, jump * 3f64.sqrt())
}

/// Reuse-path probe for workloads other than `mdtraj`: a few drift
/// frames, one frame past the skin (rebuild), and a few more.
pub fn probe_reuse(run: &mut Run, mol: &Molecule) {
    run.rec.set_request(PROBE_REQUEST + 100);
    let mut eng = ListEngine::new(mol, &run.params, MD_SKIN);
    let mut drift = gen::Drift::new(&mol.positions, run.seed, 0.02);
    let mut frames = Frames::default();
    for i in 0..6 {
        if i == 3 {
            drift.positions = jump_frame(&drift.positions, MD_SKIN);
        }
        let pos = drift.next_frame().to_vec();
        frame(&mut run.rec, &mut eng, &pos, &mut frames);
    }
    reuse_metrics(run, &frames);
}

// ---------------------------------------------------------------------------
// core::delta
// ---------------------------------------------------------------------------

fn apply_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Move1 => "delta.move1_apply",
        Kind::Move4 => "delta.move4_apply",
        Kind::Charge => "delta.charge_apply",
    }
}

/// One screen query: apply (spanned by kind) then revert. Returns the
/// evaluation and the request's seconds; `ok` is false if the query
/// crossed the skin or the revert found nothing to undo.
pub fn delta_query(
    rec: &mut Recorder,
    eng: &mut DeltaEngine,
    kind: Kind,
    p: &polaroct_core::Perturbation,
) -> (DeltaEval, f64, bool) {
    let t = Instant::now();
    let ev = rec.span(apply_span(kind), |_| eng.apply_perturbation(p, None));
    let reverted = rec.span("delta.revert", |_| eng.revert(None));
    let dt = t.elapsed().as_secs_f64();
    let ok = reverted && !ev.rebuilt && ev.energy_kcal.is_finite();
    (ev, dt, ok)
}

/// `delta.full_eval_s`: one full `ListEngine::evaluate` at the base
/// geometry, with the screen's skin.
pub fn full_eval(mol: &Molecule, params: &ApproxParams) -> f64 {
    let mut eng = ListEngine::new(mol, params, DELTA_SKIN);
    timed(|| eng.evaluate(&mol.positions)).1
}

/// Delta metrics from the screen's `(kind, evaluation)` pairs.
pub fn delta_metrics(
    run: &mut Run,
    eng: &DeltaEngine,
    evals: &[(Kind, DeltaEval)],
    full_eval_s: f64,
) {
    let move1 = run.layer_time("delta.move1_apply_s", "delta.move1_apply");
    run.layer_time("delta.move4_apply_s", "delta.move4_apply");
    run.layer_time("delta.charge_apply_s", "delta.charge_apply");
    run.layer_time("delta.revert_s", "delta.revert");
    let m = &mut run.layer;
    for kind in Kind::ALL {
        let of = |f: fn(&DeltaEval) -> f64| -> Vec<f64> {
            evals
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, e)| f(e))
                .collect()
        };
        let k = kind.name();
        m.set(
            format!("delta.entries_redone.{k}"),
            mean(&of(|e| e.entries_redone as f64)),
            "count",
        );
        m.set(
            format!("delta.chunks_redone.{k}"),
            mean(&of(|e| e.chunks_redone as f64)),
            "count",
        );
        m.set(
            format!("delta.dirty_frac.{k}"),
            mean(&of(|e| e.entries_redone as f64 / e.total_entries as f64)),
            "frac",
        );
    }
    m.set("delta.full_eval_s", full_eval_s, "s");
    m.set("delta.apply_over_full", move1 / full_eval_s, "frac");
    m.set("delta.rebuilds", eng.queries_rebuilt as f64, "count");
    m.set(
        "delta.cache_bytes",
        (eng.memory_bytes() - eng.engine().memory_bytes()) as f64,
        "B",
    );
}

/// Delta probe for workloads other than `mutscan`: a short seeded screen
/// holding every query kind at least twice.
pub fn probe_delta(run: &mut Run, mol: &Molecule) {
    run.rec.set_request(PROBE_REQUEST + 200);
    let mut eng = DeltaEngine::new(mol, &run.params, DELTA_SKIN);
    let mut screen = gen::Screen::new(run.seed);
    let mut evals = Vec::new();
    while Kind::ALL
        .iter()
        .any(|&k| evals.iter().filter(|(e, _)| *e == k).count() < 2)
    {
        let (kind, p) = screen.next_query(eng.positions(), eng.charges());
        let (ev, _, ok) = delta_query(&mut run.rec, &mut eng, kind, &p);
        run.tally.checked_request(
            ok,
            format!(
                "delta probe query ({}) crossed the skin or failed",
                kind.name()
            ),
        );
        evals.push((kind, ev));
    }
    let full = full_eval(mol, &run.params);
    delta_metrics(run, &eng, &evals, full);
}

// ---------------------------------------------------------------------------
// core::drivers + core::procexec + cluster
// ---------------------------------------------------------------------------

pub fn cluster_spec() -> ClusterSpec {
    ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(RANKS))
}

/// `run_oct_mpi_proc_ft` with 2 ranks, `NodeNode`, no fault plan.
pub fn proc_run(
    mol: &Molecule,
    params: &ApproxParams,
    cfg: &DriverConfig,
) -> Result<RunReport, String> {
    run_oct_mpi_proc_ft(
        mol,
        params,
        cfg,
        RANKS,
        WorkDivision::NodeNode,
        &FtConfig::default(),
    )
    .map_err(|e| e.to_string())
}

/// Everything the traced cluster request measures on one molecule.
pub struct ClusterSample {
    pub proc_s: f64,
    pub surface_s: f64,
    pub prepare_s: f64,
    pub inproc_s: f64,
    pub serial_s: f64,
    pub proc: RunReport,
}

/// Check (c) for one molecule: process and in-process transports give
/// the same bits, both end `Completed`, and `run_serial` agrees to
/// rounding (README.md, "Checks", for why not to the bit).
pub fn check_transports(
    tally: &mut Tally,
    proc: &RunReport,
    inproc: &RunReport,
    serial: &RunReport,
) {
    let same = proc.energy_kcal.to_bits() == inproc.energy_kcal.to_bits()
        && proc
            .born_radii
            .iter()
            .zip(&inproc.born_radii)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    tally.check(
        same,
        format!(
            "(c) process {} vs in-process {} energies differ",
            proc.energy_kcal, inproc.energy_kcal
        ),
    );
    let done = [proc, inproc, serial]
        .iter()
        .all(|r| r.outcome == RunOutcome::Completed);
    tally.check(done, "(c) a cluster run did not end Completed");
    let rel = (proc.energy_kcal - serial.energy_kcal).abs() / serial.energy_kcal.abs();
    let ulps =
        (proc.energy_kcal.to_bits() as i64 - serial.energy_kcal.to_bits() as i64).unsigned_abs();
    println!("# fig4_vs_serial: rel_diff={rel:.3e} ulps={ulps}");
    tally.check(
        rel <= 1e-12,
        format!("(c) Fig. 4 energy differs from run_serial by {rel:e} (relative)"),
    );
}

/// Parse → process run, then (same molecule) surface → prepare →
/// in-process run → serial run, each spanned.
pub fn cluster_request(run: &mut Run, bytes: &[u8]) -> Result<ClusterSample, String> {
    let (params, cfg) = (run.params, run.cfg);
    let rec = &mut run.rec;
    let mol = rec.span("molecule.parse", |_| gen::parse(bytes));
    let (proc, proc_s) = timed(|| rec.span("cluster.proc_run", |_| proc_run(&mol, &params, &cfg)));
    let proc = proc?;
    let (quad, surface_s) = timed(|| {
        rec.span("surface.quadrature", |_| {
            surface_quadrature(&mol, params.surface)
        })
    });
    let (sys, prepare_s) = timed(|| {
        rec.span("system.prepare", |_| {
            GbSystem::prepare_with_surface(&mol, &quad, &params)
        })
    });
    let spec = cluster_spec();
    let (inproc, inproc_s) = timed(|| {
        rec.span("cluster.inproc_run", |_| {
            run_oct_mpi_ft(
                &sys,
                &params,
                &cfg,
                &spec,
                WorkDivision::NodeNode,
                &FtConfig::default(),
            )
        })
    });
    let (serial, serial_s) =
        timed(|| rec.span("drivers.serial_run", |_| run_serial(&sys, &params, &cfg)));
    let inproc = inproc.map_err(|e| e.to_string())?;
    let serial = serial.map_err(|e| e.to_string())?;
    check_transports(&mut run.tally, &proc, &inproc, &serial);
    Ok(ClusterSample {
        proc_s,
        surface_s,
        prepare_s,
        inproc_s,
        serial_s,
        proc,
    })
}

pub fn cluster_metrics(run: &mut Run, samples: &[ClusterSample]) {
    let of = |f: fn(&ClusterSample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let m = &mut run.layer;
    m.set("cluster.proc_run_s", median(&of(|s| s.proc_s)), "s");
    m.set("cluster.inproc_run_s", median(&of(|s| s.inproc_s)), "s");
    m.set(
        "cluster.transport_s",
        median(&of(|s| s.proc_s - s.surface_s - s.prepare_s - s.inproc_s)),
        "s",
    );
    m.set("drivers.serial_run_s", median(&of(|s| s.serial_s)), "s");
    m.set(
        "cluster.retries",
        samples.iter().map(|s| s.proc.ft.retries as f64).sum(),
        "count",
    );
    m.set("cluster.modeled_s", median(&of(|s| s.proc.time)), "s");
    m.set("cluster.modeled_comm_s", median(&of(|s| s.proc.comm)), "s");
    m.set("cluster.modeled_wait_s", median(&of(|s| s.proc.wait)), "s");
}

/// Cluster probe for workloads other than `ranks_proc`: one traced
/// cluster request on the base molecule.
pub fn probe_cluster(run: &mut Run, bytes: &[u8]) {
    run.rec.set_request(PROBE_REQUEST + 300);
    match cluster_request(run, bytes) {
        Ok(s) => {
            run.tally.checked_request(
                s.proc.outcome == RunOutcome::Completed,
                "cluster probe did not complete",
            );
            cluster_metrics(run, &[s]);
        }
        Err(e) => run
            .tally
            .checked_request(false, format!("cluster probe failed: {e}")),
    }
}
