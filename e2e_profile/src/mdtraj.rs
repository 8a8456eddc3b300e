//! `mdtraj`: a ~3k-atom protein follows a seeded random-drift trajectory
//! through one `ListEngine` (0.5 Å skin); one frame is one `evaluate`.

use crate::gen;
use crate::layers::{self, Frames, Run, MD_SKIN};
use crate::speed::Times;
use polaroct_core::ListEngine;
use std::time::{Duration, Instant};

pub const ATOMS: usize = 3_000;
/// Largest drift per component per frame (Å).
pub const DRIFT_STEP: f64 = 0.02;
/// Set-up repetitions per run.
pub const SETUP_REPS: usize = 9;
/// Displacement of the accuracy probe frame (Å): inside `skin / 2`.
pub const PROBE_DISP: f64 = 0.2;

pub fn run(run: &mut Run) {
    let params = run.params;
    let bytes = gen::protein_pqr(ATOMS, gen::BASE_SEED);
    let (mut setup_s, mut tte_s) = (Times::default(), Times::default());
    let mut engines = Vec::new();
    for _ in 0..SETUP_REPS {
        let scale = run.scale();
        let t0 = Instant::now();
        let mol = gen::parse(&bytes);
        let t1 = Instant::now();
        let mut eng = ListEngine::new(&mol, &params, MD_SKIN);
        let t2 = Instant::now();
        let ev = eng.evaluate(&mol.positions);
        let t3 = Instant::now();
        run.tally.checked_request(
            ev.energy_kcal.is_finite(),
            "mdtraj set-up energy is not finite",
        );
        setup_s.push((t2 - t1).as_secs_f64(), scale);
        tte_s.push((t3 - t0).as_secs_f64(), scale);
        engines.truncate(1); // keep one fresh engine for the accuracy probe
        engines.push((mol, eng));
    }
    let (mol, mut eng) = engines.pop().expect("set-up ran");
    let (_, mut probe) = engines.pop().expect("two set-up engines kept");
    let state_bytes = eng.memory_bytes();

    let mut drift = gen::Drift::new(&mol.positions, run.seed, DRIFT_STEP);
    let mut frames = Frames::default();
    let (mut query_s, mut traced_s) = (Times::default(), Times::default());
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut k = 0u64;
    while Instant::now() < deadline {
        let pos = drift.next_frame().to_vec();
        let traced = run.trace && k % 2 == 1;
        let scale = run.scale();
        run.rec.set_request(k);
        run.rec.enabled = traced;
        let t = Instant::now();
        let e = layers::frame(&mut run.rec, &mut eng, &pos, &mut frames);
        let dt = t.elapsed().as_secs_f64();
        run.rec.enabled = run.trace;
        run.tally.checked_request(
            e.is_finite(),
            format!("mdtraj frame {k}: energy is not finite"),
        );
        if traced { &mut traced_s } else { &mut query_s }.push(dt, scale);
        k += 1;
    }
    println!(
        "# mdtraj frames={k} rebuilds={} reused={}",
        frames.rebuilt, frames.reused
    );

    layers::print_input(run.seed, probe.system(), &params);
    if run.trace {
        if run.rec.durations("lists.rebuild_eval").is_empty() {
            // Too short a run to cross the skin on a traced frame: one
            // frame past it, so the rebuild path is still timed.
            let pos = layers::jump_frame(&drift.positions, MD_SKIN);
            layers::frame(&mut run.rec, &mut eng, &pos, &mut frames);
        }
        layers::reuse_metrics(run, &frames);
        run.overhead(&traced_s, &query_s);
        layers::probe_setup_and_lists(run, &bytes, 3);
        layers::probe_delta(run, &mol);
        layers::probe_cluster(run, &bytes);
        return;
    }

    run.time_metric("setup_s", &setup_s, 0.5);
    run.time_metric("time_to_energy_s", &tte_s, 0.5);
    run.request_metrics(&query_s, &query_s);
    run.e2e.set("state_bytes", state_bytes as f64, "B");

    // Accuracy at a fixed frame inside the skin, served without a rebuild
    // by a fresh engine: the skin approximation at work (README.md).
    let ev = probe.evaluate(&gen::probe_frame(&mol.positions, PROBE_DISP));
    run.tally
        .check(!ev.rebuilt, "mdtraj probe frame rebuilt the lists");
    run.accuracy(probe.system(), ev.energy_kcal, probe.born());
    run.peak_rss();
}
