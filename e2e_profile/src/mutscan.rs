//! `mutscan`: a ~4k-atom protein in one `DeltaEngine` (0.8 Å skin,
//! default `DeltaParams`) serves a seeded screen of queries, each
//! reverted before the next.

use crate::gen::{self, Kind};
use crate::layers::{self, Run, DELTA_SKIN};
use crate::speed::Times;
use polaroct_core::{DeltaEngine, ListEngine, Perturbation};
use std::time::{Duration, Instant};

pub const ATOMS: usize = 4_000;
/// Set-up repetitions per run.
pub const SETUP_REPS: usize = 11;

/// Born radii in original atom order, as bits.
fn born_bits(sys: &polaroct_core::GbSystem, born: &[f64]) -> Vec<u64> {
    sys.to_original_atom_order(born)
        .iter()
        .map(|b| b.to_bits())
        .collect()
}

pub fn run(run: &mut Run) {
    let params = run.params;
    let bytes = gen::protein_pqr(ATOMS, gen::BASE_SEED);
    let (mut setup_s, mut tte_s) = (Times::default(), Times::default());
    let mut engine = None;
    let mut mol = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take()); // one engine resident at a time
        let scale = run.scale();
        let t0 = Instant::now();
        let m = gen::parse(&bytes);
        let t1 = Instant::now();
        let eng = DeltaEngine::new(&m, &params, DELTA_SKIN);
        let t2 = Instant::now();
        run.tally.checked_request(
            eng.energy_kcal().is_finite(),
            "mutscan set-up energy is not finite",
        );
        setup_s.push((t2 - t1).as_secs_f64(), scale);
        tte_s.push((t2 - t0).as_secs_f64(), scale);
        engine = Some(eng);
        mol = Some(m);
    }
    let (mut eng, mol) = (engine.expect("set-up ran"), mol.expect("set-up ran"));
    let state_bytes = eng.memory_bytes();
    let base = (
        eng.raw().to_bits(),
        eng.energy_kcal().to_bits(),
        born_bits(eng.system(), eng.born()),
    );

    let mut screen = gen::Screen::new(run.seed);
    let mut evals = Vec::new();
    // The first query of each kind is replayed after the loop for check (b).
    let mut sampled: Vec<(Kind, Perturbation, u64)> = Vec::new();
    let (mut query_s, mut traced_s) = (Times::default(), Times::default());
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut q = 0u64;
    while Instant::now() < deadline {
        let (kind, p) = screen.next_query(eng.positions(), eng.charges());
        let traced = run.trace && q % 2 == 1;
        let scale = run.scale();
        run.rec.set_request(q);
        run.rec.enabled = traced;
        let (ev, dt, ok) = layers::delta_query(&mut run.rec, &mut eng, kind, &p);
        run.rec.enabled = run.trace;
        run.tally.checked_request(
            ok,
            format!(
                "mutscan query {q} ({}) crossed the skin or did not revert",
                kind.name()
            ),
        );
        if traced { &mut traced_s } else { &mut query_s }.push(dt, scale);
        if !sampled.iter().any(|(k, _, _)| *k == kind) {
            sampled.push((kind, p, ev.raw.to_bits()));
        }
        evals.push((kind, ev));
        q += 1;
    }
    let redone: usize = evals.iter().map(|(_, e)| e.entries_redone).sum();
    println!(
        "# mutscan queries={q} entries_redone_mean={:.1} total_entries={}",
        redone as f64 / q as f64,
        eng.total_entries()
    );

    // Check (b): the screen left the base bits in place, never crossed
    // the skin, and sampled queries match a fresh engine bit for bit.
    let now = (
        eng.raw().to_bits(),
        eng.energy_kcal().to_bits(),
        born_bits(eng.system(), eng.born()),
    );
    run.tally.check(
        now == base,
        "(b) the final revert did not restore the base bits",
    );
    run.tally.check(
        eng.queries_rebuilt == 0,
        format!("(b) delta.rebuilds = {}", eng.queries_rebuilt),
    );
    for (kind, p, loop_raw) in &sampled {
        let ev = eng.apply_perturbation(p, None);
        let mut m = mol.clone();
        m.positions = eng.reference_positions().to_vec();
        m.charges = eng.charges().to_vec();
        let mut fresh = ListEngine::new(&m, &params, DELTA_SKIN);
        let fe = fresh.evaluate(eng.positions());
        let same = ev.raw.to_bits() == fe.raw.to_bits()
            && ev.energy_kcal.to_bits() == fe.energy_kcal.to_bits()
            && ev.raw.to_bits() == *loop_raw
            && born_bits(eng.system(), eng.born()) == born_bits(fresh.system(), fresh.born());
        run.tally.check(
            same,
            format!("(b) {} query differs from a fresh ListEngine", kind.name()),
        );
        eng.revert(None);
    }

    layers::print_input(run.seed, eng.system(), &params);
    if run.trace {
        let full = layers::full_eval(&mol, &params);
        layers::delta_metrics(run, &eng, &evals, full);
        run.overhead(&traced_s, &query_s);
        layers::probe_setup_and_lists(run, &bytes, 3);
        layers::probe_reuse(run, &mol);
        layers::probe_cluster(run, &bytes);
        return;
    }

    run.time_metric("setup_s", &setup_s, 0.5);
    run.time_metric("time_to_energy_s", &tte_s, 0.5);
    run.request_metrics(&query_s, &query_s);
    run.e2e.set("state_bytes", state_bytes as f64, "B");
    run.accuracy(eng.system(), eng.energy_kcal(), eng.born());
    run.peak_rss();
}
