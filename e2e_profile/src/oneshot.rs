//! `oneshot`: ~12k-atom proteins, each solved from PQR bytes to E_pol on
//! the single-thread path (`pqr::read` → `surface_quadrature` →
//! `GbSystem::prepare_with_surface` → `run_serial`). Nothing is reused.

use crate::gen;
use crate::layers::{self, Decomposed, Prepared, Run};
use crate::report::median;
use crate::speed::Times;
use polaroct_core::{run_serial, RunOutcome, RunReport};
use std::time::{Duration, Instant};

pub const ATOMS: usize = 12_000;

/// Layers a one-shot request passes through, in order.
const LAYERS: [&str; 9] = [
    "molecule.parse",
    "surface.quadrature",
    "system.prepare",
    "lists.born_build",
    "lists.born_exec",
    "born.push",
    "epol.bins",
    "lists.epol_build",
    "lists.epol_exec",
];

pub fn run(run: &mut Run) {
    let (params, cfg) = (run.params, run.cfg);
    let (mut setup_s, mut query_s, mut tte_s, mut traced_query_s) = (
        Times::default(),
        Times::default(),
        Times::default(),
        Times::default(),
    );
    let mut base: Option<(Prepared, RunReport)> = None;
    let mut base_traced: Option<(Prepared, Decomposed)> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut i = 0usize;
    while i == 0 || Instant::now() < deadline {
        let bytes = gen::protein_pqr(ATOMS, gen::oneshot_seed(run.seed, i));

        let mut untraced = |run: &mut Run| {
            run.untraced(|run| {
                let scale = run.scale();
                let t0 = Instant::now();
                let p = layers::setup(&mut run.rec, &bytes, &params);
                let t1 = Instant::now();
                let r = run_serial(&p.sys, &params, &cfg);
                let t2 = Instant::now();
                let ok = matches!(&r, Ok(r) if r.outcome == RunOutcome::Completed && r.energy_kcal.is_finite());
                run.tally.checked_request(ok, format!("oneshot request {i}: run_serial failed"));
                setup_s.push((t1 - t0).as_secs_f64(), scale);
                query_s.push((t2 - t1).as_secs_f64(), scale);
                tte_s.push((t2 - t0).as_secs_f64(), scale);
                (p, r.ok())
            })
        };
        let mut traced = |run: &mut Run| {
            let scale = run.scale();
            run.rec.set_request(i as u64);
            let (p, d) = run.rec.span("request", |rec| {
                let p = layers::setup(rec, &bytes, &params);
                let d = rec.span("query", |rec| {
                    layers::solve_decomposed(rec, &p.sys, &params)
                });
                (p, d)
            });
            run.tally.request(d.energy.is_finite());
            traced_query_s.push(
                *run.rec
                    .durations("query")
                    .last()
                    .expect("query span recorded"),
                scale,
            );
            (p, d)
        };

        if run.trace {
            // Interleave, alternating which goes first, so both see the
            // same machine state; both solve the same molecule.
            let (t, (up, ur)) = if i.is_multiple_of(2) {
                let u = untraced(run);
                (traced(run), u)
            } else {
                let t = traced(run);
                (t, untraced(run))
            };
            if let Some(r) = &ur {
                layers::check_decomposition(&mut run.tally, &up.sys, &t.1, r);
            }
            if i == 0 {
                base_traced = Some(t);
            }
        } else {
            let (p, r) = untraced(run);
            if let (0, Some(r)) = (i, r) {
                base = Some((p, r));
            }
        }
        i += 1;
    }
    println!("# oneshot molecules={i} (molecule 0 is the base molecule)");

    if run.trace {
        let (p, d) = base_traced.expect("base request traced");
        layers::print_input(run.seed, &p.sys, &params);
        layers::setup_metrics(run, &p);
        layers::list_metrics(run, &d);
        run.overhead(&traced_query_s, &query_s);
        reconcile(run, &tte_s.raw);
        layers::probe_reuse(run, &p.mol);
        layers::probe_delta(run, &p.mol);
        layers::probe_cluster(run, &gen::pqr_bytes(&p.mol));
        return;
    }

    run.time_metric("setup_s", &setup_s, 0.5);
    run.time_metric("time_to_energy_s", &tte_s, 0.5);
    run.request_metrics(&query_s, &tte_s);
    let Some((p, r)) = base else {
        run.tally
            .check(false, "oneshot: the base molecule was not solved");
        return;
    };
    layers::print_input(run.seed, &p.sys, &params);
    run.e2e.set("state_bytes", r.memory_per_process as f64, "B");
    let born = p.sys.atoms.permute(&r.born_radii);
    run.accuracy(&p.sys, r.energy_kcal, &born);
    run.peak_rss();
}

/// Print how the traced per-layer self times add up against the
/// untraced bytes-to-energy time.
fn reconcile(run: &mut Run, untraced_tte: &[f64]) {
    let per_request: Vec<f64> = {
        let self_times = run.rec.self_times();
        let mut sums = std::collections::BTreeMap::<u64, f64>::new();
        for ((name, req), s) in self_times {
            if LAYERS.contains(&name) && req < layers::PROBE_REQUEST {
                *sums.entry(req).or_default() += s;
            }
        }
        sums.into_values().collect()
    };
    let (traced, untraced) = (median(&per_request), median(untraced_tte));
    println!(
        "# reconcile: sum of layer self times {traced:.4} s vs untraced time_to_energy {untraced:.4} s ({:+.2}%), trace.overhead_frac {:+.2}%",
        (traced / untraced - 1.0) * 100.0,
        run.layer.get("trace.overhead_frac").unwrap_or(f64::NAN) * 100.0
    );
}
