//! `ranks_proc`: a ~4k-atom protein solved by `run_oct_mpi_proc_ft` with
//! 2 ranks (one worker child plus this process), `NodeNode` division, no
//! fault plan. One call is one request; request `i > 0` solves the base
//! molecule under the `i`-th seeded rigid pose.

use crate::gen;
use crate::layers::{self, Run};
use crate::speed::Times;
use polaroct_core::{run_oct_mpi_ft, run_serial, FtConfig, RunOutcome, WorkDivision};
use std::time::{Duration, Instant};

pub const ATOMS: usize = 4_000;
/// Set-up repetitions per run.
pub const SETUP_REPS: usize = 15;

pub fn run(run: &mut Run) {
    let (params, cfg) = (run.params, run.cfg);
    let bytes = gen::protein_pqr(ATOMS, gen::BASE_SEED);
    // The process driver prepares the system inside the call; the
    // benchmark's set-up is the same parse → surface → prepare, timed
    // on its own (README.md, "End-to-end metrics").
    let mut setup_s = Times::default();
    let mut base = None;
    for _ in 0..SETUP_REPS {
        let scale = run.scale();
        let (p, dt) =
            layers::timed(|| run.untraced(|run| layers::setup(&mut run.rec, &bytes, &params)));
        setup_s.push(dt, scale);
        base = Some(p);
    }
    let base = base.expect("set-up ran");

    let (mut query_s, mut tte_s, mut traced_s) =
        (Times::default(), Times::default(), Times::default());
    let mut samples = vec![];
    let mut first = None;
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut i = 0usize;
    while i == 0 || Instant::now() < deadline {
        let posed = gen::posed_pqr(&base.mol, run.seed, i);
        let scale = run.scale();
        if run.trace && i % 2 == 1 {
            run.rec.set_request(i as u64);
            match layers::cluster_request(run, &posed) {
                Ok(s) => {
                    run.tally.checked_request(
                        s.proc.outcome == RunOutcome::Completed,
                        format!("ranks_proc request {i} did not complete"),
                    );
                    traced_s.push(s.proc_s, scale);
                    samples.push(s);
                }
                Err(e) => run
                    .tally
                    .checked_request(false, format!("ranks_proc request {i}: {e}")),
            }
        } else {
            let t0 = Instant::now();
            let mol = gen::parse(&posed);
            let t1 = Instant::now();
            let r = layers::proc_run(&mol, &params, &cfg);
            let t2 = Instant::now();
            let ok = matches!(&r, Ok(r) if r.outcome == RunOutcome::Completed && r.energy_kcal.is_finite());
            run.tally.checked_request(
                ok,
                format!("ranks_proc request {i}: {:?}", r.as_ref().err()),
            );
            query_s.push((t2 - t1).as_secs_f64(), scale);
            tte_s.push((t2 - t0).as_secs_f64(), scale);
            if i == 0 {
                first = r.ok();
            }
        }
        i += 1;
    }
    println!("# ranks_proc requests={i}");

    let Some(first) = first else {
        run.tally
            .check(false, "ranks_proc: the base molecule was not solved");
        return;
    };
    // Check (c) on the base molecule: the in-process transport and the
    // serial driver on the same prepared system.
    let inproc = run_oct_mpi_ft(
        &base.sys,
        &params,
        &cfg,
        &layers::cluster_spec(),
        WorkDivision::NodeNode,
        &FtConfig::default(),
    );
    let serial = run_serial(&base.sys, &params, &cfg);
    match (inproc, serial) {
        (Ok(inproc), Ok(serial)) => {
            layers::check_transports(&mut run.tally, &first, &inproc, &serial)
        }
        (a, b) => run.tally.check(
            false,
            format!("(c) reference runs failed: {:?} {:?}", a.err(), b.err()),
        ),
    }

    layers::print_input(run.seed, &base.sys, &params);
    if run.trace {
        layers::cluster_metrics(run, &samples);
        run.overhead(&traced_s, &query_s);
        layers::probe_setup_and_lists(run, &bytes, 3);
        layers::probe_reuse(run, &base.mol);
        layers::probe_delta(run, &base.mol);
        return;
    }

    run.time_metric("setup_s", &setup_s, 0.5);
    run.time_metric("time_to_energy_s", &tte_s, 0.5);
    run.request_metrics(&query_s, &query_s);
    run.e2e
        .set("state_bytes", first.memory_per_process as f64, "B");
    let born = base.sys.atoms.permute(&first.born_radii);
    run.accuracy(&base.sys, first.energy_kcal, &born);
    run.peak_rss();
}
