//! `e2e_profile`: one benchmark for polaroct, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path e2e_profile/Cargo.toml -- \
//!     --workload <oneshot|mdtraj|mutscan|ranks_proc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics (and writes the spans to `e2e_profile/out/`). The last line of
//! standard output is the result object; the exit code is non-zero when
//! any correctness check fails. See README.md.

mod gen;
mod layers;
mod mdtraj;
mod mutscan;
mod oneshot;
mod ranks;
mod report;
mod speed;
mod trace;

use layers::Run;
use polaroct_core::drivers::DriverConfig;
use polaroct_core::ApproxParams;
use report::{Metrics, Tally};
use trace::Recorder;

/// End-to-end metrics, printed by `--trace 0` (BENCHMARK.json).
const END_TO_END: &[&str] = &[
    "setup_s",
    "query_p50_s",
    "query_p90_s",
    "time_to_energy_s",
    "evals_per_s",
    "energy_err_pct",
    "born_err_pct",
    "state_bytes",
    "peak_rss_bytes",
];

/// Per-layer metrics, printed by `--trace 1` (BENCHMARK.json).
const PER_LAYER: &[&str] = &[
    "molecule.parse_s",
    "surface.quadrature_s",
    "surface.qpoints",
    "system.prepare_s",
    "system.atom_nodes",
    "system.q_nodes",
    "system.bytes",
    "lists.born_build_s",
    "lists.born_entries",
    "lists.born_far_frac",
    "lists.born_exec_s",
    "lists.born_interactions",
    "lists.born_ns_per_interaction",
    "born.push_s",
    "epol.bins_s",
    "lists.epol_build_s",
    "lists.epol_entries",
    "lists.epol_far_frac",
    "lists.epol_exec_s",
    "lists.epol_interactions",
    "lists.epol_ns_per_interaction",
    "lists.build_share",
    "lists.bytes",
    "lists.reuse_eval_s",
    "lists.rebuild_eval_s",
    "lists.hit_rate",
    "lists.rebuilds",
    "lists.frame_interactions",
    "delta.move1_apply_s",
    "delta.move4_apply_s",
    "delta.charge_apply_s",
    "delta.revert_s",
    "delta.entries_redone.move1",
    "delta.entries_redone.move4",
    "delta.entries_redone.charge",
    "delta.chunks_redone.move1",
    "delta.chunks_redone.move4",
    "delta.chunks_redone.charge",
    "delta.dirty_frac.move1",
    "delta.dirty_frac.move4",
    "delta.dirty_frac.charge",
    "delta.full_eval_s",
    "delta.apply_over_full",
    "delta.rebuilds",
    "delta.cache_bytes",
    "cluster.proc_run_s",
    "cluster.inproc_run_s",
    "cluster.transport_s",
    "drivers.serial_run_s",
    "cluster.retries",
    "cluster.modeled_s",
    "cluster.modeled_comm_s",
    "cluster.modeled_wait_s",
    "trace.overhead_frac",
];

/// Where runs leave files: spans and the process transport's sockets.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value != "0"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // Worker ranks of `run_oct_mpi_proc_ft` re-execute this binary.
    polaroct_core::maybe_worker();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_profile: {e}");
            std::process::exit(2);
        }
    };
    let workload: fn(&mut Run) = match args.workload.as_str() {
        "oneshot" => oneshot::run,
        "mdtraj" => mdtraj::run,
        "mutscan" => mutscan::run,
        "ranks_proc" => ranks::run,
        other => {
            eprintln!("e2e_profile: unknown workload {other}");
            std::process::exit(2);
        }
    };
    // The process transport binds its Unix sockets under the temporary
    // directory; keep them inside the checkout, by a relative path where
    // possible so the socket path stays short.
    let tmp = out_dir().join("tmp");
    let _ = std::fs::create_dir_all(&tmp);
    let cwd = std::env::current_dir().unwrap_or_default();
    std::env::set_var("TMPDIR", tmp.strip_prefix(&cwd).unwrap_or(&tmp));
    let mut run = Run {
        trace: args.trace,
        seed: args.seed,
        seconds: args.seconds,
        rec: Recorder::new(args.trace),
        speed: speed::Speed::new(),
        tally: Tally::default(),
        e2e: Metrics::default(),
        layer: Metrics::default(),
        params: ApproxParams::default(),
        cfg: DriverConfig::default(),
    };
    println!(
        "# e2e_profile workload={} seed={} seconds={} trace={} host_cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    workload(&mut run);

    let (metrics, expected) = if args.trace {
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match run.rec.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("e2e_profile: cannot write spans: {e}"),
        }
        (&run.layer, PER_LAYER)
    } else {
        (&run.e2e, END_TO_END)
    };
    for name in expected {
        let ok = metrics.get(name).is_some_and(f64::is_finite);
        run.tally
            .check(ok, format!("metric {name} was not measured"));
    }
    for (name, (value, unit)) in metrics.iter() {
        println!("# {name} = {value} {unit}");
    }
    println!("{}", report::result_line(&run.tally, metrics));
    if !run.tally.correct() {
        std::process::exit(1);
    }
}
