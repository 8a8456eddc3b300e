//! Run every package analog on one molecule (a one-row slice of Fig. 8/9).
//!
//! ```sh
//! cargo run --release --example compare_packages [n_atoms]
//! ```

use polaroct::baselines::{all_packages, PackageContext, PackageOutcome};
use polaroct::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3_000);
    let mol = polaroct::molecule::synth::protein("target", n, 13);
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = DriverConfig::default();
    let machine = MachineSpec::lonestar4();
    let node12 = ClusterSpec::new(machine, Placement::distributed(12));

    let naive = run_naive(&sys, &params, &cfg).unwrap();
    let oct =
        run_oct_mpi_ft(&sys, &params, &cfg, &node12, WorkDivision::NodeNode, &FtConfig::default())
            .unwrap();

    println!("molecule: {n} atoms; one 12-core node\n");
    println!(
        "{:<16} {:<12} {:>14} {:>10} {:>12}",
        "program", "GB model", "E_pol kcal/mol", "time", "vs naive"
    );
    let row = |name: &str, model: &str, e: f64, t: f64| {
        println!(
            "{:<16} {:<12} {:>14.2} {:>9.3}s {:>11.3}%",
            name,
            model,
            e,
            t,
            (e - naive.energy_kcal) / naive.energy_kcal * 100.0
        );
    };
    row("Naive (exact)", "STILL r6", naive.energy_kcal, naive.time);
    row("OCT_MPI", "STILL r6", oct.energy_kcal, oct.time);

    let ctx = PackageContext::new(node12);
    for pkg in all_packages() {
        match pkg.run(&mol, &ctx) {
            PackageOutcome::Ok(r) => row(pkg.name(), pkg.gb_model(), r.energy_kcal, r.time),
            PackageOutcome::OutOfMemory { required_bytes, node_bytes, .. } => println!(
                "{:<16} {:<12} {:>14} (needs {:.1} GB > {:.0} GB node)",
                pkg.name(),
                pkg.gb_model(),
                "OOM",
                required_bytes as f64 / (1u64 << 30) as f64,
                node_bytes as f64 / (1u64 << 30) as f64
            ),
        }
    }
    println!(
        "\nOCT_MPI speedup over Amber-class baseline comes from three levels of\nacceleration (§V.F): parallelism, two-level approximation, and the\ncache-friendly octree."
    );
}
