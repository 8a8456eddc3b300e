//! Sweep process×thread placements on the simulated cluster.
//!
//! Shows how the same 144 cores behave under different P×p splits — the
//! design space between the paper's OCT_MPI (144×1) and OCT_MPI+CILK
//! (24×6), including layouts the paper did not try (e.g. 12×12).
//!
//! ```sh
//! cargo run --release --example cluster_sweep
//! ```

use polaroct::cluster::memory::MemoryModel;
use polaroct::prelude::*;

fn main() {
    let mol = polaroct::molecule::synth::capsid("capsid", 120_000, 3);
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = DriverConfig::default();
    let machine = MachineSpec::lonestar4();
    let mm = MemoryModel::new(sys.memory_bytes());

    println!("{} atoms, {} q-points; replica = {:.1} MB", sys.n_atoms(), sys.n_qpoints(),
        sys.memory_bytes() as f64 / (1<<20) as f64);
    println!(
        "\n{:<10} {:>9} {:>9} {:>9} {:>12} {:>10}",
        "P x p", "time", "compute", "comm+wait", "GB/node", "energy"
    );

    let total_cores = 144usize;
    for threads in [1usize, 2, 3, 6, 12] {
        let processes = total_cores / threads;
        let placement = Placement::new(processes, threads);
        let cluster = ClusterSpec::new(machine, placement);
        let r = if threads == 1 {
            run_oct_mpi_ft(
                &sys,
                &params,
                &cfg,
                &cluster,
                WorkDivision::NodeNode,
                &FtConfig::default(),
            )
        } else {
            run_oct_hybrid_ft(&sys, &params, &cfg, &cluster, &FtConfig::default())
        }
        .unwrap();
        println!(
            "{:<10} {:>8.3}s {:>8.3}s {:>8.3}s {:>11.2} {:>10.3e}",
            format!("{processes}x{threads}"),
            r.time,
            r.compute,
            r.comm + r.wait,
            mm.bytes_per_node(&cluster) as f64 / (1u64 << 30) as f64,
            r.energy_kcal
        );
    }
    println!("\nNote: all placements compute the same energy (node-node work\ndivision is partition-invariant); they differ only in time and memory.");
}
