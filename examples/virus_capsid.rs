//! Large-molecule run: a virus-capsid shell, the §V.F workload class.
//!
//! Generates a CMV-style hollow capsid (50k atoms by default; pass an
//! atom count as the first argument, e.g. 509640 for full CMV scale),
//! runs the hybrid driver on a simulated 12-node cluster, and checks the
//! error against the naive reference.
//!
//! ```sh
//! cargo run --release --example virus_capsid [n_atoms]
//! ```

use polaroct::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(50_000);
    println!("generating capsid with {n} atoms...");
    let mol = polaroct::molecule::synth::capsid("capsid", n, 0xCAF);
    let params = ApproxParams::default().with_math(MathMode::Approx);
    let sys = GbSystem::prepare(&mol, &params);
    println!(
        "surface: {} quadrature points ({:.1} per atom); one replica = {:.1} MB",
        sys.n_qpoints(),
        sys.n_qpoints() as f64 / n as f64,
        sys.memory_bytes() as f64 / (1 << 20) as f64
    );

    let cfg = DriverConfig::default();
    let machine = MachineSpec::lonestar4();

    // 144-core hybrid (12 nodes × 2 sockets × 6 threads) vs 12-core runs.
    for cores in [12usize, 144] {
        let hybrid = run_oct_hybrid_ft(
            &sys,
            &params,
            &cfg,
            &ClusterSpec::new(machine, Placement::hybrid_per_socket(cores, &machine)),
            &FtConfig::default(),
        )
        .unwrap();
        let mpi = run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &ClusterSpec::new(machine, Placement::distributed(cores)),
            WorkDivision::NodeNode,
            &FtConfig::default(),
        )
        .unwrap();
        println!(
            "{cores:>4} cores: OCT_MPI+CILK {:>9.3}s (comm {:.1}%) | OCT_MPI {:>9.3}s (comm {:.1}%)",
            hybrid.time,
            (hybrid.comm + hybrid.wait) / hybrid.time * 100.0,
            mpi.time,
            (mpi.comm + mpi.wait) / mpi.time * 100.0,
        );
    }

    // Error check vs naive — on a subsample if the capsid is huge.
    if n <= 80_000 {
        let naive = run_naive(&sys, &params, &cfg).unwrap();
        let serial = run_serial(&sys, &params, &cfg).unwrap();
        println!(
            "E_pol = {:.4e} kcal/mol (naive {:.4e}); error {:+.4}%; octree speedup {:.0}x on 1 core",
            serial.energy_kcal,
            naive.energy_kcal,
            (serial.energy_kcal - naive.energy_kcal) / naive.energy_kcal * 100.0,
            naive.time / serial.time
        );
    } else {
        let serial = run_serial(&sys, &params, &cfg).unwrap();
        println!(
            "E_pol = {:.4e} kcal/mol (naive reference skipped at this size; run <= 80k atoms to check)",
            serial.energy_kcal
        );
    }
}
