//! Quickstart: compute the GB polarization energy of a small protein four
//! ways and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use polaroct::prelude::*;

fn main() {
    // 1. Input: a 1,500-atom synthetic globular protein. Real molecules
    //    load via polaroct::molecule::io::{pqr, xyzrq}.
    let mol = polaroct::molecule::synth::protein("demo-protein", 1_500, 2026);
    println!("molecule: {} atoms, net charge {:+.3e}", mol.len(), mol.net_charge());

    // 2. Preprocessing (§IV.C step 1): sample the molecular surface and
    //    build the atoms + quadrature-point octrees. Reused by every run.
    let params = ApproxParams::default(); // ε_born = ε_epol = 0.9
    let sys = GbSystem::prepare(&mol, &params);
    println!(
        "prepared: {} quadrature points, atoms octree: {}",
        sys.n_qpoints(),
        sys.atoms.stats()
    );

    let cfg = DriverConfig::default();

    // 3. The naive exact reference (Eq. 2 + Eq. 4, quadratic).
    let naive = run_naive(&sys, &params, &cfg).unwrap();

    // 4. The octree approximation: serial, shared-memory (12 threads),
    //    and hybrid on a simulated 12-core node.
    let serial = run_serial(&sys, &params, &cfg).unwrap();
    let cilk = run_oct_cilk(&sys, &params, &cfg, 12).unwrap();
    let machine = MachineSpec::lonestar4();
    let hybrid = run_oct_hybrid_ft(
        &sys,
        &params,
        &cfg,
        &ClusterSpec::new(machine, Placement::hybrid_per_socket(12, &machine)),
        &FtConfig::default(),
    )
    .unwrap();

    println!("\n{:<14} {:>16} {:>12} {:>10}", "driver", "E_pol (kcal/mol)", "sim time", "err vs naive");
    for r in [&naive, &serial, &cilk, &hybrid] {
        println!(
            "{:<14} {:>16.3} {:>11.3}ms {:>9.4}%",
            r.name,
            r.energy_kcal,
            r.time * 1e3,
            (r.energy_kcal - naive.energy_kcal) / naive.energy_kcal * 100.0
        );
    }
    println!(
        "\noctree speedup over naive (serial): {:.1}x; |error| < 1%: {}",
        naive.time / serial.time,
        ((serial.energy_kcal - naive.energy_kcal) / naive.energy_kcal).abs() < 0.01
    );
}
