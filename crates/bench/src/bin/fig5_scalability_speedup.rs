//! Fig. 5: speedup vs core count on the BTV-scale capsid.
//!
//! "Figure 5: Speedup w.r.t. running time on one node (12 cores)." —
//! OCT_MPI runs 12 ranks/node, OCT_MPI+CILK runs 2 ranks × 6 threads per
//! node; cores sweep 12..144.

#![forbid(unsafe_code)]

use polaroct_bench::{btv_atoms, fmt_time, hybrid_cluster, mpi_cluster, std_config, Table};
use polaroct_core::{
    run_oct_hybrid_ft, run_oct_mpi_ft, ApproxParams, FtConfig, GbSystem, WorkDivision,
};
use polaroct_molecule::synth;

fn main() {
    let n = btv_atoms();
    eprintln!("[fig5] generating BTV-scale capsid ({n} atoms)...");
    let mol = synth::capsid("BTV-scale", n, 0xB7B);
    let params = ApproxParams::default();
    eprintln!("[fig5] sampling surface + building octrees...");
    let sys = GbSystem::prepare(&mol, &params);
    eprintln!(
        "[fig5] system ready: {} atoms, {} q-points",
        sys.n_atoms(),
        sys.n_qpoints()
    );
    let cfg = std_config();

    let mut t = Table::new(
        "fig5_scalability_speedup",
        &[
            "cores",
            "t_oct_mpi_s",
            "t_oct_hybrid_s",
            "speedup_mpi_vs_12",
            "speedup_hybrid_vs_12",
        ],
    );

    let core_counts = [12usize, 24, 48, 72, 96, 120, 144];
    let mut base_mpi = 0.0;
    let mut base_hyb = 0.0;
    for &cores in &core_counts {
        let mpi = run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &mpi_cluster(cores),
            WorkDivision::NodeNode,
            &FtConfig::default(),
        )
        .unwrap();
        let hyb =
            run_oct_hybrid_ft(&sys, &params, &cfg, &hybrid_cluster(cores), &FtConfig::default())
                .unwrap();
        if cores == 12 {
            base_mpi = mpi.time;
            base_hyb = hyb.time;
        }
        eprintln!(
            "[fig5] cores={cores}: OCT_MPI {} | OCT_MPI+CILK {}",
            fmt_time(mpi.time),
            fmt_time(hyb.time)
        );
        t.push(vec![
            cores.to_string(),
            format!("{:.4}", mpi.time),
            format!("{:.4}", hyb.time),
            format!("{:.2}", base_mpi / mpi.time),
            format!("{:.2}", base_hyb / hyb.time),
        ]);
    }
    t.emit();
}
