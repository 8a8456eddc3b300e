//! Fig. 6: min/max running time of 20 runs vs core count.
//!
//! The paper's observation to reproduce: "the minimum running time of
//! OCT_MPI+CILK is always smaller than the minimum running time of
//! OCT_MPI after the core count reaches 180, whereas we always ... see the
//! opposite for the maximum running times" — the hybrid's 6x fewer ranks
//! mean less communication and less replication, but its cilk-layer
//! overhead keeps its best case behind at low core counts; comm jitter
//! (growing with rank count) drives OCT_MPI's max time up faster.

#![forbid(unsafe_code)]

use polaroct_bench::{btv_atoms, hybrid_cluster, mpi_cluster, std_config, Table};
use polaroct_cluster::noise::NoiseModel;
use polaroct_core::{
    run_oct_hybrid_ft, run_oct_mpi_ft, ApproxParams, FtConfig, GbSystem, WorkDivision,
};
use polaroct_molecule::synth;

fn main() {
    let n = btv_atoms();
    eprintln!("[fig6] preparing BTV-scale capsid ({n} atoms)...");
    let mol = synth::capsid("BTV-scale", n, 0xB7B);
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = std_config();
    let noise = NoiseModel::default();
    const RUNS: usize = 20;

    let mut t = Table::new(
        "fig6_scalability_minmax",
        &[
            "cores",
            "mpi_min_s",
            "mpi_max_s",
            "hybrid_min_s",
            "hybrid_max_s",
            "hybrid_min_wins",
        ],
    );

    for cores in (12..=288).step_by(24) {
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
        let (mpi_min, mpi_max) = noise.min_max(
            mpi.compute,
            mpi.comm + mpi.wait,
            mpi_cluster(cores).placement.processes,
            RUNS,
            cores as u64,
        );
        let (hyb_min, hyb_max) = noise.min_max(
            hyb.compute,
            hyb.comm + hyb.wait,
            hybrid_cluster(cores).placement.processes,
            RUNS,
            cores as u64 ^ 0xFFFF,
        );
        eprintln!(
            "[fig6] cores={cores}: mpi [{mpi_min:.4},{mpi_max:.4}] hybrid [{hyb_min:.4},{hyb_max:.4}]"
        );
        t.push(vec![
            cores.to_string(),
            format!("{mpi_min:.4}"),
            format!("{mpi_max:.4}"),
            format!("{hyb_min:.4}"),
            format!("{hyb_max:.4}"),
            (hyb_min < mpi_min).to_string(),
        ]);
    }
    t.emit();
}
