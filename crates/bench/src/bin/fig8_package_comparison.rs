//! Fig. 8: running times of all programs across the ZDock suite on one
//! 12-core node (a), and speedups w.r.t. Amber (b).
//!
//! Expected shape: OCT_MPI / OCT_MPI+CILK fastest overall; Gromacs next
//! (max ~6.2x over Amber at 2,260 atoms, ~2.7x at 16,301); Amber beats
//! NAMD, Tinker and GBr⁶; OCT_MPI reaches ~11x over Amber at 16,301
//! atoms. OOM rows print `OOM`.

#![forbid(unsafe_code)]

use polaroct_baselines::{all_packages, PackageContext, PackageOutcome};
use polaroct_bench::{hybrid_cluster, mpi_cluster, std_config, suite, Table};
use polaroct_core::{
    run_oct_cilk, run_oct_hybrid_ft, run_oct_mpi_ft, ApproxParams, FtConfig, GbSystem, WorkDivision,
};
use polaroct_geom::fastmath::MathMode;

fn main() {
    let params = ApproxParams::default().with_math(MathMode::Approx);
    let cfg = std_config();
    let pkgs = all_packages();
    let ctx12 = PackageContext::new(mpi_cluster(12));

    let mut t = Table::new(
        "fig8a_package_times",
        &[
            "molecule",
            "atoms",
            "t_oct_mpi_s",
            "t_oct_hybrid_s",
            "t_oct_cilk_s",
            "t_gromacs_s",
            "t_namd_s",
            "t_amber_s",
            "t_tinker_s",
            "t_gbr6_s",
        ],
    );
    let mut s = Table::new(
        "fig8b_speedup_vs_amber",
        &[
            "molecule",
            "atoms",
            "oct_mpi",
            "oct_hybrid",
            "oct_cilk",
            "gromacs",
            "namd",
            "tinker",
            "gbr6",
        ],
    );

    for entry in suite() {
        let mol = entry.build();
        let sys = GbSystem::prepare(&mol, &params);
        let oct_mpi = run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &mpi_cluster(12),
            WorkDivision::NodeNode,
            &FtConfig::default(),
        )
        .unwrap()
        .time;
        let oct_hyb =
            run_oct_hybrid_ft(&sys, &params, &cfg, &hybrid_cluster(12), &FtConfig::default())
                .unwrap()
                .time;
        let oct_cilk = run_oct_cilk(&sys, &params, &cfg, 12).unwrap().time;

        // Package order from all_packages(): Gromacs, NAMD, Amber,
        // Tinker, GBr6.
        let times: Vec<Option<f64>> = pkgs
            .iter()
            .map(|p| match p.run(&mol, &ctx12) {
                PackageOutcome::Ok(r) => Some(r.time),
                PackageOutcome::OutOfMemory { .. } => None,
            })
            .collect();
        let cell = |o: &Option<f64>| o.map(|v| format!("{v:.4}")).unwrap_or("OOM".into());
        let amber = times[2];
        eprintln!(
            "[fig8] {} ({}): oct_mpi {:.4}s amber {} gromacs {}",
            entry.name,
            entry.n_atoms,
            oct_mpi,
            cell(&amber),
            cell(&times[0])
        );
        t.push(vec![
            entry.name.clone(),
            entry.n_atoms.to_string(),
            format!("{oct_mpi:.4}"),
            format!("{oct_hyb:.4}"),
            format!("{oct_cilk:.4}"),
            cell(&times[0]),
            cell(&times[1]),
            cell(&amber),
            cell(&times[3]),
            cell(&times[4]),
        ]);
        if let Some(a) = amber {
            let sp = |t: Option<f64>| t.map(|t| format!("{:.2}", a / t)).unwrap_or("OOM".into());
            s.push(vec![
                entry.name.clone(),
                entry.n_atoms.to_string(),
                format!("{:.2}", a / oct_mpi),
                format!("{:.2}", a / oct_hyb),
                format!("{:.2}", a / oct_cilk),
                sp(times[0]),
                sp(times[1]),
                sp(times[3]),
                sp(times[4]),
            ]);
        }
    }
    t.emit();
    s.emit();
}
