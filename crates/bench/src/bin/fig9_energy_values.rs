//! Fig. 9: GB energy values computed by every program across the suite.
//!
//! Expected shape: Amber, GBr⁶, Gromacs, NAMD and the octree variants
//! track the naive energy closely; Tinker lands around 70% of naive;
//! Tinker and GBr⁶ go OOM above ~12k and ~13k atoms respectively.

#![forbid(unsafe_code)]

use polaroct_baselines::{all_packages, PackageContext, PackageOutcome};
use polaroct_bench::{mpi_cluster, std_config, suite, Table};
use polaroct_core::{run_naive, run_oct_mpi_ft, ApproxParams, FtConfig, GbSystem, WorkDivision};

fn main() {
    let params = ApproxParams::default();
    let cfg = std_config();
    let pkgs = all_packages();
    let ctx12 = PackageContext::new(mpi_cluster(12));

    let mut t = Table::new(
        "fig9_energy_values",
        &[
            "molecule",
            "atoms",
            "e_naive",
            "e_oct_mpi",
            "e_gromacs",
            "e_namd",
            "e_amber",
            "e_tinker",
            "e_gbr6",
            "tinker_over_naive",
        ],
    );

    for entry in suite() {
        let mol = entry.build();
        let sys = GbSystem::prepare(&mol, &params);
        let naive = run_naive(&sys, &params, &cfg).unwrap();
        let oct = run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &mpi_cluster(12),
            WorkDivision::NodeNode,
            &FtConfig::default(),
        ).unwrap();
        let energies: Vec<Option<f64>> = pkgs
            .iter()
            .map(|p| match p.run(&mol, &ctx12) {
                PackageOutcome::Ok(r) => Some(r.energy_kcal),
                PackageOutcome::OutOfMemory { .. } => None,
            })
            .collect();
        let cell = |o: &Option<f64>| o.map(|v| format!("{v:.2}")).unwrap_or("OOM".into());
        let tinker_ratio = energies[3]
            .map(|e| format!("{:.3}", e / naive.energy_kcal))
            .unwrap_or("OOM".into());
        eprintln!(
            "[fig9] {} ({}): naive {:.1} oct {:.1} tinker/naive {}",
            entry.name, entry.n_atoms, naive.energy_kcal, oct.energy_kcal, tinker_ratio
        );
        t.push(vec![
            entry.name.clone(),
            entry.n_atoms.to_string(),
            format!("{:.2}", naive.energy_kcal),
            format!("{:.2}", oct.energy_kcal),
            cell(&energies[0]),
            cell(&energies[1]),
            cell(&energies[2]),
            cell(&energies[3]),
            cell(&energies[4]),
            tinker_ratio,
        ]);
    }
    t.emit();
}
