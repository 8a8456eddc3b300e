//! Fig. 11 (table): scalability on the Cucumber Mosaic Virus shell.
//!
//! Paper values: Amber 39 min (12 cores) / 3.3 min (144); OCT_MPI 4.5 s /
//! 0.46 s (speedups 520 / 430 over Amber); OCT_MPI+CILK 4.8 s / 0.61 s
//! (488 / 325); OCT_CILK 12.5 s (12 cores only; 187x); octree energies
//! within 1% of naive, Amber at 2.2%.
//!
//! The naive O(M²) reference is infeasible at 509,640 atoms on one core,
//! so the %-difference column is computed on a scaled CMV (60k atoms by
//! default; the approximation error is size-stable because it is governed
//! by ε, which the test suite verifies). Times at full size are measured
//! for every program.

#![forbid(unsafe_code)]

use polaroct_baselines::{GbPackage, PackageContext, PackageOutcome};
use polaroct_bench::{cmv_atoms, fmt_time, hybrid_cluster, mpi_cluster, std_config, Table};
use polaroct_core::{
    energy_error_pct, run_naive, run_oct_cilk, run_oct_hybrid_ft, run_oct_mpi_ft, ApproxParams,
    FtConfig, GbSystem, WorkDivision,
};
use polaroct_geom::fastmath::MathMode;
use polaroct_molecule::synth;

fn main() {
    let n = cmv_atoms();
    let params = ApproxParams::default().with_math(MathMode::Approx);
    let cfg = std_config();

    eprintln!("[fig11] generating CMV-scale capsid ({n} atoms)...");
    let mol = synth::capsid("CMV-shell", n, 0xC3F);
    let sys = GbSystem::prepare(&mol, &params);
    eprintln!(
        "[fig11] {} atoms, {} q-points",
        sys.n_atoms(),
        sys.n_qpoints()
    );

    // Full-size runs.
    let cilk12 = run_oct_cilk(&sys, &params, &cfg, 12).unwrap();
    let mpi12 = run_oct_mpi_ft(
        &sys,
        &params,
        &cfg,
        &mpi_cluster(12),
        WorkDivision::NodeNode,
        &FtConfig::default(),
    ).unwrap();
    let mpi144 = run_oct_mpi_ft(
        &sys,
        &params,
        &cfg,
        &mpi_cluster(144),
        WorkDivision::NodeNode,
        &FtConfig::default(),
    )
    .unwrap();
    let hyb12 =
        run_oct_hybrid_ft(&sys, &params, &cfg, &hybrid_cluster(12), &FtConfig::default()).unwrap();
    let hyb144 =
        run_oct_hybrid_ft(&sys, &params, &cfg, &hybrid_cluster(144), &FtConfig::default()).unwrap();

    let amber = polaroct_baselines::amber::Amber::default();
    let amber12 = match amber.run(&mol, &PackageContext::new(mpi_cluster(12))) {
        PackageOutcome::Ok(r) => r,
        PackageOutcome::OutOfMemory { .. } => panic!("Amber should fit CMV"),
    };
    let amber144 = match amber.run(&mol, &PackageContext::new(mpi_cluster(144))) {
        PackageOutcome::Ok(r) => r,
        PackageOutcome::OutOfMemory { .. } => panic!("Amber should fit CMV"),
    };

    // Tinker / GBr6 must report OOM at CMV size (§V.F).
    let tinker_oom = matches!(
        polaroct_baselines::tinker::Tinker::default()
            .run(&mol, &PackageContext::new(mpi_cluster(12))),
        PackageOutcome::OutOfMemory { .. }
    );
    let gbr6_oom = matches!(
        polaroct_baselines::gbr6::GBr6.run(&mol, &PackageContext::new(mpi_cluster(1))),
        PackageOutcome::OutOfMemory { .. }
    );

    // Error vs naive at a tractable scale.
    eprintln!("[fig11] scaled naive reference for % difference...");
    let n_small = if polaroct_bench::quick_mode() {
        5_000
    } else {
        60_000
    };
    let small = synth::capsid("CMV-scaled", n_small, 0xC3F);
    let sys_small = GbSystem::prepare(&small, &params);
    let naive_small = run_naive(&sys_small, &params, &cfg).unwrap();
    let oct_small = run_oct_mpi_ft(
        &sys_small,
        &params,
        &cfg,
        &mpi_cluster(12),
        WorkDivision::NodeNode,
        &FtConfig::default(),
    ).unwrap();
    let cilk_small = run_oct_cilk(&sys_small, &params, &cfg, 12).unwrap();
    let amber_small = match amber.run(&small, &PackageContext::new(mpi_cluster(12))) {
        PackageOutcome::Ok(r) => r,
        _ => panic!("Amber should fit scaled CMV"),
    };
    let err_oct = energy_error_pct(oct_small.energy_kcal, naive_small.energy_kcal);
    let err_cilk = energy_error_pct(cilk_small.energy_kcal, naive_small.energy_kcal);
    let err_amber = energy_error_pct(amber_small.energy_kcal, naive_small.energy_kcal);

    let mut t = Table::new(
        "fig11_cmv_table",
        &[
            "program",
            "t_12cores",
            "t_144cores",
            "speedup_vs_amber_12",
            "speedup_vs_amber_144",
            "energy_kcal_mol",
            "pct_diff_naive_scaled",
        ],
    );
    let row = |name: &str, t12: f64, t144: Option<f64>, e: f64, err: Option<f64>| -> Vec<String> {
        vec![
            name.into(),
            fmt_time(t12),
            t144.map(fmt_time).unwrap_or("X".into()),
            format!("{:.0}", amber12.time / t12),
            t144.map(|t| format!("{:.0}", amber144.time / t))
                .unwrap_or("X".into()),
            format!("{e:.3e}"),
            err.map(|e| format!("{e:+.2}%")).unwrap_or("-".into()),
        ]
    };
    t.push(row(
        "OCT_CILK",
        cilk12.time,
        None,
        cilk12.energy_kcal,
        Some(err_cilk),
    ));
    t.push(row(
        "Amber",
        amber12.time,
        Some(amber144.time),
        amber12.energy_kcal,
        Some(err_amber),
    ));
    t.push(row(
        "OCT_MPI+CILK",
        hyb12.time,
        Some(hyb144.time),
        hyb12.energy_kcal,
        Some(err_oct),
    ));
    t.push(row(
        "OCT_MPI",
        mpi12.time,
        Some(mpi144.time),
        mpi12.energy_kcal,
        Some(err_oct),
    ));
    t.emit();
    println!("# Tinker OOM at CMV: {tinker_oom} (paper: yes); GBr6 OOM: {gbr6_oom} (paper: yes)");
    println!(
        "# scaled-naive block: {n_small} atoms; naive E = {:.3e} kcal/mol",
        naive_small.energy_kcal
    );
}
