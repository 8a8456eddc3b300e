//! Fig. 7: the three octree implementations across the ZDock suite on one
//! 12-core node, sorted by OCT_CILK time.
//!
//! Expected shape (§V.C): OCT_CILK fastest below ~2,500 atoms (no MPI
//! overhead, dual-tree does less work); OCT_MPI pulls ahead for larger
//! molecules; OCT_MPI and OCT_MPI+CILK converge beyond ~7,500 atoms.
//! Approximation parameters 0.9/0.9, approximate math ON, and the
//! paper's binned E_pol far rule (as in §V.C).

#![forbid(unsafe_code)]

use polaroct_bench::{fmt_time, hybrid_cluster, mpi_cluster, std_config, suite, Table};
use polaroct_core::{
    run_oct_cilk, run_oct_hybrid, run_oct_mpi, ApproxParams, EpolFar, GbSystem, WorkDivision,
};
use polaroct_geom::fastmath::MathMode;

struct Row {
    name: String,
    atoms: usize,
    cilk: f64,
    mpi: f64,
    hybrid: f64,
}

fn main() {
    let params = ApproxParams::default()
        .with_math(MathMode::Approx)
        .with_epol_far(EpolFar::Binned);
    let cfg = std_config();
    let mut rows: Vec<Row> = Vec::new();

    for entry in suite() {
        let mol = entry.build();
        let sys = GbSystem::prepare(&mol, &params);
        let cilk = run_oct_cilk(&sys, &params, &cfg, 12).unwrap();
        let mpi = run_oct_mpi(
            &sys,
            &params,
            &cfg,
            &mpi_cluster(12),
            WorkDivision::NodeNode,
        ).unwrap();
        let hyb = run_oct_hybrid(&sys, &params, &cfg, &hybrid_cluster(12)).unwrap();
        eprintln!(
            "[fig7] {} ({} atoms): CILK {} | MPI {} | MPI+CILK {}",
            entry.name,
            entry.n_atoms,
            fmt_time(cilk.time),
            fmt_time(mpi.time),
            fmt_time(hyb.time)
        );
        rows.push(Row {
            name: entry.name.clone(),
            atoms: entry.n_atoms,
            cilk: cilk.time,
            mpi: mpi.time,
            hybrid: hyb.time,
        });
    }

    // Paper sorts by OCT_CILK time.
    rows.sort_by(|a, b| a.cilk.total_cmp(&b.cilk));
    let mut t = Table::new(
        "fig7_octree_variants",
        &[
            "molecule",
            "atoms",
            "t_oct_cilk_s",
            "t_oct_mpi_s",
            "t_oct_hybrid_s",
        ],
    );
    for r in &rows {
        t.push(vec![
            r.name.clone(),
            r.atoms.to_string(),
            format!("{:.6}", r.cilk),
            format!("{:.6}", r.mpi),
            format!("{:.6}", r.hybrid),
        ]);
    }
    t.emit();

    // Observed crossovers for EXPERIMENTS.md.
    let cilk_wins = rows
        .iter()
        .filter(|r| r.cilk < r.mpi)
        .map(|r| r.atoms)
        .max()
        .unwrap_or(0);
    let mpi_wins = rows
        .iter()
        .filter(|r| r.mpi < r.hybrid)
        .map(|r| r.atoms)
        .max()
        .unwrap_or(0);
    println!("# crossover: largest molecule where OCT_CILK beats OCT_MPI = {cilk_wins} atoms (paper: ~2500)");
    println!("# crossover: largest molecule where OCT_MPI beats hybrid = {mpi_wins} atoms (paper: ~7500)");
}
