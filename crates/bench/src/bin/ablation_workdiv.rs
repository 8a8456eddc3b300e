//! §IV.A ablation: node-based vs atom-based work division.
//!
//! Two paper claims to verify: (1) node-node division's energy is
//! invariant in P; atom-based division's energy drifts with P. (2)
//! "atom-node work division takes slightly more time than the purely node
//! based (node-node) work division."

#![forbid(unsafe_code)]

use polaroct_bench::{mpi_cluster, std_config, Table};
use polaroct_core::{
    energy_error_pct, run_naive, run_oct_mpi_ft, ApproxParams, FtConfig, GbSystem, WorkDivision,
};
use polaroct_molecule::synth;

fn main() {
    let params = ApproxParams::default();
    let cfg = std_config();
    let mol = synth::protein("Z-mid", 4_000, 0xD1);
    let sys = GbSystem::prepare(&mol, &params);
    let naive = run_naive(&sys, &params, &cfg).unwrap();

    let mut t = Table::new(
        "ablation_workdiv",
        &[
            "P",
            "node_err_pct",
            "atom_err_pct",
            "node_time_s",
            "atom_time_s",
            "atom_over_node_time",
        ],
    );
    let mut node_errs = Vec::new();
    let mut atom_errs = Vec::new();
    for p in [1usize, 2, 4, 8, 16, 32] {
        let node = run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &mpi_cluster(p),
            WorkDivision::NodeNode,
            &FtConfig::default(),
        )
        .unwrap();
        let atom = run_oct_mpi_ft(
            &sys,
            &params,
            &cfg,
            &mpi_cluster(p),
            WorkDivision::AtomBased,
            &FtConfig::default(),
        ).unwrap();
        let ne = energy_error_pct(node.energy_kcal, naive.energy_kcal);
        let ae = energy_error_pct(atom.energy_kcal, naive.energy_kcal);
        node_errs.push(ne);
        atom_errs.push(ae);
        t.push(vec![
            p.to_string(),
            format!("{ne:+.6}"),
            format!("{ae:+.6}"),
            format!("{:.5}", node.time),
            format!("{:.5}", atom.time),
            format!("{:.3}", atom.time / node.time),
        ]);
    }
    t.emit();

    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - v.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    println!(
        "# node-division error spread across P: {:.2e}% (paper: constant)",
        spread(&node_errs)
    );
    println!(
        "# atom-division error spread across P: {:.2e}% (paper: varies with P)",
        spread(&atom_errs)
    );
}
