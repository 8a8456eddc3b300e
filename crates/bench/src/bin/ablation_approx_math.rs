//! §V.E ablation: approximate math ON vs OFF.
//!
//! Paper: "Turning approximate math 'on' shifted the error by 4-5% and
//! decreased the running times by a factor of 1.42 on average." The error
//! shift in the paper couples with its float-precision fast paths; our
//! double-precision fast kernels shift energies by far less (documented in
//! EXPERIMENTS.md), while the 1.42x time factor is reproduced directly.

#![forbid(unsafe_code)]

use polaroct_bench::{hybrid_cluster, std_config, suite, Table};
use polaroct_core::{
    energy_error_pct, run_naive, run_oct_hybrid_ft, ApproxParams, FtConfig, GbSystem,
};
use polaroct_geom::fastmath::MathMode;

fn main() {
    let cfg = std_config();
    let mut t = Table::new(
        "ablation_approx_math",
        &[
            "molecule",
            "atoms",
            "err_exact_pct",
            "err_approx_pct",
            "t_exact_s",
            "t_approx_s",
            "speedup",
        ],
    );
    let mut speedups = Vec::new();
    for entry in suite().into_iter().step_by(4) {
        let mol = entry.build();
        let base = ApproxParams::default();
        let sys = GbSystem::prepare(&mol, &base);
        let naive = run_naive(&sys, &base, &cfg).unwrap();
        let exact = run_oct_hybrid_ft(&sys, &base, &cfg, &hybrid_cluster(12), &FtConfig::default())
            .unwrap();
        let approx = run_oct_hybrid_ft(
            &sys,
            &base.with_math(MathMode::Approx),
            &cfg,
            &hybrid_cluster(12),
            &FtConfig::default(),
        ).unwrap();
        let speedup = exact.time / approx.time;
        speedups.push(speedup);
        t.push(vec![
            entry.name.clone(),
            entry.n_atoms.to_string(),
            format!(
                "{:+.4}",
                energy_error_pct(exact.energy_kcal, naive.energy_kcal)
            ),
            format!(
                "{:+.4}",
                energy_error_pct(approx.energy_kcal, naive.energy_kcal)
            ),
            format!("{:.5}", exact.time),
            format!("{:.5}", approx.time),
            format!("{speedup:.3}"),
        ]);
    }
    t.emit();
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("# mean approximate-math speedup: {mean:.3} (paper: 1.42)");
}
