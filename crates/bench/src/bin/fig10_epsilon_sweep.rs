//! Fig. 10: error in E_pol and running time vs the E_pol approximation
//! parameter.
//!
//! Protocol from §V.E: ε_Born fixed at 0.9; ε_Epol swept 0.1..0.9;
//! approximate math OFF; OCT_MPI+CILK over the whole suite; report
//! avg ± std of the % error w.r.t. naive, plus the mean running time.
//! The paper's far rule is pinned ([`EpolFar::Binned`]): under it ε is
//! the E_pol MAC as well as the bin width, as in Fig. 3. The default
//! far rule is swept by the `workprec` bench instead.

#![forbid(unsafe_code)]

use polaroct_bench::{hybrid_cluster, std_config, suite, Table};
use polaroct_core::{
    energy_error_pct, run_naive, run_oct_hybrid, ApproxParams, EpolFar, ErrorStats, GbSystem,
};

fn main() {
    let cfg = std_config();
    let suite = suite();

    // Naive references once per molecule (ε-independent).
    eprintln!(
        "[fig10] computing naive references for {} molecules...",
        suite.len()
    );
    let mut prepared = Vec::new();
    for entry in &suite {
        let mol = entry.build();
        let sys = GbSystem::prepare(&mol, &ApproxParams::default());
        let naive = run_naive(&sys, &ApproxParams::default(), &cfg).unwrap();
        prepared.push((entry.name.clone(), sys, naive.energy_kcal));
    }

    let mut t = Table::new(
        "fig10_epsilon_sweep",
        &[
            "eps_epol",
            "err_mean_pct",
            "err_std_pct",
            "err_min_pct",
            "err_max_pct",
            "mean_time_s",
        ],
    );

    for k in 1..=9 {
        let eps = k as f64 / 10.0;
        let params = ApproxParams::default()
            .with_eps(0.9, eps)
            .with_epol_far(EpolFar::Binned);
        let mut errors = Vec::with_capacity(prepared.len());
        let mut total_time = 0.0;
        for (name, sys, e_naive) in &prepared {
            let r = run_oct_hybrid(sys, &params, &cfg, &hybrid_cluster(12)).unwrap();
            errors.push(energy_error_pct(r.energy_kcal, *e_naive));
            total_time += r.time;
            let _ = name;
        }
        let stats = ErrorStats::of(&errors);
        eprintln!("[fig10] eps={eps:.1}: err {stats}");
        t.push(vec![
            format!("{eps:.1}"),
            format!("{:.4}", stats.mean),
            format!("{:.4}", stats.std),
            format!("{:.4}", stats.min),
            format!("{:.4}", stats.max),
            format!("{:.5}", total_time / prepared.len() as f64),
        ]);
    }
    t.emit();
}
