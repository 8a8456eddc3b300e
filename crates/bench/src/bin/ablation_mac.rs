//! Ablation: practical (`θ = 1+ε`) vs conservative (`θ = (1+ε)^{1/6}`)
//! Born-radius acceptance criterion — the evidence behind DESIGN.md's
//! "Pseudocode errata we fix" §2.
//!
//! For each molecule: Born radii via the naive reference, the practical
//! MAC, and the conservative MAC; report worst-case radius error and the
//! near-field work of each. The conservative rule should be (slightly)
//! more accurate and vastly more expensive — if its op count matches the
//! naive count, the far field never fired, which is the paper-throughput
//! argument for defaulting to the practical rule.

#![forbid(unsafe_code)]

use polaroct_bench::{suite, Table};
use polaroct_core::born::{approx_integrals, push_integrals_to_atoms, BornAccumulators};
use polaroct_core::naive::born_radii_naive;
use polaroct_core::{ApproxParams, GbSystem};
use polaroct_geom::fastmath::MathMode;

fn born_with_mac(sys: &GbSystem, mac: f64) -> (Vec<f64>, u64, u64) {
    let mut acc = BornAccumulators::zeros(sys);
    let mut near = 0u64;
    let mut far = 0u64;
    let all = 0..sys.n_qpoints();
    for &q in &sys.qtree.leaf_ids {
        let ops = approx_integrals(sys, q, &all, mac, &mut acc);
        near += ops.born_near;
        far += ops.born_far;
    }
    let mut out = vec![0.0; sys.n_atoms()];
    push_integrals_to_atoms(sys, &acc, 0..sys.n_atoms(), MathMode::Exact, &mut out);
    (out, near, far)
}

fn main() {
    let params = ApproxParams::default();
    let mut t = Table::new(
        "ablation_mac",
        &[
            "molecule",
            "atoms",
            "practical_worst_err_pct",
            "conservative_worst_err_pct",
            "practical_near_ops",
            "conservative_near_ops",
            "naive_ops",
        ],
    );
    for entry in suite().into_iter().step_by(8) {
        let mol = entry.build();
        let sys = GbSystem::prepare(&mol, &params);
        let (reference, _) = born_radii_naive(&sys, MathMode::Exact);
        let naive_ops = (sys.n_atoms() * sys.n_qpoints()) as u64;

        let worst = |radii: &[f64]| -> f64 {
            reference
                .iter()
                .zip(radii)
                .map(|(r, a)| ((r - a) / r).abs() * 100.0)
                .fold(0.0f64, f64::max)
        };
        let (prac, prac_near, _) = born_with_mac(&sys, params.born_mac_multiplier());
        let (cons, cons_near, _) = born_with_mac(&sys, params.born_mac_multiplier_conservative());
        eprintln!(
            "[mac] {} ({}): practical err {:.4}% ({} near) vs conservative {:.4}% ({} near; naive {})",
            entry.name,
            entry.n_atoms,
            worst(&prac),
            prac_near,
            worst(&cons),
            cons_near,
            naive_ops
        );
        t.push(vec![
            entry.name.clone(),
            entry.n_atoms.to_string(),
            format!("{:.4}", worst(&prac)),
            format!("{:.4}", worst(&cons)),
            prac_near.to_string(),
            cons_near.to_string(),
            naive_ops.to_string(),
        ]);
    }
    t.emit();
}
