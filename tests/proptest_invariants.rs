//! Property-based tests of cross-crate invariants.

use polaroct::prelude::*;
use proptest::prelude::*;

fn run_energy(mol: &polaroct::molecule::Molecule, params: &ApproxParams) -> RunReport {
    let sys = GbSystem::prepare(mol, params);
    run_serial(&sys, params, &DriverConfig::default()).unwrap()
}

proptest! {
    // Keep case counts modest: each case builds a surface + two octrees.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn energy_always_negative_and_finite(n in 20usize..150, seed in 0u64..1000) {
        let mol = polaroct::molecule::synth::protein("pp", n, seed);
        let r = run_energy(&mol, &ApproxParams::default());
        prop_assert!(r.energy_kcal.is_finite());
        prop_assert!(r.energy_kcal < 0.0);
    }

    #[test]
    fn born_radii_bounded_below_by_intrinsic(n in 20usize..120, seed in 0u64..1000) {
        let mol = polaroct::molecule::synth::protein("pb", n, seed);
        let params = ApproxParams::default();
        let r = run_energy(&mol, &params);
        for (i, &b) in r.born_radii.iter().enumerate() {
            prop_assert!(b >= mol.radii[i] - 1e-12, "atom {i}: {b} < {}", mol.radii[i]);
        }
    }

    #[test]
    fn translation_leaves_energy_unchanged(
        n in 20usize..100,
        seed in 0u64..500,
        dx in -50.0f64..50.0,
        dy in -50.0f64..50.0,
        dz in -50.0f64..50.0,
    ) {
        // Pure translations keep the octree decomposition congruent, so
        // the approximation is identical up to floating-point noise.
        let mol = polaroct::molecule::synth::protein("pt", n, seed);
        let params = ApproxParams::default();
        let e0 = run_energy(&mol, &params).energy_kcal;
        let moved = mol.transformed(&polaroct::geom::Transform::translation(
            polaroct::geom::Vec3::new(dx, dy, dz),
        ));
        let e1 = run_energy(&moved, &params).energy_kcal;
        // Translation re-quantizes the Morton grid, so the two runs use
        // different (but equally valid) octree decompositions; they may
        // differ by up to ~2x the ε-level approximation error.
        prop_assert!(((e0 - e1) / e0).abs() < 1e-2, "{e0} vs {e1}");
    }

    #[test]
    fn charge_scaling_scales_energy_quadratically(n in 20usize..80, seed in 0u64..500) {
        // E_pol is a quadratic form in the charges: q -> 2q gives 4E.
        let mol = polaroct::molecule::synth::protein("pq", n, seed);
        let params = ApproxParams::default();
        let e1 = run_energy(&mol, &params).energy_kcal;
        let mut scaled = mol.clone();
        for q in &mut scaled.charges {
            *q *= 2.0;
        }
        let e4 = run_energy(&scaled, &params).energy_kcal;
        prop_assert!(((e4 - 4.0 * e1) / e4).abs() < 1e-9, "{e4} vs 4*{e1}");
    }

    #[test]
    fn mpi_energy_matches_serial_for_any_p(n in 30usize..120, seed in 0u64..300, p in 1usize..9) {
        let mol = polaroct::molecule::synth::protein("pm", n, seed);
        let params = ApproxParams::default();
        let sys = GbSystem::prepare(&mol, &params);
        let cfg = DriverConfig::default();
        let serial = run_serial(&sys, &params, &cfg).unwrap().energy_kcal;
        let cluster = ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(p));
        let ftc = FtConfig::default();
        let mpi = run_oct_mpi_ft(&sys, &params, &cfg, &cluster, WorkDivision::NodeNode, &ftc)
            .unwrap()
            .energy_kcal;
        prop_assert!(((serial - mpi) / serial).abs() < 1e-10, "{serial} vs {mpi} at P={p}");
    }
}
