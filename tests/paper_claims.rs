//! The paper's qualitative claims, as executable assertions.
//!
//! Each test names the section of the paper it checks. These are the
//! "shape" guarantees behind the figure harnesses in `polaroct-bench`.

use polaroct::baselines::{PackageContext, PackageOutcome};
use polaroct::cluster::memory::MemoryModel;
use polaroct::prelude::*;

fn node12() -> ClusterSpec {
    ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(12))
}

fn hybrid12() -> ClusterSpec {
    let m = MachineSpec::lonestar4();
    ClusterSpec::new(m, Placement::hybrid_per_socket(12, &m))
}

#[test]
fn claim_abstract_under_one_percent_error() {
    // Abstract: "less than 1% error w.r.t. the naive exact algorithm".
    let mol = polaroct::molecule::synth::protein("p", 600, 11);
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = DriverConfig::default();
    let naive = run_naive(&sys, &params, &cfg).unwrap();
    for r in [
        run_serial(&sys, &params, &cfg).unwrap(),
        run_oct_cilk(&sys, &params, &cfg, 12).unwrap(),
        run_oct_mpi(&sys, &params, &cfg, &node12(), WorkDivision::NodeNode).unwrap(),
        run_oct_hybrid(&sys, &params, &cfg, &hybrid12()).unwrap(),
    ] {
        let err = ((r.energy_kcal - naive.energy_kcal) / naive.energy_kcal).abs();
        assert!(err < 0.01, "{}: {err}", r.name);
    }
}

#[test]
fn default_far_rule_is_no_less_accurate_than_the_paper_rule() {
    // The default E_pol far rule (second-order Taylor at a looser MAC,
    // DESIGN.md §10.8) must keep the abstract's <1% and be no less
    // accurate than Fig. 3's binned rule, over a few small suite
    // molecules (the full sweep is the `workprec` bench).
    let cfg = DriverConfig::default();
    let suite = polaroct::molecule::synth::zdock_suite();
    let paper = ApproxParams::default().with_epol_far(EpolFar::Binned);
    let default = ApproxParams::default();
    let (mut paper_max, mut default_max) = (0.0f64, 0.0f64);
    for entry in [&suite[0], &suite[12], &suite[24]] {
        assert!(entry.n_atoms <= 3_000);
        let sys = GbSystem::prepare(&entry.build(), &default);
        let naive = run_naive(&sys, &default, &cfg).unwrap().energy_kcal;
        let err = |p: &ApproxParams| {
            let e = run_serial(&sys, p, &cfg).unwrap().energy_kcal;
            ((e - naive) / naive).abs()
        };
        paper_max = paper_max.max(err(&paper));
        default_max = default_max.max(err(&default));
    }
    assert!(paper_max < 0.01 && default_max < 0.01, "{paper_max} / {default_max}");
    assert!(
        default_max <= paper_max,
        "default max |error| {default_max} exceeds the paper rule's {paper_max}"
    );
}

#[test]
fn claim_s4b_memory_replication_ratio() {
    // §V.B: 12x1 uses ~5.86x the per-node memory of 2x6.
    let mm = MemoryModel::new(680 << 20);
    let ratio = mm.replication_ratio(&node12(), &hybrid12());
    assert!((ratio - 5.86).abs() < 0.4, "replication ratio {ratio}");
}

#[test]
fn claim_s4a_node_division_error_constant_in_p() {
    // §IV.A: node-based division's error does not change with P.
    let mol = polaroct::molecule::synth::protein("p", 350, 13);
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = DriverConfig::default();
    let energies: Vec<f64> = [1usize, 3, 8, 12]
        .iter()
        .map(|&p| {
            run_oct_mpi(
                &sys,
                &params,
                &cfg,
                &ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(p)),
                WorkDivision::NodeNode,
            )
            .unwrap()
            .energy_kcal
        })
        .collect();
    for e in &energies[1..] {
        assert!(((e - energies[0]) / energies[0]).abs() < 1e-12);
    }
}

#[test]
fn claim_s5d_tinker_energy_seventy_percent() {
    // Fig. 9: "Energy values reported by Tinker were around 70% of the
    // naive energy."
    let mol = polaroct::molecule::synth::protein("p", 800, 17);
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = DriverConfig::default();
    let naive = run_naive(&sys, &params, &cfg).unwrap();
    let tinker = polaroct::baselines::tinker::Tinker::default()
        .run(&mol, &PackageContext::new(node12()));
    use polaroct::baselines::GbPackage as _;
    let e = tinker.report().expect("tinker fits at 800 atoms").energy_kcal;
    let ratio = e / naive.energy_kcal;
    assert!((0.55..0.85).contains(&ratio), "Tinker/naive = {ratio}, expected ≈0.7");
}

#[test]
fn claim_s5d_oom_thresholds() {
    // §V.D: Tinker fails above ~12k atoms, GBr6 above ~13k, on a 24 GB
    // node — while the octree code and Amber keep working.
    use polaroct::baselines::GbPackage as _;
    let ctx = PackageContext::new(node12());
    // 13,100 atoms: above Tinker's wall, below GBr6's.
    let mol = polaroct::molecule::synth::protein("big", 13_100, 19);
    let tinker = polaroct::baselines::tinker::Tinker::default().run(&mol, &ctx);
    assert!(matches!(tinker, PackageOutcome::OutOfMemory { .. }), "Tinker should OOM at 13.1k");
    let gbr6 = polaroct::baselines::gbr6::GBr6.run(&mol, &ctx);
    assert!(gbr6.report().is_some(), "GBr6 should still fit at 13.1k");
    // 14,000 atoms: above both.
    let mol14 = polaroct::molecule::synth::protein("bigger", 14_000, 19);
    assert!(matches!(
        polaroct::baselines::gbr6::GBr6.run(&mol14, &ctx),
        PackageOutcome::OutOfMemory { .. }
    ));
    // Amber still runs at 14k.
    assert!(polaroct::baselines::amber::Amber::default().run(&mol14, &ctx).report().is_some());
}

#[test]
fn claim_s5f_octree_dominates_amber_at_scale() {
    // §V.F shape: on a large hollow capsid, OCT_MPI beats the Amber-class
    // baseline by a large factor on the same 12 cores.
    use polaroct::baselines::GbPackage as _;
    let mol = polaroct::molecule::synth::capsid("mini-cmv", 20_000, 23);
    let params = ApproxParams::default().with_math(MathMode::Approx);
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = DriverConfig::default();
    let oct = run_oct_mpi(&sys, &params, &cfg, &node12(), WorkDivision::NodeNode).unwrap();
    let amber = polaroct::baselines::amber::Amber::default()
        .run(&mol, &PackageContext::new(node12()));
    let amber_t = amber.report().unwrap().time;
    let speedup = amber_t / oct.time;
    assert!(speedup > 5.0, "OCT_MPI only {speedup:.1}x over Amber at 20k atoms");
}

#[test]
fn claim_s2_octree_space_independent_of_epsilon() {
    // §II: octree size does not change with the approximation parameter
    // (unlike nblists, which grow cubically with the cutoff).
    let mol = polaroct::molecule::synth::protein("p", 1_000, 29);
    let params_a = ApproxParams::default().with_eps(0.1, 0.1);
    let params_b = ApproxParams::default().with_eps(0.9, 0.9);
    let sys_a = GbSystem::prepare(&mol, &params_a);
    let sys_b = GbSystem::prepare(&mol, &params_b);
    assert_eq!(sys_a.memory_bytes(), sys_b.memory_bytes());

    let nb_small = polaroct::baselines::NbList::build(&mol, 6.0);
    let nb_large = polaroct::baselines::NbList::build(&mol, 18.0);
    assert!(nb_large.memory_bytes() > 5 * nb_small.memory_bytes());
}

#[test]
fn claim_fig5_scaling_with_cores() {
    // More cores => less simulated time, for both drivers.
    let mol = polaroct::molecule::synth::capsid("cap", 30_000, 31);
    let params = ApproxParams::default();
    let sys = GbSystem::prepare(&mol, &params);
    let cfg = DriverConfig::default();
    let m = MachineSpec::lonestar4();
    let t12 = run_oct_mpi(
        &sys,
        &params,
        &cfg,
        &ClusterSpec::new(m, Placement::distributed(12)),
        WorkDivision::NodeNode,
    )
    .unwrap()
    .time;
    let t144 = run_oct_mpi(
        &sys,
        &params,
        &cfg,
        &ClusterSpec::new(m, Placement::distributed(144)),
        WorkDivision::NodeNode,
    )
    .unwrap()
    .time;
    assert!(t144 < t12, "144 cores ({t144}) should beat 12 ({t12})");
    let h12 =
        run_oct_hybrid(&sys, &params, &cfg, &ClusterSpec::new(m, Placement::hybrid_per_socket(12, &m))).unwrap().time;
    let h144 =
        run_oct_hybrid(&sys, &params, &cfg, &ClusterSpec::new(m, Placement::hybrid_per_socket(144, &m))).unwrap().time;
    assert!(h144 < h12);
}
