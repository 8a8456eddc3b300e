//! Criterion: the energy kernels — APPROX-INTEGRALS, PUSH, APPROX-E_pol —
//! against their naive counterparts, across ε.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polaroct_core::born::born_radii_octree;
use polaroct_core::epol::{epol_octree_raw, ChargeBins};
use polaroct_core::naive::{born_radii_naive, epol_naive_raw};
use polaroct_core::{ApproxParams, GbSystem};
use polaroct_geom::fastmath::MathMode;
use polaroct_molecule::synth;

fn prepared(n: usize) -> GbSystem {
    let mol = synth::protein("k", n, 3);
    GbSystem::prepare(&mol, &ApproxParams::default())
}

fn bench_born(c: &mut Criterion) {
    let sys = prepared(2_000);
    let mut g = c.benchmark_group("born_radii");
    g.sample_size(10);
    g.bench_function("naive_exact", |b| {
        b.iter(|| born_radii_naive(&sys, MathMode::Exact))
    });
    for &eps in &[0.1f64, 0.5, 0.9] {
        g.bench_with_input(
            BenchmarkId::new("octree", format!("eps{eps}")),
            &eps,
            |b, &eps| b.iter(|| born_radii_octree(&sys, eps, MathMode::Exact)),
        );
    }
    g.finish();
}

fn bench_epol(c: &mut Criterion) {
    let sys = prepared(2_000);
    let (born, _) = born_radii_naive(&sys, MathMode::Exact);
    let mut g = c.benchmark_group("epol");
    g.sample_size(10);
    g.bench_function("naive_exact", |b| {
        b.iter(|| epol_naive_raw(&sys, &born, MathMode::Exact))
    });
    for &eps in &[0.1f64, 0.5, 0.9] {
        let bins = ChargeBins::build(&sys, &born, eps);
        g.bench_with_input(BenchmarkId::new("octree", format!("eps{eps}")), &eps, |b, _| {
            b.iter(|| epol_octree_raw(&sys, &bins, &born, MathMode::Exact))
        });
    }
    g.finish();
}

fn bench_binning(c: &mut Criterion) {
    let sys = prepared(4_000);
    let (born, _) = born_radii_naive(&sys, MathMode::Exact);
    c.bench_function("charge_binning_4k", |b| {
        b.iter(|| ChargeBins::build(&sys, &born, 0.9))
    });
}

fn bench_forces(c: &mut Criterion) {
    use polaroct_core::forces::{forces_cutoff, forces_naive};
    let sys = prepared(1_500);
    let (born, _) = born_radii_naive(&sys, MathMode::Exact);
    let mut g = c.benchmark_group("forces");
    g.sample_size(10);
    g.bench_function("naive_1500", |b| {
        b.iter(|| forces_naive(&sys, &born, 80.0, MathMode::Exact))
    });
    g.bench_function("cutoff25_1500", |b| {
        b.iter(|| forces_cutoff(&sys, &born, 80.0, 25.0, MathMode::Exact))
    });
    g.finish();
}

criterion_group!(benches, bench_born, bench_epol, bench_binning, bench_forces);
criterion_main!(benches);
