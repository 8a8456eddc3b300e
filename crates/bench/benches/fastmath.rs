//! Criterion: approximate vs exact math (the §V.E 1.42x claim at the
//! scalar level).

use criterion::{criterion_group, criterion_main, Criterion};
use polaroct_geom::fastmath::{exp_fast, invcbrt_fast, rsqrt_fast, MathMode};
use std::hint::black_box;

fn bench_scalars(c: &mut Criterion) {
    let xs: Vec<f64> = (1..1000).map(|i| i as f64 * 0.37 + 0.1).collect();

    let mut g = c.benchmark_group("rsqrt");
    g.bench_function("std", |b| {
        b.iter(|| xs.iter().map(|&x| 1.0 / black_box(x).sqrt()).sum::<f64>())
    });
    g.bench_function("fast", |b| {
        b.iter(|| xs.iter().map(|&x| rsqrt_fast(black_box(x))).sum::<f64>())
    });
    g.finish();

    let es: Vec<f64> = (1..1000).map(|i| -(i as f64) * 0.03).collect();
    let mut g = c.benchmark_group("exp");
    g.bench_function("std", |b| {
        b.iter(|| es.iter().map(|&x| black_box(x).exp()).sum::<f64>())
    });
    // The exact exp the kernels run: glibc's algorithm over a slice.
    let mut buf = es.clone();
    g.bench_function("exact_slice", |b| {
        b.iter(|| {
            buf.copy_from_slice(black_box(&es));
            MathMode::Exact.exp_slice(&mut buf);
            buf.iter().sum::<f64>()
        })
    });
    g.bench_function("fast", |b| {
        b.iter(|| es.iter().map(|&x| exp_fast(black_box(x))).sum::<f64>())
    });
    g.finish();

    let mut g = c.benchmark_group("invcbrt");
    g.bench_function("std_powf", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| black_box(x).powf(-1.0 / 3.0))
                .sum::<f64>()
        })
    });
    g.bench_function("fast", |b| {
        b.iter(|| xs.iter().map(|&x| invcbrt_fast(black_box(x))).sum::<f64>())
    });
    g.finish();
}

fn bench_gb_kernel(c: &mut Criterion) {
    use polaroct_core::gb::inv_f_gb;
    let pairs: Vec<(f64, f64, f64)> = (0..1000)
        .map(|i| (1.0 + i as f64 * 0.1, 1.5, 2.0))
        .collect();
    let mut g = c.benchmark_group("inv_f_gb");
    g.bench_function("exact", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(r2, ri, rj)| inv_f_gb(black_box(r2), ri, rj, MathMode::Exact))
                .sum::<f64>()
        })
    });
    g.bench_function("approx", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(r2, ri, rj)| inv_f_gb(black_box(r2), ri, rj, MathMode::Approx))
                .sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_scalars, bench_gb_kernel);
criterion_main!(benches);
