//! Criterion: simulated-MPI collective execution cost (the in-process
//! mechanics, not the modeled virtual time) across rank counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polaroct_cluster::comm::Recovery;
use polaroct_cluster::fault::{FaultPlan, FtPolicy};
use polaroct_cluster::machine::{ClusterSpec, MachineSpec, Placement};
use polaroct_cluster::runner::run_spmd_ft;

/// One fault-free allreduce of `words` f64s per rank over `cluster`.
fn allreduce(cluster: &ClusterSpec, words: usize, fill: impl Fn(usize) -> f64 + Sync) {
    let res = run_spmd_ft(cluster, &FaultPlan::none(), FtPolicy::default(), |ctx| {
        let mut clock = ctx.clock;
        let mut buf = vec![fill(ctx.rank); words];
        ctx.comm.allreduce_sum_ft(&mut buf, &mut clock, Recovery::Disabled)?;
        ctx.clock = clock;
        Ok(buf[0])
    });
    assert!(res.failures().is_empty(), "failed ranks: {:?}", res.failures());
}

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmd_allreduce");
    g.sample_size(10);
    for &ranks in &[2usize, 8, 32] {
        let cluster = ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(ranks));
        g.bench_with_input(BenchmarkId::new("ranks", ranks), &ranks, |b, _| {
            b.iter(|| allreduce(&cluster, 1024, |rank| rank as f64))
        });
    }
    g.finish();
}

fn bench_payload_size(c: &mut Criterion) {
    let cluster = ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(8));
    let mut g = c.benchmark_group("spmd_allreduce_payload");
    g.sample_size(10);
    for &words in &[64usize, 4_096, 65_536] {
        g.bench_with_input(BenchmarkId::new("f64s", words), &words, |b, &words| {
            b.iter(|| allreduce(&cluster, words, |_| 1.0))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_allreduce, bench_payload_size);
criterion_main!(benches);
