//! Property tests: the simulated MPI collectives against serial oracles.

use polaroct_cluster::comm::Recovery;
use polaroct_cluster::fault::{FaultPlan, FtPolicy};
use polaroct_cluster::machine::{ClusterSpec, MachineSpec, Placement};
use polaroct_cluster::runner::{run_spmd_ft, FtSpmdResult, RankContext, RankError};
use proptest::prelude::*;

fn cluster(p: usize) -> ClusterSpec {
    ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(p))
}

/// A fault-free run over `p` ranks; every rank must return `Ok`.
fn run<T: Send>(
    p: usize,
    body: impl Fn(&mut RankContext) -> Result<T, RankError> + Sync,
) -> FtSpmdResult<T> {
    let res = run_spmd_ft(&cluster(p), &FaultPlan::none(), FtPolicy::default(), body);
    assert!(res.failures().is_empty(), "failed ranks: {:?}", res.failures());
    res
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_equals_elementwise_sum(p in 1usize..9, len in 1usize..64, seed in 0u64..1000) {
        // Deterministic per-rank payloads derived from (rank, seed).
        let res = run(p, |ctx| {
            let mut clock = ctx.clock;
            let mut buf: Vec<f64> = (0..len)
                .map(|i| ((ctx.rank * 31 + i) as f64 + seed as f64).sin())
                .collect();
            ctx.comm.allreduce_sum_ft(&mut buf, &mut clock, Recovery::Disabled)?;
            ctx.clock = clock;
            Ok(buf)
        });
        // Oracle.
        let want: Vec<f64> = (0..len)
            .map(|i| (0..p).map(|r| (((r * 31 + i) as f64) + seed as f64).sin()).sum())
            .collect();
        for rank_buf in res.per_rank.iter().flatten() {
            for (got, expect) in rank_buf.iter().zip(&want) {
                prop_assert!((got - expect).abs() < 1e-9 * expect.abs().max(1.0));
            }
        }
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order(p in 1usize..8, base in 1usize..10) {
        let res = run(p, |ctx| {
            let mut clock = ctx.clock;
            // Rank r contributes r+base elements valued 1000r + k.
            let mine: Vec<f64> =
                (0..ctx.rank + base).map(|k| (ctx.rank * 1000 + k) as f64).collect();
            let (all, _) = ctx.comm.allgatherv_ft(&mine, &mut clock, Recovery::Disabled)?;
            ctx.clock = clock;
            Ok(all)
        });
        let mut want = Vec::new();
        for r in 0..p {
            for k in 0..r + base {
                want.push((r * 1000 + k) as f64);
            }
        }
        for rank_buf in res.per_rank.iter().flatten() {
            prop_assert_eq!(rank_buf, &want);
        }
    }

    #[test]
    fn reduce_scalar_sums_to_root(p in 1usize..10, x in -100.0f64..100.0) {
        let res = run(p, |ctx| {
            let mut clock = ctx.clock;
            let (out, _) = ctx.comm.reduce_sum_scalar_ft(x, &mut clock, Recovery::Disabled)?;
            ctx.clock = clock;
            Ok(out)
        });
        prop_assert!(matches!(res.per_rank[0], Ok(Some(sum)) if (sum - x * p as f64).abs() < 1e-9));
        for v in &res.per_rank[1..] {
            prop_assert_eq!(v, &Ok(None));
        }
    }

    #[test]
    fn collectives_leave_all_clocks_equal(p in 2usize..8, work_scale in 0.0f64..2.0) {
        let res = run(p, |ctx| {
            let mut clock = ctx.clock;
            clock.add_compute(ctx.rank as f64 * work_scale);
            ctx.comm.allreduce_sum_ft(&mut [0.0], &mut clock, Recovery::Disabled)?;
            ctx.clock = clock;
            Ok(())
        });
        let t0 = res.clocks[0].total();
        for c in &res.clocks {
            prop_assert!((c.total() - t0).abs() < 1e-12);
        }
        // The collective's exit time covers the slowest entrant.
        prop_assert!(t0 >= (p - 1) as f64 * work_scale - 1e-12);
    }
}
