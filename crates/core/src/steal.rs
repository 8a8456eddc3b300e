//! Explicit inter-node dynamic load balancing — the paper's stated future
//! work (§VI: "we are planning to incorporate explicit dynamic load
//! balancing techniques such as work-stealing to improve the performance
//! even further").
//!
//! The static node-based division assigns each rank a fixed leaf segment;
//! when leaf costs are skewed (e.g. a capsid's pole-dense Fibonacci
//! seams), the slowest rank dominates Fig. 4's bulk-synchronous phases.
//! This driver lets idle ranks *steal whole leaves* from loaded ranks
//! between phase boundaries. In the simulated cluster this is modeled by
//! measuring every leaf's actual kernel cost and re-scheduling leaves
//! across ranks with a greedy longest-processing-time (LPT) policy, each
//! migration charged one point-to-point message (the leaf id + its result
//! contribution is rank-local, so only the *task* moves — the data is
//! replicated anyway in the work-division-only scheme).
//!
//! Energies are bit-identical to `run_oct_mpi` with node-node division:
//! stealing only changes *who* computes a leaf, never *what* is computed.

use crate::born::push_integrals_to_atoms;
use crate::drivers::{
    require_config, seconds, step2_partial, step6_partial, validate_system, DriverConfig,
    DriverError, RunReport,
};
use crate::epol::ChargeBins;
use crate::params::ApproxParams;
use crate::system::GbSystem;
use crate::workdiv::WorkDivision;
use polaroct_cluster::costmodel::CommCostModel;
use polaroct_cluster::machine::ClusterSpec;
use polaroct_cluster::memory::MemoryModel;
use polaroct_cluster::simtime::OpCounts;

/// Greedy LPT makespan over `ranks` machines; returns (makespan,
/// migrations) where `migrations` counts tasks placed on a rank other
/// than their static owner (each pays one steal message).
fn lpt_makespan(costs: &[f64], static_owner: &[usize], ranks: usize) -> (f64, usize) {
    assert_eq!(costs.len(), static_owner.len());
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
    let mut load = vec![0.0f64; ranks];
    let mut migrations = 0usize;
    for &t in &order {
        let (best, _) = load
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .unwrap();
        load[best] += costs[t];
        if best != static_owner[t] {
            migrations += 1;
        }
    }
    (load.iter().cloned().fold(0.0, f64::max), migrations)
}

/// `OCT_MPI` with inter-node leaf stealing. Same results as the static
/// node-node division; the timing reflects LPT-balanced phases plus one
/// p2p message per migrated leaf.
pub fn run_oct_mpi_steal(
    sys: &GbSystem,
    params: &ApproxParams,
    cfg: &DriverConfig,
    cluster: &ClusterSpec,
) -> Result<RunReport, DriverError> {
    require_config(
        cluster.placement.threads_per_process == 1,
        "OCT_MPI with leaf stealing needs one thread per rank",
    )?;
    validate_system(sys)?;
    let wall = std::time::Instant::now();
    let p = cluster.placement.processes;
    let mem = MemoryModel::new(sys.memory_bytes());
    let slowdown = mem.slowdown(cluster);
    let comm_model = CommCostModel::for_cluster(cluster);
    let secs = |o: &OpCounts| seconds(cfg, o, params.math) * slowdown;

    let mut total_ops = OpCounts::default();
    let mut time = 0.0;

    // ---- Phase 2: Born integrals, per-q-leaf costs: Fig. 4 Step 2 as
    // one rank owning every leaf, in leaf-id order.
    let (acc, q_ops) = step2_partial(sys, WorkDivision::NodeNode, 1, 0, params.eps_born);
    let q_static = static_owners(&sys.qtree.partition_leaves(p), sys.qtree.leaf_count());
    let q_costs: Vec<f64> = q_ops.iter().map(secs).collect();
    for o in &q_ops {
        total_ops.add(o);
    }
    let (span2, steals2) = lpt_makespan(&q_costs, &q_static, p);
    time += span2 + steals2 as f64 * comm_model.p2p(16);
    // Step 3 allreduce.
    time += comm_model.allreduce((acc.node.len() + acc.atom.len()) * 8);

    // ---- Phase 4: push (atoms evenly; already balanced, no stealing).
    let mut born = vec![0.0; sys.n_atoms()];
    let push_ops = push_integrals_to_atoms(sys, &acc, 0..sys.n_atoms(), params.math, &mut born);
    total_ops.add(&push_ops);
    time += secs(&push_ops) / p as f64;
    // Step 5 allgather.
    time += comm_model.allgatherv(sys.n_atoms() * 8);

    // ---- Phase 6: E_pol, per-atom-leaf costs (Step 6 as one rank; the
    // node division reads no atom ranges).
    let bins = ChargeBins::build(sys, &born, params.eps_epol);
    let a_static = static_owners(&sys.atoms.partition_leaves(p), sys.atoms.leaf_count());
    let (raw, a_ops) = step6_partial(
        sys,
        &bins,
        &born,
        WorkDivision::NodeNode,
        &[],
        1,
        0,
        params.eps_epol,
        params.math,
    );
    let a_costs: Vec<f64> = a_ops.iter().map(secs).collect();
    for o in &a_ops {
        total_ops.add(o);
    }
    let (span6, steals6) = lpt_makespan(&a_costs, &a_static, p);
    time += span6 + steals6 as f64 * comm_model.p2p(16);
    // Step 7 reduce.
    time += comm_model.reduce(8);

    Ok(RunReport {
        time,
        compute: span2 + span6,
        comm: time - span2 - span6,
        ops: total_ops,
        cores: p,
        ..RunReport::new("OCT_MPI+STEAL", sys, params, raw, &born, wall)
    })
}

fn static_owners(ranges: &[std::ops::Range<usize>], n: usize) -> Vec<usize> {
    let mut owner = vec![0usize; n];
    for (r, range) in ranges.iter().enumerate() {
        for o in owner.iter_mut().take(range.end).skip(range.start) {
            *o = r;
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::run_oct_mpi;
    use crate::workdiv::WorkDivision;
    use polaroct_cluster::machine::{MachineSpec, Placement};
    use polaroct_molecule::synth;

    fn cluster(p: usize) -> ClusterSpec {
        ClusterSpec::new(MachineSpec::lonestar4(), Placement::distributed(p))
    }

    #[test]
    fn lpt_basics() {
        // Perfectly divisible loads.
        let costs = [1.0, 1.0, 1.0, 1.0];
        let owners = [0, 0, 1, 1];
        let (span, _) = lpt_makespan(&costs, &owners, 2);
        assert!((span - 2.0).abs() < 1e-12);
        // One giant task dominates regardless.
        let costs = [10.0, 1.0, 1.0];
        let (span, _) = lpt_makespan(&costs, &[0, 1, 1], 2);
        assert!((span - 10.0).abs() < 1e-12);
    }

    #[test]
    fn stealing_preserves_energy_exactly() {
        let mol = synth::protein("p", 350, 3);
        let params = ApproxParams::default();
        let sys = GbSystem::prepare(&mol, &params);
        let cfg = DriverConfig::default();
        let static_run =
            run_oct_mpi(&sys, &params, &cfg, &cluster(6), WorkDivision::NodeNode).unwrap();
        let steal_run = run_oct_mpi_steal(&sys, &params, &cfg, &cluster(6)).unwrap();
        assert!(
            ((static_run.energy_kcal - steal_run.energy_kcal) / static_run.energy_kcal).abs()
                < 1e-12
        );
    }

    #[test]
    fn stealing_rejects_a_hybrid_placement() {
        let params = ApproxParams::default();
        let sys = GbSystem::prepare(&synth::protein("p", 50, 1), &params);
        let m = MachineSpec::lonestar4();
        let hybrid = ClusterSpec::new(m, Placement::hybrid_per_socket(12, &m));
        let r = run_oct_mpi_steal(&sys, &params, &DriverConfig::default(), &hybrid);
        assert!(matches!(r, Err(DriverError::InvalidConfig { .. })), "{r:?}");
    }

    #[test]
    fn stealing_never_slower_on_compute() {
        // LPT-balanced spans are at most the static max segment time.
        let mol = synth::capsid("c", 4_000, 5);
        let params = ApproxParams::default();
        let sys = GbSystem::prepare(&mol, &params);
        let cfg = DriverConfig::default();
        let static_run =
            run_oct_mpi(&sys, &params, &cfg, &cluster(8), WorkDivision::NodeNode).unwrap();
        let steal_run = run_oct_mpi_steal(&sys, &params, &cfg, &cluster(8)).unwrap();
        assert!(
            steal_run.compute <= static_run.compute * 1.05 + 1e-6,
            "steal compute {} vs static {}",
            steal_run.compute,
            static_run.compute
        );
    }
}
