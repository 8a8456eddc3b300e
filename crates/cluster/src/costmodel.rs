//! Communication cost model.
//!
//! The paper's §IV.C analysis prices collectives from Table 4.1 of Grama,
//! Karypis, Kumar & Gupta, *Introduction to Parallel Computing* (its
//! reference \[12\]): a message of `m` words costs `t_s + t_w·m` per hop,
//! and tree/recursive-doubling collectives cost `log P` rounds. We use the
//! same formulas with bytes instead of words.

use crate::machine::ClusterSpec;

/// Per-collective virtual-time costs for a given cluster+placement.
#[derive(Clone, Copy, Debug)]
pub struct CommCostModel {
    /// Startup latency per message (s).
    pub t_s: f64,
    /// Per-byte transfer time (s/B).
    pub t_w: f64,
    /// Number of communicating processes.
    pub procs: usize,
}

impl CommCostModel {
    pub fn for_cluster(cluster: &ClusterSpec) -> Self {
        let (t_s, t_w) = cluster.effective_latency();
        CommCostModel { t_s, t_w, procs: cluster.placement.processes }
    }

    #[inline]
    fn log2p(&self) -> f64 {
        (self.procs.max(2) as f64).log2().ceil()
    }

    /// `MPI_Barrier`: `t_s · log P` (dissemination barrier).
    pub fn barrier(&self) -> f64 {
        if self.procs <= 1 {
            return 0.0;
        }
        self.t_s * self.log2p()
    }

    /// `MPI_Bcast` of `bytes`: `(t_s + t_w·m) log P` (binomial tree).
    pub fn bcast(&self, bytes: usize) -> f64 {
        if self.procs <= 1 {
            return 0.0;
        }
        (self.t_s + self.t_w * bytes as f64) * self.log2p()
    }

    /// `MPI_Allreduce` of `bytes`: `(t_s + t_w·m) log P` (recursive
    /// doubling — Grama Table 4.1, all-reduce row).
    pub fn allreduce(&self, bytes: usize) -> f64 {
        if self.procs <= 1 {
            return 0.0;
        }
        (self.t_s + self.t_w * bytes as f64) * self.log2p()
    }

    /// `MPI_Allgatherv` where the *total* gathered payload is
    /// `total_bytes`: `t_s log P + t_w · m · (P−1)` with `m` the per-rank
    /// share — i.e. `t_s log P + t_w · total · (P−1)/P` (recursive
    /// doubling all-gather). This is the paper's Step 3/5 term
    /// `t_s log P + t_w (M/P)(P−1)`.
    pub fn allgatherv(&self, total_bytes: usize) -> f64 {
        if self.procs <= 1 {
            return 0.0;
        }
        let per_rank = total_bytes as f64 / self.procs as f64;
        self.t_s * self.log2p() + self.t_w * per_rank * (self.procs - 1) as f64
    }

    /// `MPI_Reduce` of `bytes` to the root: `(t_s + t_w·m) log P`.
    pub fn reduce(&self, bytes: usize) -> f64 {
        self.bcast(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ClusterSpec, MachineSpec, Placement};

    fn model(procs: usize) -> CommCostModel {
        let m = MachineSpec::lonestar4();
        CommCostModel::for_cluster(&ClusterSpec::new(m, Placement::distributed(procs)))
    }

    #[test]
    fn single_process_communicates_for_free() {
        let c = model(1);
        assert_eq!(c.barrier(), 0.0);
        assert_eq!(c.allreduce(1024), 0.0);
        assert_eq!(c.allgatherv(1024), 0.0);
        assert_eq!(c.bcast(1024), 0.0);
    }

    #[test]
    fn costs_grow_with_procs() {
        let small = model(12); // single node => intra latency
        let large = model(144);
        assert!(large.allreduce(8192) > small.allreduce(8192));
        assert!(large.barrier() > small.barrier());
    }

    #[test]
    fn costs_grow_with_bytes() {
        let c = model(24);
        assert!(c.allreduce(1 << 20) > c.allreduce(1 << 10));
        assert!(c.allgatherv(1 << 20) > c.allgatherv(1 << 10));
    }

    #[test]
    fn allreduce_matches_formula() {
        let c = model(32);
        let m = 4096usize;
        let expected = (c.t_s + c.t_w * m as f64) * 5.0; // log2 32 = 5
        assert!((c.allreduce(m) - expected).abs() < 1e-15);
    }

    #[test]
    fn allgatherv_bandwidth_term_dominates_for_large_payloads() {
        let c = model(64);
        let big = 100 << 20; // 100 MB total
        let cost = c.allgatherv(big);
        let bw_term = c.t_w * (big as f64 / 64.0) * 63.0;
        assert!((cost - bw_term) / cost < 0.10, "latency should be a minor term");
    }

    #[test]
    fn intra_node_cheaper_than_inter_node() {
        let single = model(12);
        let multi = model(13);
        // Same byte count and the same ⌈log₂ P⌉ = 4 rounds: only the
        // inter-node constants that 13+ ranks force differ.
        assert!(multi.bcast(1 << 16) > single.bcast(1 << 16));
    }
}
