//! Kernel costs: anchors virtual seconds to the paper's hardware.
//!
//! [`KernelCosts`] holds the per-operation costs (seconds) used to convert
//! [`crate::simtime::OpCounts`] into virtual compute time.
//! [`KernelCosts::lonestar4_reference`] provides fixed constants
//! representative of the paper's 3.33 GHz Westmere, so figure
//! regeneration is reproducible across hosts.

use crate::simtime::OpCounts;

/// Seconds per kernel operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelCosts {
    /// One far-field Born integral accumulation (Fig. 2 line 1).
    pub born_far: f64,
    /// One exact atom×q-point term (Fig. 2 line 2 inner loop body).
    pub born_near: f64,
    /// One far-field bin-pair E_pol term (Fig. 3 line 2 inner body).
    pub epol_far: f64,
    /// One exact pairwise GB term (Fig. 3 line 1 / Eq. 2 body).
    pub epol_near: f64,
    /// One octree node visit (acceptance test + recursion bookkeeping).
    pub node_visit: f64,
    /// Multiplier applied when approximate math is enabled (§V.E measured
    /// 1/1.42 ≈ 0.70).
    pub approx_math_factor: f64,
}

impl KernelCosts {
    /// Constants representative of one 3.33 GHz Westmere core running the
    /// `-O3` kernels (the paper's platform). A near-field GB pair is ~20
    /// flops + `sqrt` + `exp` ≈ 60 cycles ⇒ ~18 ns; far-field Born terms
    /// are cheaper (~10 ns); node visits are a distance check (~6 ns).
    pub fn lonestar4_reference() -> KernelCosts {
        KernelCosts {
            born_far: 10e-9,
            born_near: 12e-9,
            epol_far: 16e-9,
            epol_near: 18e-9,
            node_visit: 6e-9,
            approx_math_factor: 1.0 / 1.42,
        }
    }

    /// Convert op counts to virtual compute seconds.
    pub fn seconds(&self, ops: &OpCounts, approx_math: bool) -> f64 {
        let base = ops.born_far as f64 * self.born_far
            + ops.born_near as f64 * self.born_near
            + ops.epol_far as f64 * self.epol_far
            + ops.epol_near as f64 * self.epol_near
            + ops.nodes_visited as f64 * self.node_visit;
        if approx_math {
            base * self.approx_math_factor
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_constants_are_plausible() {
        let c = KernelCosts::lonestar4_reference();
        for v in [c.born_far, c.born_near, c.epol_far, c.epol_near, c.node_visit] {
            assert!(v > 1e-10 && v < 1e-6, "per-op cost {v} out of range");
        }
        assert!((c.approx_math_factor - 0.704).abs() < 0.01);
    }

    #[test]
    fn seconds_linear_in_ops() {
        let c = KernelCosts::lonestar4_reference();
        let ops1 = OpCounts { epol_near: 1000, ..Default::default() };
        let ops2 = OpCounts { epol_near: 2000, ..Default::default() };
        let s1 = c.seconds(&ops1, false);
        let s2 = c.seconds(&ops2, false);
        assert!((s2 - 2.0 * s1).abs() < 1e-15);
    }

    #[test]
    fn approx_math_speeds_up_by_1_42() {
        let c = KernelCosts::lonestar4_reference();
        let ops = OpCounts { epol_near: 1_000_000, born_near: 500_000, ..Default::default() };
        let exact = c.seconds(&ops, false);
        let approx = c.seconds(&ops, true);
        assert!((exact / approx - 1.42).abs() < 1e-9);
    }

    #[test]
    fn zero_ops_cost_nothing() {
        let c = KernelCosts::lonestar4_reference();
        assert_eq!(c.seconds(&OpCounts::default(), false), 0.0);
    }
}
