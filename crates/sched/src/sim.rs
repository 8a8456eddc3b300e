//! Deterministic makespan simulator for randomized work stealing.
//!
//! Replays the Blumofe–Leiserson scheduler on `p` *virtual* workers over a
//! `cilk_for`-style index space with known per-task costs:
//!
//! * the whole index range starts in worker 0's deque,
//! * a worker pops from the **bottom** of its own deque, lazily splitting
//!   ranges bigger than the grain (keeping the upper half available to
//!   thieves),
//! * an idle worker picks a random victim and steals the **top** (oldest,
//!   largest) range, paying `steal_cost`,
//! * each range records when it became available, so a thief never
//!   executes work before the victim could have produced it.
//!
//! The outcome is the virtual completion time ("makespan"), which the
//! cluster simulator uses as the intra-node p-thread compute time. On real
//! 12-core hardware this is what the cilk++ runtime achieves up to
//! constants; the classic bound `T_p ≤ T_1/p + O(T_∞)` is asserted by the
//! property tests.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Simulator parameters.
#[derive(Clone, Copy, Debug)]
pub struct StealSimParams {
    /// Number of virtual workers (`p` threads inside one compute node).
    pub workers: usize,
    /// Virtual seconds per successful steal (deque CAS + cache misses on
    /// the stolen data; ~1 µs on the paper's Westmere nodes).
    pub steal_cost: f64,
    /// Per-task scheduling overhead (virtual seconds).
    pub task_overhead: f64,
    /// Splitting grain in tasks; 0 = auto (`max(1, n / (8 p))`, cilk's
    /// default policy shape).
    pub grain: usize,
    /// RNG seed for victim selection (determinism).
    pub seed: u64,
}

impl Default for StealSimParams {
    fn default() -> Self {
        StealSimParams {
            workers: 1,
            steal_cost: 1e-6,
            task_overhead: 2e-8,
            grain: 0,
            seed: 0x5EED,
        }
    }
}

/// Result of one simulation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimOutcome {
    /// Parallel completion time (virtual seconds).
    pub makespan: f64,
    /// Σ task costs (the serial work `T_1`, excluding overheads).
    pub total_work: f64,
    /// Successful steals.
    pub steals: usize,
    /// `total_work / (workers * makespan)` ∈ (0, 1].
    pub utilization: f64,
}

/// A range of tasks sitting in a deque, with the virtual time it became
/// stealable.
#[derive(Clone, Copy, Debug)]
struct RangeItem {
    lo: usize,
    hi: usize,
    available_at: f64,
}

/// The simulator (cheap to construct; [`StealSimulator::simulate`] is
/// reusable).
#[derive(Clone, Debug)]
pub struct StealSimulator {
    pub params: StealSimParams,
}

impl StealSimulator {
    pub fn new(params: StealSimParams) -> Self {
        // PANIC-OK: precondition assert — a zero-worker simulation is a caller bug.
        assert!(params.workers >= 1);
        StealSimulator { params }
    }

    /// Simulate executing tasks with the given `costs` (virtual seconds
    /// each) and return the outcome.
    pub fn simulate(&self, costs: &[f64]) -> SimOutcome {
        let p = self.params.workers;
        let n = costs.len();
        let total_work: f64 = costs.iter().sum();
        if n == 0 {
            return SimOutcome {
                makespan: 0.0,
                total_work: 0.0,
                steals: 0,
                utilization: 1.0,
            };
        }

        // Prefix sums for O(1) range-cost lookups.
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0.0);
        for &c in costs {
            // PANIC-OK: prefix starts with one element pushed above; last() is always Some.
            prefix.push(prefix.last().unwrap() + c);
        }
        let range_cost = |lo: usize, hi: usize| prefix[hi] - prefix[lo];

        let grain = if self.params.grain == 0 {
            (n / (8 * p)).max(1)
        } else {
            self.params.grain
        };

        let mut rng = ChaCha8Rng::seed_from_u64(self.params.seed);
        // Deques: index 0 = top (steal end), back = bottom (owner end).
        let mut deques: Vec<Vec<RangeItem>> = vec![Vec::new(); p];
        deques[0].push(RangeItem {
            lo: 0,
            hi: n,
            available_at: 0.0,
        });
        let mut clocks = vec![0.0f64; p];
        let mut steals = 0usize;

        // Round-based simulation: repeatedly act on the worker with the
        // smallest clock that can make progress.
        loop {
            // Any work left anywhere?
            if deques.iter().all(|d| d.is_empty()) {
                break;
            }
            // Pick the active worker: smallest clock among those that
            // either own work or can steal (someone has work).
            let w = (0..p)
                .min_by(|&a, &b| clocks[a].total_cmp(&clocks[b]))
                // PANIC-OK: p >= 1 (asserted in new), so the minimum over 0..p exists.
                .unwrap();

            // Acquire work: own deque first, otherwise steal the top of a
            // random busy victim's deque. A thief *executes* what it stole
            // immediately, as a real work-stealing worker does — merely
            // re-enqueuing the stolen range would let it ping-pong between
            // idle workers indefinitely without ever running.
            let (item, acquired_at) = match deques[w].pop() {
                Some(item) => {
                    let t = clocks[w].max(item.available_at);
                    (item, t)
                }
                None => {
                    let busy: Vec<usize> = (0..p).filter(|&v| !deques[v].is_empty()).collect();
                    debug_assert!(!busy.is_empty());
                    let v = busy[rng.gen_range(0..busy.len())];
                    let item = deques[v].remove(0); // top of victim's deque
                    steals += 1;
                    let t = clocks[w].max(item.available_at) + self.params.steal_cost;
                    (item, t)
                }
            };
            // Lazy splitting, then execute the grain-sized front.
            let lo = item.lo;
            let mut hi = item.hi;
            let mut t = acquired_at;
            while hi - lo > grain {
                let mid = lo + (hi - lo) / 2;
                // The upper half becomes stealable "now".
                deques[w].insert(
                    0,
                    RangeItem {
                        lo: mid,
                        hi,
                        available_at: t,
                    },
                );
                hi = mid;
            }
            t += range_cost(lo, hi) + self.params.task_overhead * (hi - lo) as f64;
            clocks[w] = t;
        }

        let makespan = clocks.iter().cloned().fold(0.0f64, f64::max);
        SimOutcome {
            makespan,
            total_work,
            steals,
            utilization: if makespan > 0.0 {
                total_work / (p as f64 * makespan)
            } else {
                1.0
            },
        }
    }

    /// Convenience: simulated speedup of `p` workers over serial execution
    /// of the same costs.
    pub fn speedup(&self, costs: &[f64]) -> f64 {
        let serial: f64 = costs.iter().sum();
        let out = self.simulate(costs);
        if out.makespan > 0.0 {
            serial / out.makespan
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(p: usize) -> StealSimulator {
        StealSimulator::new(StealSimParams {
            workers: p,
            ..Default::default()
        })
    }

    fn uniform(n: usize, c: f64) -> Vec<f64> {
        vec![c; n]
    }

    #[test]
    fn single_worker_time_is_total_plus_overhead() {
        let costs = uniform(100, 0.01);
        let out = sim(1).simulate(&costs);
        let expected = 1.0 + 100.0 * StealSimParams::default().task_overhead;
        assert!((out.makespan - expected).abs() < 1e-9);
        assert_eq!(out.steals, 0);
    }

    #[test]
    fn makespan_lower_bounds() {
        let mut costs = uniform(200, 0.005);
        costs[7] = 0.5; // one heavy task
        for p in [2usize, 4, 8] {
            let out = sim(p).simulate(&costs);
            let total: f64 = costs.iter().sum();
            assert!(
                out.makespan >= total / p as f64 - 1e-12,
                "p={p}: below T1/p"
            );
            assert!(out.makespan >= 0.5 - 1e-12, "p={p}: below max task");
        }
    }

    #[test]
    fn blumofe_leiserson_upper_bound() {
        // T_p <= T_1/p + c * (T_inf + steals * steal_cost); for a flat
        // cilk_for, T_inf ~ grain_cost * log(n). Use a generous constant.
        let costs = uniform(4096, 0.001);
        for p in [2usize, 4, 12] {
            let out = sim(p).simulate(&costs);
            let t1: f64 = costs.iter().sum();
            let bound = t1 / p as f64 + 0.5 * t1; // very generous
            assert!(out.makespan <= bound, "p={p}: {} > {bound}", out.makespan);
            // And it should actually show speedup.
            assert!(out.makespan < t1 * 0.9, "p={p}: no speedup");
        }
    }

    #[test]
    fn speedup_is_monotone_ish_in_p() {
        let costs = uniform(8192, 0.0005);
        let s2 = sim(2).speedup(&costs);
        let s8 = sim(8).speedup(&costs);
        assert!(s2 > 1.5, "2 workers give {s2}");
        assert!(s8 > s2, "8 workers ({s8}) beat 2 ({s2})");
        assert!(s8 <= 8.0 + 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let costs: Vec<f64> = (0..500)
            .map(|i| ((i * 37 % 11) + 1) as f64 * 1e-4)
            .collect();
        let a = sim(6).simulate(&costs);
        let b = sim(6).simulate(&costs);
        assert_eq!(a, b);
        let c = StealSimulator::new(StealSimParams {
            workers: 6,
            seed: 999,
            ..Default::default()
        })
        .simulate(&costs);
        // Different seed may differ, but bounds still hold.
        assert!(c.makespan >= a.total_work / 6.0 - 1e-12);
    }

    #[test]
    fn empty_task_list() {
        let out = sim(4).simulate(&[]);
        assert_eq!(out.makespan, 0.0);
        assert_eq!(out.utilization, 1.0);
    }

    #[test]
    fn one_giant_task_defeats_parallelism() {
        let mut costs = uniform(64, 1e-6);
        costs[0] = 1.0;
        let out = sim(8).simulate(&costs);
        assert!(out.makespan >= 1.0);
        assert!(out.makespan < 1.1);
        assert!(out.utilization < 0.25, "utilization should tank");
    }

    #[test]
    fn utilization_bounded() {
        let costs = uniform(1000, 1e-3);
        for p in [1usize, 3, 7] {
            let u = sim(p).simulate(&costs).utilization;
            assert!(u > 0.0 && u <= 1.0 + 1e-12, "p={p}: u={u}");
        }
    }

    #[test]
    fn steals_scale_sanely() {
        // For a balanced cilk_for, steals are O(p log n), far below n.
        let costs = uniform(10_000, 1e-4);
        let out = sim(12).simulate(&costs);
        assert!(out.steals > 0);
        assert!(out.steals < 2000, "excessive steals: {}", out.steals);
    }
}
