//! Cost-weighted chunking: split a sequence of work items with known
//! per-item costs into `parts` contiguous ranges of near-equal total
//! cost.
//!
//! This is the list-execution analog of `Octree::partition_leaves`
//! (which balances leaf *counts*): interaction-list entries have wildly
//! different costs (`len_a * len_q` for a near leaf×leaf block vs O(1)
//! for a far approximation), so balancing entry counts would reproduce
//! exactly the static-segment imbalance the paper's Figs. 5–6 complain
//! about. The greedy fair-share rule below instead closes a chunk once
//! it has accumulated its share of the *remaining* cost, which bounds
//! any chunk's overshoot by one item.
//!
//! Determinism contract: the output depends only on `costs` and
//! `parts` — never on thread count or timing — so callers can bake the
//! partition into a prebuilt structure and replay it identically at any
//! pool width.

use std::ops::Range;

/// Split `0..costs.len()` into exactly `parts` contiguous ranges whose
/// total costs are approximately balanced. Trailing ranges may be empty
/// when there are fewer items than parts (`parts == 0` yields no
/// ranges). Zero-cost items are carried along with their neighbors.
pub fn partition_by_cost(costs: &[u64], parts: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::with_capacity(parts);
    if parts == 0 {
        return ranges;
    }
    let total: u128 = costs.iter().map(|&c| c as u128).sum();
    let mut assigned: u128 = 0;
    let mut start = 0usize;
    let mut acc: u128 = 0;
    for (i, &c) in costs.iter().enumerate() {
        acc += c as u128;
        let remaining_parts = (parts - ranges.len()) as u128;
        // Fair share of what is left to hand out, rounded up so the
        // last part is never forced to absorb everyone's rounding.
        let target = (total - assigned).div_ceil(remaining_parts);
        if acc >= target && ranges.len() < parts - 1 {
            ranges.push(start..i + 1);
            assigned += acc;
            acc = 0;
            start = i + 1;
        }
    }
    ranges.push(start..costs.len());
    while ranges.len() < parts {
        let end = costs.len();
        ranges.push(end..end);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_covers(costs: &[u64], parts: usize) -> Vec<Range<usize>> {
        let ranges = partition_by_cost(costs, parts);
        assert_eq!(ranges.len(), parts.max(usize::from(parts > 0)));
        let mut next = 0usize;
        for r in &ranges {
            assert_eq!(r.start, next, "ranges must tile contiguously");
            assert!(r.end >= r.start);
            next = r.end;
        }
        assert_eq!(next, costs.len(), "ranges must cover every item");
        ranges
    }

    #[test]
    fn covers_and_is_contiguous() {
        for parts in 1..9 {
            check_covers(&[], parts);
            check_covers(&[5], parts);
            check_covers(&[1, 1, 1, 1, 1, 1, 1], parts);
            check_covers(&[1000, 1, 1, 1, 1000], parts);
            check_covers(&[0, 0, 7, 0, 0], parts);
        }
    }

    #[test]
    fn zero_parts_yields_no_ranges() {
        assert!(partition_by_cost(&[1, 2, 3], 0).is_empty());
    }

    #[test]
    fn balances_uniform_costs_like_count_partition() {
        let costs = vec![3u64; 64];
        let ranges = partition_by_cost(&costs, 4);
        for r in &ranges {
            assert_eq!(r.len(), 16);
        }
    }

    #[test]
    fn heavy_item_gets_isolated() {
        // One item carrying ~all the cost should not drag a long tail
        // of light items into its chunk.
        let mut costs = vec![1u64; 32];
        costs[5] = 100_000;
        let ranges = partition_by_cost(&costs, 4);
        let heavy_chunk = ranges.iter().find(|r| r.contains(&5)).unwrap().clone();
        let heavy_cost: u64 = costs[heavy_chunk.clone()].iter().sum();
        // The heavy chunk ends right after the heavy item.
        assert_eq!(heavy_chunk.end, 6);
        assert!(heavy_cost >= 100_000);
    }

    #[test]
    fn deterministic_across_calls() {
        let costs: Vec<u64> = (0..257).map(|i| (i * 2654435761u64) % 997).collect();
        let a = partition_by_cost(&costs, 64);
        let b = partition_by_cost(&costs, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn max_chunk_overshoot_is_bounded_by_one_item() {
        let costs: Vec<u64> = (0..500).map(|i| 1 + (i * 7919) % 113).collect();
        let parts = 16;
        let total: u64 = costs.iter().sum();
        let max_item = *costs.iter().max().unwrap();
        let ranges = partition_by_cost(&costs, parts);
        for r in &ranges {
            let chunk: u64 = costs[r.clone()].iter().sum();
            // Greedy fair-share: a chunk closes at the first item that
            // reaches its share, so it exceeds the ideal share by less
            // than one item's cost.
            assert!(
                chunk <= total.div_ceil(parts as u64) + max_item,
                "chunk {r:?} cost {chunk} exceeds fair share + max item"
            );
        }
    }
}
