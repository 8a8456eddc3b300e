//! Fixture: accumulation over HashMap/HashSet iteration order.
//! Expected: DT001 at the lines marked FLAG below.

use std::collections::{BTreeMap, HashMap, HashSet};

pub fn bad_sum(weights: &HashMap<usize, f64>) -> f64 {
    let mut total = 0.0;
    for (_k, w) in weights.iter() { // FLAG line 8
        total += w;
    }
    total
}

pub fn bad_chain(seen: &HashSet<u64>) -> u64 {
    seen.iter().copied().sum() // FLAG line 15
}

pub fn waived_sum(weights: &HashMap<usize, f64>) -> f64 {
    let mut total = 0.0;
    // DETERMINISM-OK: integer-exact values; order cannot change the sum.
    for (_k, w) in weights.iter() {
        total += w;
    }
    total
}

pub fn ordered_is_fine(ordered: &BTreeMap<usize, f64>) -> f64 {
    let mut total = 0.0;
    for (_k, w) in ordered.iter() {
        total += w;
    }
    total
}

pub fn non_accumulating_iteration(weights: &HashMap<usize, f64>) -> usize {
    weights.iter().filter(|(_, w)| **w > 0.0).count()
}
