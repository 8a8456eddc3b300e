//! Property: the streamed Born pass — each entry folded into the
//! accumulators as the traversal emits it, with no list
//! ([`BornLists::fold_single`] / [`BornLists::fold_dual`]) — is
//! **bit-identical** to building the list and executing it, serially
//! (which folds the list in order) and in two phases over real pools of
//! 1, 3 and 8 workers. Every per-node and per-atom accumulator and all
//! three op counters must match, single- and dual-tree, across ε and
//! Verlet-skin inflations.
//!
//! Why it holds (DESIGN.md §10.4): every accumulator slot is owned by
//! one atoms node `e.a`. The single-tree emission is already in list
//! order; the dual-tree list is its emission stably sorted by `e.a`, so
//! each slot receives the same adds in the same order either way.

mod common;

use polaroct_cluster::simtime::OpCounts;
use polaroct_core::born::BornAccumulators;
use polaroct_core::lists::BornLists;
use polaroct_core::GbSystem;
use polaroct_sched::WorkStealingPool;
use proptest::prelude::*;

/// Pool widths the list side executes under besides serial.
const POOLS: [usize; 3] = [1, 3, 8];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Assert `got` equals `want` slot for slot and op for op.
fn check(what: &str, got: (&BornAccumulators, OpCounts), want: (&BornAccumulators, OpCounts)) {
    prop_assert_eq!(
        bits(&got.0.node),
        bits(&want.0.node),
        "{}: node accumulators",
        what
    );
    prop_assert_eq!(
        bits(&got.0.atom),
        bits(&want.0.atom),
        "{}: atom accumulators",
        what
    );
    prop_assert_eq!(
        got.1.nodes_visited,
        want.1.nodes_visited,
        "{}: nodes_visited",
        what
    );
    prop_assert_eq!(got.1.born_near, want.1.born_near, "{}: born_near", what);
    prop_assert_eq!(got.1.born_far, want.1.born_far, "{}: born_far", what);
}

/// One traversal: its streamed pass against its list, executed serially
/// and over every pool width. Returns the list's far entry count.
fn stream_vs_list(
    sys: &GbSystem,
    what: &str,
    stream: impl Fn(&mut BornAccumulators) -> OpCounts,
    lists: &BornLists,
) -> usize {
    let mut streamed = BornAccumulators::zeros(sys);
    let sops = stream(&mut streamed);
    prop_assert!(
        lists.entries.iter().any(|e| !e.far),
        "{}: no near entries",
        what
    );
    let pools = POOLS.map(|w| Some(WorkStealingPool::new(w)));
    for pool in std::iter::once(None).chain(pools) {
        let mut acc = BornAccumulators::zeros(sys);
        let ops = lists.execute(sys, pool.as_ref(), &mut acc);
        let at = format!("{what} pool {:?}", pool.as_ref().map(|p| p.width()));
        check(&at, (&streamed, sops), (&acc, ops));
    }
    lists.entries.iter().filter(|e| e.far).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn born_stream_matches_lists(n in 80usize..240, seed in 0u64..1000) {
        let (_mol, _params, base) = common::prepared_protein("stream", n, seed);
        // Small molecules at tight ε may have no far pair at all; the
        // far branch must still run somewhere in each case.
        let (mut single_far, mut dual_far) = (0, 0);
        for skin in [0.0, 0.7] {
            let mut sys = base.clone();
            sys.atoms.inflate_radii(skin);
            sys.qtree.inflate_radii(skin);
            for eps in [0.9, 0.25] {
                let what = format!("n {n} seed {seed} skin {skin} eps {eps}");
                single_far += stream_vs_list(
                    &sys,
                    &format!("single {what}"),
                    |acc| BornLists::fold_single(&sys, eps, acc),
                    &BornLists::build_single(&sys, eps),
                );
                dual_far += stream_vs_list(
                    &sys,
                    &format!("dual {what}"),
                    |acc| BornLists::fold_dual(&sys, eps, acc),
                    &BornLists::build_dual(&sys, eps),
                );
            }
        }
        prop_assert!(single_far > 0 && dual_far > 0, "no far entries: {} {}", single_far, dual_far);
    }
}
