//! Property: interaction-list execution is **bit-identical** to the
//! recursive traversals it flattens — energies, Born radii, and kernel
//! pair counts — for random molecules, approximation parameters, pool
//! widths, and Verlet-skin inflations (including `skin = 0`, which must
//! be a bit-level no-op on the tree bounds).
//!
//! This is the determinism contract of `core::lists` (DESIGN.md §10):
//! Phase A computes pure per-entry outputs, Phase B replays the
//! recursion's floating-point add sequence in emission order, so the
//! thread count and the cost-balanced chunk boundaries cannot leak into
//! a single output bit.

mod common;

use common::{push, WIDTHS};
use polaroct_core::born::{born_radii_octree, BornAccumulators};
use polaroct_core::dual::{born_radii_dual, epol_dual_raw};
use polaroct_core::epol::{epol_octree_raw, ChargeBins};
use polaroct_core::lists::{BornLists, EpolLists};
use polaroct_geom::fastmath::MathMode;
use polaroct_sched::WorkStealingPool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lists_bit_identical_to_recursion(
        n in 80usize..240,
        seed in 0u64..1000,
        eps_i in 0usize..3,
        skin_i in 0usize..3,
    ) {
        let eps = [0.9, 0.5, 0.25][eps_i];
        let skin = [0.0, 0.7, 1.5][skin_i];
        let (_mol, _params, mut sys) = common::prepared_protein("prop", n, seed);
        // Recursion and list build read the same (inflated) bounds, so
        // bit-identity must hold at any skin — skin only changes *which*
        // pairs are classified far, identically for both paths.
        sys.atoms.inflate_radii(skin);
        sys.qtree.inflate_radii(skin);

        // --- Single-tree Born (Fig. 2 traversal).
        let (born_ref, born_rops) = born_radii_octree(&sys, eps, MathMode::Exact);
        let blists = BornLists::build_single(&sys, eps);
        for width in WIDTHS {
            let pool = width.map(WorkStealingPool::new);
            let mut acc = BornAccumulators::zeros(&sys);
            let mut ops = blists.execute(&sys, pool.as_ref(), &mut acc);
            let born = push(&sys, &acc, &mut ops);
            for (i, (a, b)) in born.iter().zip(&born_ref).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "single Born radius {} differs at width {:?}: {} vs {}", i, width, a, b);
            }
            prop_assert_eq!(ops.born_near, born_rops.born_near);
            prop_assert_eq!(ops.born_far, born_rops.born_far);
            prop_assert_eq!(ops.nodes_visited, born_rops.nodes_visited);
        }

        // --- Single-tree E_pol (Fig. 3 traversal), on the recursion's radii.
        let bins = ChargeBins::build(&sys, &born_ref, eps);
        let (raw_ref, epol_rops) = epol_octree_raw(&sys, &bins, &born_ref, eps, MathMode::Exact);
        let elists = EpolLists::build_single(&sys, &bins, eps);
        for width in WIDTHS {
            let pool = width.map(WorkStealingPool::new);
            let (raw, ops) = elists.execute(&sys, &bins, &born_ref, MathMode::Exact, pool.as_ref());
            prop_assert_eq!(raw.to_bits(), raw_ref.to_bits(),
                "single E_pol differs at width {:?}: {} vs {}", width, raw, raw_ref);
            prop_assert_eq!(ops.epol_near, epol_rops.epol_near);
            prop_assert_eq!(ops.epol_far, epol_rops.epol_far);
        }

        // --- Dual-tree Born ([6]'s OCT_CILK traversal).
        let (dual_ref, dual_rops) = born_radii_dual(&sys, eps, MathMode::Exact);
        let dlists = BornLists::build_dual(&sys, eps);
        for width in WIDTHS {
            let pool = width.map(WorkStealingPool::new);
            let mut acc = BornAccumulators::zeros(&sys);
            let mut ops = dlists.execute(&sys, pool.as_ref(), &mut acc);
            let born = push(&sys, &acc, &mut ops);
            for (a, b) in born.iter().zip(&dual_ref) {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "dual Born radius differs at width {:?}: {} vs {}", width, a, b);
            }
            prop_assert_eq!(ops.born_near, dual_rops.born_near);
            prop_assert_eq!(ops.born_far, dual_rops.born_far);
        }

        // --- Dual-tree E_pol.
        let dbins = ChargeBins::build(&sys, &dual_ref, eps);
        let (draw_ref, depol_rops) = epol_dual_raw(&sys, &dbins, &dual_ref, eps, MathMode::Exact);
        let delists = EpolLists::build_dual(&sys, &dbins, eps);
        for width in WIDTHS {
            let pool = width.map(WorkStealingPool::new);
            let (raw, ops) = delists.execute(&sys, &dbins, &dual_ref, MathMode::Exact, pool.as_ref());
            prop_assert_eq!(raw.to_bits(), draw_ref.to_bits(),
                "dual E_pol differs at width {:?}: {} vs {}", width, raw, draw_ref);
            prop_assert_eq!(ops.epol_near, depol_rops.epol_near);
            prop_assert_eq!(ops.epol_far, depol_rops.epol_far);
        }
    }
}
