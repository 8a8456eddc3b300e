//! Property: the real-thread driver agrees with the serial driver on
//! randomly sized/seeded molecules, for every thread count — the block
//! reduction may reassociate floating-point sums but must never change
//! what is computed.

mod common;

use polaroct_cluster::fault::FaultPlan;
use polaroct_core::drivers::DriverConfig;
use polaroct_core::{run_oct_threads_ft, run_serial};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn threads_match_serial_for_random_molecules(n in 60usize..220, seed in 0u64..1000) {
        let (_mol, params, sys) = common::prepared_protein("prop", n, seed);
        let cfg = DriverConfig::default();
        let serial = run_serial(&sys, &params, &cfg).unwrap();
        let mut first_bits = None;
        for threads in [1usize, 2, 4, 8] {
            let thr = run_oct_threads_ft(&sys, &params, &cfg, threads, &FaultPlan::none()).unwrap();
            let rel = ((thr.energy_kcal - serial.energy_kcal) / serial.energy_kcal).abs();
            prop_assert!(
                rel <= 1e-12,
                "threads={} energy {} vs serial {} (rel {})",
                threads, thr.energy_kcal, serial.energy_kcal, rel
            );
            // And bit-identical across widths (deterministic reduction).
            let bits = thr.energy_kcal.to_bits();
            prop_assert_eq!(*first_bits.get_or_insert(bits), bits);
        }
    }
}
