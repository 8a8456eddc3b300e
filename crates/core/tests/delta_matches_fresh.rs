//! Differential bit-identity harness for the incremental ΔE_pol engine
//! (`core::delta`, DESIGN.md §14–15).
//!
//! The contract under test: every [`DeltaEngine::apply_perturbation`]
//! result — raw sum, energy, Born radii — is **bit-identical** to a
//! fresh, from-scratch full run of the list pipeline at the same state:
//!
//! * an *incremental* query equals a fresh [`ListEngine`] prepared at
//!   the engine's scaffold geometry (with the current charges) and
//!   evaluated at the perturbed positions — exactly the computation the
//!   engine claims to be skipping chunks of;
//! * a *rebuilt* query (skin boundary crossed) equals a fresh engine
//!   prepared directly at the perturbed geometry.
//!
//! On top of that: reverting a chain restores the original bits exactly,
//! incremental queries with few moved atoms must actually skip work
//! (`chunks_redone < total_chunks`), a stale cached chunk or entry span
//! is visible to the comparison, and the FT path (a poisoned dirty entry
//! recovered by serial re-execution) changes no bits either.

mod common;

use polaroct_cluster::comm::checksum;
use polaroct_cluster::fault::{phase, FaultPlan};
use polaroct_core::delta::{DeltaEngine, Perturbation};
use polaroct_core::lists::ListEngine;
use polaroct_core::ApproxParams;
use polaroct_geom::Vec3;
use polaroct_molecule::{synth, Molecule};
use polaroct_sched::WorkStealingPool;
use proptest::prelude::*;

/// Full-pipeline reference for the engine's current state: a fresh
/// engine prepared at the scaffold with the current charges, evaluated
/// at the current positions. Returns `(raw, energy, born_digest)` bits.
fn fresh_reference(
    eng: &DeltaEngine,
    mol: &Molecule,
    approx: &ApproxParams,
    skin: f64,
) -> (u64, u64, u64) {
    let mut m = mol.clone();
    m.positions = eng.reference_positions().to_vec();
    m.charges = eng.charges().to_vec();
    let mut fresh = ListEngine::new(&m, approx, skin);
    let eval = fresh.evaluate(eng.positions());
    let digest = checksum(&fresh.system().to_original_atom_order(fresh.born()));
    (eval.raw.to_bits(), eval.energy_kcal.to_bits(), digest)
}

/// splitmix64 — deterministic perturbation stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [-1, 1).
fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Molecules × ε × skin × k-atom moves × charge mutations × a
    /// 3-query chain with full revert: every query bit-matches its fresh
    /// reference, incremental queries skip work, the revert chain
    /// restores the original bits.
    #[test]
    fn delta_matches_fresh(
        n in 60usize..160,
        seed in 0u64..1000,
        eps_i in 0usize..3,
        skin_i in 0usize..3,
        k in 1usize..6,
        n_charges in 0usize..3,
        pert_seed in 0u64..1000,
    ) {
        let eps = [0.9, 0.5, 0.25][eps_i];
        let skin = [0.5, 0.8, 1.2][skin_i];
        let approx = ApproxParams::default().with_eps(eps, eps);
        let mol = synth::protein("delta", n, seed);
        let mut eng = DeltaEngine::new(&mol, &approx, skin);

        let raw0 = eng.raw().to_bits();
        let energy0 = eng.energy_kcal().to_bits();
        let digest0 = eng.born_digest();

        let mut rng = pert_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
        for query in 0..3usize {
            let mut p = Perturbation::default();
            // Moves stay inside 0.2·skin per component, so the first
            // query is incremental; cumulative drift across the chain
            // may legally cross the boundary and exercise the rebuild.
            for _ in 0..k {
                let atom = (mix(&mut rng) % n as u64) as usize;
                let d = Vec3::new(
                    unit(&mut rng) * 0.2 * skin,
                    unit(&mut rng) * 0.2 * skin,
                    unit(&mut rng) * 0.2 * skin,
                );
                p = p.move_atom(atom, eng.positions()[atom] + d);
            }
            for _ in 0..n_charges {
                let atom = (mix(&mut rng) % n as u64) as usize;
                p = p.set_charge(atom, unit(&mut rng) * 2.0);
            }
            let eval = eng.apply_perturbation(&p, None);

            let (raw, energy, digest) = fresh_reference(&eng, &mol, &approx, skin);
            prop_assert_eq!(eval.raw.to_bits(), raw,
                "query {} raw mismatch (rebuilt={})", query, eval.rebuilt);
            prop_assert_eq!(eval.energy_kcal.to_bits(), energy);
            prop_assert_eq!(eng.born_digest(), digest);

            prop_assert_eq!(
                eval.chunks_redone + eval.chunks_cached,
                eval.total_chunks
            );
            if !eval.rebuilt {
                // Few moved atoms ⇒ work actually skipped: far-only
                // chunks (and near chunks whose leaves hold no touched
                // atom) must be served from the cache.
                prop_assert!(
                    eval.chunks_redone < eval.total_chunks,
                    "query {} redid all {} chunks for k={} moves",
                    query, eval.total_chunks, k
                );
            } else {
                prop_assert_eq!(eval.chunks_cached, 0);
            }
        }

        // Unwind the whole chain: bits must come back exactly.
        prop_assert_eq!(eng.pending_perturbations(), 3);
        for _ in 0..3 {
            prop_assert!(eng.revert(None));
        }
        prop_assert!(!eng.revert(None));
        prop_assert_eq!(eng.raw().to_bits(), raw0);
        prop_assert_eq!(eng.energy_kcal().to_bits(), energy0);
        prop_assert_eq!(eng.born_digest(), digest0);
        for (a, b) in eng.positions().iter().zip(&mol.positions) {
            prop_assert_eq!(a, b);
        }
        for (a, b) in eng.charges().iter().zip(&mol.charges) {
            prop_assert_eq!(a, b);
        }
    }
}

/// A deliberately stale cached chunk cannot survive the harness: corrupt
/// every cached Phase-A E_pol output, run an identity query (nothing is
/// dirty, so nothing is recomputed), and the result must *differ* from
/// the fresh reference — proving the differential comparison has recall,
/// not just precision.
#[test]
fn stale_cached_chunk_is_caught() {
    let approx = ApproxParams::default();
    let skin = 1.0;
    let mol = synth::protein("stale", 130, 23);
    let mut eng = DeltaEngine::new(&mol, &approx, skin);
    eng.debug_corrupt_cached_epol_outputs(1e-3);
    let eval = eng.apply_perturbation(&Perturbation::default(), None);
    let (raw, _, _) = fresh_reference(&eng, &mol, &approx, skin);
    assert_ne!(
        eval.raw.to_bits(),
        raw,
        "corrupted cache produced the reference bits — the harness has no recall"
    );
}

/// Entry-level recall and repair: corrupt exactly one cached E_pol entry
/// value. An identity query (nothing dirty) must show the corruption, and
/// a query moving an atom inside that entry's node range must mark the
/// entry dirty, recompute its span and bit-match an uncorrupted engine —
/// dirtiness tracking at entry resolution, not just chunk resolution.
#[test]
fn stale_cached_entry_is_caught_and_recomputed() {
    let approx = ApproxParams::default();
    let skin = 1.0;
    let mol = synth::protein("stale-entry", 130, 23);
    let mut eng = DeltaEngine::new(&mol, &approx, skin);
    let clean_raw = eng.raw().to_bits();
    let (entry_id, probe_atom) = eng.debug_near_epol_entry_probe();
    eng.debug_corrupt_cached_epol_entry(entry_id, 1e-3);

    let stale = eng.apply_perturbation(&Perturbation::default(), None);
    assert_ne!(
        stale.raw.to_bits(),
        clean_raw,
        "a stale cached entry span must be visible to the harness"
    );
    assert!(eng.revert(None));

    let q = Perturbation::default().move_atom(
        probe_atom,
        mol.positions[probe_atom] + Vec3::new(0.05, 0.0, 0.0),
    );
    let mut clean = DeltaEngine::new(&mol, &approx, skin);
    let want = clean.apply_perturbation(&q, None);
    let got = eng.apply_perturbation(&q, None);
    assert_eq!(
        got.raw.to_bits(),
        want.raw.to_bits(),
        "query moving atom {probe_atom} (inside entry {entry_id}'s node range) \
         did not recompute the corrupted entry"
    );
    assert_eq!(eng.born_digest(), clean.born_digest());
}

/// FT: a worker panic poisoning one dirty Born chunk is contained by the
/// pool and the chunk re-executes serially — same bits as a clean run.
#[test]
fn poisoned_born_chunk_recovers_bit_identically() {
    let approx = ApproxParams::default();
    let skin = 1.0;
    let mol = synth::protein("deltaft", 150, 4);
    let mut clean = DeltaEngine::new(&mol, &approx, skin);
    let mut faulty = DeltaEngine::new(&mol, &approx, skin);
    let pool = WorkStealingPool::new(3);
    let p = Perturbation::default()
        .move_atom(12, mol.positions[12] + Vec3::new(0.2, -0.1, 0.1))
        .move_atom(90, mol.positions[90] + Vec3::new(-0.1, 0.2, 0.0));
    let ec = clean.apply_perturbation(&p, Some(&pool));
    assert!(!ec.rebuilt && ec.born_chunks_redone > 0);

    let plan = FaultPlan::new(7).panic_worker(0, phase::INTEGRALS);
    let ef = faulty.apply_perturbation_ft(&p, &pool, &plan);
    assert_eq!(ef.recovered_chunks, 1, "exactly one poisoned chunk");
    assert_eq!(ef.raw.to_bits(), ec.raw.to_bits());
    assert_eq!(ef.energy_kcal.to_bits(), ec.energy_kcal.to_bits());
    assert_eq!(faulty.born_digest(), clean.born_digest());
}

/// Same containment for a poisoned E_pol chunk.
#[test]
fn poisoned_epol_chunk_recovers_bit_identically() {
    let approx = ApproxParams::default();
    let skin = 1.0;
    let mol = synth::protein("deltaft", 150, 4);
    let mut clean = DeltaEngine::new(&mol, &approx, skin);
    let mut faulty = DeltaEngine::new(&mol, &approx, skin);
    let pool = WorkStealingPool::new(3);
    let p = Perturbation::default()
        .move_atom(33, mol.positions[33] + Vec3::new(0.15, 0.1, -0.2))
        .set_charge(70, 2.0);
    let ec = clean.apply_perturbation(&p, Some(&pool));
    assert!(!ec.rebuilt && ec.epol_chunks_redone > 0);

    let plan = FaultPlan::new(11).panic_worker(0, phase::EPOL);
    let ef = faulty.apply_perturbation_ft(&p, &pool, &plan);
    assert_eq!(ef.recovered_chunks, 1, "exactly one poisoned chunk");
    assert_eq!(ef.raw.to_bits(), ec.raw.to_bits());
    assert_eq!(ef.energy_kcal.to_bits(), ec.energy_kcal.to_bits());
    assert_eq!(faulty.born_digest(), clean.born_digest());
}
