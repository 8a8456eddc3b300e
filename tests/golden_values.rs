//! Golden-value regression: the committed `tests/golden/*.golden`
//! snapshots must match freshly computed ones bit-for-bit.
//!
//! A failure here means the physics output moved — the energy bits or
//! the Born-radii digest changed for a bundled example molecule, either
//! in the full serial pipeline (`<case>.golden`) or in the incremental
//! delta engine's pinned perturbation script (`<case>_delta.golden`).
//! If the change is intentional, regenerate with `cargo xtask bless`
//! and commit the diff; if not, you have a regression.

use polaroct::golden::{
    cases, golden_dir, golden_file_names, snapshot, snapshot_delta, snapshot_delta_entry_impl,
    snapshot_delta_impl,
};

fn read_committed(file: &str) -> String {
    let path = golden_dir().join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run `cargo xtask bless` to create it",
            path.display()
        )
    })
}

#[test]
fn golden_snapshots_match_committed_files() {
    for c in cases() {
        let file = format!("{}.golden", c.name);
        let committed = read_committed(&file);
        let fresh = snapshot(c.name, &(c.make)());
        assert_eq!(
            fresh, committed,
            "golden mismatch for case `{}` ({file}):\n--- fresh ---\n{fresh}\n--- committed ---\n{committed}\n\
             if this change is intentional, run `cargo xtask bless` and commit the diff",
            c.name,
        );
    }
}

#[test]
fn delta_snapshots_match_committed_files() {
    for c in cases() {
        let file = format!("{}_delta.golden", c.name);
        let committed = read_committed(&file);
        let fresh = snapshot_delta(c.name, &(c.make)());
        assert_eq!(
            fresh, committed,
            "delta golden mismatch for case `{}` ({file}):\n--- fresh ---\n{fresh}\n--- committed ---\n{committed}\n\
             if this change is intentional, run `cargo xtask bless` and commit the diff",
            c.name,
        );
    }
}

/// The committed delta snapshots must certify that the pinned script was
/// actually served incrementally: no query rebuilt, and every query left
/// chunks in the cache (`chunks_redone < total_chunks`).
#[test]
fn delta_goldens_certify_incremental_service() {
    for c in cases() {
        let committed = read_committed(&format!("{}_delta.golden", c.name));
        let value = |key: &str| -> String {
            committed
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .unwrap_or_else(|| panic!("missing {key} in {}_delta.golden", c.name))
                .trim()
                .to_owned()
        };
        for qi in 0..3 {
            assert_eq!(
                value(&format!("query{qi}_rebuilt:")),
                "false",
                "case {} query {qi} fell off the incremental path",
                c.name
            );
            let cached: u64 = value(&format!("query{qi}_chunks_cached:")).parse().unwrap();
            let redone: u64 = value(&format!("query{qi}_chunks_redone:")).parse().unwrap();
            assert!(
                cached > 0,
                "case {} query {qi} cached no chunks (redone {redone})",
                c.name
            );
        }
        assert_eq!(value("base_energy_bits:"), value("reverted_energy_bits:"));
        assert_eq!(value("base_born_fnv1a:"), value("reverted_born_fnv1a:"));
    }
}

/// The committed batch sections must certify that the pinned 4-query
/// batch was served by entry-granular partial recompute: every query
/// redid strictly fewer entries than the total, at least one, and the
/// apply → revert loop left the base state bit-identical.
#[test]
fn delta_goldens_certify_batch_service() {
    for c in cases() {
        let committed = read_committed(&format!("{}_delta.golden", c.name));
        let value = |key: &str| -> String {
            committed
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .unwrap_or_else(|| panic!("missing {key} in {}_delta.golden", c.name))
                .trim()
                .to_owned()
        };
        let total_entries: u64 = value("total_entries:").parse().unwrap();
        for qi in 0..4 {
            let redone: u64 = value(&format!("batch{qi}_entries_redone:"))
                .parse()
                .unwrap();
            assert!(
                redone > 0 && redone < total_entries,
                "case {} batch query {qi}: {redone} of {total_entries} entries redone \
                 is not a partial-recompute service",
                c.name
            );
        }
        assert_eq!(
            value("base_energy_bits:"),
            value("post_batch_energy_bits:"),
            "case {}: the batch mutated the base energy",
            c.name
        );
        assert_eq!(
            value("base_born_fnv1a:"),
            value("post_batch_born_fnv1a:"),
            "case {}: the batch mutated the base Born radii",
            c.name
        );
    }
}

/// Recall: a deliberately stale cached chunk must change the snapshot —
/// i.e. the committed-file diff *would catch* a broken cache, not just
/// bless whatever the engine produces. Runs on the smallest case.
#[test]
fn delta_golden_catches_a_stale_cached_chunk() {
    let c = &cases()[0];
    let committed = read_committed(&format!("{}_delta.golden", c.name));
    let broken = snapshot_delta_impl(c.name, &(c.make)(), Some(1e-3));
    assert_ne!(
        broken, committed,
        "a corrupted chunk cache reproduced the committed snapshot — the golden diff has no recall"
    );
}

/// Entry-granular recall: corrupting a *single cached entry span* — the
/// smallest unit the entry-granular cache manages — must also change
/// the snapshot. This is strictly stronger than the whole-cache test
/// above: it proves per-entry staleness cannot hide inside an otherwise
/// clean chunk.
#[test]
fn delta_golden_catches_a_stale_cached_entry() {
    let c = &cases()[0];
    let committed = read_committed(&format!("{}_delta.golden", c.name));
    let broken = snapshot_delta_entry_impl(c.name, &(c.make)(), 0, 1e-3);
    assert_ne!(
        broken, committed,
        "a single corrupted entry span reproduced the committed snapshot — \
         the golden diff has no entry-level recall"
    );
}

#[test]
fn golden_dir_has_no_stale_files() {
    let expected = golden_file_names();
    let entries = std::fs::read_dir(golden_dir()).expect("tests/golden exists");
    for entry in entries {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            expected.contains(&name),
            "stale file tests/golden/{name}: no golden case produces it; delete it or add the case"
        );
    }
}
