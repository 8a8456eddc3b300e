//! Self-tests for `cargo xtask analyze`: each fixture seeds specific
//! violations and the linter must flag exactly the marked file:line
//! pairs — no more (precision), no fewer (recall). The final test runs
//! the real workspace and demands a clean bill, which is what makes the
//! CI gate trustworthy.

use std::path::PathBuf;
use xtask::analyze::{classify, lint_source, lint_workspace, FileClass, Finding};

fn findings_of(src: &str, class: &FileClass) -> Vec<(usize, &'static str)> {
    lint_source("fixture.rs", src, class)
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

#[test]
fn missing_safety_comments_are_flagged_in_the_allowlisted_crate() {
    let src = include_str!("fixtures/missing_safety.rs");
    let class = FileClass {
        unsafe_allowed: true,
        ..FileClass::default()
    };
    assert_eq!(
        findings_of(src, &class),
        vec![(5, "unsafe-safety-comment"), (31, "unsafe-safety-comment")],
    );
}

#[test]
fn unsafe_outside_the_allowlist_is_flagged_regardless_of_comments() {
    let src = include_str!("fixtures/unsafe_outside_allowlist.rs");
    assert_eq!(
        findings_of(src, &FileClass::default()),
        vec![(7, "unsafe-forbidden")],
    );
}

#[test]
fn panic_paths_are_flagged_with_waivers_and_tests_exempt() {
    let src = include_str!("fixtures/panic_paths.rs");
    let class = FileClass {
        no_panic: true,
        ..FileClass::default()
    };
    assert_eq!(
        findings_of(src, &class),
        vec![
            (5, "no-panic-paths"),
            (9, "no-panic-paths"),
            (14, "no-panic-paths"),
        ],
    );
}

#[test]
fn panic_tokens_do_not_fire_without_the_no_panic_class() {
    let src = include_str!("fixtures/panic_paths.rs");
    assert_eq!(findings_of(src, &FileClass::default()), vec![]);
}

#[test]
fn hash_iteration_accumulation_is_flagged() {
    let src = include_str!("fixtures/hash_iter.rs");
    assert_eq!(
        findings_of(src, &FileClass::default()),
        vec![(8, "hash-iter-accumulation"), (15, "hash-iter-accumulation")],
    );
}

#[test]
fn captured_float_accumulators_in_parallel_closures_are_flagged() {
    let src = include_str!("fixtures/float_reduction.rs");
    assert_eq!(
        findings_of(src, &FileClass::default()),
        vec![(7, "float-reduction-blessing")],
    );
}

#[test]
fn blessed_files_may_reduce_floats() {
    let src = include_str!("fixtures/float_reduction.rs");
    let class = FileClass {
        blessed_float: true,
        ..FileClass::default()
    };
    assert_eq!(findings_of(src, &class), vec![]);
}

#[test]
fn crate_roots_must_carry_the_unsafe_attr() {
    let src = include_str!("fixtures/missing_forbid.rs");
    let class = FileClass {
        crate_root: true,
        ..FileClass::default()
    };
    assert_eq!(findings_of(src, &class), vec![(1, "unsafe-attr")]);
    // The allowlisted crate may settle for deny + per-site allows.
    let deny_src = "#![deny(unsafe_code)]\npub fn f() {}\n";
    let allowlisted = FileClass {
        crate_root: true,
        unsafe_allowed: true,
        ..FileClass::default()
    };
    assert_eq!(findings_of(deny_src, &allowlisted), vec![]);
    assert_eq!(
        findings_of(deny_src, &class),
        vec![(1, "unsafe-attr")],
        "deny is not enough outside the allowlist"
    );
}

#[test]
fn classify_knows_the_project_layout() {
    assert!(classify("crates/cluster/src/comm.rs").no_panic);
    assert!(classify("crates/cluster/src/wire.rs").no_panic);
    assert!(classify("crates/cluster/src/proc.rs").no_panic);
    assert!(classify("crates/cluster/src/transport.rs").no_panic);
    assert!(classify("crates/core/src/procexec.rs").no_panic);
    assert!(classify("crates/core/src/drivers.rs").no_panic);
    assert!(classify("crates/octree/src/build.rs").no_panic);
    assert!(!classify("crates/core/src/energy.rs").no_panic);
    assert!(classify("crates/core/src/soa.rs").blessed_float);
    assert!(classify("crates/sched/src/pool.rs").unsafe_allowed);
    assert!(!classify("crates/core/src/soa.rs").unsafe_allowed);
    assert!(classify("crates/core/src/lib.rs").crate_root);
    assert!(!classify("crates/core/src/lib_helpers.rs").crate_root);
}

/// The teeth of the CI gate: the actual workspace must be clean. If a
/// rule fires here, either the code regressed or the rule needs a
/// documented waiver at the site — not a weaker linter.
#[test]
fn the_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the workspace root")
        .to_path_buf();
    let findings: Vec<Finding> = lint_workspace(&root);
    assert!(
        findings.is_empty(),
        "workspace lint findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Same teeth for the interprocedural passes: the workspace analysis
/// must match the checked-in ratchet baseline exactly — no new
/// findings (fix or waive at the site), no stale pins (re-bless with
/// `cargo xtask analyze --bless-baseline` after review).
#[test]
fn the_workspace_passes_are_ratcheted_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the workspace root")
        .to_path_buf();
    let (_diags, drifts) =
        xtask::analyze::interprocedural(&root).expect("workspace sources load");
    assert!(
        drifts.is_empty(),
        "ratchet drift against xtask/analyze.baseline:\n{}",
        drifts.iter().map(|d| format!("  {d:?}")).collect::<Vec<_>>().join("\n")
    );
}
