//! The teeth of the CI gate: the workspace analysis must match the
//! checked-in ratchet baseline exactly — no new findings (fix or waive
//! at the site), no stale pins (re-bless with
//! `cargo xtask analyze --bless-baseline` after review). The passes'
//! own fixture suite lives in `crates/lintir/tests/`.

use std::path::PathBuf;

#[test]
fn the_workspace_is_ratcheted_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the workspace root")
        .to_path_buf();
    let (_diags, drifts) = xtask::analyze::check(&root).expect("workspace sources load");
    assert!(
        drifts.is_empty(),
        "ratchet drift against xtask/analyze.baseline:\n{}",
        drifts
            .iter()
            .map(|d| format!("  {d:?}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_json_report_carries_passes_and_drift() {
    let diag = lintir::Diagnostic {
        code: "US001",
        file: "a.rs".into(),
        line: 3,
        func: String::new(),
        anchor: "unsafe".into(),
        message: "`unsafe` \"outside\"".into(),
        path: Vec::new(),
    };
    let drift = lintir::Drift::New {
        key: diag.key(),
        have: 1,
        pinned: 0,
    };
    let js = xtask::analyze::report_json(&[diag], &[drift]);
    assert!(js.starts_with("{\n  \"passes\": [\n"), "{js}");
    assert!(js.contains("\\\"outside\\\""), "{js}");
    assert!(
        js.contains("{\"kind\":\"new\",\"key\":\"US001|a.rs||unsafe\",\"have\":1,\"pinned\":0}"),
        "{js}"
    );
    assert!(js.ends_with("  ]\n}\n"), "{js}");
}
