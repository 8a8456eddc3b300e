//! Fixture suite for the passes.
//!
//! The fixtures live under `tests/fixtures/` (a directory
//! [`Workspace::load`] skips, so the intentionally broken code never
//! trips the real gate). Every expected finding is asserted with its
//! exact code, file, and line; every deliberate negative (waiver,
//! precision case) is asserted absent.

use lintir::graph::Workspace;
use lintir::passes::{analyze, Config};
use lintir::Diagnostic;
use std::path::Path;

const PA_ENTRY: &str = include_str!("fixtures/pa_entry.rs");
const PA_HELPER: &str = include_str!("fixtures/pa_helper.rs");
const DL_ENTRY: &str = include_str!("fixtures/dl_entry.rs");
const DL_HELPER: &str = include_str!("fixtures/dl_helper.rs");
const WIRE_FX: &str = include_str!("fixtures/wire_fx.rs");
const DT_FX: &str = include_str!("fixtures/dt_fx.rs");
const DT_TEST_CODE: &str = include_str!("fixtures/dt_test_code.rs");
const PANIC_PATHS: &str = include_str!("fixtures/panic_paths.rs");
const HASH_ITER: &str = include_str!("fixtures/hash_iter.rs");
const FLOAT_REDUCTION: &str = include_str!("fixtures/float_reduction.rs");
const UNSAFE_WITH_SAFETY: &str = include_str!("fixtures/unsafe_with_safety.rs");
const MISSING_FORBID: &str = include_str!("fixtures/missing_forbid.rs");

fn fixture_diags() -> Vec<Diagnostic> {
    let sources: Vec<(String, String)> = [
        ("pa_entry.rs", PA_ENTRY),
        ("pa_helper.rs", PA_HELPER),
        ("dl_entry.rs", DL_ENTRY),
        ("dl_helper.rs", DL_HELPER),
        ("wire_fx.rs", WIRE_FX),
        ("dt_fx.rs", DT_FX),
    ]
    .iter()
    .map(|(a, b)| (a.to_string(), b.to_string()))
    .collect();
    let ws = Workspace::from_sources(&sources);
    let cfg = Config {
        no_panic_files: vec!["pa_entry.rs".into()],
        entry_files: vec!["dl_entry.rs".into()],
        wire_files: vec!["wire_fx.rs".into()],
        blessed_float_files: Vec::new(),
    };
    analyze(&ws, &cfg)
}

/// No file lists.
fn bare_cfg() -> Config {
    Config {
        no_panic_files: Vec::new(),
        entry_files: Vec::new(),
        wire_files: Vec::new(),
        blessed_float_files: Vec::new(),
    }
}

/// Exact `(code, file, line)` findings of `files` analyzed as one
/// workspace.
fn findings(files: &[(&str, &str)], cfg: &Config) -> Vec<(String, String, usize)> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let diags = analyze(&Workspace::from_sources(&sources), cfg);
    keys(&diags.iter().collect::<Vec<_>>())
}

fn at(code: &str, file: &str, line: usize) -> (String, String, usize) {
    (code.into(), file.into(), line)
}

fn by_code<'a>(diags: &'a [Diagnostic], prefix: &str) -> Vec<&'a Diagnostic> {
    diags.iter().filter(|d| d.code.starts_with(prefix)).collect()
}

fn keys(diags: &[&Diagnostic]) -> Vec<(String, String, usize)> {
    diags
        .iter()
        .map(|d| (d.code.to_string(), d.file.clone(), d.line))
        .collect()
}

#[test]
fn panic_reachability_exact_findings() {
    let diags = fixture_diags();
    let pa = by_code(&diags, "PA");
    assert_eq!(
        keys(&pa),
        vec![
            ("PA002".into(), "pa_helper.rs".into(), 4),
            ("PA005".into(), "pa_helper.rs".into(), 17),
            ("PA004".into(), "pa_helper.rs".into(), 19),
            ("PA003".into(), "pa_helper.rs".into(), 20),
            ("PA001".into(), "pa_helper.rs".into(), 32),
        ],
        "PA findings: {pa:#?}"
    );
    // The transitive unwrap carries the full call path from the root.
    let unwrap = pa.iter().find(|d| d.code == "PA002").unwrap();
    assert_eq!(unwrap.func, "helper_unwrap");
    assert!(!unwrap.path.is_empty());
    assert!(unwrap.path[0].contains("driver"), "path: {:?}", unwrap.path);
    assert!(unwrap.path.last().unwrap().contains("helper_unwrap"));
    // Two-call-deep helper chain: deep_entry -> helper_chain -> inner.
    let slice = pa.iter().find(|d| d.code == "PA003").unwrap();
    assert_eq!(slice.func, "inner");
    assert_eq!(slice.anchor, "src[…]");
    assert_eq!(slice.path.len(), 3, "path: {:?}", slice.path);
    assert!(slice.path[0].contains("deep_entry"));
    assert!(slice.path[1].contains("helper_chain"));
}

#[test]
fn panic_waiver_and_unreachable_precision() {
    let diags = fixture_diags();
    // `helper_macro_waived` has a `// PANIC-OK:` above its panic!.
    assert!(
        !diags.iter().any(|d| d.file == "pa_helper.rs" && d.line == 9),
        "waived panic! must not be reported"
    );
    // `unreached` unwraps but is not reachable from the no-panic zone.
    assert!(
        !diags.iter().any(|d| d.file == "pa_helper.rs" && d.line == 28),
        "unreachable fn must not be reported"
    );
}

#[test]
fn deadline_exact_findings() {
    let diags = fixture_diags();
    let dl = by_code(&diags, "DL");
    assert_eq!(
        keys(&dl),
        vec![
            ("DL001".into(), "dl_entry.rs".into(), 4),
            ("DL002".into(), "dl_entry.rs".into(), 12),
            ("DL001".into(), "dl_helper.rs".into(), 5),
        ],
        "DL findings: {dl:#?}"
    );
    let blind = dl.iter().find(|d| d.file == "dl_entry.rs" && d.code == "DL001").unwrap();
    assert_eq!(blind.func, "pump");
    assert_eq!(blind.anchor, "recv");
    assert!(blind.path.is_empty(), "root-level finding needs no path");
    // The helper is one call away; the path names the entry point.
    let reached = dl.iter().find(|d| d.file == "dl_helper.rs").unwrap();
    assert_eq!(reached.func, "blind_read");
    assert_eq!(reached.anchor, "read_exact");
    assert!(reached.path[0].contains("outer"), "path: {:?}", reached.path);
}

#[test]
fn deadline_negatives() {
    let diags = fixture_diags();
    // timeout param bounds pump_bounded (line 8); waiver covers line 17;
    // setter_first sets a timeout before reading (line 26).
    for line in [8, 17, 26] {
        assert!(
            !diags.iter().any(|d| d.file == "dl_entry.rs" && d.line == line),
            "dl_entry.rs:{line} must be clean"
        );
    }
}

#[test]
fn wire_totality_exact_findings() {
    let diags = fixture_diags();
    let wp = by_code(&diags, "WP");
    assert_eq!(
        keys(&wp),
        vec![
            ("WP001".into(), "wire_fx.rs".into(), 5),
            ("WP002".into(), "wire_fx.rs".into(), 6),
            ("WP003".into(), "wire_fx.rs".into(), 24),
            ("WP004".into(), "wire_fx.rs".into(), 28),
        ],
        "WP findings: {wp:#?}"
    );
    assert_eq!(wp[0].anchor, "ENC_ONLY");
    assert_eq!(wp[1].anchor, "DEC_ONLY");
    assert_eq!(wp[2].anchor, "tag 2");
    assert_eq!(wp[2].func, "put_mode");
    assert_eq!(wp[3].anchor, "tag 9");
    assert_eq!(wp[3].func, "get_mode");
    // BOTH (line 4) is total; WAIVED (line 8) carries a WIRE-OK.
    assert!(!diags.iter().any(|d| d.file == "wire_fx.rs" && (d.line == 4 || d.line == 8)));
}

#[test]
fn determinism_exact_findings() {
    let diags = fixture_diags();
    let dt = by_code(&diags, "DT");
    assert_eq!(
        keys(&dt),
        vec![
            ("DT001".into(), "dt_fx.rs".into(), 5),
            ("DT001".into(), "dt_fx.rs".into(), 12),
            ("DT002".into(), "dt_fx.rs".into(), 18),
            ("DT002".into(), "dt_fx.rs".into(), 29),
        ],
        "DT findings: {dt:#?}"
    );
    assert_eq!(dt[0].func, "hash_loop");
    assert!(dt[1].anchor.contains("sum"), "anchor: {}", dt[1].anchor);
    assert_eq!(dt[2].func, "pool_float");
    // Indirect accumulation through `add_into(&mut e, …)`.
    assert!(dt[3].anchor.contains("add_into"), "anchor: {}", dt[3].anchor);
}

#[test]
fn determinism_negatives() {
    let diags = fixture_diags();
    // pool_local_ok: closure-local integer bookkeeping (lines 33-38);
    // hash_waived: DETERMINISM-OK above the loop (lines 40-47).
    assert!(
        !diags.iter().any(|d| d.file == "dt_fx.rs" && d.line >= 33),
        "precision/waiver cases must be clean: {:#?}",
        by_code(&diags, "DT")
    );
}

#[test]
fn fixture_total_is_pinned() {
    // Guards against silent new findings creeping into the fixtures.
    assert_eq!(fixture_diags().len(), 16);
}

#[test]
fn panic_calls_inside_a_no_panic_file_are_flagged() {
    let file = "np/panic_paths.rs";
    let cfg = Config {
        no_panic_files: vec![file.into()],
        ..bare_cfg()
    };
    // Line 20 is waived from the line above, 24 on its own line; 28 is
    // a string literal; 36 is `#[cfg(test)]` code.
    assert_eq!(
        findings(&[(file, PANIC_PATHS)], &cfg),
        vec![
            at("PA002", file, 5),
            at("PA002", file, 9),
            at("PA001", file, 14)
        ]
    );
    // Outside the no-panic zone nothing roots the pass.
    assert_eq!(findings(&[(file, PANIC_PATHS)], &bare_cfg()), vec![]);
}

#[test]
fn hash_order_accumulation_is_flagged() {
    // Clean: a waived loop (21), a BTreeMap (29), a non-folding chain (36).
    let file = "hash_iter.rs";
    assert_eq!(
        findings(&[(file, HASH_ITER)], &bare_cfg()),
        vec![at("DT001", file, 8), at("DT001", file, 15)]
    );
}

#[test]
fn captured_float_accumulators_are_flagged_outside_blessed_files() {
    // Clean: a closure-local accumulator (15) and a waived one (24).
    let file = "float_reduction.rs";
    assert_eq!(
        findings(&[(file, FLOAT_REDUCTION)], &bare_cfg()),
        vec![at("DT002", file, 7)]
    );
    let blessed = Config {
        blessed_float_files: vec![file.into()],
        ..bare_cfg()
    };
    assert_eq!(findings(&[(file, FLOAT_REDUCTION)], &blessed), vec![]);
}

#[test]
fn test_code_is_checked_for_determinism() {
    // A `#[test]` fn in a source file, and a plain fn in a `tests/` file.
    for file in [
        "crates/fx/src/dt_test_code.rs",
        "crates/fx/tests/dt_test_code.rs",
    ] {
        assert_eq!(
            findings(&[(file, DT_TEST_CODE)], &bare_cfg()),
            vec![at("DT001", file, 5), at("DT001", file, 16)]
        );
    }
}

#[test]
fn unsafe_is_flagged_everywhere_regardless_of_comments() {
    for file in [
        "crates/sched/src/pool.rs",
        "crates/fx/tests/it.rs",
        "crates/fx/benches/b.rs",
        "vendor/v/src/m.rs",
    ] {
        assert_eq!(
            findings(&[(file, UNSAFE_WITH_SAFETY)], &bare_cfg()),
            vec![at("US001", file, 7)]
        );
    }
}

#[test]
fn crate_roots_must_forbid_unsafe_code() {
    let root = "crates/fx/src/lib.rs";
    assert_eq!(
        findings(&[(root, MISSING_FORBID)], &bare_cfg()),
        vec![at("US003", root, 1)]
    );
    // The same file as a plain module is not a crate root.
    assert_eq!(
        findings(&[("crates/fx/src/m.rs", MISSING_FORBID)], &bare_cfg()),
        vec![]
    );
    // deny is not enough in any crate root, binaries and vendored
    // crates included.
    let deny = "#![deny(unsafe_code)]\npub fn f() {}\n";
    for root in [
        root,
        "crates/sched/src/lib.rs",
        "crates/fx/src/main.rs",
        "crates/fx/src/bin/tool.rs",
        "vendor/v/src/lib.rs",
    ] {
        assert_eq!(
            findings(&[(root, deny)], &bare_cfg()),
            vec![at("US003", root, 1)]
        );
    }
}

/// [`Workspace::load`] sees every `.rs` file outside `target/`,
/// `fixtures/` and `related/`: a determinism or unsafe violation in
/// `#[cfg(test)]` code, a `tests/` or `benches/` file, or a `vendor/`
/// crate root is reported.
#[test]
fn a_loaded_workspace_covers_test_bench_and_vendor_trees() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lintir_load_coverage");
    let _ = std::fs::remove_dir_all(&dir);
    let hash_sum = "pub fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum() }\n";
    let unsafe_block = "pub fn g(p: *mut u8) { unsafe { p.write(0) } }\n";
    let files = [
        ("crates/fx/src/lib.rs", "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod tests {\n    fn f(pool: &Pool) -> f64 {\n        let mut e = 0.0;\n        pool.run(|| { e += 1.0; });\n        e\n    }\n}\n"),
        ("crates/fx/tests/it.rs", hash_sum),
        ("crates/fx/benches/b.rs", unsafe_block),
        ("vendor/v/src/lib.rs", "pub fn v() {}\n"),
        ("target/skipped.rs", unsafe_block),
        ("crates/fx/tests/fixtures/skipped.rs", unsafe_block),
        ("related/skipped.rs", unsafe_block),
    ];
    for (rel, src) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }
    let ws = Workspace::load(&dir).unwrap();
    let got = keys(&analyze(&ws, &Config::default()).iter().collect::<Vec<_>>());
    assert_eq!(
        got,
        vec![
            at("US001", "crates/fx/benches/b.rs", 1),
            at("DT002", "crates/fx/src/lib.rs", 6),
            at("DT001", "crates/fx/tests/it.rs", 1),
            at("US003", "vendor/v/src/lib.rs", 1),
        ]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
