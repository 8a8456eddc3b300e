//! `cargo xtask analyze`: the project-invariant gate.
//!
//! A thin runner over [`lintir`]: load the workspace, run its passes
//! (`PA` panic reachability, `DL` deadline boundedness, `WP`
//! wire-protocol totality, `DT` determinism dataflow, `US` unsafe
//! hygiene) under [`lintir::Config::default`], the one place the
//! project's file lists live, and compare the diagnostics against the
//! checked-in ratchet baseline (`xtask/analyze.baseline`): new findings
//! or stale pins fail the run. `--format json` emits the full
//! machine-readable report; `--bless-baseline` regenerates the pin set.
//! DESIGN.md §13 documents the passes.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Workspace-relative location of the ratchet baseline.
pub const BASELINE_REL: &str = "xtask/analyze.baseline";

/// Run every pass on the workspace at `root` and compare against the
/// checked-in ratchet baseline. Returns `(diagnostics, drifts)`.
pub fn check(root: &Path) -> std::io::Result<(Vec<lintir::Diagnostic>, Vec<lintir::Drift>)> {
    let ws = lintir::Workspace::load(root)?;
    let diags = lintir::analyze(&ws, &lintir::Config::default());
    let baseline_text = std::fs::read_to_string(root.join(BASELINE_REL)).unwrap_or_default();
    let drifts = lintir::ratchet(&diags, &lintir::parse_baseline(&baseline_text));
    Ok((diags, drifts))
}

fn drift_key(d: &lintir::Drift) -> &str {
    match d {
        lintir::Drift::New { key, .. } | lintir::Drift::Stale { key, .. } => key,
    }
}

/// Full-report JSON: pass diagnostics and ratchet drift (CI uploads
/// this as an artifact).
pub fn report_json(diags: &[lintir::Diagnostic], drifts: &[lintir::Drift]) -> String {
    let mut out = String::from("{\n  \"passes\": ");
    out.push_str(lintir::to_json(diags).trim_end());
    out.push_str(",\n  \"drift\": [\n");
    for (i, d) in drifts.iter().enumerate() {
        let (kind, have, pinned) = match d {
            lintir::Drift::New { have, pinned, .. } => ("new", have, pinned),
            lintir::Drift::Stale { have, pinned, .. } => ("stale", have, pinned),
        };
        out.push_str(&format!(
            "    {{\"kind\":\"{kind}\",\"key\":\"{}\",\"have\":{have},\"pinned\":{pinned}}}{}\n",
            lintir::diag::json_escape(drift_key(d)),
            if i + 1 < drifts.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// CLI entry: analyze the workspace and print the report; non-zero exit
/// iff the diagnostics drift from the baseline.
///
/// Flags: `--format json` emits the machine-readable report on stdout;
/// `--bless-baseline` rewrites `xtask/analyze.baseline` from the
/// current diagnostics (use only to shrink the pin set or after
/// review — CI treats any drift, new *or* stale, as a failure).
pub fn run(args: &[String]) -> ExitCode {
    let mut format_json = false;
    let mut bless_baseline = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(|s| s.as_str()) {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                other => {
                    eprintln!("--format expects `json` or `text`, got {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            "--format=json" => format_json = true,
            "--format=text" => format_json = false,
            "--bless-baseline" => bless_baseline = true,
            other => {
                eprintln!("xtask analyze: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| {
            PathBuf::from(d)
                .parent()
                .map(|p| p.to_path_buf())
                .unwrap_or_default()
        })
        .unwrap_or_else(|_| PathBuf::from("."));

    let (diags, mut drifts) = match check(&root) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("xtask analyze: failed to load workspace: {e}");
            return ExitCode::FAILURE;
        }
    };

    if bless_baseline {
        let text = lintir::to_baseline(&diags);
        if let Err(e) = std::fs::write(root.join(BASELINE_REL), &text) {
            eprintln!("cannot write {BASELINE_REL}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "xtask analyze: blessed {} finding(s) into {BASELINE_REL}",
            diags.len()
        );
        drifts.clear();
    }

    if format_json {
        print!("{}", report_json(&diags, &drifts));
    } else {
        for d in &drifts {
            match d {
                lintir::Drift::New { key, have, pinned } => println!(
                    "ratchet: NEW finding `{key}` ({have} now vs {pinned} pinned) — fix it \
                     or waive at the site"
                ),
                lintir::Drift::Stale { key, have, pinned } => println!(
                    "ratchet: STALE pin `{key}` ({have} now vs {pinned} pinned) — rerun \
                     `cargo xtask analyze --bless-baseline` to shrink the baseline"
                ),
            }
        }
        // Full context (call paths included) for the drifted keys.
        let drift_keys: Vec<&str> = drifts.iter().map(drift_key).collect();
        let detailed: Vec<lintir::Diagnostic> = diags
            .iter()
            .filter(|d| drift_keys.contains(&d.key().as_str()))
            .cloned()
            .collect();
        print!("{}", lintir::to_text(&detailed));
        if drifts.is_empty() {
            println!(
                "xtask analyze: clean ({} finding(s) pinned in baseline)",
                diags.len()
            );
        } else {
            println!("xtask analyze: {} ratchet drift(s)", drifts.len());
        }
    }

    if drifts.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
