//! `cargo xtask analyze`: the project-invariant linter.
//!
//! A deliberately simple, line-based static analyzer (no `syn`, no
//! network, no nightly) that enforces the workspace's cross-cutting
//! invariants — the ones `rustc`/clippy cannot express:
//!
//! * **unsafe-safety-comment** — every `unsafe` occurrence carries a
//!   `// SAFETY:` comment on the same line or in the contiguous
//!   comment/attribute block immediately above it.
//! * **unsafe-forbidden** — `unsafe` appears only in the allowlisted
//!   crate (`crates/sched`); every crate root carries
//!   `#![forbid(unsafe_code)]` (the allowlisted crate may use `deny`
//!   with per-site `allow`).
//! * **no-panic-paths** — the fault-tolerance-critical modules
//!   (`cluster::comm`, `cluster::runner`, `cluster::transport`,
//!   `cluster::wire`, `cluster::proc`, `core::drivers`,
//!   `core::procexec`) must not
//!   `unwrap`/`expect`/`panic!`: a worker that panics where the design
//!   says "return a typed error" silently converts a recoverable fault
//!   into a rank loss. Documented exceptions are waived with
//!   `// PANIC-OK: <reason>`.
//! * **hash-iter-accumulation** — iterating a `HashMap`/`HashSet` while
//!   accumulating (`+=`, `.sum()`, `.fold(`) is order-nondeterministic
//!   and breaks the bitwise-reproducibility contract of the energy
//!   pipeline. Waive with `// DETERMINISM-OK: <reason>`.
//! * **float-reduction-blessing** — inside closures handed to the
//!   parallel primitives (`.run(`, `.try_map(`, `spawn(`), `+=` into a
//!   variable captured from outside the closure is a scheduling-order-
//!   dependent reduction; those belong in the blessed deterministic
//!   paths (`sched::reduce`, `core::soa`). Waive with
//!   `// DETERMINISM-OK: <reason>`.
//!
//! The scanner strips comments and string literals before matching
//! (via the `lintir` lexer), and skips `#[cfg(test)]` regions for the
//! panic-path rule, so the rules fire on code, not prose.
//!
//! On top of the per-line rules, the workspace run executes the four
//! **interprocedural passes** from `crates/lintir` (`PA` panic
//! reachability, `DL` deadline boundedness, `WP` wire-protocol
//! totality, `DT` determinism dataflow) and compares their diagnostics
//! against the checked-in ratchet baseline (`xtask/analyze.baseline`):
//! new findings — or stale pins — fail the run. `--format json` emits
//! the full machine-readable report; `--bless-baseline` regenerates
//! the pin set. Exit status is non-zero iff legacy findings or ratchet
//! drift exist.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as reported (repo-relative when walking the workspace).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier.
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which rules apply to a file, derived from its workspace-relative
/// path by [`classify`] (tests construct it directly for fixtures).
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Module on the fault-tolerance path: panicking is a bug.
    pub no_panic: bool,
    /// Blessed deterministic-reduction file: float `+=` allowed.
    pub blessed_float: bool,
    /// Crate root: must carry `#![forbid(unsafe_code)]` (or `deny` if
    /// `unsafe_allowed`).
    pub crate_root: bool,
    /// Member of the audited-unsafe allowlist (`crates/sched`).
    pub unsafe_allowed: bool,
}

/// Modules where `unwrap`/`expect`/`panic!` indicate a broken
/// fault-tolerance contract.
const NO_PANIC_FILES: &[&str] = &[
    "crates/bench/src/bin/delta_scan.rs",
    "crates/bench/src/bin/kernel_throughput.rs",
    "crates/bench/src/bin/list_reuse.rs",
    "crates/cluster/src/comm.rs",
    "crates/cluster/src/proc.rs",
    "crates/cluster/src/runner.rs",
    "crates/cluster/src/transport.rs",
    "crates/cluster/src/wire.rs",
    "crates/core/src/delta.rs",
    "crates/core/src/drivers.rs",
    "crates/core/src/lists.rs",
    "crates/core/src/procexec.rs",
    "crates/core/src/soa.rs",
    "crates/core/src/system.rs",
    "crates/geom/src/fastmath.rs",
    "crates/octree/src/build.rs",
];

/// Files allowed to contain scheduling-order float accumulation (the
/// deterministic reduction implementations themselves).
const BLESSED_FLOAT_FILES: &[&str] = &["crates/sched/src/reduce.rs", "crates/core/src/soa.rs"];

/// Crates allowed to contain `unsafe` (with per-site SAFETY comments).
const UNSAFE_ALLOWLIST: &[&str] = &["crates/sched/"];

/// Derive the applicable rules from a workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let rel = rel.replace('\\', "/");
    let crate_root = rel.ends_with("/src/lib.rs")
        || rel == "src/lib.rs"
        || rel.contains("/src/bin/")
        || rel.starts_with("src/bin/")
        || rel == "xtask/src/main.rs";
    FileClass {
        no_panic: NO_PANIC_FILES.iter().any(|f| rel == *f),
        blessed_float: BLESSED_FLOAT_FILES.iter().any(|f| rel == *f),
        crate_root,
        unsafe_allowed: UNSAFE_ALLOWLIST.iter().any(|p| rel.starts_with(p)),
    }
}

// ---------------------------------------------------------------------------
// Source preprocessing
// ---------------------------------------------------------------------------

/// `src` with comments and string/char literals blanked out (line
/// structure preserved), so token matching sees only code.
///
/// Delegates to the real lexer in [`lintir::lex`]: unlike the old
/// hand-rolled state machine this handles raw strings with hashes,
/// `'a` lifetime ticks vs char literals (including `b'x'` and `'\''`),
/// nested `/* /* */ */` block comments, and strings spanning lines.
pub fn strip_source(src: &str) -> Vec<String> {
    lintir::strip_source(src)
}

fn is_word_boundary(c: Option<char>) -> bool {
    !matches!(c, Some(ch) if ch.is_alphanumeric() || ch == '_')
}

/// Does `line` contain `word` as a standalone token?
fn has_token(line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before = line[..at].chars().last();
        let after = line[at + word.len()..].chars().next();
        if is_word_boundary(before) && is_word_boundary(after) {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// 1-based line numbers covered by `#[cfg(test)]`-gated items.
pub fn cfg_test_lines(stripped: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; stripped.len()];
    let mut idx = 0;
    while idx < stripped.len() {
        if stripped[idx].contains("#[cfg(test)]") {
            // Find the opening brace of the gated item, then match it.
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = idx;
            'outer: while j < stripped.len() {
                for c in stripped[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if opened && depth == 0 {
                                break 'outer;
                            }
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            let end = j.min(stripped.len() - 1);
            for flag in in_test.iter_mut().take(end + 1).skip(idx) {
                *flag = true;
            }
            idx = end + 1;
        } else {
            idx += 1;
        }
    }
    in_test
}

/// Is line `i` (0-based) waived by `marker` on the same line or the
/// line above?
fn waived(raw_lines: &[&str], i: usize, marker: &str) -> bool {
    raw_lines[i].contains(marker) || (i > 0 && raw_lines[i - 1].contains(marker))
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn rule_unsafe(
    rel: &str,
    raw: &[&str],
    stripped: &[String],
    class: &FileClass,
    out: &mut Vec<Finding>,
) {
    for (i, line) in stripped.iter().enumerate() {
        if !has_token(line, "unsafe") {
            continue;
        }
        // Attribute mentions (`#![deny(unsafe_code)]` etc.) are hygiene,
        // not unsafe code.
        if line.contains("unsafe_code") {
            continue;
        }
        if !class.unsafe_allowed {
            out.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                rule: "unsafe-forbidden",
                message: "`unsafe` outside the audited allowlist (crates/sched); \
                          move the code there or make it safe"
                    .to_string(),
            });
            continue;
        }
        // Accept `// SAFETY:` on the same line or anywhere in the
        // contiguous comment/attribute block immediately above (long
        // safety arguments are encouraged, not penalized).
        let mut documented = raw[i].contains("SAFETY:");
        let mut j = i;
        while !documented && j > 0 {
            j -= 1;
            let t = raw[j].trim_start();
            if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") || t.is_empty() {
                documented = t.contains("SAFETY:");
                if documented {
                    break;
                }
            } else {
                break;
            }
        }
        if !documented {
            out.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                rule: "unsafe-safety-comment",
                message: "`unsafe` without a `// SAFETY:` comment on the same line \
                          or in the comment block immediately above"
                    .to_string(),
            });
        }
    }
}

fn rule_crate_root(rel: &str, src: &str, class: &FileClass, out: &mut Vec<Finding>) {
    if !class.crate_root {
        return;
    }
    let has_forbid = src.contains("#![forbid(unsafe_code)]");
    let has_deny = src.contains("#![deny(unsafe_code)]");
    let ok = has_forbid || (class.unsafe_allowed && has_deny);
    if !ok {
        out.push(Finding {
            file: rel.to_string(),
            line: 1,
            rule: "unsafe-attr",
            message: if class.unsafe_allowed {
                "crate root must carry #![deny(unsafe_code)] (allowlisted) or \
                 #![forbid(unsafe_code)]"
                    .to_string()
            } else {
                "crate root must carry #![forbid(unsafe_code)]".to_string()
            },
        });
    }
}

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

fn rule_no_panic(
    rel: &str,
    raw: &[&str],
    stripped: &[String],
    in_test: &[bool],
    class: &FileClass,
    out: &mut Vec<Finding>,
) {
    if !class.no_panic {
        return;
    }
    for (i, line) in stripped.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let Some(tok) = PANIC_TOKENS.iter().find(|t| line.contains(**t)) else {
            continue;
        };
        if waived(raw, i, "PANIC-OK:") {
            continue;
        }
        out.push(Finding {
            file: rel.to_string(),
            line: i + 1,
            rule: "no-panic-paths",
            message: format!(
                "`{tok}` on a fault-tolerance path; return a typed error \
                 (CommError/RankError) or waive with `// PANIC-OK: <reason>`"
            ),
        });
    }
}

/// Variable names bound to `HashMap`/`HashSet` in this file (local
/// `let`s and struct fields alike — matching is name-based).
fn hash_container_names(stripped: &[String]) -> Vec<String> {
    let mut names = Vec::new();
    for line in stripped {
        if !(line.contains("HashMap") || line.contains("HashSet")) {
            continue;
        }
        // `let [mut] name ... = HashMap::...` / `name: HashMap<...>`
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                names.push(name);
                continue;
            }
        }
        if let Some(colon) = line.find(':') {
            let after = line[colon + 1..]
                .trim_start()
                .trim_start_matches('&')
                .trim_start_matches("mut ");
            if after.starts_with("HashMap") || after.starts_with("HashSet") {
                let name: String = line[..colon]
                    .trim_end()
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !name.is_empty() {
                    names.push(name);
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// End line (0-based, inclusive) of the brace-block opened at or after
/// `start`.
fn block_end(stripped: &[String], start: usize) -> usize {
    let mut depth = 0usize;
    let mut opened = false;
    let mut j = start;
    while j < stripped.len() {
        for c in stripped[j].chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    stripped.len().saturating_sub(1)
}

fn rule_hash_iteration(
    rel: &str,
    raw: &[&str],
    stripped: &[String],
    out: &mut Vec<Finding>,
) {
    let names = hash_container_names(stripped);
    if names.is_empty() {
        return;
    }
    let iter_methods = [".iter()", ".values()", ".keys()", ".drain(", ".into_iter()"];
    for (i, line) in stripped.iter().enumerate() {
        let touches = |name: &str| {
            has_token(line, name)
                && (iter_methods.iter().any(|m| line.contains(m))
                    || line.trim_start().starts_with("for "))
        };
        let Some(name) = names.iter().find(|n| touches(n)) else {
            continue;
        };
        if waived(raw, i, "DETERMINISM-OK:") {
            continue;
        }
        let accumulating = if line.trim_start().starts_with("for ") {
            let end = block_end(stripped, i);
            stripped[i..=end].iter().any(|l| l.contains("+="))
        } else {
            // Iterator chain: look at this statement (to the `;`).
            let mut j = i;
            let mut found = false;
            loop {
                let l = &stripped[j];
                if l.contains("+=") || l.contains(".sum") || l.contains(".fold(") || l.contains(".product") {
                    found = true;
                    break;
                }
                if l.contains(';') || j + 1 >= stripped.len() || j > i + 10 {
                    break;
                }
                j += 1;
            }
            found
        };
        if accumulating {
            out.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                rule: "hash-iter-accumulation",
                message: format!(
                    "accumulation over `{name}` (HashMap/HashSet) iterates in \
                     nondeterministic order; use a BTreeMap/sorted keys or waive \
                     with `// DETERMINISM-OK: <reason>`"
                ),
            });
        }
    }
}

/// Calls that hand a closure to the parallel runtime; `+=` on captured
/// variables inside them is a scheduling-order-dependent reduction.
const PARALLEL_CALLS: &[&str] = &[".run(", ".try_map(", "spawn("];

fn rule_float_reduction(
    rel: &str,
    raw: &[&str],
    stripped: &[String],
    class: &FileClass,
    out: &mut Vec<Finding>,
) {
    if class.blessed_float {
        return;
    }
    for (i, line) in stripped.iter().enumerate() {
        if !PARALLEL_CALLS.iter().any(|c| line.contains(*c)) {
            continue;
        }
        // The closure region: from the call line to the end of its
        // paren group (approximated by the statement's brace block when
        // the call spans lines).
        let end = block_end(stripped, i);
        for j in i..=end.min(stripped.len() - 1) {
            let l = &stripped[j];
            let Some(pos) = l.find("+=") else { continue };
            // Identify the accumulator name left of `+=`.
            let lhs: String = l[..pos]
                .trim_end()
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            if lhs.is_empty() {
                continue;
            }
            // Declared inside the region (local accumulator, loop var,
            // or closure parameter)? Then it is per-task state — fine.
            let local = stripped[i..=j].iter().any(|r| {
                has_token(r, &format!("let {lhs}"))
                    || has_token(r, &format!("let mut {lhs}"))
                    || has_token(r, &format!("for {lhs}"))
                    || r.contains(&format!("|{lhs}|"))
                    || r.contains(&format!("|{lhs},"))
                    || r.contains(&format!(", {lhs}|"))
                    || r.contains(&format!(",{lhs}|"))
            });
            if local || waived(raw, j, "DETERMINISM-OK:") {
                continue;
            }
            out.push(Finding {
                file: rel.to_string(),
                line: j + 1,
                rule: "float-reduction-blessing",
                message: format!(
                    "`{lhs} +=` on a variable captured by a parallel closure: \
                     scheduling-order-dependent reduction; use the blessed \
                     deterministic paths (sched::reduce / core::soa) or waive \
                     with `// DETERMINISM-OK: <reason>`"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Lint one file's source under the given class. `rel` is used for
/// reporting only.
pub fn lint_source(rel: &str, src: &str, class: &FileClass) -> Vec<Finding> {
    let raw: Vec<&str> = src.lines().collect();
    let stripped = strip_source(src);
    let in_test = cfg_test_lines(&stripped);
    let mut out = Vec::new();
    rule_unsafe(rel, &raw, &stripped, class, &mut out);
    rule_crate_root(rel, src, class, &mut out);
    rule_no_panic(rel, &raw, &stripped, &in_test, class, &mut out);
    rule_hash_iteration(rel, &raw, &stripped, &mut out);
    rule_float_reduction(rel, &raw, &stripped, class, &mut out);
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "fixtures" | "related") {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lint every `.rs` file under `root` (skipping `target/`, `.git/`,
/// test `fixtures/`).
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs(root, &mut files);
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let class = classify(&rel);
        findings.extend(lint_source(&rel, &src, &class));
    }
    findings
}

/// Workspace-relative location of the interprocedural ratchet baseline.
pub const BASELINE_REL: &str = "xtask/analyze.baseline";

/// Run the interprocedural passes on the workspace and compare against
/// the checked-in ratchet baseline. Returns `(diagnostics, drifts)`.
pub fn interprocedural(root: &Path) -> std::io::Result<(Vec<lintir::Diagnostic>, Vec<lintir::Drift>)> {
    let ws = lintir::Workspace::load(root)?;
    let diags = lintir::analyze(&ws, &lintir::Config::default());
    let baseline_text =
        std::fs::read_to_string(root.join(BASELINE_REL)).unwrap_or_default();
    let baseline = lintir::parse_baseline(&baseline_text);
    let drifts = lintir::ratchet(&diags, &baseline);
    Ok((diags, drifts))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Full-report JSON: legacy per-line findings, interprocedural pass
/// diagnostics, and ratchet drift (CI uploads this as an artifact).
pub fn report_json(
    legacy: &[Finding],
    diags: &[lintir::Diagnostic],
    drifts: &[lintir::Drift],
) -> String {
    let mut out = String::from("{\n  \"legacy\": [\n");
    for (i, f) in legacy.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}{}\n",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            if i + 1 < legacy.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"passes\": ");
    // lintir renders its own array; indent it two spaces for cosmetics.
    let passes = lintir::to_json(diags);
    out.push_str(passes.trim_end());
    out.push_str(",\n  \"drift\": [\n");
    for (i, d) in drifts.iter().enumerate() {
        let (kind, key, have, pinned) = match d {
            lintir::Drift::New { key, have, pinned } => ("new", key, have, pinned),
            lintir::Drift::Stale { key, have, pinned } => ("stale", key, have, pinned),
        };
        out.push_str(&format!(
            "    {{\"kind\":\"{}\",\"key\":\"{}\",\"have\":{},\"pinned\":{}}}{}\n",
            kind,
            json_escape(key),
            have,
            pinned,
            if i + 1 < drifts.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// CLI entry: lint the workspace root (or explicit paths) and print
/// findings; non-zero exit iff blocking findings or ratchet drift.
///
/// Flags: `--format json` emits the machine-readable report on stdout;
/// `--bless-baseline` rewrites `xtask/analyze.baseline` from the
/// current diagnostics (use only to shrink the pin set or after
/// review — CI treats any drift, new *or* stale, as a failure).
pub fn run(args: &[String]) -> ExitCode {
    let mut format_json = false;
    let mut bless_baseline = false;
    let mut paths: Vec<String> = Vec::new();
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
            _ => paths.push(a.clone()),
        }
    }

    // Explicit-path mode: legacy per-file linting only (used for quick
    // one-file checks; the interprocedural passes need the workspace).
    if !paths.is_empty() {
        let mut findings = Vec::new();
        for a in &paths {
            let path = PathBuf::from(a);
            let Ok(src) = std::fs::read_to_string(&path) else {
                eprintln!("cannot read {a}");
                return ExitCode::FAILURE;
            };
            let class = classify(a);
            findings.extend(lint_source(a, &src, &class));
        }
        findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        for f in &findings {
            println!("{f}");
        }
        return if findings.is_empty() {
            println!("xtask analyze: clean");
            ExitCode::SUCCESS
        } else {
            println!("xtask analyze: {} finding(s)", findings.len());
            ExitCode::FAILURE
        };
    }

    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).parent().map(|p| p.to_path_buf()).unwrap_or_default())
        .unwrap_or_else(|_| PathBuf::from("."));

    let mut legacy = lint_workspace(&root);
    legacy.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    let (diags, drifts) = match interprocedural(&root) {
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
    }
    let drifts = if bless_baseline { Vec::new() } else { drifts };

    if format_json {
        print!("{}", report_json(&legacy, &diags, &drifts));
    } else {
        for f in &legacy {
            println!("{f}");
        }
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
        if !drifts.is_empty() {
            // Show full context for drifted keys (call paths included).
            let drift_keys: Vec<&str> = drifts
                .iter()
                .map(|d| match d {
                    lintir::Drift::New { key, .. } | lintir::Drift::Stale { key, .. } => {
                        key.as_str()
                    }
                })
                .collect();
            let detailed: Vec<lintir::Diagnostic> = diags
                .iter()
                .filter(|d| drift_keys.contains(&d.key().as_str()))
                .cloned()
                .collect();
            print!("{}", lintir::to_text(&detailed));
        }
    }

    let blocking = legacy.len() + drifts.len();
    if blocking == 0 {
        if !format_json {
            println!(
                "xtask analyze: clean ({} interprocedural finding(s) pinned in baseline)",
                diags.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !format_json {
            println!(
                "xtask analyze: {} legacy finding(s), {} ratchet drift(s)",
                legacy.len(),
                drifts.len()
            );
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`lint_workspace`] classifies only the files it finds, so a listed
    /// path that no longer exists would silently stop being checked.
    #[test]
    fn every_listed_path_exists_in_the_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        for rel in NO_PANIC_FILES.iter().chain(BLESSED_FLOAT_FILES) {
            assert!(root.join(rel).is_file(), "listed file {rel} does not exist");
        }
        for rel in UNSAFE_ALLOWLIST {
            assert!(root.join(rel).is_dir(), "listed directory {rel} does not exist");
        }
    }
}
