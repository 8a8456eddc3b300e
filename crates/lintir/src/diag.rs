//! Diagnostics, JSON rendering, and the ratchet baseline.
//!
//! Baseline keys are deliberately line-number-free —
//! `{code}|{file}|{fn}|{anchor}` with an occurrence count — so pure
//! line shifts don't churn the ratchet. A count *increase* for a key
//! (or a brand-new key) is a new finding and blocks; a *decrease* is
//! stale pinning and also blocks (re-bless to shrink the baseline).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code: `PA0xx` / `DL0xx` / `WP0xx` / `DT0xx`.
    pub code: &'static str,
    /// Workspace-relative file of the primary site.
    pub file: String,
    /// 1-based line of the primary site.
    pub line: usize,
    /// Enclosing function name (empty for file-level findings).
    pub func: String,
    /// Line-free site descriptor used in the baseline key (e.g. the
    /// panicking expression or blocking callee name).
    pub anchor: String,
    pub message: String,
    /// Root→site call path (`file:line fn` hops), when interprocedural.
    pub path: Vec<String>,
}

impl Diagnostic {
    /// Ratchet key: everything identifying except line numbers.
    pub fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.code, self.file, self.func, self.anchor)
    }
}

/// Escape `s` for use inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a JSON array (hand-rolled: the engine is
/// dependency-free by design).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"code\":\"{}\",\"file\":\"{}\",\"line\":{},\"fn\":\"{}\",\"anchor\":\"{}\",\"message\":\"{}\",\"path\":[",
            d.code,
            json_escape(&d.file),
            d.line,
            json_escape(&d.func),
            json_escape(&d.anchor),
            json_escape(&d.message),
        );
        for (j, hop) in d.path.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(hop));
        }
        out.push_str("]}");
        if i + 1 < diags.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Human-readable rendering, one block per finding.
pub fn to_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{}: {}:{}: {}", d.code, d.file, d.line, d.message);
        for hop in &d.path {
            let _ = writeln!(out, "    via {hop}");
        }
    }
    out
}

/// Aggregate diagnostics into baseline form: `count|key` per distinct
/// key, sorted.
pub fn to_baseline(diags: &[Diagnostic]) -> String {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for d in diags {
        *counts.entry(d.key()).or_insert(0) += 1;
    }
    let mut out = String::from(
        "# cargo xtask analyze ratchet baseline — `count|code|file|fn|anchor` per pinned finding.\n\
         # Regenerate with `cargo xtask analyze --bless-baseline` (only to shrink or after review).\n",
    );
    for (key, count) in counts {
        let _ = writeln!(out, "{count}|{key}");
    }
    out
}

/// Parse a baseline file into key → count.
pub fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((count, key)) = line.split_once('|') {
            if let Ok(n) = count.trim().parse::<usize>() {
                out.insert(key.to_string(), n);
            }
        }
    }
    out
}

/// Ratchet verdict for one drift between current findings and baseline.
#[derive(Debug, PartialEq, Eq)]
pub enum Drift {
    /// Key present now with more occurrences than pinned (or unpinned).
    New { key: String, have: usize, pinned: usize },
    /// Key pinned with more occurrences than currently found.
    Stale { key: String, have: usize, pinned: usize },
}

/// Compare current diagnostics against a parsed baseline. Empty result
/// ⇒ ratchet is green.
pub fn ratchet(diags: &[Diagnostic], baseline: &BTreeMap<String, usize>) -> Vec<Drift> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for d in diags {
        *counts.entry(d.key()).or_insert(0) += 1;
    }
    let mut drifts = Vec::new();
    for (key, &have) in &counts {
        let pinned = baseline.get(key).copied().unwrap_or(0);
        if have > pinned {
            drifts.push(Drift::New { key: key.clone(), have, pinned });
        }
    }
    for (key, &pinned) in baseline {
        let have = counts.get(key).copied().unwrap_or(0);
        if have < pinned {
            drifts.push(Drift::Stale { key: key.clone(), have, pinned });
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(code: &'static str, file: &str, line: usize, func: &str, anchor: &str) -> Diagnostic {
        Diagnostic {
            code,
            file: file.into(),
            line,
            func: func.into(),
            anchor: anchor.into(),
            message: format!("{anchor} in {func}"),
            path: vec![],
        }
    }

    #[test]
    fn baseline_round_trips_and_ignores_lines() {
        let diags = vec![
            d("PA003", "a.rs", 10, "f", "xs[…]"),
            d("PA003", "a.rs", 99, "f", "xs[…]"),
            d("DL001", "b.rs", 5, "g", "recv"),
        ];
        let text = to_baseline(&diags);
        let parsed = parse_baseline(&text);
        assert_eq!(parsed.get("PA003|a.rs|f|xs[…]"), Some(&2));
        assert_eq!(parsed.get("DL001|b.rs|g|recv"), Some(&1));
        // Same findings on shifted lines: ratchet stays green.
        let shifted = vec![
            d("PA003", "a.rs", 11, "f", "xs[…]"),
            d("PA003", "a.rs", 100, "f", "xs[…]"),
            d("DL001", "b.rs", 6, "g", "recv"),
        ];
        assert!(ratchet(&shifted, &parsed).is_empty());
    }

    #[test]
    fn ratchet_blocks_new_and_stale() {
        let baseline = parse_baseline("1|PA003|a.rs|f|xs[…]\n2|PA002|b.rs|g|.unwrap()\n");
        let now = vec![
            d("PA003", "a.rs", 1, "f", "xs[…]"),
            d("PA003", "a.rs", 2, "f", "xs[…]"), // one more than pinned
            d("PA002", "b.rs", 3, "g", ".unwrap()"), // one fewer than pinned
        ];
        let drifts = ratchet(&now, &baseline);
        assert_eq!(drifts.len(), 2);
        assert!(drifts
            .iter()
            .any(|x| matches!(x, Drift::New { have: 2, pinned: 1, .. })));
        assert!(drifts
            .iter()
            .any(|x| matches!(x, Drift::Stale { have: 1, pinned: 2, .. })));
    }

    #[test]
    fn json_escapes_and_renders_paths() {
        let mut one = d("WP001", "wire.rs", 3, "", "HELLO");
        one.message = "tag \"HELLO\"\nnever decoded".into();
        one.path = vec!["a.rs:1 root".into()];
        let js = to_json(&[one]);
        assert!(js.contains("\\\"HELLO\\\""));
        assert!(js.contains("\\n"));
        assert!(js.contains("\"a.rs:1 root\""));
        assert!(js.starts_with("[\n"));
        assert!(js.ends_with("]\n"));
    }
}
