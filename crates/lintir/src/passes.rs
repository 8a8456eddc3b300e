//! The four interprocedural invariant passes.
//!
//! | code  | pass                      | waiver marker       |
//! |-------|---------------------------|---------------------|
//! | PA0xx | panic-reachability        | `// PANIC-OK:`      |
//! | DL0xx | deadline-boundedness      | `// DEADLINE-OK:`   |
//! | WP0xx | wire-protocol totality    | `// WIRE-OK:`       |
//! | DT0xx | determinism dataflow      | `// DETERMINISM-OK:`|
//!
//! Each pass is name- and token-driven; DESIGN.md §13 documents what
//! each one over- and under-approximates.

use crate::diag::Diagnostic;
use crate::graph::{CallGraph, FnId, Workspace};
use crate::ir::{Fact, FnIr, PanicKind, T};
use crate::lex::Tok;
use std::collections::{BTreeSet, HashMap};

/// Pass configuration. [`Config::default`] mirrors the project layout
/// (the lists xtask's legacy rules pin).
#[derive(Clone, Debug)]
pub struct Config {
    /// Files whose non-test functions must not reach a panic.
    pub no_panic_files: Vec<String>,
    /// Files whose non-test functions root the deadline pass.
    pub entry_files: Vec<String>,
    /// Files carrying wire-protocol encode/decode code.
    pub wire_files: Vec<String>,
    /// Files allowed scheduling-order float accumulation.
    pub blessed_float_files: Vec<String>,
    /// Also report debug-build integer overflow arithmetic (PA006).
    pub debug_arith: bool,
}

impl Default for Config {
    fn default() -> Self {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        Config {
            no_panic_files: v(&[
                "crates/bench/src/bin/kernel_throughput.rs",
                "crates/bench/src/bin/list_reuse.rs",
                "crates/cluster/src/comm.rs",
                "crates/cluster/src/proc.rs",
                "crates/cluster/src/runner.rs",
                "crates/cluster/src/transport.rs",
                "crates/cluster/src/wire.rs",
                "crates/core/src/drivers.rs",
                "crates/core/src/lists.rs",
                "crates/core/src/procexec.rs",
                "crates/core/src/soa.rs",
                "crates/core/src/system.rs",
                "crates/geom/src/fastmath.rs",
                "crates/octree/src/build.rs",
                "crates/octree/src/parallel.rs",
            ]),
            entry_files: v(&[
                "crates/cluster/src/comm.rs",
                "crates/cluster/src/proc.rs",
                "crates/cluster/src/transport.rs",
            ]),
            wire_files: v(&["crates/cluster/src/wire.rs", "crates/core/src/procexec.rs"]),
            blessed_float_files: v(&["crates/core/src/soa.rs"]),
            debug_arith: false,
        }
    }
}

fn code_of(kind: PanicKind) -> &'static str {
    match kind {
        PanicKind::Macro => "PA001",
        PanicKind::UnwrapExpect => "PA002",
        PanicKind::SliceIndex => "PA003",
        PanicKind::IntDivRem => "PA004",
        PanicKind::CopyFromSlice => "PA005",
        PanicKind::DebugArith => "PA006",
    }
}

/// Run every pass and return diagnostics sorted by (file, line, code).
pub fn analyze(ws: &Workspace, cfg: &Config) -> Vec<Diagnostic> {
    let graph = CallGraph::build(ws);
    let mut diags = Vec::new();
    diags.extend(panic_reachability(ws, &graph, cfg));
    diags.extend(deadline_boundedness(ws, &graph, cfg));
    diags.extend(wire_totality(ws, cfg));
    diags.extend(determinism_dataflow(ws, &graph, cfg));
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code))
    });
    diags
}

fn roots_in(ws: &Workspace, files: &[String]) -> Vec<FnId> {
    (0..ws.fns.len())
        .filter(|&id| {
            let f = ws.fn_ir(id);
            !f.in_test && files.iter().any(|p| p == &ws.file_of(id).rel)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// PA: panic-reachability
// ---------------------------------------------------------------------------

fn panic_reachability(ws: &Workspace, graph: &CallGraph, cfg: &Config) -> Vec<Diagnostic> {
    let roots = roots_in(ws, &cfg.no_panic_files);
    let (dist, pred) = graph.bfs(&roots);
    let mut path_cache: HashMap<FnId, Vec<String>> = HashMap::new();
    let mut out = Vec::new();
    for (&id, &d) in &dist {
        let f = ws.fn_ir(id);
        if f.in_test {
            continue;
        }
        let file = ws.file_of(id);
        let in_no_panic_file = cfg.no_panic_files.iter().any(|p| p == &file.rel);
        for fact in &f.facts {
            let Fact::Panic { kind, line, what } = fact else { continue };
            if *kind == PanicKind::DebugArith && !cfg.debug_arith {
                continue;
            }
            // Explicit panic macros and unwrap/expect *inside* a
            // no-panic file are the legacy per-line rule's domain —
            // reporting them here too would double every finding.
            if in_no_panic_file
                && matches!(kind, PanicKind::Macro | PanicKind::UnwrapExpect)
            {
                continue;
            }
            if file.waived(*line, "PANIC-OK:") {
                continue;
            }
            let path = if d == 0 {
                Vec::new()
            } else {
                path_cache
                    .entry(id)
                    .or_insert_with(|| graph.path_to(ws, &pred, id))
                    .clone()
            };
            let reach = if d == 0 {
                String::new()
            } else {
                format!(" (reachable from a no-panic zone, {d} call{} away)",
                    if d == 1 { "" } else { "s" })
            };
            out.push(Diagnostic {
                code: code_of(*kind),
                file: file.rel.clone(),
                line: *line,
                func: f.name.clone(),
                anchor: what.clone(),
                message: format!("may panic: `{what}` in `{}`{reach}", f.name),
                path,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// DL: deadline-boundedness
// ---------------------------------------------------------------------------

fn deadline_boundedness(ws: &Workspace, graph: &CallGraph, cfg: &Config) -> Vec<Diagnostic> {
    let roots = roots_in(ws, &cfg.entry_files);
    let (dist, pred) = graph.bfs(&roots);
    let mut path_cache: HashMap<FnId, Vec<String>> = HashMap::new();
    let mut out = Vec::new();
    for (&id, &d) in &dist {
        let f = ws.fn_ir(id);
        if f.in_test {
            continue;
        }
        let file = ws.file_of(id);
        for fact in &f.facts {
            match fact {
                Fact::Blocking { name, line } => {
                    // A call that resolved to a workspace function is not
                    // a blocking *primitive* (e.g. `SliceWriter::write`);
                    // its body is analyzed transitively instead.
                    let resolved_local = graph.callees[id]
                        .iter()
                        .any(|&(t, l)| l == *line && ws.fn_ir(t).name == *name);
                    if resolved_local {
                        continue;
                    }
                    // Bounded if the enclosing fn received a deadline/
                    // timeout, or the socket was bounded earlier in the
                    // same fn body.
                    let bounded = f.deadline_bound
                        || f.facts.iter().any(|x| {
                            matches!(x, Fact::TimeoutSetter { line: sl, disables: false }
                                if *sl <= *line)
                        });
                    if bounded || file.waived(*line, "DEADLINE-OK:") {
                        continue;
                    }
                    let path = if d == 0 {
                        Vec::new()
                    } else {
                        path_cache
                            .entry(id)
                            .or_insert_with(|| graph.path_to(ws, &pred, id))
                            .clone()
                    };
                    out.push(Diagnostic {
                        code: "DL001",
                        file: file.rel.clone(),
                        line: *line,
                        func: f.name.clone(),
                        anchor: name.clone(),
                        message: format!(
                            "unbounded blocking call `{name}` reachable from cluster entry \
                             points: `{}` carries no deadline/timeout and sets none before \
                             the call",
                            f.name
                        ),
                        path,
                    });
                }
                Fact::TimeoutSetter { line, disables: true } => {
                    if file.waived(*line, "DEADLINE-OK:") {
                        continue;
                    }
                    out.push(Diagnostic {
                        code: "DL002",
                        file: file.rel.clone(),
                        line: *line,
                        func: f.name.clone(),
                        anchor: "set_timeout(None)".into(),
                        message: format!(
                            "`{}` disables a socket timeout (`set_*_timeout(None)`) on a \
                             path reachable from cluster entry points",
                            f.name
                        ),
                        path: Vec::new(),
                    });
                }
                _ => {}
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// WP: wire-protocol totality
// ---------------------------------------------------------------------------

/// How a `kind::NAME` mention is used at one site.
#[derive(Clone, Copy, PartialEq)]
enum WireUse {
    Encode,
    Decode,
}

fn classify_kind_use(body: &[T], name_at: usize) -> WireUse {
    // Following `=>` or `|` ⇒ match arm ⇒ decode.
    if let (Some(a), b) = (body.get(name_at + 1), body.get(name_at + 2)) {
        if a.text == "|" {
            return WireUse::Decode;
        }
        if a.text == "=" && b.is_some_and(|b| b.text == ">" && a.end == b.start) {
            return WireUse::Decode;
        }
    }
    // Preceding `==`/`!=` ⇒ comparison against a received byte ⇒ decode.
    // (`name_at` points at NAME; `kind :: NAME` ⇒ `kind` is at -3.)
    if name_at >= 5 {
        let (a, b) = (&body[name_at - 5], &body[name_at - 4]);
        if (a.text == "=" || a.text == "!") && b.text == "=" && a.end == b.start {
            return WireUse::Decode;
        }
    }
    WireUse::Encode
}

fn wire_totality(ws: &Workspace, cfg: &Config) -> Vec<Diagnostic> {
    // Collect the declared kind constants from wire files.
    let mut consts: Vec<(String, usize, String)> = Vec::new(); // (name, decl line, file)
    for file in &ws.files {
        if !cfg.wire_files.iter().any(|p| p == &file.rel) {
            continue;
        }
        for k in &file.kind_consts {
            consts.push((k.name.clone(), k.line, file.rel.clone()));
        }
    }
    if consts.is_empty() && cfg.wire_files.iter().all(|p| {
        !ws.files.iter().any(|f| &f.rel == p)
    }) {
        return Vec::new(); // wire files absent (e.g. fixture workspaces)
    }

    // Scan every non-test fn body workspace-wide for `kind :: NAME`.
    let mut encoded: BTreeSet<String> = BTreeSet::new();
    let mut decoded: BTreeSet<String> = BTreeSet::new();
    for id in 0..ws.fns.len() {
        let f = ws.fn_ir(id);
        if f.in_test {
            continue;
        }
        let body = &f.body;
        for i in 0..body.len() {
            if body[i].kind != Tok::Ident || body[i].text != "kind" {
                continue;
            }
            let is_path = i + 3 < body.len()
                && body[i + 1].text == ":"
                && body[i + 2].text == ":"
                && body[i + 1].end == body[i + 2].start
                && body[i + 3].kind == Tok::Ident;
            if !is_path {
                continue;
            }
            let name = body[i + 3].text.clone();
            match classify_kind_use(body, i + 3) {
                WireUse::Encode => encoded.insert(name),
                WireUse::Decode => decoded.insert(name),
            };
        }
    }

    let mut out = Vec::new();
    for (name, line, file_rel) in &consts {
        let file = ws.files.iter().find(|f| &f.rel == file_rel).unwrap();
        if file.waived(*line, "WIRE-OK:") {
            continue;
        }
        let enc = encoded.contains(name);
        let dec = decoded.contains(name);
        if enc && !dec {
            out.push(Diagnostic {
                code: "WP001",
                file: file_rel.clone(),
                line: *line,
                func: String::new(),
                anchor: name.clone(),
                message: format!(
                    "frame kind `{name}` is encoded but no decode arm matches it — \
                     receivers will reject or drop this message"
                ),
                path: Vec::new(),
            });
        } else if dec && !enc {
            out.push(Diagnostic {
                code: "WP002",
                file: file_rel.clone(),
                line: *line,
                func: String::new(),
                anchor: name.clone(),
                message: format!(
                    "frame kind `{name}` has a decode arm but is never encoded — \
                     dead protocol surface or a missing sender"
                ),
                path: Vec::new(),
            });
        } else if !enc && !dec {
            out.push(Diagnostic {
                code: "WP001",
                file: file_rel.clone(),
                line: *line,
                func: String::new(),
                anchor: name.clone(),
                message: format!("frame kind `{name}` is neither encoded nor decoded"),
                path: Vec::new(),
            });
        }
    }

    out.extend(paired_tag_sets(ws, cfg));
    out
}

/// Compare literal tag sets between `put_X`/`get_X` and
/// `encode_X`/`decode_X` pairs in wire files: every byte the encoder can
/// emit must have a decoder arm (WP003) and vice versa (WP004).
fn paired_tag_sets(ws: &Workspace, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !cfg.wire_files.iter().any(|p| p == &file.rel) {
            continue;
        }
        let find = |name: &str| file.fns.iter().find(|f| f.name == name && !f.in_test);
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            let partner = if let Some(x) = f.name.strip_prefix("put_") {
                find(&format!("get_{x}"))
            } else if let Some(x) = f.name.strip_prefix("encode_") {
                find(&format!("decode_{x}"))
            } else {
                None
            };
            let Some(dec) = partner else { continue };
            let enc_tags = encoder_literals(f);
            let dec_tags = decoder_literals(dec);
            if enc_tags.is_empty() && dec_tags.is_empty() {
                continue;
            }
            for t in enc_tags.difference(&dec_tags) {
                if file.waived(f.line, "WIRE-OK:") {
                    continue;
                }
                out.push(Diagnostic {
                    code: "WP003",
                    file: file.rel.clone(),
                    line: f.line,
                    func: f.name.clone(),
                    anchor: format!("tag {t}"),
                    message: format!(
                        "`{}` can emit tag `{t}` but `{}` has no arm for it",
                        f.name, dec.name
                    ),
                    path: Vec::new(),
                });
            }
            for t in dec_tags.difference(&enc_tags) {
                if file.waived(dec.line, "WIRE-OK:") {
                    continue;
                }
                out.push(Diagnostic {
                    code: "WP004",
                    file: file.rel.clone(),
                    line: dec.line,
                    func: dec.name.clone(),
                    anchor: format!("tag {t}"),
                    message: format!(
                        "`{}` decodes tag `{t}` but `{}` never emits it",
                        dec.name, f.name
                    ),
                    path: Vec::new(),
                });
            }
        }
    }
    out
}

/// Integer literals an encoder can hand to `put_u8` (direct arguments
/// and match-arm results inside the argument).
fn encoder_literals(f: &FnIr) -> BTreeSet<u64> {
    let body = &f.body;
    let mut out = BTreeSet::new();
    for i in 0..body.len() {
        if body[i].kind == Tok::Ident
            && body[i].text == "put_u8"
            && i + 1 < body.len()
            && body[i + 1].text == "("
        {
            let close = crate::passes::matching_paren(body, i + 1);
            for t in &body[i + 2..close] {
                if t.kind == Tok::Num {
                    if let Ok(v) = parse_int(&t.text) {
                        out.insert(v);
                    }
                }
            }
        }
    }
    out
}

/// Integer literals a decoder matches on (`N =>` / `N |` arms).
fn decoder_literals(f: &FnIr) -> BTreeSet<u64> {
    let body = &f.body;
    let mut out = BTreeSet::new();
    for i in 0..body.len() {
        if body[i].kind != Tok::Num {
            continue;
        }
        let arm = match (body.get(i + 1), body.get(i + 2)) {
            (Some(a), _) if a.text == "|" => true,
            (Some(a), Some(b)) => a.text == "=" && b.text == ">" && a.end == b.start,
            _ => false,
        };
        if arm {
            if let Ok(v) = parse_int(&body[i].text) {
                out.insert(v);
            }
        }
    }
    out
}

/// Parse an integer literal's value, ignoring `_` separators and type
/// suffixes (`3u8`, `0x0A_u8`). Float-looking literals fail.
fn parse_int(s: &str) -> Result<u64, ()> {
    let s = s.replace('_', "");
    if s.contains('.') {
        return Err(());
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        return u64::from_str_radix(&digits, 16).map_err(|_| ());
    }
    let digits: String = s.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse::<u64>().map_err(|_| ())
}

pub(crate) fn matching_paren(body: &[T], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in body.iter().enumerate().skip(open) {
        if t.kind == Tok::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    body.len().saturating_sub(1)
}

// ---------------------------------------------------------------------------
// DT: determinism dataflow
// ---------------------------------------------------------------------------

/// Functions whose `&mut f64` parameter is accumulated into, made
/// transitive: `f(&mut acc)` → `g(&mut acc)` → `*acc += …`.
fn accumulator_fns(ws: &Workspace, graph: &CallGraph) -> Vec<bool> {
    let mut acc: Vec<bool> = (0..ws.fns.len())
        .map(|id| ws.fn_ir(id).accumulates_into_param)
        .collect();
    // Fixpoint: a fn that forwards a float &mut param to an accumulator
    // is itself an accumulator.
    loop {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            if acc[id] {
                continue;
            }
            let f = ws.fn_ir(id);
            if f.float_mut_params.is_empty() {
                continue;
            }
            let forwards = f.calls.iter().any(|c| {
                c.mut_ref_args.iter().any(|a| f.float_mut_params.contains(a))
                    && graph.callees[id]
                        .iter()
                        .any(|&(t, line)| line == c.line && acc[t])
            });
            if forwards {
                acc[id] = true;
                changed = true;
            }
        }
        if !changed {
            return acc;
        }
    }
}

fn determinism_dataflow(ws: &Workspace, graph: &CallGraph, cfg: &Config) -> Vec<Diagnostic> {
    let acc_fns = accumulator_fns(ws, graph);
    let mut out = Vec::new();
    for id in 0..ws.fns.len() {
        let f = ws.fn_ir(id);
        if f.in_test {
            continue;
        }
        let file = ws.file_of(id);
        let blessed = cfg.blessed_float_files.iter().any(|p| p == &file.rel);

        // --- DT001: accumulation while iterating a HashMap/HashSet ---
        let mut hash_vars: Vec<&str> =
            f.hash_vars.iter().map(|s| s.as_str()).collect();
        hash_vars.extend(file.hash_vars.iter().map(|s| s.as_str()));
        for lp in &f.loops {
            if !lp.iter_idents.iter().any(|x| hash_vars.contains(&x.as_str())) {
                continue;
            }
            // Accumulation directly in the loop body…
            let mut hit: Option<(usize, String)> = f
                .accums
                .iter()
                .find(|a| a.at > lp.body.0 && a.at < lp.body.1)
                .map(|a| (a.line, format!("`{} += …`", a.lhs)));
            // …or handed to an accumulating callee via `&mut`.
            if hit.is_none() {
                hit = f
                    .calls
                    .iter()
                    .filter(|c| !c.mut_ref_args.is_empty())
                    .find(|c| {
                        body_range_contains_line(f, lp.body, c.line)
                            && graph.callees[id]
                                .iter()
                                .any(|&(t, line)| line == c.line && acc_fns[t])
                    })
                    .map(|c| (c.line, format!("`{}(&mut …)`", c.name)));
            }
            if let Some((line, what)) = hit {
                if file.waived(lp.line, "DETERMINISM-OK:")
                    || file.waived(line, "DETERMINISM-OK:")
                {
                    continue;
                }
                out.push(Diagnostic {
                    code: "DT001",
                    file: file.rel.clone(),
                    line,
                    func: f.name.clone(),
                    anchor: what.clone(),
                    message: format!(
                        "accumulation {what} while iterating a HashMap/HashSet in `{}` — \
                         iteration order is unstable, fold order must not depend on it",
                        f.name
                    ),
                    path: Vec::new(),
                });
            }
        }
        // Iterator-chain form: `map.iter()…sum::<f64>()` in one statement.
        out.extend(hash_chain_hits(f, file, &hash_vars));

        if blessed {
            continue; // DT002 does not apply to the reduction impls.
        }

        // --- DT002: float accumulation inside a parallel closure ---
        for ps in &f.par_sites {
            let mut hit: Option<(usize, String)> = f
                .accums
                .iter()
                .find(|a| {
                    a.at > ps.args.0
                        && a.at < ps.args.1
                        && !f.int_vars.contains(&a.lhs)
                        && !is_int_local(f, &a.lhs)
                        && !declared_in_region(f, &a.lhs, ps.args.0, a.at)
                        && !int_literal_rhs(f, a.at)
                })
                .map(|a| (a.line, format!("`{} += …`", a.lhs)));
            if hit.is_none() {
                hit = f
                    .calls
                    .iter()
                    .filter(|c| !c.mut_ref_args.is_empty())
                    .find(|c| {
                        c.line >= f.body[ps.args.0].line
                            && c.line <= f.body[ps.args.1.min(f.body.len() - 1)].line
                            && graph.callees[id]
                                .iter()
                                .any(|&(t, line)| line == c.line && acc_fns[t])
                    })
                    .map(|c| (c.line, format!("`{}(&mut …)`", c.name)));
            }
            if let Some((line, what)) = hit {
                if file.waived(line, "DETERMINISM-OK:") || file.waived(ps.line, "DETERMINISM-OK:")
                {
                    continue;
                }
                out.push(Diagnostic {
                    code: "DT002",
                    file: file.rel.clone(),
                    line,
                    func: f.name.clone(),
                    anchor: what.clone(),
                    message: format!(
                        "float accumulation {what} inside a parallel closure in `{}` — \
                         route the reduction through a blessed deterministic path instead",
                        f.name
                    ),
                    path: Vec::new(),
                });
            }
        }
    }
    out
}

fn is_int_local(f: &FnIr, name: &str) -> bool {
    f.int_vars.iter().any(|v| v == name)
}

/// Is `name` declared (`let [mut] name`) or bound as a closure
/// parameter (`|name|`, `|name, …|`, `|…, name|`) between body token
/// indices `from..to`? Such a variable is per-task state, not a
/// captured accumulator.
fn declared_in_region(f: &FnIr, name: &str, from: usize, to: usize) -> bool {
    let body = &f.body;
    for i in from..to.min(body.len()) {
        if body[i].text == "let" {
            let mut j = i + 1;
            if j < body.len() && body[j].text == "mut" {
                j += 1;
            }
            if body.get(j).is_some_and(|t| t.text == name) {
                return true;
            }
        }
        if body[i].text == "|"
            && body.get(i + 1).is_some_and(|t| t.text == name)
            && body
                .get(i + 2)
                .is_some_and(|t| t.text == "|" || t.text == "," || t.text == ":")
        {
            return true;
        }
        if body[i].text == ","
            && body.get(i + 1).is_some_and(|t| t.text == name)
            && body.get(i + 2).is_some_and(|t| t.text == "|" || t.text == ",")
        {
            return true;
        }
    }
    false
}

/// Is the `+=` at body index `at` adding an integer literal (e.g.
/// `cursor += 1`)? Integer bookkeeping is not a float reduction.
fn int_literal_rhs(f: &FnIr, at: usize) -> bool {
    // `at` points at `+`; rhs starts after `=` (skip a unary minus).
    let mut j = at + 2;
    if f.body.get(j).is_some_and(|t| t.text == "-") {
        j += 1;
    }
    f.body
        .get(j)
        .is_some_and(|t| t.kind == Tok::Num && !t.text.contains('.') && !t.text.contains('e'))
}

fn body_range_contains_line(f: &FnIr, range: (usize, usize), line: usize) -> bool {
    let lo = f.body.get(range.0).map_or(usize::MAX, |t| t.line);
    let hi = f.body.get(range.1.min(f.body.len().saturating_sub(1))).map_or(0, |t| t.line);
    line >= lo && line <= hi
}

/// `map.iter()/.values()/.keys()` chained into `sum`/`fold`/`product`
/// within the same statement.
fn hash_chain_hits(
    f: &FnIr,
    file: &crate::ir::FileIr,
    hash_vars: &[&str],
) -> Vec<Diagnostic> {
    let body = &f.body;
    let mut out = Vec::new();
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        let starts_chain = t.kind == Tok::Ident
            && hash_vars.contains(&t.text.as_str())
            && i + 2 < body.len()
            && body[i + 1].text == "."
            && matches!(
                body[i + 2].text.as_str(),
                "iter" | "iter_mut" | "into_iter" | "keys" | "values" | "values_mut" | "drain"
            );
        if starts_chain {
            let mut j = i + 3;
            while j < body.len() && body[j].text != ";" && body[j].text != "{" {
                if body[j].kind == Tok::Ident
                    && matches!(body[j].text.as_str(), "sum" | "fold" | "product")
                    && !file.waived(t.line, "DETERMINISM-OK:")
                    && !file.waived(body[j].line, "DETERMINISM-OK:")
                {
                    out.push(Diagnostic {
                        code: "DT001",
                        file: file.rel.clone(),
                        line: t.line,
                        func: f.name.clone(),
                        anchor: format!("`{}.{}().{}`", t.text, body[i + 2].text, body[j].text),
                        message: format!(
                            "`{}` folds over `{}` iteration in `{}` — HashMap/HashSet \
                             order is unstable",
                            body[j].text, t.text, f.name
                        ),
                        path: Vec::new(),
                    });
                    break;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sources: &[(&str, &str)], cfg: &Config) -> Vec<Diagnostic> {
        let owned: Vec<(String, String)> =
            sources.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
        let ws = Workspace::from_sources(&owned);
        analyze(&ws, cfg)
    }

    fn cfg_with(no_panic: &[&str], entries: &[&str]) -> Config {
        Config {
            no_panic_files: no_panic.iter().map(|s| s.to_string()).collect(),
            entry_files: entries.iter().map(|s| s.to_string()).collect(),
            wire_files: vec!["wire.rs".into()],
            blessed_float_files: vec!["blessed.rs".into()],
            debug_arith: false,
        }
    }

    #[test]
    fn transitive_unwrap_is_flagged_with_path() {
        let diags = run(
            &[
                ("np.rs", "pub fn driver() { helper(); }"),
                ("helper.rs", "pub fn helper() { maybe().unwrap(); }\nfn maybe() -> Option<u8> { None }"),
            ],
            &cfg_with(&["np.rs"], &[]),
        );
        let pa: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "PA002").collect();
        assert_eq!(pa.len(), 1);
        assert_eq!(pa[0].file, "helper.rs");
        assert_eq!(pa[0].func, "helper");
        assert_eq!(pa[0].path.len(), 2);
        assert!(pa[0].path[0].contains("driver"));
    }

    #[test]
    fn waiver_suppresses_at_introducing_site() {
        let diags = run(
            &[
                ("np.rs", "pub fn driver() { helper(); }"),
                (
                    "helper.rs",
                    "pub fn helper() {\n    // PANIC-OK: input is statically valid here\n    maybe().unwrap();\n}\nfn maybe() -> Option<u8> { None }",
                ),
            ],
            &cfg_with(&["np.rs"], &[]),
        );
        assert!(diags.iter().all(|d| d.code != "PA002"));
    }

    #[test]
    fn blind_recv_is_flagged_and_timeout_param_clears_it() {
        let bad = run(
            &[("entry.rs", "pub fn pump(rx: &Receiver) { rx.recv(); }")],
            &cfg_with(&[], &["entry.rs"]),
        );
        assert!(bad.iter().any(|d| d.code == "DL001" && d.anchor == "recv"));
        let good = run(
            &[("entry.rs", "pub fn pump(rx: &Receiver, timeout: Duration) { rx.recv(); }")],
            &cfg_with(&[], &["entry.rs"]),
        );
        assert!(good.iter().all(|d| d.code != "DL001"));
    }

    #[test]
    fn encode_only_wire_tag_is_flagged() {
        let diags = run(
            &[(
                "wire.rs",
                "pub mod kind { pub const PING: u8 = 9; pub const PONG: u8 = 10; }\n\
                 fn send(e: &mut Enc) { frame(kind::PING); frame(kind::PONG); }\n\
                 fn recvk(k: u8) { match k { kind::PONG => {} _ => {} } }",
            )],
            &cfg_with(&[], &[]),
        );
        let wp: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "WP001").collect();
        assert_eq!(wp.len(), 1);
        assert_eq!(wp[0].anchor, "PING");
    }

    #[test]
    fn paired_tag_sets_are_cross_checked() {
        let diags = run(
            &[(
                "wire.rs",
                "fn put_mode(e: &mut Enc, m: Mode) { e.put_u8(match m { Mode::A => 0, Mode::B => 1, Mode::C => 2 }); }\n\
                 fn get_mode(d: &mut Dec) -> Mode { match d.get_u8() { 0 => Mode::A, 1 => Mode::B, _ => Mode::A } }",
            )],
            &cfg_with(&[], &[]),
        );
        let wp3: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "WP003").collect();
        assert_eq!(wp3.len(), 1);
        assert_eq!(wp3[0].anchor, "tag 2");
    }

    #[test]
    fn pool_closure_float_accum_is_flagged() {
        let diags = run(
            &[(
                "hot.rs",
                "fn reduce(pool: &Pool) -> f64 { let mut e = 0.0; pool.run(|| { e += 1.0; }); e }",
            )],
            &cfg_with(&[], &[]),
        );
        assert!(diags.iter().any(|d| d.code == "DT002"));
        // Same shape in a blessed file is fine.
        let ok = run(
            &[(
                "blessed.rs",
                "fn reduce(pool: &Pool) -> f64 { let mut e = 0.0; pool.run(|| { e += 1.0; }); e }",
            )],
            &cfg_with(&[], &[]),
        );
        assert!(ok.iter().all(|d| d.code != "DT002"));
    }

    #[test]
    fn interprocedural_accumulator_through_mut_ref() {
        let diags = run(
            &[(
                "hot.rs",
                "fn add_into(acc: &mut f64, v: f64) { *acc += v; }\n\
                 fn reduce(pool: &Pool) -> f64 { let mut e = 0.0; pool.run(|| add_into(&mut e, 1.0)); e }",
            )],
            &cfg_with(&[], &[]),
        );
        assert!(diags.iter().any(|d| d.code == "DT002" && d.anchor.contains("add_into")));
    }

    #[test]
    fn hash_iteration_accumulation_is_flagged() {
        let diags = run(
            &[(
                "m.rs",
                "fn total(m: &HashMap<u32, f64>) -> f64 {\n    let mut s = 0.0;\n    for (_k, v) in m { s += v; }\n    s\n}",
            )],
            &cfg_with(&[], &[]),
        );
        assert!(diags.iter().any(|d| d.code == "DT001"));
    }

    #[test]
    fn hash_chain_sum_is_flagged() {
        let diags = run(
            &[("m.rs", "fn total(m: &HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }")],
            &cfg_with(&[], &[]),
        );
        assert!(diags.iter().any(|d| d.code == "DT001" && d.anchor.contains("sum")));
    }
}
