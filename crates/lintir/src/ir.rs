//! Lightweight item/signature/call-site IR built on the lexer.
//!
//! One [`FileIr`] per source file: every `fn` item (free functions,
//! inherent/trait `impl` methods, trait declarations) becomes an
//! [`FnIr`] carrying its signature summary, its resolved-later call
//! sites, and the **facts** the passes consume — may-panic sites,
//! blocking primitives, timeout setters, accumulation ops, loops,
//! parallel-closure regions. Extraction is token-driven (no AST): the
//! soundness caveats this buys are documented per-pass in DESIGN.md §13.

use crate::lex::{lex, Tok};

/// A significant token (whitespace and comments dropped) with its text,
/// 1-based line, and byte span (adjacency checks for `+=`/`::`/`->`
/// compare `start`/`end`).
#[derive(Clone, Debug)]
pub struct T {
    pub kind: Tok,
    pub text: String,
    pub line: usize,
    pub start: usize,
    pub end: usize,
}

/// A call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallIr {
    /// Callee name (last path segment).
    pub name: String,
    /// Path qualifiers before the name (`wire::frame` → `["wire"]`),
    /// with `crate`/`self`/`super` stripped.
    pub qual: Vec<String>,
    /// Method-call syntax (`recv.foo(…)`)?
    pub method: bool,
    pub line: usize,
    /// Identifiers passed by `&mut` at the call's top level (the
    /// accumulate-through-call channel the determinism pass tracks).
    pub mut_ref_args: Vec<String>,
}

/// Kinds of may-panic facts the panic-reachability pass propagates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` /
    /// `assert*!` — explicit panics, firing in release builds.
    Macro,
    /// `.unwrap()` / `.expect(…)`.
    UnwrapExpect,
    /// Slice/array indexing `a[i]`.
    SliceIndex,
    /// Integer `/` or `%` whose right-hand side is a known-integer
    /// identifier (divide-by-zero capable).
    IntDivRem,
    /// `copy_from_slice` / `clone_from_slice` (length-mismatch panic).
    CopyFromSlice,
}

/// One extracted fact at a source line.
#[derive(Clone, Debug)]
pub enum Fact {
    Panic { kind: PanicKind, line: usize, what: String },
    /// An indefinitely-blocking primitive call (`recv`, `read`, `write`,
    /// `accept`, `wait`, …).
    Blocking { name: String, line: usize },
    /// `set_read_timeout` / `set_write_timeout` / `set_nonblocking` —
    /// bounds subsequent socket reads/writes in the same function.
    /// `disables` is true when the argument is literally `None` (which
    /// *removes* the bound).
    TimeoutSetter { line: usize, disables: bool },
}

/// A `for pat in expr { body }` loop.
#[derive(Clone, Debug)]
pub struct ForLoop {
    pub line: usize,
    /// Identifiers appearing in the iterated expression.
    pub iter_idents: Vec<String>,
    /// Token index range (into `FnIr::body`) of the loop body.
    pub body: (usize, usize),
}

/// A call handing a closure to a parallel primitive (`.run(`,
/// `.try_map(`, `spawn(`).
#[derive(Clone, Debug)]
pub struct ParSite {
    pub line: usize,
    /// Token index range (into `FnIr::body`) of the argument list.
    pub args: (usize, usize),
}

/// A `lhs += …` (or `*lhs += …`, `lhs[i] += …`) accumulation.
#[derive(Clone, Debug)]
pub struct AccumOp {
    pub line: usize,
    /// Base identifier being accumulated into (for `self.x[i] +=`, the
    /// field name `x`).
    pub lhs: String,
    /// Token index (into `FnIr::body`) of the `+` token.
    pub at: usize,
}

/// One function item.
#[derive(Clone, Debug, Default)]
pub struct FnIr {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub is_pub: bool,
    /// Under `#[cfg(test)]` or carrying `#[test]`.
    pub in_test: bool,
    /// Declared inside an `impl` block for this type name.
    pub impl_type: Option<String>,
    pub has_self: bool,
    /// Signature carries a `Duration`/`Instant` parameter or a
    /// parameter named `*timeout*`/`*deadline*` — the marker the
    /// deadline pass accepts as "the caller supplied a bound".
    pub deadline_bound: bool,
    /// Parameters of `&mut f64`-ish type (accumulation targets).
    pub float_mut_params: Vec<String>,
    /// Identifiers known integer-typed in this scope.
    pub int_vars: Vec<String>,
    /// Identifiers bound to HashMap/HashSet in this fn (params/lets).
    pub hash_vars: Vec<String>,
    /// Significant tokens of the body, *excluding* nested fn items.
    pub body: Vec<T>,
    pub calls: Vec<CallIr>,
    pub facts: Vec<Fact>,
    pub loops: Vec<ForLoop>,
    pub par_sites: Vec<ParSite>,
    pub accums: Vec<AccumOp>,
    /// Body accumulates (`+=`) into one of `float_mut_params` — made
    /// transitive by the graph layer.
    pub accumulates_into_param: bool,
}

/// A `pub const NAME: u8 = N;` inside a `mod kind { … }` block — the
/// wire pass cross-checks these against encode uses and decode arms.
#[derive(Clone, Debug)]
pub struct KindConst {
    pub name: String,
    pub value: u64,
    pub line: usize,
}

/// One parsed source file.
#[derive(Clone, Debug, Default)]
pub struct FileIr {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    pub fns: Vec<FnIr>,
    /// Frame-kind constants declared in a `mod kind` block.
    pub kind_consts: Vec<KindConst>,
    /// Identifiers bound/ascribed to HashMap/HashSet anywhere in the
    /// file (fields included) — name-based, like the legacy rule.
    pub hash_vars: Vec<String>,
    /// Raw source lines (waiver markers are matched against these).
    pub raw_lines: Vec<String>,
    /// Lines holding an `unsafe` keyword in code (not in comments or
    /// literals), each once.
    pub unsafe_lines: Vec<usize>,
    /// Whether the file carries an inner `#![forbid(unsafe_code)]`.
    pub forbids_unsafe_code: bool,
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut",
    "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type",
    "unsafe", "use", "where", "while",
];

const INT_TYPES: &[&str] =
    &["usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128"];

const PANIC_MACROS: &[&str] =
    &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];

/// Indefinitely-blocking primitive names (exact match — `recv_timeout`,
/// `try_recv`, `try_wait` are their bounded cousins and do not appear).
pub const BLOCKING_NAMES: &[&str] =
    &["recv", "read", "write", "accept", "wait", "read_exact", "write_all", "read_to_end"];

/// Parallel primitives whose closures must not reduce floats.
pub const PARALLEL_NAMES: &[&str] = &["run", "try_map", "spawn"];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Significant tokens with line numbers.
fn significant(src: &str) -> Vec<T> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut pos = 0usize;
    for t in lex(src) {
        line += src[pos..t.start].matches('\n').count();
        pos = t.start;
        if !matches!(t.kind, Tok::Ws | Tok::LineComment | Tok::BlockComment) {
            out.push(T {
                kind: t.kind,
                text: src[t.start..t.end].to_string(),
                line,
                start: t.start,
                end: t.end,
            });
        }
    }
    out
}

/// Index of the token matching the opener at `open` (`{`/`}`, `(`/`)`,
/// `[`/`]`); `toks.len() - 1` when unbalanced.
fn matching(toks: &[T], open: usize, open_ch: &str, close_ch: &str) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == Tok::Punct {
            if t.text == open_ch {
                depth += 1;
            } else if t.text == close_ch {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Skip a generics group starting at `<` (returns index just past the
/// matching `>`). `->`'s `>` is not an angle closer.
fn skip_generics(toks: &[T], start: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        if t.kind == Tok::Punct {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    let arrow = j > 0 && toks[j - 1].text == "-" && toks[j - 1].end == t.start;
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            return j + 1;
                        }
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    toks.len()
}

/// Are tokens `i` and `i+1` adjacent in the source (no gap)?
fn adjacent(toks: &[T], i: usize) -> bool {
    i + 1 < toks.len() && toks[i].end == toks[i + 1].start
}

struct Parser<'a> {
    toks: &'a [T],
    fns: Vec<FnIr>,
    kind_consts: Vec<KindConst>,
    hash_vars: Vec<String>,
    /// File-level `const`/`static` arrays with a literal length.
    const_arrays: Vec<(String, u64)>,
}

impl<'a> Parser<'a> {
    /// Walk the whole token stream, tracking `impl`/`mod`/test context
    /// by brace depth.
    fn parse(&mut self) {
        // (depth_when_entered, impl type) / (depth, mod name) / (depth) stacks.
        let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();
        let mut mod_stack: Vec<(usize, String)> = Vec::new();
        let mut test_stack: Vec<usize> = Vec::new();
        let mut depth = 0usize;
        let mut pending_cfg_test = false;
        let mut pending_test_attr = false;
        let mut pending_pub = false;
        let mut i = 0;
        while i < self.toks.len() {
            let t = &self.toks[i];
            match (t.kind, t.text.as_str()) {
                (Tok::Punct, "{") => {
                    depth += 1;
                    i += 1;
                }
                (Tok::Punct, "}") => {
                    depth = depth.saturating_sub(1);
                    while impl_stack.last().is_some_and(|&(d, _)| d > depth) {
                        impl_stack.pop();
                    }
                    while mod_stack.last().is_some_and(|&(d, _)| d > depth) {
                        mod_stack.pop();
                    }
                    while test_stack.last().is_some_and(|&d| d > depth) {
                        test_stack.pop();
                    }
                    i += 1;
                }
                (Tok::Punct, "#") => {
                    // Attribute: `#[…]` or `#![…]`.
                    let mut j = i + 1;
                    if j < self.toks.len() && self.toks[j].text == "!" {
                        j += 1;
                    }
                    if j < self.toks.len() && self.toks[j].text == "[" {
                        let close = matching(self.toks, j, "[", "]");
                        let attr: String = self.toks[i..=close]
                            .iter()
                            .map(|t| t.text.as_str())
                            .collect::<Vec<_>>()
                            .join(" ");
                        if attr.contains("cfg ( test )") || attr.contains("cfg ( all ( test") {
                            pending_cfg_test = true;
                        }
                        if attr.contains("[ test ]") || attr.contains("[ test :") {
                            pending_test_attr = true;
                        }
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                (Tok::Ident, "pub") => {
                    pending_pub = true;
                    // Skip `pub(crate)` / `pub(super)` qualifiers.
                    if i + 1 < self.toks.len() && self.toks[i + 1].text == "(" {
                        i = matching(self.toks, i + 1, "(", ")") + 1;
                    } else {
                        i += 1;
                    }
                }
                (Tok::Ident, "impl") => {
                    // Find the block opener; extract the implemented type.
                    let mut j = i + 1;
                    if j < self.toks.len() && self.toks[j].text == "<" {
                        j = skip_generics(self.toks, j);
                    }
                    let mut ty: Option<String> = None;
                    let mut after_for: Option<String> = None;
                    let mut saw_for = false;
                    while j < self.toks.len() && self.toks[j].text != "{" && self.toks[j].text != ";"
                    {
                        let tj = &self.toks[j];
                        if tj.kind == Tok::Ident {
                            if tj.text == "for" {
                                saw_for = true;
                            } else if tj.text == "where" {
                                break;
                            } else if !is_keyword(&tj.text) {
                                if saw_for {
                                    if after_for.is_none() {
                                        after_for = Some(tj.text.clone());
                                    }
                                } else if ty.is_none() {
                                    ty = Some(tj.text.clone());
                                }
                            }
                        }
                        j += 1;
                    }
                    let impl_ty = after_for.or(ty);
                    // Register at the block's depth (the `{` handler will
                    // bump `depth`, so entries guard depth+1 regions).
                    impl_stack.push((depth + 1, impl_ty));
                    if pending_cfg_test {
                        test_stack.push(depth + 1);
                    }
                    pending_cfg_test = false;
                    pending_test_attr = false;
                    pending_pub = false;
                    // Continue from the opener so `{` is processed normally.
                    while j < self.toks.len() && self.toks[j].text != "{" && self.toks[j].text != ";"
                    {
                        j += 1;
                    }
                    i = j;
                }
                (Tok::Ident, "mod") => {
                    if i + 1 < self.toks.len() && self.toks[i + 1].kind == Tok::Ident {
                        let name = self.toks[i + 1].text.clone();
                        if i + 2 < self.toks.len() && self.toks[i + 2].text == "{" {
                            mod_stack.push((depth + 1, name));
                            if pending_cfg_test {
                                test_stack.push(depth + 1);
                            }
                            i += 2; // land on `{`
                        } else {
                            i += 2; // `mod name;`
                        }
                    } else {
                        i += 1;
                    }
                    pending_cfg_test = false;
                    pending_test_attr = false;
                    pending_pub = false;
                }
                (Tok::Ident, "const") => {
                    // `const NAME: u8 = N;` inside `mod kind` → KindConst.
                    let in_kind_mod = mod_stack.last().is_some_and(|(_, m)| m == "kind");
                    if in_kind_mod
                        && i + 1 < self.toks.len()
                        && self.toks[i + 1].kind == Tok::Ident
                    {
                        let name = self.toks[i + 1].text.clone();
                        let line = self.toks[i + 1].line;
                        // Scan to `=` then a numeric literal.
                        let mut j = i + 2;
                        while j < self.toks.len() && self.toks[j].text != "=" && self.toks[j].text != ";" {
                            j += 1;
                        }
                        if j + 1 < self.toks.len() && self.toks[j].text == "=" {
                            if let Ok(v) = self.toks[j + 1].text.parse::<u64>() {
                                self.kind_consts.push(KindConst { name, value: v, line });
                            }
                        }
                        i = j;
                    } else {
                        i += 1;
                    }
                }
                (Tok::Ident, "fn") => {
                    let in_test = !test_stack.is_empty() || pending_test_attr || pending_cfg_test;
                    let impl_type =
                        impl_stack.last().and_then(|(_, ty)| ty.clone());
                    let consumed = self.parse_fn(i, pending_pub, in_test, impl_type);
                    pending_cfg_test = false;
                    pending_test_attr = false;
                    pending_pub = false;
                    i = consumed;
                }
                (Tok::Ident, _) => {
                    // Track file-level HashMap/HashSet bindings by name
                    // (`name: HashMap<…>` fields and `let name = HashMap::…`).
                    self.scan_hash_binding(i);
                    pending_pub = false;
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            }
        }
    }

    fn scan_hash_binding(&mut self, i: usize) {
        let t = &self.toks[i];
        if t.text != "HashMap" && t.text != "HashSet" {
            return;
        }
        // `name : HashMap` (field or ascription).
        if i >= 2 && self.toks[i - 1].text == ":" && self.toks[i - 2].kind == Tok::Ident {
            let name = self.toks[i - 2].text.clone();
            if !is_keyword(&name) && !self.hash_vars.contains(&name) {
                self.hash_vars.push(name);
            }
        }
        // `name : & HashMap` / `name : & mut HashMap`.
        if i >= 3
            && (self.toks[i - 1].text == "&" || self.toks[i - 1].text == "mut")
        {
            let mut k = i - 1;
            while k > 0 && (self.toks[k].text == "&" || self.toks[k].text == "mut") {
                k -= 1;
            }
            if k >= 1 && self.toks[k].text == ":" && self.toks[k - 1].kind == Tok::Ident {
                let name = self.toks[k - 1].text.clone();
                if !is_keyword(&name) && !self.hash_vars.contains(&name) {
                    self.hash_vars.push(name);
                }
            }
        }
        // `let [mut] name = HashMap :: …` / `= HashMap :: …`.
        let mut k = i;
        while k > 0 && matches!(self.toks[k - 1].text.as_str(), "=" | "::") {
            k -= 1;
        }
        if k < i && k >= 1 && self.toks[k - 1].kind == Tok::Ident && self.toks[k].text == "=" {
            let name = self.toks[k - 1].text.clone();
            if !is_keyword(&name) && !self.hash_vars.contains(&name) {
                self.hash_vars.push(name);
            }
        }
    }

    /// Parse one `fn` item starting at token `at` (the `fn` keyword).
    /// Returns the token index to continue from.
    fn parse_fn(
        &mut self,
        at: usize,
        is_pub: bool,
        in_test: bool,
        impl_type: Option<String>,
    ) -> usize {
        let toks = self.toks;
        // `fn` must be followed by a name (otherwise it's an `fn(…)`
        // pointer type).
        let Some(name_tok) = toks.get(at + 1) else { return at + 1 };
        if name_tok.kind != Tok::Ident {
            return at + 1;
        }
        let mut f = FnIr {
            name: name_tok.text.clone(),
            line: toks[at].line,
            is_pub,
            in_test,
            impl_type,
            ..FnIr::default()
        };
        let mut j = at + 2;
        if j < toks.len() && toks[j].text == "<" {
            j = skip_generics(toks, j);
        }
        if j >= toks.len() || toks[j].text != "(" {
            return at + 1;
        }
        let params_close = matching(toks, j, "(", ")");
        self.parse_params(&mut f, j + 1, params_close);
        // Skip return type / where clause to the body opener.
        let mut k = params_close + 1;
        while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
            if toks[k].text == "<" {
                k = skip_generics(toks, k);
            } else {
                k += 1;
            }
        }
        if k >= toks.len() || toks[k].text == ";" {
            // Trait method declaration without a body.
            self.fns.push(f);
            return k.min(toks.len().saturating_sub(1)) + 1;
        }
        let body_close = matching(toks, k, "{", "}");
        // Nested `fn` items inside the body are parsed as their own
        // defs and excluded from this body's fact scan.
        let mut nested: Vec<(usize, usize)> = Vec::new();
        let mut b = k + 1;
        while b < body_close {
            if toks[b].kind == Tok::Ident
                && toks[b].text == "fn"
                && b + 1 < toks.len()
                && toks[b + 1].kind == Tok::Ident
            {
                let end = self.parse_fn(b, false, in_test, None);
                nested.push((b, end));
                b = end;
            } else {
                b += 1;
            }
        }
        let mut body: Vec<T> = Vec::with_capacity(body_close - k);
        let mut idx = k;
        while idx <= body_close.min(toks.len() - 1) {
            if let Some(&(_, end)) = nested.iter().find(|&&(s, _)| s == idx) {
                idx = end;
                continue;
            }
            body.push(toks[idx].clone());
            idx += 1;
        }
        f.body = body;
        analyze_body(&mut f, &self.const_arrays);
        self.fns.push(f);
        body_close + 1
    }

    /// Parameter list between token indices `open..close` (exclusive).
    fn parse_params(&self, f: &mut FnIr, open: usize, close: usize) {
        let toks = self.toks;
        let mut depth = 0i32;
        let mut param_start = open;
        let mut params: Vec<(usize, usize)> = Vec::new();
        let mut j = open;
        while j < close {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => {
                    j = skip_generics(toks, j);
                    continue;
                }
                "," if depth == 0 => {
                    params.push((param_start, j));
                    param_start = j + 1;
                }
                _ => {}
            }
            j += 1;
        }
        if param_start < close {
            params.push((param_start, close));
        }
        for (s, e) in params {
            let slice = &toks[s..e];
            if slice.iter().any(|t| t.text == "self") {
                f.has_self = true;
                continue;
            }
            // `name : type…`
            let name = if slice.len() >= 2 && slice[0].kind == Tok::Ident && slice[1].text == ":"
            {
                Some(slice[0].text.clone())
            } else {
                None
            };
            let ty_text: String = slice
                .iter()
                .skip_while(|t| t.text != ":")
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            if ty_text.contains("Duration") || ty_text.contains("Instant") {
                f.deadline_bound = true;
            }
            if let Some(n) = name {
                let ln = n.to_ascii_lowercase();
                if ln.contains("timeout") || ln.contains("deadline") || ln.contains("budget") {
                    f.deadline_bound = true;
                }
                if ty_text.contains("& mut") && ty_text.contains("f64") {
                    f.float_mut_params.push(n.clone());
                }
                let bare = ty_text.trim_start_matches(": ").trim();
                if INT_TYPES.contains(&bare) {
                    f.int_vars.push(n.clone());
                }
                if ty_text.contains("HashMap") || ty_text.contains("HashSet") {
                    f.hash_vars.push(n);
                }
            }
        }
    }
}

/// Base identifier of the expression ending at token `end` (inclusive):
/// walks back over `]…[` groups and `.`-chains. For `self.x[i]` returns
/// the first field after `self`.
fn lhs_base(body: &[T], end: usize) -> Option<String> {
    let mut j = end;
    let mut chain: Vec<String> = Vec::new();
    loop {
        let t = body.get(j)?;
        if t.text == "]" {
            // Balance back to the opening bracket.
            let mut depth = 0i32;
            while j > 0 {
                match body[j].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j -= 1;
            }
            if j == 0 {
                return None;
            }
            j -= 1;
            continue;
        }
        if t.kind == Tok::Ident {
            chain.push(t.text.clone());
            if j >= 1 && body[j - 1].text == "." {
                if j >= 2 {
                    j -= 2;
                    continue;
                }
                return None;
            }
            break;
        }
        if t.text == "*" {
            // Deref on the left: the ident is further right — but we walk
            // right-to-left, so `*` before the ident means we're done.
            break;
        }
        return None;
    }
    chain.reverse();
    let first = chain.first()?;
    if first == "self" {
        chain.get(1).cloned()
    } else {
        Some(first.clone())
    }
}

/// Extract calls, facts, loops, parallel sites, and accumulations from
/// a parsed body.
fn analyze_body(f: &mut FnIr, const_arrays: &[(String, u64)]) {
    let body = &f.body;
    let n = body.len();

    // Local integer bindings: `let [mut] x : usize…`, `let n = xs.len()`,
    // `for i in 0..m`.
    for i in 0..n {
        if body[i].text != "let" {
            continue;
        }
        let mut j = i + 1;
        if j < n && body[j].text == "mut" {
            j += 1;
        }
        if j >= n || body[j].kind != Tok::Ident {
            continue;
        }
        let name = body[j].text.clone();
        if j + 2 < n && body[j + 1].text == ":" && INT_TYPES.contains(&body[j + 2].text.as_str())
        {
            f.int_vars.push(name.clone());
        }
        // `= … .len ( )` / `= … .len ( ) …ending with ;` (approximate:
        // any `.len()` before the terminating `;`).
        if j + 1 < n && body[j + 1].text == "=" {
            let mut k = j + 2;
            while k < n && body[k].text != ";" {
                if body[k].text == "len" && k >= 1 && body[k - 1].text == "." {
                    f.int_vars.push(name.clone());
                    break;
                }
                if body[k].text == "HashMap" || body[k].text == "HashSet" {
                    f.hash_vars.push(name.clone());
                    break;
                }
                k += 1;
            }
        }
        if j + 2 < n
            && body[j + 1].text == ":"
            && (body[j + 2].text == "HashMap" || body[j + 2].text == "HashSet")
        {
            f.hash_vars.push(name.clone());
        }
    }

    for i in 0..n {
        let t = &body[i];

        // ---- for loops (also: integer loop vars) ----
        if t.kind == Tok::Ident && t.text == "for" && i + 1 < n {
            // `for pat in expr {`
            let mut j = i + 1;
            let mut pat_idents: Vec<String> = Vec::new();
            while j < n && body[j].text != "in" {
                if body[j].kind == Tok::Ident && !is_keyword(&body[j].text) {
                    pat_idents.push(body[j].text.clone());
                }
                if body[j].text == "{" {
                    break; // not a for-loop shape we understand
                }
                j += 1;
            }
            if j < n && body[j].text == "in" {
                let mut k = j + 1;
                let mut iter_idents = Vec::new();
                let mut saw_range_num = false;
                let mut depth = 0i32;
                while k < n {
                    let tk = &body[k];
                    match tk.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {}
                    }
                    if tk.kind == Tok::Ident && !is_keyword(&tk.text) {
                        iter_idents.push(tk.text.clone());
                    }
                    if tk.kind == Tok::Num {
                        saw_range_num = true;
                    }
                    k += 1;
                }
                if k < n && body[k].text == "{" {
                    let close = matching(body, k, "{", "}");
                    f.loops.push(ForLoop {
                        line: t.line,
                        iter_idents: iter_idents.clone(),
                        body: (k, close),
                    });
                    // `for i in 0..n` ⇒ i is an integer.
                    if saw_range_num
                        || iter_idents.iter().any(|x| f.int_vars.contains(x))
                    {
                        for p in &pat_idents {
                            f.int_vars.push(p.clone());
                        }
                    }
                }
            }
        }

        if t.kind != Tok::Ident && t.kind != Tok::Punct {
            continue;
        }

        // ---- macros: panic family ----
        if t.kind == Tok::Ident
            && i + 1 < n
            && body[i + 1].text == "!"
            && PANIC_MACROS.contains(&t.text.as_str())
        {
            f.facts.push(Fact::Panic {
                kind: PanicKind::Macro,
                line: t.line,
                what: format!("{}!", t.text),
            });
            continue;
        }

        // ---- calls ----
        if t.kind == Tok::Ident
            && !is_keyword(&t.text)
            && i + 1 < n
            && body[i + 1].text == "("
            && (i == 0 || body[i - 1].text != "fn")
        {
            let method = i >= 1 && body[i - 1].text == ".";
            // Collect `seg ::` qualifiers going backwards.
            let mut qual: Vec<String> = Vec::new();
            if !method {
                let mut j = i;
                while j >= 2
                    && body[j - 1].text == ":"
                    && body[j - 2].text == ":"
                    && adjacent(body, j - 2)
                {
                    if j >= 3 && body[j - 3].kind == Tok::Ident {
                        qual.push(body[j - 3].text.clone());
                        j -= 3;
                    } else if j >= 3 && body[j - 3].text == ">" {
                        // `Foo::<T>::call` — give up on deeper quals.
                        break;
                    } else {
                        break;
                    }
                }
                qual.reverse();
                qual.retain(|q| q != "crate" && q != "super" && q != "self");
            }
            let close = matching(body, i + 1, "(", ")");
            let mut mut_ref_args = Vec::new();
            let mut depth = 0i32;
            let mut k = i + 1;
            while k < close {
                match body[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "&" if depth == 1
                        && k + 2 < n
                        && body[k + 1].text == "mut"
                        && body[k + 2].kind == Tok::Ident =>
                    {
                        mut_ref_args.push(body[k + 2].text.clone());
                    }
                    _ => {}
                }
                k += 1;
            }
            let name = t.text.clone();
            let line = t.line;

            match name.as_str() {
                "unwrap" | "expect" if method => {
                    f.facts.push(Fact::Panic {
                        kind: PanicKind::UnwrapExpect,
                        line,
                        what: format!(".{name}()"),
                    });
                }
                "copy_from_slice" | "clone_from_slice" if method => {
                    f.facts.push(Fact::Panic {
                        kind: PanicKind::CopyFromSlice,
                        line,
                        what: format!(".{name}()"),
                    });
                }
                "set_read_timeout" | "set_write_timeout" | "set_nonblocking" => {
                    let disables = body[i + 1..close]
                        .iter()
                        .any(|a| a.text == "None")
                        && name != "set_nonblocking";
                    f.facts.push(Fact::TimeoutSetter { line, disables });
                }
                _ => {
                    if BLOCKING_NAMES.contains(&name.as_str()) {
                        f.facts.push(Fact::Blocking { name: name.clone(), line });
                    }
                    if PARALLEL_NAMES.contains(&name.as_str()) {
                        f.par_sites.push(ParSite { line, args: (i + 1, close) });
                    }
                }
            }
            f.calls.push(CallIr { name, qual, method, line, mut_ref_args });
            continue;
        }

        // ---- slice indexing ----
        if t.kind == Tok::Punct && t.text == "[" && i >= 1 {
            let prev = &body[i - 1];
            let indexes = match prev.kind {
                Tok::Ident => !is_keyword(&prev.text),
                Tok::Punct => prev.text == ")" || prev.text == "]",
                _ => false,
            };
            if indexes {
                let close = matching(body, i, "[", "]");
                // `[..]` (full-range) cannot panic; skip it.
                let inner: Vec<&str> =
                    body[i + 1..close].iter().map(|x| x.text.as_str()).collect();
                let full_range = inner.iter().all(|s| *s == ".");
                // `TAB[e & M]` into a file-level array longer than M
                // cannot panic either.
                let field =
                    i.checked_sub(2).and_then(|j| body.get(j)).is_some_and(|t| t.text == ".");
                let bound = body.get(i + 1..close).and_then(masked_bound);
                let in_range = prev.kind == Tok::Ident
                    && !field
                    && const_arrays
                        .iter()
                        .any(|(name, len)| name == &prev.text && bound.is_some_and(|m| m < *len));
                if !full_range && !in_range && close > i {
                    f.facts.push(Fact::Panic {
                        kind: PanicKind::SliceIndex,
                        line: t.line,
                        what: format!("{}[…]", prev.text),
                    });
                }
            }
            continue;
        }

        // ---- `+=` accumulation ----
        if t.kind == Tok::Punct
            && t.text == "+"
            && adjacent(body, i)
            && i + 1 < n
            && body[i + 1].text == "="
            && i >= 1
        {
            if let Some(lhs) = lhs_base(body, i - 1) {
                f.accums.push(AccumOp { line: t.line, lhs, at: i });
            }
            continue;
        }

        // ---- integer division / remainder ----
        if t.kind == Tok::Punct && (t.text == "/" || t.text == "%") && i >= 1 && i + 1 < n {
            // Skip `/=`-style compound rhs offset.
            let rhs_at = if body[i + 1].text == "=" && adjacent(body, i) { i + 2 } else { i + 1 };
            let prev_ok = matches!(body[i - 1].kind, Tok::Ident | Tok::Num)
                || body[i - 1].text == ")"
                || body[i - 1].text == "]";
            if prev_ok {
                if let Some(rhs) = body.get(rhs_at) {
                    if rhs.kind == Tok::Ident && f.int_vars.contains(&rhs.text) {
                        f.facts.push(Fact::Panic {
                            kind: PanicKind::IntDivRem,
                            line: t.line,
                            what: format!("{} {}", t.text, rhs.text),
                        });
                    }
                }
            }
        }
    }

    f.accumulates_into_param =
        f.accums.iter().any(|a| f.float_mut_params.contains(&a.lhs));
}

/// `const`/`static` items typed `[…; LEN]` with a literal `LEN`, as
/// `(name, LEN)` — the arrays a masked index is checked against.
fn const_arrays(toks: &[T]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Tok::Ident || (t.text != "const" && t.text != "static") {
            continue;
        }
        let (Some(name), Some(colon), Some(open)) =
            (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
        else {
            continue;
        };
        if name.kind != Tok::Ident || colon.text != ":" || open.text != "[" {
            continue;
        }
        let close = matching(toks, i + 3, "[", "]");
        let Some([_, .., semi, len, _]) = toks.get(i + 3..=close) else { continue };
        if let (";", Some(len)) = (semi.text.as_str(), int_literal(len)) {
            out.push((name.text.clone(), len));
        }
    }
    out
}

/// Value of an integer literal token (`127`, `0x7f`, `1_000usize`).
fn int_literal(t: &T) -> Option<u64> {
    if t.kind != Tok::Num {
        return None;
    }
    let s = t.text.replace('_', "");
    let (digits, radix) = [("0x", 16), ("0o", 8), ("0b", 2)]
        .into_iter()
        .find_map(|(prefix, radix)| Some((s.strip_prefix(prefix)?, radix)))
        .unwrap_or((s.as_str(), 10));
    let (num, suffix) =
        digits.split_at(digits.find(|c: char| !c.is_digit(radix)).unwrap_or(digits.len()));
    if !(suffix.is_empty() || INT_TYPES.contains(&suffix)) {
        return None; // a float literal
    }
    u64::from_str_radix(num, radix).ok()
}

/// Upper bound `M` of an index expression `e & M` or `(e & M) as <int>`
/// with `M` an integer literal. `&` binds looser than every arithmetic,
/// shift and cast operator, so unless a looser one (`|`, `^`, a range
/// `..`) sits at the top level the whole expression is `(…) & M ≤ M`.
fn masked_bound(toks: &[T]) -> Option<u64> {
    if let [inner @ .., kw, ty] = toks {
        if kw.text == "as" && INT_TYPES.contains(&ty.text.as_str()) {
            return masked_bound(inner);
        }
    }
    if let [open, inner @ .., _] = toks {
        if open.text == "(" && matching(toks, 0, "(", ")") == toks.len() - 1 {
            return masked_bound(inner);
        }
    }
    let [lhs @ .., lhs_end, amp, mask] = toks else { return None };
    // A binary `&`: its left operand ends in a value token.
    let value_end =
        matches!(lhs_end.kind, Tok::Ident | Tok::Num) || matches!(lhs_end.text.as_str(), ")" | "]");
    if amp.text != "&" || !value_end {
        return None;
    }
    let mut depth = 0usize;
    let mut prev_dot = false;
    for t in lhs.iter().chain([lhs_end]) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "|" | "^" if depth == 0 => return None,
            "." if depth == 0 && prev_dot => return None,
            _ => {}
        }
        prev_dot = t.text == ".";
    }
    int_literal(mask)
}

/// Parse one file into its IR.
pub fn parse_file(rel: &str, src: &str) -> FileIr {
    let toks = significant(src);
    let mut p = Parser {
        toks: &toks,
        fns: Vec::new(),
        kind_consts: Vec::new(),
        hash_vars: Vec::new(),
        const_arrays: const_arrays(&toks),
    };
    p.parse();
    // Also collect fn-local hash vars into the file set (name-based,
    // matching the legacy rule's file-wide scope).
    let mut hash_vars = p.hash_vars;
    for f in &p.fns {
        for h in &f.hash_vars {
            if !hash_vars.contains(h) {
                hash_vars.push(h.clone());
            }
        }
    }
    let mut unsafe_lines: Vec<usize> = toks
        .iter()
        .filter(|t| t.kind == Tok::Ident && t.text == "unsafe")
        .map(|t| t.line)
        .collect();
    unsafe_lines.dedup();
    let forbids_unsafe_code = toks.windows(6).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == "forbid"
            && w[4].text == "("
            && w[5].text == "unsafe_code"
    });
    FileIr {
        rel: rel.replace('\\', "/"),
        fns: p.fns,
        kind_consts: p.kind_consts,
        hash_vars,
        raw_lines: src.lines().map(|l| l.to_string()).collect(),
        unsafe_lines,
        forbids_unsafe_code,
    }
}

impl FileIr {
    /// Is line `line` (1-based) waived by `marker` on the same line or
    /// the line above?
    pub fn waived(&self, line: usize, marker: &str) -> bool {
        let idx = line.saturating_sub(1);
        self.raw_lines.get(idx).is_some_and(|l| l.contains(marker))
            || (idx > 0 && self.raw_lines.get(idx - 1).is_some_and(|l| l.contains(marker)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_fn(src: &str) -> FnIr {
        let ir = parse_file("test.rs", src);
        assert_eq!(ir.fns.len(), 1, "expected one fn in {src:?}");
        ir.fns.into_iter().next().unwrap()
    }

    #[test]
    fn signature_summary() {
        let f = one_fn("pub fn g(a: usize, t: Duration, acc: &mut f64) -> f64 { 0.0 }");
        assert!(f.is_pub);
        assert!(f.deadline_bound);
        assert_eq!(f.int_vars, vec!["a"]);
        assert_eq!(f.float_mut_params, vec!["acc"]);
        assert!(!f.has_self);
    }

    #[test]
    fn methods_and_impl_types() {
        let ir = parse_file(
            "t.rs",
            "impl Widget { fn poke(&mut self) { self.count.unwrap(); } }\n\
             impl Display for Widget { fn fmt(&self) {} }",
        );
        assert_eq!(ir.fns.len(), 2);
        assert_eq!(ir.fns[0].impl_type.as_deref(), Some("Widget"));
        assert!(ir.fns[0].has_self);
        assert_eq!(ir.fns[1].impl_type.as_deref(), Some("Widget"));
        assert!(matches!(
            ir.fns[0].facts[..],
            [Fact::Panic { kind: PanicKind::UnwrapExpect, .. }]
        ));
    }

    #[test]
    fn calls_with_quals_and_mut_refs() {
        let f = one_fn(
            "fn f(e: &mut f64) { wire::frame(1, &body); helper(&mut acc); obj.recv(); }",
        );
        let names: Vec<(&str, bool)> =
            f.calls.iter().map(|c| (c.name.as_str(), c.method)).collect();
        assert_eq!(names, vec![("frame", false), ("helper", false), ("recv", true)]);
        assert_eq!(f.calls[0].qual, vec!["wire"]);
        assert_eq!(f.calls[1].mut_ref_args, vec!["acc"]);
        assert!(f
            .facts
            .iter()
            .any(|ft| matches!(ft, Fact::Blocking { name, .. } if name == "recv")));
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let ir = parse_file(
            "t.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n  #[test]\n  fn case() {}\n}\n",
        );
        let by_name: Vec<(&str, bool)> =
            ir.fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(by_name, vec![("live", false), ("helper", true), ("case", true)]);
    }

    #[test]
    fn index_and_divrem_facts() {
        let f = one_fn("fn f(xs: &[f64], i: usize, n: usize) -> f64 { xs[i] / 2.0 + (8 % n) as f64 }");
        assert!(f
            .facts
            .iter()
            .any(|ft| matches!(ft, Fact::Panic { kind: PanicKind::SliceIndex, .. })));
        assert!(f
            .facts
            .iter()
            .any(|ft| matches!(ft, Fact::Panic { kind: PanicKind::IntDivRem, .. })));
        // `xs[..]` full-range slicing is not a fact.
        let g = one_fn("fn g(xs: &[f64]) -> &[f64] { &xs[..] }");
        assert!(!g
            .facts
            .iter()
            .any(|ft| matches!(ft, Fact::Panic { kind: PanicKind::SliceIndex, .. })));
    }

    #[test]
    fn masked_index_into_a_longer_const_array_is_not_a_fact() {
        let index_facts = |body: &str| {
            let src = format!(
                "const TAB: [[u64; 2]; 128] = [[0; 2]; 128];\n\
                 fn f(k: u64, xs: &[u64]) -> u64 {{ {body} }}"
            );
            let ir = parse_file("t.rs", &src);
            ir.fns[0]
                .facts
                .iter()
                .filter(|ft| matches!(ft, Fact::Panic { kind: PanicKind::SliceIndex, .. }))
                .count()
        };
        assert_eq!(index_facts("TAB[(k & 127) as usize][0]"), 1); // only the inner `[0]`
        assert_eq!(index_facts("let [a, _] = TAB[(k >> 3 & 0x7f) as usize]; a"), 0);
        assert_eq!(index_facts("TAB[k as usize & 127_usize][1]"), 1);
        // Mask too wide, bound broken by a looser operator, or not a const array.
        assert_eq!(index_facts("TAB[(k & 128) as usize][0]"), 2);
        assert_eq!(index_facts("TAB[(k & 127) as usize + 1][0]"), 2);
        assert_eq!(index_facts("TAB[(k as usize) | 1 & 127][0]"), 2);
        assert_eq!(index_facts("TAB[(k as usize)..1 & 127][0][0]"), 3);
        assert_eq!(index_facts("xs[(k & 127) as usize]"), 1);
        assert_eq!(index_facts("s.TAB[(k & 127) as usize][0]"), 2);
    }

    #[test]
    fn kind_consts_are_collected() {
        let ir = parse_file(
            "wire.rs",
            "pub mod kind {\n  pub const HELLO: u8 = 1;\n  pub const JOB: u8 = 3;\n}\n",
        );
        let got: Vec<(&str, u64)> =
            ir.kind_consts.iter().map(|k| (k.name.as_str(), k.value)).collect();
        assert_eq!(got, vec![("HELLO", 1), ("JOB", 3)]);
    }

    #[test]
    fn accumulation_into_mut_param_is_detected() {
        let f = one_fn("fn add_into(acc: &mut f64, v: f64) { *acc += v; }");
        assert!(f.accumulates_into_param);
        let g = one_fn("fn local_only(v: f64) -> f64 { let mut s = 0.0; s += v; s }");
        assert!(!g.accumulates_into_param);
    }

    #[test]
    fn timeout_setters_and_disabling() {
        let f = one_fn(
            "fn f(s: &Stream) { s.set_read_timeout(Some(d)); s.set_read_timeout(None); }",
        );
        let setters: Vec<bool> = f
            .facts
            .iter()
            .filter_map(|ft| match ft {
                Fact::TimeoutSetter { disables, .. } => Some(*disables),
                _ => None,
            })
            .collect();
        assert_eq!(setters, vec![false, true]);
    }
}
