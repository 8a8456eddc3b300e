//! Workspace loading and call-graph construction.
//!
//! Resolution is name-based (no type inference) and deliberately
//! conservative toward *extern*: an unresolvable call is treated as a
//! call into std/vendored code, which the passes assume non-panicking
//! and bounded. The heuristics and their caveats are documented in
//! DESIGN.md §13.

use crate::ir::{parse_file, FileIr, FnIr};
use std::collections::{HashMap, VecDeque};
use std::path::Path;

/// All parsed files, plus a flat function table the graph indexes into.
pub struct Workspace {
    pub files: Vec<FileIr>,
    /// `(file index, fn index)` for every function, in file order.
    pub fns: Vec<(usize, usize)>,
}

/// Stable handle for a function: index into `Workspace::fns`.
pub type FnId = usize;

impl Workspace {
    /// Parse `(rel_path, source)` pairs. Order is preserved; passes and
    /// baselines sort by path so callers need not pre-sort.
    pub fn from_sources(sources: &[(String, String)]) -> Self {
        let files: Vec<FileIr> =
            sources.iter().map(|(rel, src)| parse_file(rel, src)).collect();
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for gi in 0..f.fns.len() {
                fns.push((fi, gi));
            }
        }
        Workspace { files, fns }
    }

    /// Walk `root` for `.rs` files, skipping build output (`target/`),
    /// VCS metadata, the analyzer's own `fixtures/` and retrieved
    /// reference code (`related/`). Test, bench and vendored trees are
    /// loaded (see [`is_aux`]). Paths are stored root-relative with `/`
    /// separators.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut sources = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<_> =
                std::fs::read_dir(&dir)?.filter_map(|e| e.ok()).collect();
            entries.sort_by_key(|e| e.path());
            for entry in entries {
                let path = entry.path();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if path.is_dir() {
                    if matches!(name.as_ref(), "target" | ".git" | "fixtures" | "related") {
                        continue;
                    }
                    stack.push(path);
                } else if name.ends_with(".rs") {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(&path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    let src = std::fs::read_to_string(&path)?;
                    sources.push((rel, src));
                }
            }
        }
        sources.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Self::from_sources(&sources))
    }

    pub fn fn_ir(&self, id: FnId) -> &FnIr {
        let (fi, gi) = self.fns[id];
        &self.files[fi].fns[gi]
    }

    pub fn file_of(&self, id: FnId) -> &FileIr {
        &self.files[self.fns[id].0]
    }

    /// Crate name for a file path like `crates/core/src/soa.rs` → `core`
    /// (or `xtask` for `xtask/src/…`).
    pub fn crate_of(&self, id: FnId) -> &str {
        crate_of_path(&self.file_of(id).rel)
    }
}

/// Is `rel` in a test, bench or vendored tree (`tests/`, `benches/`,
/// `vendor/`)? The file-local checks (DT, US) see such files, but their
/// functions are never call-resolution candidates and never scanned
/// for wire uses, so PA, DL and WP results on production code do not
/// depend on them.
pub fn is_aux(rel: &str) -> bool {
    rel.split('/').any(|c| matches!(c, "tests" | "benches" | "vendor"))
}

pub fn crate_of_path(rel: &str) -> &str {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", krate, ..] => krate,
        [first, ..] => first,
        [] => "",
    }
}

/// File stem (`crates/cluster/src/wire.rs` → `wire`).
fn stem(rel: &str) -> &str {
    rel.rsplit('/').next().unwrap_or(rel).trim_end_matches(".rs")
}

/// The resolved workspace call graph: per-function callee edges plus a
/// reverse map for path reconstruction.
pub struct CallGraph {
    /// `callees[f]` = (callee FnId, call-site line) pairs.
    pub callees: Vec<Vec<(FnId, usize)>>,
}

impl CallGraph {
    pub fn build(ws: &Workspace) -> Self {
        // Name → candidate FnIds (production files only).
        let mut by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        for (id, &(fi, gi)) in ws.fns.iter().enumerate() {
            if !is_aux(&ws.files[fi].rel) {
                by_name.entry(ws.files[fi].fns[gi].name.as_str()).or_default().push(id);
            }
        }

        let mut callees: Vec<Vec<(FnId, usize)>> = vec![Vec::new(); ws.fns.len()];
        for (id, &(fi, gi)) in ws.fns.iter().enumerate() {
            let caller = &ws.files[fi].fns[gi];
            let caller_file = &ws.files[fi].rel;
            let caller_crate = crate_of_path(caller_file);
            for call in &caller.calls {
                let Some(cands) = by_name.get(call.name.as_str()) else { continue };
                let resolved = resolve(ws, caller, caller_file, caller_crate, call, cands);
                if let Some(target) = resolved {
                    callees[id].push((target, call.line));
                }
            }
        }
        CallGraph { callees }
    }

    /// Multi-source BFS from `roots`; returns `pred[f] = Some((parent,
    /// line))` spanning-tree entries for every function reachable from a
    /// root (roots have `pred = None` but appear in `dist`).
    pub fn bfs(
        &self,
        roots: &[FnId],
    ) -> (HashMap<FnId, usize>, HashMap<FnId, (FnId, usize)>) {
        let mut dist: HashMap<FnId, usize> = HashMap::new();
        let mut pred: HashMap<FnId, (FnId, usize)> = HashMap::new();
        let mut q = VecDeque::new();
        for &r in roots {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(r) {
                e.insert(0);
                q.push_back(r);
            }
        }
        while let Some(u) = q.pop_front() {
            let d = dist[&u];
            for &(v, line) in &self.callees[u] {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                    e.insert(d + 1);
                    pred.insert(v, (u, line));
                    q.push_back(v);
                }
            }
        }
        (dist, pred)
    }

    /// Reconstruct the root→`target` call path from a BFS `pred` map as
    /// `file:line fn_name` hops (root first).
    pub fn path_to(
        &self,
        ws: &Workspace,
        pred: &HashMap<FnId, (FnId, usize)>,
        target: FnId,
    ) -> Vec<String> {
        let mut hops = vec![format!(
            "{}:{} {}",
            ws.file_of(target).rel,
            ws.fn_ir(target).line,
            ws.fn_ir(target).name
        )];
        let mut cur = target;
        let mut guard = 0;
        while let Some(&(parent, line)) = pred.get(&cur) {
            hops.push(format!(
                "{}:{} {}",
                ws.file_of(parent).rel,
                line,
                ws.fn_ir(parent).name
            ));
            cur = parent;
            guard += 1;
            if guard > 1000 {
                break;
            }
        }
        hops.reverse();
        hops
    }
}

/// Resolve one call site to a workspace function, or `None` for extern.
fn resolve(
    ws: &Workspace,
    caller: &FnIr,
    caller_file: &str,
    caller_crate: &str,
    call: &crate::ir::CallIr,
    cands: &[FnId],
) -> Option<FnId> {
    // Fully-qualified std paths are extern by construction.
    if let Some(first) = call.qual.first() {
        if matches!(first.as_str(), "std" | "core" | "alloc") {
            return None;
        }
    }

    // `Type::assoc(…)` / `Self::assoc(…)`: match candidates by impl type.
    if let Some(last) = call.qual.last() {
        let type_name = if last == "Self" {
            caller.impl_type.clone()
        } else if last.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            Some(last.clone())
        } else {
            None
        };
        if let Some(ty) = type_name {
            let matched: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|&c| ws.fn_ir(c).impl_type.as_deref() == Some(ty.as_str()))
                .collect();
            return pick(ws, &matched, caller_file, caller_crate);
        }
        // Lowercase qualifier: module path — prefer a file whose stem or
        // crate matches any qualifier segment.
        let matched: Vec<FnId> = cands
            .iter()
            .copied()
            .filter(|&c| {
                let rel = &ws.file_of(c).rel;
                call.qual.iter().any(|q| stem(rel) == q || crate_of_path(rel) == q)
            })
            .collect();
        return pick(ws, &matched, caller_file, caller_crate);
    }

    if call.method {
        // Method call: candidates must take self. Without receiver types
        // a unique self-taking candidate is accepted; ambiguity across
        // multiple impls stays unresolved (extern) rather than guessing
        // between unrelated types.
        let matched: Vec<FnId> =
            cands.iter().copied().filter(|&c| ws.fn_ir(c).has_self).collect();
        if matched.len() == 1 {
            return Some(matched[0]);
        }
        // Same-file tiebreak is safe enough: a file rarely has two
        // same-named methods on different types.
        let local: Vec<FnId> = matched
            .iter()
            .copied()
            .filter(|&c| ws.file_of(c).rel == caller_file)
            .collect();
        if local.len() == 1 {
            return Some(local[0]);
        }
        return None;
    }

    // Unqualified free call: prefer free functions (no self).
    let free: Vec<FnId> =
        cands.iter().copied().filter(|&c| !ws.fn_ir(c).has_self).collect();
    pick(ws, &free, caller_file, caller_crate)
}

/// Among `matched` candidates prefer same-file, then same-crate, then a
/// unique remaining candidate; ambiguity resolves to extern (`None`).
fn pick(
    ws: &Workspace,
    matched: &[FnId],
    caller_file: &str,
    caller_crate: &str,
) -> Option<FnId> {
    if matched.is_empty() {
        return None;
    }
    if matched.len() == 1 {
        return Some(matched[0]);
    }
    let same_file: Vec<FnId> = matched
        .iter()
        .copied()
        .filter(|&c| ws.file_of(c).rel == caller_file)
        .collect();
    if same_file.len() == 1 {
        return Some(same_file[0]);
    }
    let same_crate: Vec<FnId> = matched
        .iter()
        .copied()
        .filter(|&c| ws.crate_of(c) == caller_crate)
        .collect();
    if same_crate.len() == 1 {
        return Some(same_crate[0]);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        let owned: Vec<(String, String)> =
            sources.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
        Workspace::from_sources(&owned)
    }

    fn fn_id(w: &Workspace, name: &str) -> FnId {
        (0..w.fns.len()).find(|&i| w.fn_ir(i).name == name).unwrap()
    }

    #[test]
    fn cross_crate_module_calls_resolve() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "pub fn entry() { helper::deep(); }"),
            ("crates/a/src/helper.rs", "pub fn deep() { other() }"),
            ("crates/b/src/lib.rs", "pub fn other() {}"),
        ]);
        let g = CallGraph::build(&w);
        let entry = fn_id(&w, "entry");
        let deep = fn_id(&w, "deep");
        let other = fn_id(&w, "other");
        assert_eq!(g.callees[entry], vec![(deep, 1)]);
        assert_eq!(g.callees[deep], vec![(other, 1)]);
    }

    #[test]
    fn assoc_fn_resolution_by_impl_type() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "struct A; impl A { pub fn new() -> A { A } }\n\
                 struct B; impl B { pub fn new() -> B { B } }\n\
                 fn make() { let _ = A::new(); }",
            ),
        ]);
        let g = CallGraph::build(&w);
        let make = fn_id(&w, "make");
        assert_eq!(g.callees[make].len(), 1);
        let (target, _) = g.callees[make][0];
        assert_eq!(w.fn_ir(target).impl_type.as_deref(), Some("A"));
    }

    #[test]
    fn std_paths_are_extern() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn f() { std::mem::drop(1); } fn drop(_x: i32) {}",
        )]);
        let g = CallGraph::build(&w);
        let f = fn_id(&w, "f");
        assert!(g.callees[f].is_empty());
    }

    #[test]
    fn ambiguous_methods_stay_extern() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl X { fn go(&self) {} } impl Y { fn go(&self) {} }",
        ), (
            "crates/b/src/lib.rs",
            "fn f(v: &V) { v.go(); }",
        )]);
        let g = CallGraph::build(&w);
        let f = fn_id(&w, "f");
        assert!(g.callees[f].is_empty());
    }

    #[test]
    fn test_bench_and_vendor_fns_are_never_callees() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); probe(); }",
            ),
            ("crates/a/tests/t.rs", "fn helper() {}"),
            ("crates/a/benches/b.rs", "fn probe() {}"),
            ("vendor/v/src/lib.rs", "pub fn helper() {}"),
            ("tests/it.rs", "fn drive() { entry(); }"),
        ]);
        let g = CallGraph::build(&w);
        assert!(g.callees[fn_id(&w, "entry")].is_empty());
        // Test code still calls into production code.
        assert_eq!(g.callees[fn_id(&w, "drive")], vec![(fn_id(&w, "entry"), 1)]);
    }

    #[test]
    fn bfs_paths_reconstruct() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "pub fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}"),
        ]);
        let g = CallGraph::build(&w);
        let root = fn_id(&w, "root");
        let leaf = fn_id(&w, "leaf");
        let (dist, pred) = g.bfs(&[root]);
        assert_eq!(dist[&leaf], 2);
        let path = g.path_to(&w, &pred, leaf);
        assert_eq!(path.len(), 3);
        assert!(path[0].contains("root"));
        assert!(path[2].contains("leaf"));
    }
}
