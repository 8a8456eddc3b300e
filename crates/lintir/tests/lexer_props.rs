//! Property tests for the total lexer: it must never panic, its token
//! spans must exactly tile the input, and concatenating token texts
//! must reproduce the source byte-for-byte — including on every real
//! file in this workspace.

use lintir::lex::lex;
use proptest::prelude::*;

/// Fragments chosen to collide lexer states: raw-string fences, block
/// comment openers/closers, escapes, lifetimes vs char literals,
/// multi-byte UTF-8, and unterminated openers.
const FRAGMENTS: &[&str] = &[
    "fn f() {}",
    "r#\"",
    "\"#",
    "r##\"x\"##",
    "\"",
    "\\\"",
    "\\\\",
    "/*",
    "*/",
    "/* /* */",
    "//",
    "\n",
    "'a",
    "'a'",
    "'\\n'",
    "'static",
    "b\"bytes\"",
    "br#\"raw\"#",
    "ident",
    "0x1f_u32",
    "1.5e-3",
    "::",
    "=>",
    "+=",
    "é",
    "名",
    " ",
    "\t",
    "#",
    "r\"",
    "'",
];

fn assemble(idxs: Vec<usize>) -> String {
    idxs.into_iter().map(|i| FRAGMENTS[i % FRAGMENTS.len()]).collect()
}

fn assert_tiles(src: &str) {
    let toks = lex(src);
    let mut pos = 0usize;
    for t in &toks {
        assert_eq!(t.start, pos, "gap/overlap at byte {pos} in {src:?}");
        assert!(t.end > t.start, "empty token at byte {pos} in {src:?}");
        assert!(src.get(t.start..t.end).is_some(), "non-boundary span in {src:?}");
        pos = t.end;
    }
    assert_eq!(pos, src.len(), "tokens do not cover {src:?}");
}

fn assert_round_trips(src: &str) {
    let toks = lex(src);
    let rebuilt: String = toks.iter().map(|t| t.text(src)).collect();
    assert_eq!(rebuilt, src);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lexer_never_panics_and_spans_tile(idxs in prop::collection::vec(0usize..64, 0usize..40)) {
        let src = assemble(idxs);
        assert_tiles(&src);
    }

    #[test]
    fn token_texts_round_trip(idxs in prop::collection::vec(0usize..64, 0usize..40)) {
        let src = assemble(idxs);
        assert_round_trips(&src);
    }

}

/// Every `.rs` file in the repository must lex losslessly.
#[test]
fn workspace_sources_round_trip() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut stack = vec![root.join("crates"), root.join("xtask/src"), root.join("vendor")];
    let mut seen = 0usize;
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                let src = std::fs::read_to_string(&p).unwrap();
                let toks = lex(&src);
                let rebuilt: String = toks.iter().map(|t| t.text(&src)).collect();
                assert_eq!(rebuilt, src, "lossy lex of {}", p.display());
                assert_tiles(&src);
                seen += 1;
            }
        }
    }
    assert!(seen > 40, "workspace walk found only {seen} files");
}
