//! A real Rust lexer (spans, not regexes).
//!
//! The token stream is **total**: every byte of the input belongs to
//! exactly one token, tokens appear in source order, and their spans
//! tile `0..src.len()` with no gaps or overlaps — a property the
//! proptest suite enforces on arbitrary inputs and on the whole
//! workspace. Nothing here panics on malformed input; unterminated
//! literals and comments simply extend to end-of-input and stray bytes
//! become [`Tok::Unknown`].
//!
//! The lexer understands the parts of the language a line-based
//! scanner mishandles:
//!
//! * raw strings with any number of hashes (`r"…"`, `r##"…"##`) and the
//!   byte variants (`b"…"`, `br#"…"#`);
//! * nested block comments (`/* /* */ */`), including across lines;
//! * lifetimes vs char literals (`'a` vs `'a'` vs `'\''` vs `b'x'`);
//! * raw identifiers (`r#match`);
//! * multi-line (non-raw) string literals.

/// Token kind. Multi-character operators are emitted as adjacent
/// single-character [`Tok::Punct`] tokens; consumers that care about
/// `+=`/`::`/`->` check span adjacency (see [`Token`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Whitespace run.
    Ws,
    /// `// …` to end of line (newline not included).
    LineComment,
    /// `/* … */`, nesting honored; unterminated runs to end of input.
    BlockComment,
    /// `"…"` or `b"…"`, escapes honored, may span lines.
    Str,
    /// `r"…"` / `r#"…"#` / `br##"…"##`; closes only on quote + same
    /// number of hashes.
    RawStr,
    /// `'x'`, `'\n'`, `'\u{1F600}'`, `b'x'`.
    Char,
    /// `'a`, `'static`, `'_` — a tick with no closing quote.
    Lifetime,
    /// Identifier or keyword, including raw identifiers (`r#fn`).
    Ident,
    /// Integer or float literal (prefix/suffix included).
    Num,
    /// One ASCII punctuation character.
    Punct,
    /// Anything else (stray quote, lone backslash, non-ASCII symbol).
    Unknown,
}

/// One token: kind plus byte span (`start..end` into the source).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    pub kind: Tok,
    pub start: usize,
    pub end: usize,
}

impl Token {
    /// The token's text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

struct Lexer<'a> {
    src: &'a str,
    /// (byte offset, char) pairs; index space for the scan.
    chars: Vec<(usize, char)>,
    i: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).map(|&(_, c)| c)
    }

    /// Byte offset of char index `i` (source length past the end).
    fn byte_at(&self, i: usize) -> usize {
        self.chars.get(i).map_or(self.src.len(), |&(b, _)| b)
    }

    /// Try to lex a raw-string body starting at the hashes (char index
    /// `hash_start` points at the first `#` or the opening quote).
    /// Returns true (and advances past the closing quote+hashes, or to
    /// end of input) iff this really is a raw string.
    fn raw_string_from(&mut self, hash_start: usize) -> bool {
        let mut hashes = 0;
        let mut j = hash_start;
        while self.chars.get(j).map(|&(_, c)| c) == Some('#') {
            hashes += 1;
            j += 1;
        }
        if self.chars.get(j).map(|&(_, c)| c) != Some('"') {
            return false;
        }
        // Body: scan for `"` followed by `hashes` hashes.
        j += 1;
        while j < self.chars.len() {
            if self.chars[j].1 == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.chars.get(j + 1 + k).map(|&(_, c)| c) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.i = j + 1 + hashes;
                    return true;
                }
            }
            j += 1;
        }
        self.i = self.chars.len(); // unterminated: runs to EOF
        true
    }

    /// Non-raw string body: `self.i` points at the opening quote.
    fn string(&mut self) {
        self.i += 1;
        while self.i < self.chars.len() {
            match self.chars[self.i].1 {
                '\\' => self.i = (self.i + 2).min(self.chars.len()),
                '"' => {
                    self.i += 1;
                    return;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Char literal with escape: `self.i` points at the tick, next is
    /// `\`. Consumes through the closing tick (or end of line/input for
    /// malformed literals).
    fn escaped_char(&mut self) {
        self.i += 2; // tick + backslash
        if self.i < self.chars.len() {
            self.i += 1; // the escaped character itself ('\'' => the quote)
        }
        // `\u{…}` and malformed tails: scan to the closing tick, but
        // never across a newline (a lone `'\` shouldn't eat the file).
        while self.i < self.chars.len() {
            match self.chars[self.i].1 {
                '\'' => {
                    self.i += 1;
                    return;
                }
                '\n' => return,
                _ => self.i += 1,
            }
        }
    }

    fn next_kind(&mut self) -> Tok {
        let c = self.chars[self.i].1;
        let c1 = self.peek(1);

        if c.is_whitespace() {
            while self.i < self.chars.len() && self.chars[self.i].1.is_whitespace() {
                self.i += 1;
            }
            return Tok::Ws;
        }
        if c == '/' && c1 == Some('/') {
            while self.i < self.chars.len() && self.chars[self.i].1 != '\n' {
                self.i += 1;
            }
            return Tok::LineComment;
        }
        if c == '/' && c1 == Some('*') {
            self.i += 2;
            let mut depth = 1usize;
            while self.i < self.chars.len() && depth > 0 {
                let d = self.chars[self.i].1;
                let d1 = self.peek(1);
                if d == '*' && d1 == Some('/') {
                    depth -= 1;
                    self.i += 2;
                } else if d == '/' && d1 == Some('*') {
                    depth += 1;
                    self.i += 2;
                } else {
                    self.i += 1;
                }
            }
            return Tok::BlockComment;
        }
        // Raw strings and byte strings, checked before identifiers so
        // the `r`/`b` prefix doesn't lex as an ident.
        if c == 'r' && matches!(c1, Some('"') | Some('#')) {
            let save = self.i;
            if self.raw_string_from(save + 1) {
                return Tok::RawStr;
            }
            // `r#ident` (raw identifier) or plain `r` ident: fall through.
        }
        if c == 'b' {
            match c1 {
                Some('"') => {
                    self.i += 1;
                    self.string();
                    return Tok::Str;
                }
                Some('r') if matches!(self.peek(2), Some('"') | Some('#')) => {
                    let save = self.i;
                    if self.raw_string_from(save + 2) {
                        return Tok::RawStr;
                    }
                }
                Some('\'') => {
                    // Byte char literal: b'x' or b'\n'.
                    if self.peek(2) == Some('\\') {
                        self.i += 1;
                        self.escaped_char();
                    } else {
                        // b'x' — consume b, tick, one char, closing tick.
                        self.i += 3;
                        if self.i < self.chars.len() && self.chars[self.i].1 == '\'' {
                            self.i += 1;
                        }
                    }
                    return Tok::Char;
                }
                _ => {}
            }
        }
        if c == '"' {
            self.string();
            return Tok::Str;
        }
        if c == '\'' {
            match c1 {
                Some('\\') => {
                    self.escaped_char();
                    return Tok::Char;
                }
                Some(n) if is_ident_start(n) => {
                    if self.peek(2) == Some('\'') {
                        self.i += 3; // 'a'
                        return Tok::Char;
                    }
                    // Lifetime: tick + ident chars, no closing quote.
                    self.i += 2;
                    while self.i < self.chars.len() && is_ident_continue(self.chars[self.i].1) {
                        self.i += 1;
                    }
                    return Tok::Lifetime;
                }
                Some(_) if self.peek(2) == Some('\'') => {
                    self.i += 3; // '0', '{', '✓'
                    return Tok::Char;
                }
                _ => {
                    self.i += 1; // stray tick
                    return Tok::Unknown;
                }
            }
        }
        // Raw identifier `r#foo` (the raw-string branch above already
        // rejected `r#"`).
        if c == 'r' && c1 == Some('#') && self.peek(2).is_some_and(is_ident_start) {
            self.i += 2;
            while self.i < self.chars.len() && is_ident_continue(self.chars[self.i].1) {
                self.i += 1;
            }
            return Tok::Ident;
        }
        if is_ident_start(c) {
            while self.i < self.chars.len() && is_ident_continue(self.chars[self.i].1) {
                self.i += 1;
            }
            return Tok::Ident;
        }
        if c.is_ascii_digit() {
            self.i += 1;
            // Radix prefix eats alphanumerics wholesale (0xFF_u32, 0b01).
            if c == '0' && matches!(self.peek(0), Some('x') | Some('o') | Some('b')) {
                self.i += 1;
                while self.i < self.chars.len()
                    && (is_ident_continue(self.chars[self.i].1) || self.chars[self.i].1 == '_')
                {
                    self.i += 1;
                }
                return Tok::Num;
            }
            while self.i < self.chars.len()
                && (self.chars[self.i].1.is_ascii_digit() || self.chars[self.i].1 == '_')
            {
                self.i += 1;
            }
            // Fractional part only when a digit follows the dot, so
            // `0..n` stays Num Punct Punct Ident.
            if self.peek(0) == Some('.') && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                self.i += 2;
                while self.i < self.chars.len()
                    && (self.chars[self.i].1.is_ascii_digit() || self.chars[self.i].1 == '_')
                {
                    self.i += 1;
                }
            }
            // Exponent.
            if matches!(self.peek(0), Some('e') | Some('E')) {
                let sign = matches!(self.peek(1), Some('+') | Some('-'));
                let digit_at = if sign { 2 } else { 1 };
                if self.peek(digit_at).is_some_and(|d| d.is_ascii_digit()) {
                    self.i += digit_at + 1;
                    while self.i < self.chars.len() && self.chars[self.i].1.is_ascii_digit() {
                        self.i += 1;
                    }
                }
            }
            // Type suffix (u32, f64, usize).
            while self.i < self.chars.len() && is_ident_continue(self.chars[self.i].1) {
                self.i += 1;
            }
            return Tok::Num;
        }
        if c.is_ascii_punctuation() {
            self.i += 1;
            return Tok::Punct;
        }
        self.i += 1;
        Tok::Unknown
    }
}

/// Lex `src` into a total, tiling token stream.
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer { src, chars: src.char_indices().collect(), i: 0 };
    let mut out = Vec::new();
    while lx.i < lx.chars.len() {
        let start_i = lx.i;
        let start = lx.byte_at(start_i);
        let kind = lx.next_kind();
        debug_assert!(lx.i > start_i, "lexer must always make progress");
        let end = lx.byte_at(lx.i);
        out.push(Token { kind, start, end });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(Tok, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != Tok::Ws)
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn spans_tile_simple_source() {
        let src = "fn main() { let x = 1 + 2; }";
        let toks = lex(src);
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos);
            assert!(t.end > t.start);
            pos = t.end;
        }
        assert_eq!(pos, src.len());
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r##"has "quotes" and # inside"##; x"####;
        let k = kinds(src);
        assert!(k.contains(&(Tok::RawStr, r###"r##"has "quotes" and # inside"##"###)));
        assert_eq!(k.last().unwrap(), &(Tok::Ident, "x"));
    }

    #[test]
    fn byte_strings_and_raw_byte_strings() {
        let k = kinds(r##"let a = b"bytes"; let c = br#"raw "b" str"#; y"##);
        assert!(k.contains(&(Tok::Str, "b\"bytes\"")));
        assert!(k.contains(&(Tok::RawStr, r##"br#"raw "b" str"#"##)));
        assert_eq!(k.last().unwrap(), &(Tok::Ident, "y"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let k = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(k.contains(&(Tok::Lifetime, "'a")));
        assert!(k.contains(&(Tok::Char, "'x'")));

        let k = kinds(r"let q = '\''; let nl = '\n'; let u = '\u{1F600}'; z");
        assert!(k.contains(&(Tok::Char, r"'\''")));
        assert!(k.contains(&(Tok::Char, r"'\n'")));
        assert!(k.contains(&(Tok::Char, r"'\u{1F600}'")));
        assert_eq!(k.last().unwrap(), &(Tok::Ident, "z"));

        let k = kinds("b'x'");
        assert_eq!(k, vec![(Tok::Char, "b'x'")]);

        let k = kinds("'static");
        assert_eq!(k, vec![(Tok::Lifetime, "'static")]);
    }

    #[test]
    fn nested_block_comments() {
        let k = kinds("a /* outer /* inner */ still outer */ b");
        assert_eq!(
            k,
            vec![
                (Tok::Ident, "a"),
                (Tok::BlockComment, "/* outer /* inner */ still outer */"),
                (Tok::Ident, "b"),
            ]
        );
    }

    #[test]
    fn raw_identifiers() {
        let k = kinds("let r#match = 1;");
        assert!(k.contains(&(Tok::Ident, "r#match")));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let k = kinds("for i in 0..10 { a[i] }");
        assert!(k.contains(&(Tok::Num, "0")));
        assert!(k.contains(&(Tok::Num, "10")));
        let k = kinds("1.5e-3f64 0xFF_u32 1_000");
        assert_eq!(
            k,
            vec![(Tok::Num, "1.5e-3f64"), (Tok::Num, "0xFF_u32"), (Tok::Num, "1_000")]
        );
    }

    #[test]
    fn unterminated_literals_run_to_eof_without_panicking() {
        for src in ["\"unterminated", "r#\"unterminated", "/* unterminated", "'\\", "'"] {
            let toks = lex(src);
            assert_eq!(toks.last().unwrap().end, src.len(), "input {src:?}");
        }
    }
}
