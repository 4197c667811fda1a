//! A minimal Rust lexer: just enough to lint reliably.
//!
//! Strips comments and string/char literals (so `"panic!"` in a message or
//! `// t += dt` in prose never trips a rule), tracks line numbers,
//! and merges the two-character operators the rules care about (`==`, `!=`,
//! `..`, `::`, `->`, `=>`). Everything else the rules need — identifiers,
//! numeric literals with a float/integer distinction, single punctuation —
//! comes out as one token each.
//!
//! Comments are not discarded entirely: their text and line are collected so
//! the engine can find `falcon-lint::allow(...)` suppression directives.

/// What a token is, coarsely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `Mutex`, `lock`, ...).
    Ident,
    /// Integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// Floating-point literal (`1.0`, `2e-3`, `1f64`).
    Float,
    /// A string, raw-string, byte-string, or char literal (content dropped).
    Str,
    /// A lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// Punctuation / operator; multi-char for `==`, `!=`, `<=`, `>=`,
    /// `::`, `..`, `->`, `=>`, `+=`, `-=`, single-char otherwise.
    Punct,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    /// Coarse classification.
    pub kind: TokenKind,
    /// The token text (empty for [`TokenKind::Str`]).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation/operator `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// A comment with the line it starts on.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based starting line.
    pub line: u32,
    /// Full comment text, delimiters included.
    pub text: String,
}

/// Lexer output: the token stream plus the comments that were stripped.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenize Rust source. Unterminated constructs are tolerated (the rest of
/// the file becomes one literal/comment); the linter must never panic on
/// weird input.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Push a token helper (closures can't borrow `out` while we also use it,
    // so tokens are pushed inline).
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: src[start..i].to_string(),
                });
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let (start, start_line) = (i, line);
                let mut depth = 1u32;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..i.min(src.len())].to_string(),
                });
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::new(),
                    line,
                });
            }
            b'r' | b'b' if is_raw_or_byte_string(bytes, i) => {
                let start_line = line;
                i = skip_raw_or_byte_string(bytes, i, &mut line);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::new(),
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime/label, or a char literal.
                if is_lifetime(bytes, i) {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric())
                    {
                        i += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                } else {
                    i = skip_char_literal(bytes, i, &mut line);
                    out.tokens.push(Token {
                        kind: TokenKind::Str,
                        text: String::new(),
                        line,
                    });
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let (end, is_float) = scan_number(bytes, i);
                out.tokens.push(Token {
                    kind: if is_float {
                        TokenKind::Float
                    } else {
                        TokenKind::Int
                    },
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
            }
            c if !c.is_ascii() => {
                // Non-ASCII (unicode identifier or stray symbol): skip the
                // whole UTF-8 character; no rule matches on it.
                i += 1;
                while i < bytes.len() && bytes[i] & 0xC0 == 0x80 {
                    i += 1;
                }
            }
            _ => {
                // Punctuation; merge the two-char operators rules care about.
                let two = src.get(i..i + 2).unwrap_or("");
                let merged = matches!(
                    two,
                    "==" | "!=" | "<=" | ">=" | "::" | ".." | "->" | "=>" | "+=" | "-="
                );
                let len = if merged { 2 } else { 1 };
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: src[i..i + len].to_string(),
                    line,
                });
                i += len;
            }
        }
    }
    out
}

/// Is `'` at `i` a lifetime (vs a char literal)? A lifetime is `'` + ident
/// not followed by a closing `'`.
fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    let Some(&next) = bytes.get(i + 1) else {
        return false;
    };
    if !(next == b'_' || next.is_ascii_alphabetic()) {
        return false;
    }
    // 'a' is a char literal; 'abc (no closing quote soon) is a lifetime.
    let mut j = i + 1;
    while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
        j += 1;
    }
    bytes.get(j) != Some(&b'\'')
}

/// Step over the `\` escape at `i`. A `\`-newline string continuation
/// still ends a source line, so it is counted.
fn skip_escape(bytes: &[u8], i: usize, line: &mut u32) -> usize {
    if bytes.get(i + 1) == Some(&b'\n') {
        *line += 1;
    }
    i + 2
}

fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i = skip_escape(bytes, i, line),
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn skip_char_literal(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Does `r"`, `r#"`, `br"`, `b"` ... start here?
fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    j > i && bytes.get(j) == Some(&b'"')
}

fn skip_raw_or_byte_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    if bytes.get(i) == Some(&b'b') {
        i += 1;
    }
    let raw = bytes.get(i) == Some(&b'r');
    let mut hashes = 0usize;
    if raw {
        i += 1;
        while bytes.get(i) == Some(&b'#') {
            hashes += 1;
            i += 1;
        }
    }
    // Opening quote.
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'\\' if !raw => i = skip_escape(bytes, i, line),
            b'"' => {
                let mut j = i + 1;
                let mut seen = 0usize;
                while seen < hashes && bytes.get(j) == Some(&b'#') {
                    seen += 1;
                    j += 1;
                }
                if seen == hashes {
                    return j;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scan a number starting at `i`; returns (end index, is_float). A trailing
/// `.` that begins `..` (range) or a method call (`1.max(2)`) does not make
/// it a float.
fn scan_number(bytes: &[u8], mut i: usize) -> (usize, bool) {
    let mut is_float = false;
    // Radix prefixes are integers.
    if bytes[i] == b'0'
        && matches!(
            bytes.get(i + 1),
            Some(&b'x') | Some(&b'X') | Some(&b'o') | Some(&b'b')
        )
    {
        i += 2;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        return (i, false);
    }
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
        i += 1;
    }
    if bytes.get(i) == Some(&b'.') {
        let next = bytes.get(i + 1);
        let is_range = next == Some(&b'.');
        let is_method = next.is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_');
        if !is_range && !is_method {
            is_float = true;
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
        }
    }
    // Exponent.
    if matches!(bytes.get(i), Some(&b'e') | Some(&b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(&b'+') | Some(&b'-')) {
            j += 1;
        }
        if bytes.get(j).is_some_and(u8::is_ascii_digit) {
            is_float = true;
            i = j;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix (f64 makes it a float; u32 etc. keeps it an int).
    if bytes.get(i) == Some(&b'f')
        && (bytes.get(i + 1..i + 3) == Some(b"64") || bytes.get(i + 1..i + 3) == Some(b"32"))
    {
        is_float = true;
        i += 3;
    } else {
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
    }
    (i, is_float)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r#"
            // Instant in a comment
            /* thread_rng in a block /* nested */ comment */
            let x = "Instant::now()"; let y = 'c';
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let lexed = lex("let a = 1;\n// falcon-lint::allow(x)\nlet b = 2;\n");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("allow"));
    }

    #[test]
    fn float_vs_int_vs_range() {
        let toks = lex("1.0 2 0..10 1.5e-3 3f64 7u32 1.max(2) 0xFF");
        let kinds: Vec<(TokenKind, String)> =
            toks.tokens.into_iter().map(|t| (t.kind, t.text)).collect();
        let floats: Vec<&String> = kinds
            .iter()
            .filter(|(k, _)| *k == TokenKind::Float)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(floats, ["1.0", "1.5e-3", "3f64"]);
        let ints: Vec<&String> = kinds
            .iter()
            .filter(|(k, _)| *k == TokenKind::Int)
            .map(|(_, t)| t)
            .collect();
        assert!(ints.contains(&&"0".to_string()) && ints.contains(&&"10".to_string()));
        assert!(ints.contains(&&"7u32".to_string()) && ints.contains(&&"0xFF".to_string()));
    }

    #[test]
    fn operators_are_merged() {
        let toks = lex("a == b != c :: d .. e -> f => g <= h >= i = j += k -= l");
        let ops: Vec<String> = toks
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text)
            .collect();
        assert_eq!(
            ops,
            ["==", "!=", "::", "..", "->", "=>", "<=", ">=", "=", "+=", "-="]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { 'outer: loop { break 'outer; } let c = 'x'; }");
        let lifetimes: Vec<String> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a", "'outer", "'outer"]);
        assert_eq!(
            toks.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Str)
                .count(),
            1
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex(r###"let s = r#"Instant "quoted" thread_rng"#; let t = 1;"###);
        let ids: Vec<String> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect();
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(ids.contains(&"t".to_string()));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "let a = 1;\nlet b = \"two\nlines\";\nlet c = 3;\n";
        let toks = lex(src);
        let c_tok = toks.tokens.iter().find(|t| t.is_ident("c")).unwrap();
        assert_eq!(c_tok.line, 4);
    }

    #[test]
    fn backslash_newline_continuations_count_their_line() {
        for src in [
            "let _m = \"first \\\n second\";\nx.unwrap()\n",
            "let _m = b\"first \\\n second\";\nx.unwrap()\n",
        ] {
            let toks = lex(src);
            let unwrap = toks.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
            assert_eq!(unwrap.line, 3, "{src:?}");
        }
    }
}
