//! The two pieces of syntax the token rules need beyond single tokens:
//! delimiter matching and loop bodies.
//!
//! No `syn`, no full grammar. Like the lexer, this must tolerate arbitrary
//! garbage — truncated items and unbalanced delimiters degrade to fewer (or
//! no) matches, never to a panic.

use crate::lexer::Token;

/// Token ranges (braces included) of every `loop`/`while`/`for` body.
pub fn loop_bodies(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("loop") || t.is_ident("while") || t.is_ident("for")) {
            continue;
        }
        // `for` in `impl Trait for Type {` is not a loop, and its brace
        // encloses whole method bodies — a loop `for` always has an `in`
        // before its `{`; require it.
        let needs_in = t.is_ident("for");
        let mut seen_in = false;
        let mut j = i + 1;
        let mut depth = 0i32;
        // The header may contain parens/brackets (`while f(x) {`); find the
        // first `{` outside them.
        while let Some(t) = tokens.get(j) {
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_ident("in") && depth <= 0 {
                seen_in = true;
            } else if t.is_punct("{") && depth <= 0 {
                if !needs_in || seen_in {
                    let end = matching_delim(tokens, j, "{", "}").map_or(tokens.len(), |e| e + 1);
                    out.push((j, end));
                }
                break;
            } else if t.is_punct(";") && depth <= 0 {
                break; // malformed header; give up on this keyword
            }
            j += 1;
        }
    }
    out
}

/// Index of the token matching the opening delimiter at `open`.
pub(crate) fn matching_delim(
    tokens: &[Token],
    open: usize,
    open_s: &str,
    close_s: &str,
) -> Option<usize> {
    let mut depth = 0i32;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_s) {
            depth += 1;
        } else if t.is_punct(close_s) {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn loop_bodies_cover_all_three_forms() {
        let lexed = lex("fn f() { loop { a(); } while x { b(); } for i in 0..3 { c(); } }");
        let bodies = loop_bodies(&lexed.tokens);
        assert_eq!(bodies.len(), 3);
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let lexed =
            lex("impl Harness for Net { fn advance(&mut self, dt_s: f64) { self.t_s += dt_s; } }");
        assert!(loop_bodies(&lexed.tokens).is_empty());
    }

    #[test]
    fn truncated_source_never_panics() {
        for src in [
            "fn",
            "fn f(",
            "fn f(x: u32) {",
            "fn f() { while {",
            "for x in",
            "impl T for",
        ] {
            let _ = loop_bodies(&lex(src).tokens);
        }
    }
}
