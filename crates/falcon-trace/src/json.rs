//! JSON writer helpers for the JSONL exporter. Hand-rolled: the offline
//! dependency set has no JSON crate, and the trace format writes only
//! strings, numbers, arrays and flat objects.
//!
//! Writer invariants that make exports byte-stable: object keys are
//! emitted in a fixed order per record kind, floats use Rust's shortest
//! round-trip `Display` form (re-parsing yields the identical bits), and
//! strings escape only what JSON requires.

/// Append a JSON-escaped string literal (with quotes).
pub(crate) fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a JSON number. Finite floats use `Display` (shortest form that
/// round-trips exactly); non-finite values become `null`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escapes_are_exact() {
        let mut out = String::new();
        push_str_lit(&mut out, "a\"b\\c\nd\u{1}é→");
        assert_eq!(out, r#""a\"b\\c\u000ad\u0001é→""#);
    }

    #[test]
    fn floats_re_parse_to_the_same_bits() {
        for v in [0.0, 1.5, -0.001, 1e300, 5e-324, 0.1 + 0.2] {
            let mut out = String::new();
            push_f64(&mut out, v);
            let back: f64 = out.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {out}");
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(out, "null", "{v}");
        }
    }
}
