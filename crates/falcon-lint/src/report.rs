//! Findings as GitHub Actions workflow annotations for CI.

use crate::rules::Finding;

/// Render findings as GitHub Actions workflow annotations
/// (`::error file=...,line=...,title=...::message`), which the Actions
/// runner turns into inline PR annotations. Newlines inside the message
/// must be URL-style escaped per the Actions command syntax.
pub fn to_github_annotations(findings: &[Finding]) -> String {
    let escape_gh = |s: &str| {
        s.replace('%', "%25")
            .replace('\r', "%0D")
            .replace('\n', "%0A")
    };
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "::error file={},line={},title=falcon-lint [{}]::{}\n",
            f.file,
            f.line,
            f.rule.name(),
            escape_gh(&f.message)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    #[test]
    fn github_annotations_escape_newlines() {
        let f = Finding {
            rule: Rule::UnitMismatch,
            file: "crates/x/src/a.rs".to_string(),
            line: 3,
            message: "a \"quoted\" message\nwith a newline".to_string(),
        };
        let ann = to_github_annotations(&[f]);
        assert!(ann.starts_with("::error file=crates/x/src/a.rs,line=3,"));
        assert!(ann.contains("%0A"), "{ann}");
        assert!(!ann.trim_end().contains('\n'), "one line per annotation");
    }
}
