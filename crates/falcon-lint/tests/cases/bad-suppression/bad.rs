//! Fixture: well-formed directives that silence nothing, and one that
//! names a retired rule. Each is reported as `bad-suppression`, and the
//! findings they miss still fire.

pub fn fixed_since(xs: &[f64]) -> Option<f64> {
    // falcon-lint::allow(panic-safety, reason = "the assert this excused is gone")
    xs.first().copied()
}

pub fn wrong_rule(x: u32) {
    // falcon-lint::allow(float-cmp, reason = "names a rule that does not fire here")
    assert!(x > 0);
}

pub fn wrong_line(x: u32) -> u32 {
    // falcon-lint::allow(panic-safety, reason = "covers only its own line and the next")
    let y = x + 1;
    assert_ne!(y, 0);
    // falcon-lint::allow(determinism, reason = "that rule is clippy's now")
    y
}
