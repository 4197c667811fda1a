//! Fixture: well-formed directives that silence nothing. Each is reported
//! as `bad-suppression`, and the findings they miss still fire.

pub fn fixed_since(xs: &[f64]) -> Option<f64> {
    // falcon-lint::allow(panic-safety, reason = "the unwrap this excused is gone")
    xs.first().copied()
}

pub fn wrong_rule(x: Option<u32>) -> u32 {
    // falcon-lint::allow(float-cmp, reason = "names a rule that does not fire here")
    x.unwrap()
}

pub fn wrong_line(x: Option<u32>) -> u32 {
    // falcon-lint::allow(panic-safety, reason = "covers only its own line and the next")
    let y = x.map(|v| v + 1);
    y.unwrap()
}
