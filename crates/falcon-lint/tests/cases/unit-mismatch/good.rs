//! Fixture: dimensionally clean counterparts — same-unit arithmetic,
//! explicit scale conversions (the `*`/`/` exemption), and one justified
//! suppression.

pub fn deadline(at_s: f64, backoff_s: f64) -> f64 {
    at_s + backoff_s
}

pub fn to_seconds(delay_ms: f64) -> f64 {
    delay_ms / 1000.0
}

pub fn caller(grace_ms: f64) -> f64 {
    let grace_s = grace_ms / 1000.0;
    deadline(grace_s, grace_s * 2.0)
}

pub fn blend(score_s: f64, weight_ms: f64) -> f64 {
    // falcon-lint::allow(unit-mismatch, reason = "dimensionless score blends scales deliberately")
    score_s + weight_ms
}
