//! Fixture: the graceful counterparts — fallbacks, debug_asserts, and
//! asserts confined to test code.

pub fn pick(kind: u8) -> &'static str {
    match kind {
        0 => "hill-climbing",
        1 => "bayesian",
        _ => "unknown",
    }
}

pub fn validate(concurrency: u32) -> u32 {
    debug_assert!(concurrency <= 100, "suspicious concurrency");
    concurrency.clamp(1, 100)
}

pub fn sanctioned(xs: &[f64]) -> f64 {
    // falcon-lint::allow(panic-safety, reason = "fixture: demonstrates a justified inline suppression")
    assert!(!xs.is_empty(), "callers pass a non-empty slice");
    xs[0]
}

#[cfg(test)]
mod tests {
    #[test]
    fn assert_is_idiomatic_here() {
        assert_eq!(super::pick(0), "hill-climbing");
    }
}
