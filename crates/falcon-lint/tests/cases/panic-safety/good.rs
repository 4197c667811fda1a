//! Fixture: the graceful counterparts — Results, fallbacks, debug_asserts,
//! and unwraps confined to test code.

pub fn first(xs: &[f64]) -> Option<f64> {
    xs.first().copied()
}

pub fn parse(s: &str) -> Result<u32, std::num::ParseIntError> {
    s.parse()
}

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
    *xs.first().expect("callers pass a non-empty slice")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_idiomatic_here() {
        let v: Result<u32, ()> = Ok(3);
        assert_eq!(v.unwrap(), 3);
    }
}
