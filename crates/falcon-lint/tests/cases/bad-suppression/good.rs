//! Fixture: every directive silences exactly the finding it names, on its
//! own line or the next.

pub fn checked(x: Option<u32>) -> u32 {
    // falcon-lint::allow(panic-safety, reason = "fixture: callers always pass Some")
    x.unwrap()
}

pub fn sentinel(sigma: f64) -> bool {
    sigma == 0.0 // falcon-lint::allow(float-cmp, reason = "fixture: exact-zero sentinel")
}
