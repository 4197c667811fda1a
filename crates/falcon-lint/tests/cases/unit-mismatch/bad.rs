//! Fixture: arithmetic and comparisons that mix identifier unit suffixes —
//! all `f64` to the compiler, all wrong dimensionally.

pub fn deadline(at_s: f64, backoff_ms: f64) -> f64 {
    at_s + backoff_ms
}

pub fn window_closed(window_s: f64, rtt_ms: f64) -> bool {
    window_s < rtt_ms
}

pub fn throughput(size_bytes: f64, rate_mbps: f64) -> bool {
    size_bytes != rate_mbps
}
