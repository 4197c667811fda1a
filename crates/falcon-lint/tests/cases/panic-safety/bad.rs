//! Fixture: library code that aborts instead of degrading.

pub fn pick(kind: u8) -> &'static str {
    match kind {
        0 => "hill-climbing",
        1 => "bayesian",
        _ => unreachable!("unknown optimizer kind"),
    }
}

pub fn validate(concurrency: u32) {
    assert!(concurrency >= 1, "need at least one worker");
    if concurrency > 100 {
        panic!("concurrency cap exceeded");
    }
}
