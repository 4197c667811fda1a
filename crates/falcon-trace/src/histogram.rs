//! Fixed-bucket histogram over decade log bounds.
//!
//! Every histogram a run records uses the same twelve bounds, 1e-6 to
//! 1e5 — wide enough for both loss rates (1e-6..1) and throughputs in
//! Mbps (1..1e5).

/// Upper bucket bounds, ascending.
const BOUNDS: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0,
];

/// Fixed-bucket histogram. Bucket `i` counts values `v` with
/// `bounds[i-1] < v <= bounds[i]`; the final bucket is the overflow
/// (`v > bounds.last()`, plus NaN and +∞). −∞ is below every bound, so it
/// lands in the first bucket.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    counts: [u64; BOUNDS.len() + 1],
    sum: f64,
}

impl Histogram {
    /// Record one value. Non-finite values are counted (see the struct
    /// doc for which bucket) but do not contribute to the running sum.
    pub fn record(&mut self, v: f64) {
        let idx = BOUNDS.iter().position(|b| v <= *b).unwrap_or(BOUNDS.len());
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        if v.is_finite() {
            self.sum += v;
        }
    }

    /// Total recorded values across all buckets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all finite recorded values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Bucket upper bounds (ascending).
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &BOUNDS
    }

    /// Per-bucket counts; one longer than [`Histogram::bounds`] (the last
    /// entry is the overflow bucket).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_upper_inclusive() {
        let mut h = Histogram::default();
        h.record(0.5); // <= 1.0
        h.record(1.0); // <= 1.0 (inclusive upper bound)
        h.record(5.0); // <= 10.0
        h.record(5e5); // overflow
        assert_eq!(h.counts(), &[0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 500_006.5);
    }

    #[test]
    fn non_finite_values_are_counted_without_poisoning_sum() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.counts(), &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(h.sum(), 0.0);
    }
}
