//! Property-based tests for the baseline tuners.

use proptest::prelude::*;

use falcon_baselines::{GlobusTuner, HarpHistory, HarpTuner};
use falcon_core::{ProbeMetrics, TransferSettings};
use falcon_transfer::dataset::{Dataset, FileSpec};
use falcon_transfer::runner::Tuner;

fn feed(t: &mut dyn Tuner, settings: TransferSettings, per_thread: f64) -> TransferSettings {
    let m = ProbeMetrics {
        settings,
        aggregate_mbps: per_thread * f64::from(settings.concurrency),
        per_thread_mbps: per_thread,
        loss_rate: 0.0,
        interval_s: 5.0,
    };
    t.on_sample(&m)
}

proptest! {
    /// Globus always produces a fixed, valid setting regardless of dataset
    /// composition, and never changes it whatever it observes.
    #[test]
    fn globus_fixed_and_valid(
        sizes in proptest::collection::vec(1u64..20_000_000_000, 1..30),
        rates in proptest::collection::vec(0.0f64..50_000.0, 1..10),
    ) {
        let d = Dataset {
            name: "prop",
            files: sizes
                .iter()
                .map(|&size_bytes| FileSpec {
                    size_bytes,
                    count: 1,
                })
                .collect(),
        };
        let mut g = GlobusTuner::for_dataset(&d);
        let first = g.initial();
        prop_assert!(first.concurrency >= 1);
        prop_assert!(first.parallelism >= 1);
        prop_assert!(first.pipelining >= 1);
        let mut s = first;
        for &r in &rates {
            s = feed(&mut g, s, r);
            prop_assert_eq!(s, first);
        }
    }

    /// HARP's committed concurrency is inversely monotone in the probed
    /// per-thread rate: slower observed threads → more of them.
    #[test]
    fn harp_concurrency_inverse_in_rate(
        rate in 10.0f64..20_000.0,
    ) {
        let commit = |rate: f64| -> u32 {
            let mut h = HarpTuner::new(HarpHistory::for_capacity_gbps(20.0));
            let mut s = h.initial();
            for _ in 0..4 {
                s = feed(&mut h, s, rate);
            }
            h.committed().expect("committed after probes+refinement").concurrency
        };
        let fast = commit(rate * 2.0);
        let slow = commit(rate);
        prop_assert!(slow >= fast, "slow {slow} < fast {fast}");
    }

    /// HARP's committed setting is always within [2, max_concurrency], for
    /// any probe observations including zeros.
    #[test]
    fn harp_commit_always_valid(
        rates in proptest::collection::vec(0.0f64..100_000.0, 4..10),
        target in 1.0f64..100.0,
    ) {
        let mut h = HarpTuner::new(HarpHistory::for_capacity_gbps(target));
        let mut s = h.initial();
        for &r in &rates {
            s = feed(&mut h, s, r);
            prop_assert!(s.concurrency >= 1);
            prop_assert!(s.concurrency <= 32);
        }
        let c = h.committed().expect("committed");
        prop_assert!((2..=32).contains(&c.concurrency));
    }

    /// Once fixed, HARP never reacts again — the late-comer mechanism's
    /// precondition.
    #[test]
    fn harp_frozen_after_commit(
        pre in proptest::collection::vec(100.0f64..5000.0, 4),
        post in proptest::collection::vec(0.0f64..50_000.0, 1..10),
    ) {
        let mut h = HarpTuner::new(HarpHistory::ten_gig_corpus());
        let mut s = h.initial();
        for &r in &pre {
            s = feed(&mut h, s, r);
        }
        let committed = h.committed().expect("committed");
        for &r in &post {
            let next = feed(&mut h, s, r);
            prop_assert_eq!(next, committed);
            s = next;
        }
    }
}
