//! Exact decision sequences of the baseline tuners on a fixed synthetic
//! response curve.
//!
//! The curve models a 12 Gbps path where one file thread peaks at
//! 1.9 Gbps: `per_thread(cc) = min(1900, 12000 / cc)`. Against it, every
//! settings decision of Globus and HARP is hand-computable, so these
//! tests pin the full sequence — not just properties of it.

use falcon_baselines::{GlobusTuner, HarpHistory, HarpTuner};
use falcon_core::{ProbeMetrics, TransferSettings};
use falcon_transfer::dataset::{Dataset, FileSpec, MIB};
use falcon_transfer::runner::Tuner;

/// Per-thread throughput (Mbps) of the synthetic path at concurrency `cc`.
fn per_thread(cc: u32) -> f64 {
    (12_000.0 / f64::from(cc)).min(1900.0)
}

/// Feed a tuner the curve's response to `settings` and return its next
/// decision.
fn feed(t: &mut dyn Tuner, settings: TransferSettings) -> TransferSettings {
    let rate = per_thread(settings.concurrency);
    let m = ProbeMetrics {
        settings,
        aggregate_mbps: rate * f64::from(settings.concurrency),
        per_thread_mbps: rate,
        loss_rate: 0.0,
        interval_s: 5.0,
    };
    t.on_sample(&m)
}

/// Drive a tuner through `n` decisions, recording the concurrency of each
/// (including the initial setting as the first entry).
fn decision_sequence(t: &mut dyn Tuner, n: usize) -> Vec<u32> {
    let mut s = t.initial();
    let mut seq = vec![s.concurrency];
    for _ in 0..n {
        s = feed(t, s);
        seq.push(s.concurrency);
    }
    seq
}

#[test]
fn harp_decision_sequence_on_the_synthetic_curve() {
    // Probe plan [2, 6, 11]; at cc = 11 the curve gives
    // t̂ = 12000/11 ≈ 1090.9 Mbps per thread, so the 11 Gbps corpus
    // solves cc = ⌈11000 / 1090.9⌉ = ⌈10.08⌉ = 11, which the refinement
    // pass (same t̂) confirms. HARP then freezes at 11 forever.
    let mut h = HarpTuner::new(HarpHistory::ten_gig_corpus());
    let seq = decision_sequence(&mut h, 7);
    assert_eq!(seq, vec![2, 6, 11, 11, 11, 11, 11, 11]);
    assert_eq!(h.committed().map(|s| s.concurrency), Some(11));
    // Socket shape comes straight from the corpus.
    let s = h.committed().expect("committed above");
    assert_eq!((s.parallelism, s.pipelining), (1, 4));
}

#[test]
fn harp_with_uncongested_probes_commits_the_target_quotient() {
    // A 20 Gbps-corpus HARP whose final probe still sees the full
    // 1.9 Gbps per thread (cc = 11 on a faster synthetic path would, but
    // here we feed the thread cap directly): cc = ⌈20000/1900⌉ = 11.
    let mut h = HarpTuner::new(HarpHistory::for_capacity_gbps(20.0));
    let mut s = h.initial();
    for _ in 0..4 {
        let m = ProbeMetrics {
            settings: s,
            aggregate_mbps: 1900.0 * f64::from(s.concurrency),
            per_thread_mbps: 1900.0,
            loss_rate: 0.0,
            interval_s: 5.0,
        };
        s = h.on_sample(&m);
    }
    assert_eq!(s.concurrency, 11);
    assert_eq!(h.committed().map(|c| c.concurrency), Some(11));
}

#[test]
fn harp_rt_retune_follows_the_curve_after_a_capacity_drop() {
    // HARP-RT with period 2, committed at cc = 11 on the synthetic curve.
    let mut h = HarpTuner::new(HarpHistory::ten_gig_corpus()).with_runtime_retuning(2);
    let mut s = h.initial();
    for _ in 0..4 {
        s = feed(&mut h, s);
    }
    assert_eq!(s.concurrency, 11);
    // The path halves: per-thread at cc = 11 is now 545.45 Mbps, so the
    // re-solve gives ⌈11000 / 545.45⌉ = ⌈20.17⌉ = 21.
    let halved = ProbeMetrics {
        settings: s,
        aggregate_mbps: 6_000.0,
        per_thread_mbps: 6_000.0 / f64::from(s.concurrency),
        loss_rate: 0.0,
        interval_s: 5.0,
    };
    let first = h.on_sample(&halved);
    assert_eq!(first.concurrency, 11, "one interval before the period");
    let retuned = h.on_sample(&halved);
    assert_eq!(retuned.concurrency, 21, "re-solved from the halved curve");
}

#[test]
fn globus_sequences_are_constant_per_dataset_bucket() {
    // (dataset, expected fixed (cc, p, pp)) for each heuristic bucket:
    // mean < 50 MiB, 50–250 MiB, and ≥ 250 MiB.
    let medium = Dataset {
        name: "100x100MiB",
        files: vec![FileSpec {
            size_bytes: 100 * MIB,
            count: 100,
        }],
    };
    let cases: [(Dataset, (u32, u32, u32)); 3] = [
        (Dataset::small(1), (2, 2, 20)),
        (medium, (2, 4, 5)),
        (Dataset::uniform_1gb(100), (2, 8, 1)),
    ];
    for (dataset, (cc, p, pp)) in cases {
        let mut g = GlobusTuner::for_dataset(&dataset);
        let seq = decision_sequence(&mut g, 6);
        assert_eq!(seq, vec![cc; 7], "dataset {}", dataset.name);
        let s = g.settings();
        assert_eq!(
            (s.concurrency, s.parallelism, s.pipelining),
            (cc, p, pp),
            "dataset {}",
            dataset.name
        );
    }
}
