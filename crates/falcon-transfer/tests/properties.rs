//! Property-based tests for datasets, jobs, pipelining, and fairness.

use proptest::prelude::*;

use falcon_core::TransferSettings;
use falcon_transfer::dataset::{Dataset, FileSpec};
use falcon_transfer::job::TransferJob;
use falcon_transfer::pipelining::{per_file_gap_s, thread_efficiency};
use falcon_transfer::runner::jain_index;
use falcon_transfer::scheduler::SchedulePolicy;

fn dataset_from_sizes(sizes: &[u64]) -> Dataset {
    Dataset {
        name: "prop",
        files: sizes
            .iter()
            .map(|&size_bytes| FileSpec {
                size_bytes,
                count: 1,
            })
            .collect(),
    }
}

/// The one-entry-per-file form of a dataset.
fn expanded(d: &Dataset) -> Dataset {
    let mut sizes = Vec::new();
    for f in &d.files {
        for _ in 0..f.count {
            sizes.push(f.size_bytes);
        }
    }
    dataset_from_sizes(&sizes)
}

/// Everything downstream code reads of a dataset.
fn assert_same_observables(a: &Dataset, b: &Dataset) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.total_bytes(), b.total_bytes());
    prop_assert_eq!(a.mean_file_bytes(), b.mean_file_bytes());
    for pp in [1, 2, 8, 32] {
        let s = TransferSettings {
            concurrency: 4,
            parallelism: 1,
            pipelining: pp,
        };
        prop_assert_eq!(
            thread_efficiency(a.mean_file_bytes(), s, 0.03, 800.0),
            thread_efficiency(b.mean_file_bytes(), s, 0.03, 800.0)
        );
    }
    for policy in SchedulePolicy::all() {
        prop_assert_eq!(policy.order(a), policy.order(b), "{}", policy.name());
    }
    Ok(())
}

proptest! {
    /// Job accounting: total delivered never exceeds the dataset size, is
    /// monotone in delivery, and completion means every byte arrived.
    #[test]
    fn job_accounting_invariants(
        sizes in proptest::collection::vec(1u64..10_000_000, 1..50),
        deliveries in proptest::collection::vec(0.0f64..1e4, 1..50),
    ) {
        let d = dataset_from_sizes(&sizes);
        let total = d.total_bytes();
        let mut job = TransferJob::new(&d);
        prop_assert_eq!(job.total_bytes(), total);
        let mut prev = 0;
        for &mb in &deliveries {
            job.deliver_mbits(mb);
            let delivered = job.delivered_bytes();
            prop_assert!(delivered >= prev);
            prop_assert!(delivered <= total);
            prop_assert_eq!(job.is_complete(), delivered == total);
            prev = delivered;
        }
    }

    /// A run-length dataset is indistinguishable from its expanded,
    /// one-entry-per-file form.
    #[test]
    fn run_length_matches_expanded(
        runs in proptest::collection::vec((1u64..10_000_000, 0u64..40), 0..12),
        seed in 0u64..20,
    ) {
        let d = Dataset {
            name: "runs",
            files: runs
                .iter()
                .map(|&(size_bytes, count)| FileSpec { size_bytes, count })
                .collect(),
        };
        assert_same_observables(&d, &expanded(&d))?;
        let uniform = Dataset::uniform_1gb(seed * 50);
        prop_assert_eq!(uniform.files.len(), 1);
        assert_same_observables(&uniform, &expanded(&uniform))?;
    }

    /// Pipelining efficiency is within (0, 1], monotone in pipelining depth
    /// and in file size.
    #[test]
    fn efficiency_monotone(
        mean_kib in 1u64..1_000_000,
        rtt in 1e-4f64..0.2,
        rate in 1.0f64..10_000.0,
        pp in 1u32..32,
    ) {
        let d = dataset_from_sizes(&[mean_kib * 1024; 5]);
        let s = |pp| TransferSettings { concurrency: 4, parallelism: 1, pipelining: pp };
        let e = thread_efficiency(d.mean_file_bytes(), s(pp), rtt, rate);
        prop_assert!((0.0..=1.0).contains(&e));
        let e_deeper = thread_efficiency(d.mean_file_bytes(), s(pp + 4), rtt, rate);
        prop_assert!(e_deeper >= e - 1e-12, "deeper pipelining hurt: {e} -> {e_deeper}");
        let bigger = dataset_from_sizes(&[mean_kib * 1024 * 4; 5]);
        let e_big = thread_efficiency(bigger.mean_file_bytes(), s(pp), rtt, rate);
        prop_assert!(e_big >= e - 1e-12, "bigger files hurt efficiency: {e} -> {e_big}");
    }

    /// Per-file gap scales as 1/pp and grows with RTT.
    #[test]
    fn gap_scaling(rtt in 1e-4f64..0.5, pp in 1u32..64) {
        let g = per_file_gap_s(rtt, pp);
        prop_assert!(g > 0.0);
        prop_assert!((per_file_gap_s(rtt, pp * 2) - g / 2.0).abs() < 1e-12);
        prop_assert!(per_file_gap_s(rtt * 2.0, pp) > g);
    }

    /// Dataset generators: deterministic, within their declared size
    /// envelopes, never empty.
    #[test]
    fn dataset_generators_bounded(seed in 0u64..20) {
        use falcon_transfer::dataset::{GIB, KIB, MIB, TIB};
        let small = Dataset::small(seed);
        prop_assert!(!small.is_empty());
        prop_assert!(small.files.iter().all(|f| (KIB..=10 * MIB).contains(&f.size_bytes)));
        prop_assert!(small.total_bytes() >= 120 * GIB);
        prop_assert!(small.total_bytes() < 121 * GIB);

        let large = Dataset::large(seed);
        prop_assert!(large.files.iter().all(|f| (100 * MIB..=10 * GIB).contains(&f.size_bytes)));
        prop_assert!(large.total_bytes() >= TIB);
    }

    /// Jain's index is scale-invariant and permutation-invariant.
    #[test]
    fn jain_invariances(
        xs in proptest::collection::vec(0.01f64..1e6, 2..12),
        scale in 0.01f64..100.0,
    ) {
        let j = jain_index(&xs);
        let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        prop_assert!((jain_index(&scaled) - j).abs() < 1e-9);
        let mut rev = xs.clone();
        rev.reverse();
        prop_assert!((jain_index(&rev) - j).abs() < 1e-12);
        prop_assert!(j >= 1.0 / xs.len() as f64 - 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The seeded generators draw one size per file, so they are already
    /// in expanded form (tens of thousands of entries: few cases).
    #[test]
    fn seeded_generators_emit_one_entry_per_file(seed in 0u64..1000) {
        for d in [Dataset::small(seed), Dataset::large(seed), Dataset::mixed(seed)] {
            let e = expanded(&d);
            prop_assert_eq!(&e.files, &d.files, "{}", d.name);
            assert_same_observables(&d, &e)?;
        }
    }
}
