//! Property-based tests over falcon-trace's invariants: `TraceQuery`
//! time windows partition a record stream exactly.

use falcon_trace::{Candidate, TraceEvent, TraceQuery, TraceRecord};
use proptest::prelude::*;

/// Short label palette for the generated records' string fields.
const LABELS: [&str; 6] = [
    "slope",
    "θ-term",
    "with \"quote\"",
    "tab\tsep",
    "back\\slash",
    "",
];

/// Build one record of each possible shape from plain generated numbers.
/// The miniature vendored proptest has no `prop_oneof`/`prop_map`, so the
/// variant and every field are derived from a numeric tuple.
fn build_record(spec: (u32, f64, u32, f64)) -> TraceRecord {
    let (selector, t_s, small, scalar) = spec;
    let cc = small + 1;
    let label = LABELS[(small as usize) % LABELS.len()].to_string();
    let event = match selector % 7 {
        0 => TraceEvent::Probe {
            throughput_mbps: scalar.abs(),
            loss_rate: scalar.abs() / 1e7,
            concurrency: cc,
            parallelism: small + 1,
            pipelining: 1,
        },
        1 => TraceEvent::Decision {
            optimizer: label.clone(),
            concurrency: cc,
            parallelism: 1,
            pipelining: small + 1,
            terms: vec![(label, scalar), ("second".to_string(), -scalar)],
            candidates: vec![
                Candidate {
                    concurrency: cc,
                    parallelism: 1,
                    utility: scalar,
                },
                Candidate {
                    concurrency: cc + 1,
                    parallelism: 2,
                    utility: scalar / 3.0,
                },
            ],
        },
        2 => TraceEvent::SettingsChange {
            concurrency: cc,
            parallelism: small + 2,
            pipelining: small + 3,
        },
        3 => TraceEvent::Recovery {
            action: label,
            value: scalar,
        },
        4 => TraceEvent::Environment {
            action: label,
            value: scalar,
        },
        5 => TraceEvent::Convergence {
            concurrency: cc,
            probes: u64::from(small) + 1,
        },
        _ => TraceEvent::Connection {
            action: label,
            value: scalar,
        },
    };
    TraceRecord {
        t_s,
        agent: if selector % 3 == 0 { None } else { Some(small) },
        event,
    }
}

type RecordSpec = (u32, f64, u32, f64);

fn record_specs(max: usize) -> impl Strategy<Value = Vec<RecordSpec>> {
    proptest::collection::vec(
        (0u32..21, 0.0f64..1000.0, 0u32..5, -1.0e6f64..1.0e6),
        0..max,
    )
}

proptest! {
    /// Adjacent half-open windows partition a record stream: every record
    /// inside `[t0, t1)` lands in exactly one of `[t0, mid)` / `[mid, t1)`,
    /// in order, with nothing lost or duplicated.
    #[test]
    fn windows_partition_records_without_loss_or_duplication(
        specs in record_specs(60),
        cuts in (0.0f64..1000.0, 0.0f64..1000.0, 0.0f64..1000.0),
    ) {
        // Real logs are time-ordered (the tracer clock is monotonically
        // clamped); the in-order rejoin below relies on that.
        let mut records: Vec<TraceRecord> = specs.into_iter().map(build_record).collect();
        records.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        let mut ts = [cuts.0, cuts.1, cuts.2];
        ts.sort_by(f64::total_cmp);
        let [t0, mid, t1] = ts;

        let whole = TraceQuery::from_records(&records).window(t0, t1);
        let left = TraceQuery::from_records(&records).window(t0, mid);
        let right = TraceQuery::from_records(&records).window(mid, t1);

        prop_assert_eq!(left.count() + right.count(), whole.count());
        let rejoined: Vec<&TraceRecord> = left
            .records()
            .iter()
            .chain(right.records().iter())
            .copied()
            .collect();
        prop_assert_eq!(rejoined, whole.records().to_vec());

        // Filters only drop records — never invent or reorder them.
        prop_assert!(whole.count() <= records.len());
    }
}
