//! In-memory span recording for the traced run.
//!
//! One span per call into a layer: name, start, end, the span that caused
//! it, and the run it belongs to. Spans stay in memory until the run ends;
//! aggregates (count, total, self) and the first raw spans are written at
//! exit. A layer's self time is its span's duration minus what its child
//! spans cover, so children + self sum to the parent exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Index of a span that has no parent.
pub const ROOT: u32 = u32::MAX;
/// Raw spans kept in the trace file.
const RAW_SPANS: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: u32,
    /// Spans of one run share this id.
    pub run: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

struct Inner {
    spans: Vec<Span>,
    /// The open run span, if any: the parent of spans recorded now.
    open: u32,
    runs: u32,
}

/// Cheap-to-clone handle shared by the harness and tuner decorators of one
/// (single-threaded) run.
#[derive(Clone)]
pub struct Recorder {
    epoch: Instant,
    inner: Rc<RefCell<Inner>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            inner: Rc::new(RefCell::new(Inner {
                spans: Vec::new(),
                open: ROOT,
                runs: 0,
            })),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record `f` as a child of the open run span. The recorder is not
    /// borrowed while `f` runs, so `f` may record spans of its own.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let (parent, run) = (inner.open, inner.runs);
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run,
        });
        out
    }

    /// Record `f` as a new run: a root span that parents every span
    /// recorded while it is open.
    pub fn run<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut inner = self.inner.borrow_mut();
            inner.runs += 1;
            let (index, run) = (inner.spans.len() as u32, inner.runs);
            inner.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: ROOT,
                run,
            });
            inner.open = index;
            index
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.open = ROOT;
        let span = &mut inner.spans[index as usize];
        (span.start_ns, span.end_ns) = (start_ns, end_ns);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Totals of every span that shares a name and a parent name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_s: f64,
    /// `total_s` minus the time covered by child spans.
    pub self_s: f64,
}

/// Aggregates keyed by `(name, parent name)`; `""` is the root.
pub fn aggregate(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Aggregate> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_s[s.parent as usize] += s.seconds();
        }
    }
    let mut out: BTreeMap<_, Aggregate> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            ""
        } else {
            spans[s.parent as usize].name
        };
        let a = out.entry((s.name, parent)).or_default();
        a.count += 1;
        a.total_s += s.seconds();
        a.self_s += s.seconds() - child_s[i];
    }
    out
}

/// Per-call timings of the spans named `name`.
pub struct Calls {
    pub count: u64,
    pub total_s: f64,
    pub p50_us: f64,
    /// The 99th percentile when there are at least 1000 calls (ten samples
    /// beyond it), otherwise the maximum.
    pub p99_us: f64,
}

pub fn calls(spans: &[Span], name: &str) -> Calls {
    let mut us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    us.sort_by(f64::total_cmp);
    let n = us.len();
    let at = |q: f64| {
        us.get(((n as f64 * q) as usize).min(n.saturating_sub(1)))
            .copied()
            .unwrap_or(0.0)
    };
    Calls {
        count: n as u64,
        total_s: us.iter().sum::<f64>() / 1e6,
        p50_us: at(0.5),
        p99_us: if n >= 1000 { at(0.99) } else { at(1.0) },
    }
}

/// The trace file: aggregates by name and parent, then the first raw spans.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let aggregates: Vec<String> = aggregate(spans)
        .iter()
        .map(|((name, parent), a)| {
            format!(
                "{{\"name\":\"{name}\",\"parent\":\"{parent}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                a.count, a.total_s, a.self_s
            )
        })
        .collect();
    let raw: Vec<String> = spans
        .iter()
        .take(RAW_SPANS)
        .map(|s| {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )
        })
        .collect();
    format!(
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"aggregates\":[\n{}\n],\"spans\":[\n{}\n]}}\n",
        spans.len(),
        aggregates.join(",\n"),
        raw.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_and_self_sum_to_the_run_exactly() {
        let rec = Recorder::new();
        for _ in 0..2 {
            rec.run("run", || {
                for _ in 0..50 {
                    rec.time("a", || std::hint::black_box((0..200).sum::<u64>()));
                    rec.time("b", || ());
                }
            });
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2 * 101);
        let agg = aggregate(&spans);
        let run = &agg[&("run", "")];
        let children = agg[&("a", "run")].total_s + agg[&("b", "run")].total_s;
        assert_eq!(run.count, 2);
        assert!(run.self_s >= 0.0);
        assert!((run.self_s + children - run.total_s).abs() < 1e-12);
        // Every child names its own run.
        assert!(spans
            .iter()
            .filter(|s| s.parent != ROOT)
            .all(|s| s.run == spans[s.parent as usize].run));
    }

    #[test]
    fn percentiles_fall_back_to_max_below_a_thousand_calls() {
        let span = |ns: u64| Span {
            name: "x",
            start_ns: 0,
            end_ns: ns,
            parent: ROOT,
            run: 1,
        };
        let few: Vec<Span> = (1..=10).map(|i| span(i * 1000)).collect();
        let c = calls(&few, "x");
        assert_eq!((c.count, c.p99_us), (10, 10.0));
        let many: Vec<Span> = (1..=2000).map(|i| span(i * 1000)).collect();
        let c = calls(&many, "x");
        assert_eq!(c.p50_us, 1001.0);
        assert_eq!(c.p99_us, 1981.0);
        assert_eq!(calls(&many, "absent").count, 0);
    }

    #[test]
    fn trace_file_keeps_aggregates_and_caps_raw_spans() {
        let rec = Recorder::new();
        rec.run("run", || {
            for _ in 0..RAW_SPANS + 5 {
                rec.time("a", || ());
            }
        });
        let text = to_json("w", &rec.spans());
        assert!(text.contains("\"spans_recorded\":10006"));
        assert_eq!(text.matches("\"start_ns\"").count(), RAW_SPANS);
        assert!(text.contains("\"name\":\"a\",\"parent\":\"run\",\"count\":10005"));
    }
}
