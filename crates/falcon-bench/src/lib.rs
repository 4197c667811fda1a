//! Benchmark crate for the Falcon reproduction.
//!
//! This library is the lightweight timing harness behind the `quick`
//! binary, the repo's one microbenchmark pass. Its groups include:
//!
//! - `utility` — cost of evaluating Eq 1–4/7 per probe.
//! - `gp` — Gaussian-process fit/predict at the paper's 20-observation
//!   window (validates the "milliseconds" claim of §3.2).
//! - `simulator` — fluid-simulation step cost vs connection count.
//! - `optimizers` — per-decision cost of HC/GD/BO/CGD.
//! - `convergence` — end-to-end probes-to-converge per search algorithm
//!   (the Figure 7 quantity, benchmarked).
//! - `figures` — wall-clock cost of regenerating key paper figures.
//!
//! `quick` writes a machine-readable `BENCH.json`, giving the repo a perf
//! trajectory that CI can archive.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark: nanosecond statistics over `samples` timed
/// batches of `batch` iterations each.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench group (`utility`, `gp`, `simulator`, …).
    pub group: String,
    /// Benchmark label within the group.
    pub name: String,
    /// Median per-iteration time across samples, in nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time across samples, in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample's per-iteration time, in nanoseconds.
    pub min_ns: f64,
    /// Iterations per second implied by the median.
    pub throughput_per_s: f64,
    /// Iterations per timed sample.
    pub batch: u64,
    /// Number of timed samples.
    pub samples: u64,
}

/// Quick-bench harness: calibrates a batch size per benchmark, then takes
/// a fixed number of timed samples. Tuned for a CI smoke pass (tens of
/// milliseconds per benchmark), not for statistical rigor.
#[derive(Debug)]
pub struct QuickBench {
    results: Vec<BenchResult>,
    /// Wall-clock budget per timed sample.
    sample_budget: Duration,
    /// Timed samples per benchmark.
    samples: u64,
}

impl Default for QuickBench {
    fn default() -> Self {
        QuickBench {
            results: Vec::new(),
            sample_budget: Duration::from_millis(2),
            samples: 11,
        }
    }
}

impl QuickBench {
    /// Harness with the default budget (11 samples × ~2 ms).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Time `f`, record the result under `group`/`name`, and return the
    /// median nanoseconds per iteration.
    ///
    /// `f` may carry state across iterations (optimizer decision loops
    /// do); it runs `batch × samples` times plus a short calibration
    /// burst.
    pub fn bench<R, F: FnMut() -> R>(&mut self, group: &str, name: &str, mut f: F) -> f64 {
        // Calibration: run for ~one sample budget to estimate cost.
        let calib_start = Instant::now();
        let mut calib_iters = 0u64;
        while calib_start.elapsed() < self.sample_budget || calib_iters == 0 {
            black_box(f());
            calib_iters += 1;
            if calib_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = calib_start.elapsed().as_secs_f64() / calib_iters as f64;
        let batch =
            ((self.sample_budget.as_secs_f64() / per_iter.max(1e-12)) as u64).clamp(1, 1_000_000);

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
        per_iter_ns.sort_by(f64::total_cmp);
        let median = per_iter_ns[per_iter_ns.len() / 2];
        let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
        let min = per_iter_ns.first().copied().unwrap_or(median);
        self.results.push(BenchResult {
            group: group.to_string(),
            name: name.to_string(),
            median_ns: median,
            mean_ns: mean,
            min_ns: min,
            throughput_per_s: if median > 0.0 { 1e9 / median } else { 0.0 },
            batch,
            samples: self.samples,
        });
        median
    }

    /// Record a directly-measured value (bytes per transfer, counts)
    /// under `group`/`name` without timing anything. Gauges share the
    /// `BENCH.json` entry shape — the value lands in `median_ns` /
    /// `mean_ns` / `min_ns` — and are marked by `batch == 0` /
    /// `samples == 0` so compare tooling can tell them from timings.
    pub fn gauge(&mut self, group: &str, name: &str, value: f64) {
        self.results.push(BenchResult {
            group: group.to_string(),
            name: name.to_string(),
            median_ns: value,
            mean_ns: value,
            min_ns: value,
            throughput_per_s: 0.0,
            batch: 0,
            samples: 0,
        });
    }

    /// All results recorded so far, in bench order.
    #[must_use]
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Render the results as a `BENCH.json` document: benches in run
    /// order grouped under their group name, with median/mean/min
    /// nanoseconds and implied throughput per entry.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out =
            String::from("{\n  \"schema\": 1,\n  \"unit\": \"ns/iter\",\n  \"groups\": {\n");
        let mut groups: Vec<&str> = Vec::new();
        for r in &self.results {
            if !groups.contains(&r.group.as_str()) {
                groups.push(&r.group);
            }
        }
        for (gi, group) in groups.iter().enumerate() {
            out.push_str(&format!("    {}: {{\n", json_string(group)));
            let members: Vec<&BenchResult> =
                self.results.iter().filter(|r| r.group == *group).collect();
            for (mi, r) in members.iter().enumerate() {
                out.push_str(&format!(
                    "      {}: {{ \"median_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"throughput_per_s\": {}, \"batch\": {}, \"samples\": {} }}{}\n",
                    json_string(&r.name),
                    json_f64(r.median_ns),
                    json_f64(r.mean_ns),
                    json_f64(r.min_ns),
                    json_f64(r.throughput_per_s),
                    r.batch,
                    r.samples,
                    if mi + 1 < members.len() { "," } else { "" },
                ));
            }
            out.push_str(&format!(
                "    }}{}\n",
                if gi + 1 < groups.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Extract `(group/name, median_ns)` pairs from a `BENCH.json` document
/// produced by [`QuickBench::to_json`]. Line-oriented and deliberately
/// minimal (the workspace vendors no JSON parser): it relies on the
/// emitter's fixed indentation — four spaces for a group key, six for a
/// benchmark entry — and tolerates reordered or missing entries, not
/// arbitrary JSON.
#[must_use]
pub fn parse_bench_medians(doc: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut group = String::new();
    for line in doc.lines() {
        let Some(rest) = line.strip_prefix("    ") else {
            continue;
        };
        let entry = rest.strip_prefix("  ");
        let body = entry.unwrap_or(rest);
        let Some(name) = quoted_prefix(body) else {
            continue;
        };
        if entry.is_none() {
            group = name;
        } else if let Some(pos) = body.find("\"median_ns\": ") {
            let tail = &body[pos + "\"median_ns\": ".len()..];
            let num: String = tail
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect();
            if let Ok(v) = num.parse::<f64>() {
                out.push((format!("{group}/{name}"), v));
            }
        }
    }
    out
}

/// The unescaped contents of a leading JSON string, if `s` starts with one.
fn quoted_prefix(s: &str) -> Option<String> {
    let mut chars = s.strip_prefix('"')?.chars();
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
}

/// Minimal JSON string escaping (labels are ASCII identifiers, but stay
/// correct if one ever grows a quote or backslash).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite-checked JSON number with two decimal places (ns resolution is
/// already sub-digit noise at these scales).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_and_orders_results() {
        let mut q = QuickBench {
            sample_budget: Duration::from_micros(200),
            samples: 3,
            ..QuickBench::default()
        };
        let m = q.bench("g1", "spin", || std::hint::black_box(17u64 * 13));
        assert!(m > 0.0);
        q.bench("g2", "other", || std::hint::black_box(2u64 + 2));
        assert_eq!(q.results().len(), 2);
        assert_eq!(q.results()[0].group, "g1");
        assert!(q.results()[0].throughput_per_s > 0.0);
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let mut q = QuickBench {
            sample_budget: Duration::from_micros(100),
            samples: 2,
            ..QuickBench::default()
        };
        q.bench("alpha", "a\"quote", || 1);
        q.bench("alpha", "b", || 2);
        q.bench("beta", "c", || 3);
        let j = q.to_json();
        assert!(j.starts_with("{\n"));
        assert!(j.contains("\"schema\": 1"));
        assert!(j.contains("\"alpha\""));
        assert!(j.contains("a\\\"quote"));
        assert!(j.contains("\"median_ns\""));
        // Balanced braces (cheap structural sanity check).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
    }

    #[test]
    fn json_escapes_and_numbers() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_f64(1.5), "1.50");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parse_round_trips_to_json() {
        let mut q = QuickBench {
            sample_budget: Duration::from_micros(100),
            samples: 2,
            ..QuickBench::default()
        };
        q.bench("gp", "fit", || 1);
        q.bench("gp", "predict", || 2);
        q.bench("sim", "step", || 3);
        let parsed = parse_bench_medians(&q.to_json());
        assert_eq!(parsed.len(), 3);
        let keys: Vec<&str> = parsed.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["gp/fit", "gp/predict", "sim/step"]);
        for ((_, v), r) in parsed.iter().zip(q.results()) {
            assert!((v - r.median_ns).abs() < 0.01, "{v} vs {}", r.median_ns);
        }
    }

    #[test]
    fn parse_handles_escaped_names_and_garbage() {
        let mut q = QuickBench {
            sample_budget: Duration::from_micros(100),
            samples: 2,
            ..QuickBench::default()
        };
        q.bench("g", "a\"quote", || 1);
        let parsed = parse_bench_medians(&q.to_json());
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "g/a\"quote");
        assert!(parse_bench_medians("not json at all").is_empty());
    }
}
