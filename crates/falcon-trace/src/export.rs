//! JSONL and summary exporters for [`TraceLog`].
//!
//! One JSON object per line: event records first (in emission order),
//! then counter lines, then histogram lines. Key order within each line
//! is fixed and floats use shortest round-trip formatting, so the same
//! log always serializes to the same bytes — the contract the golden
//! traces under `tests/golden/` rely on.

use crate::json::{push_f64, push_str_lit};
use crate::{EventKind, Histogram, TraceEvent, TraceLog, TraceRecord};

impl TraceLog {
    /// Serialize to JSONL. Byte-stable: the same log always produces the
    /// same string.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            push_record(&mut out, r);
            out.push('\n');
        }
        for (name, value) in &self.counters {
            out.push_str("{\"kind\":\"counter\",\"name\":");
            push_str_lit(&mut out, name);
            out.push_str(&format!(",\"value\":{value}}}"));
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            push_histogram(&mut out, name, h);
            out.push('\n');
        }
        out
    }

    /// Human-readable run summary: event totals per kind, per-agent
    /// activity (decision counts, first convergence), counters, and
    /// histogram totals. Deterministic line order.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::from("# trace summary\n");
        out.push_str(&format!("events: {}\n", self.records.len()));
        for kind in [
            EventKind::Probe,
            EventKind::Decision,
            EventKind::SettingsChange,
            EventKind::Recovery,
            EventKind::Environment,
            EventKind::Convergence,
            EventKind::Connection,
        ] {
            let n = self
                .records
                .iter()
                .filter(|r| r.event.kind() == kind)
                .count();
            if n > 0 {
                out.push_str(&format!("  {:<12} {n}\n", kind.name()));
            }
        }
        let mut agents: Vec<u32> = self.records.iter().filter_map(|r| r.agent).collect();
        agents.sort_unstable();
        agents.dedup();
        for a in agents {
            let q = crate::TraceQuery::new(self).agent(a);
            let decisions = q.decision_count();
            let probes = q.clone().kind(EventKind::Probe).count();
            match q.convergence_time() {
                Some(t) => out.push_str(&format!(
                    "agent {a}: {probes} probes, {decisions} decisions, first convergence at {t:.1}s\n"
                )),
                None => out.push_str(&format!(
                    "agent {a}: {probes} probes, {decisions} decisions, no convergence marker\n"
                )),
            }
        }
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} = {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name}: total={} sum={:.3}\n",
                h.total(),
                h.sum()
            ));
        }
        out
    }
}

fn push_settings(out: &mut String, cc: u32, p: u32, pp: u32) {
    out.push_str(&format!(",\"cc\":{cc},\"p\":{p},\"pp\":{pp}"));
}

fn push_record(out: &mut String, r: &TraceRecord) {
    out.push_str("{\"t\":");
    push_f64(out, r.t_s);
    if let Some(a) = r.agent {
        out.push_str(&format!(",\"agent\":{a}"));
    }
    out.push_str(",\"kind\":");
    push_str_lit(out, r.event.kind().name());
    match &r.event {
        TraceEvent::Probe {
            throughput_mbps,
            loss_rate,
            concurrency,
            parallelism,
            pipelining,
        } => {
            out.push_str(",\"mbps\":");
            push_f64(out, *throughput_mbps);
            out.push_str(",\"loss\":");
            push_f64(out, *loss_rate);
            push_settings(out, *concurrency, *parallelism, *pipelining);
        }
        TraceEvent::Decision {
            optimizer,
            concurrency,
            parallelism,
            pipelining,
            terms,
            candidates,
        } => {
            out.push_str(",\"optimizer\":");
            push_str_lit(out, optimizer);
            push_settings(out, *concurrency, *parallelism, *pipelining);
            out.push_str(",\"terms\":[");
            for (i, (name, value)) in terms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                push_str_lit(out, name);
                out.push(',');
                push_f64(out, *value);
                out.push(']');
            }
            out.push_str("],\"candidates\":[");
            for (i, c) in candidates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{},", c.concurrency, c.parallelism));
                push_f64(out, c.utility);
                out.push(']');
            }
            out.push(']');
        }
        TraceEvent::SettingsChange {
            concurrency,
            parallelism,
            pipelining,
        } => {
            push_settings(out, *concurrency, *parallelism, *pipelining);
        }
        TraceEvent::Recovery { action, value }
        | TraceEvent::Environment { action, value }
        | TraceEvent::Connection { action, value } => {
            out.push_str(",\"action\":");
            push_str_lit(out, action);
            out.push_str(",\"value\":");
            push_f64(out, *value);
        }
        TraceEvent::Convergence {
            concurrency,
            probes,
        } => {
            out.push_str(&format!(",\"cc\":{concurrency},\"probes\":{probes}"));
        }
    }
    out.push('}');
}

fn push_histogram(out: &mut String, name: &str, h: &Histogram) {
    out.push_str("{\"kind\":\"histogram\",\"name\":");
    push_str_lit(out, name);
    out.push_str(",\"bounds\":[");
    for (i, b) in h.bounds().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *b);
    }
    out.push_str("],\"counts\":[");
    for (i, c) in h.counts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{c}"));
    }
    out.push_str("],\"sum\":");
    push_f64(out, h.sum());
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Candidate;

    fn sample_log() -> TraceLog {
        let mut h = Histogram::default();
        h.record(0.004);
        h.record(120.0);
        TraceLog {
            records: vec![
                TraceRecord {
                    t_s: 5.0,
                    agent: Some(0),
                    event: TraceEvent::Probe {
                        throughput_mbps: 931.5,
                        loss_rate: 0.0025,
                        concurrency: 10,
                        parallelism: 1,
                        pipelining: 1,
                    },
                },
                TraceRecord {
                    t_s: 5.0,
                    agent: Some(0),
                    event: TraceEvent::Decision {
                        optimizer: "gradient-descent".to_string(),
                        concurrency: 12,
                        parallelism: 1,
                        pipelining: 1,
                        terms: vec![("raw_slope".to_string(), 1.25), ("theta".to_string(), 2.0)],
                        candidates: vec![
                            Candidate {
                                concurrency: 9,
                                parallelism: 1,
                                utility: 430.5,
                            },
                            Candidate {
                                concurrency: 11,
                                parallelism: 1,
                                utility: 480.25,
                            },
                        ],
                    },
                },
                TraceRecord {
                    t_s: 5.0,
                    agent: Some(0),
                    event: TraceEvent::SettingsChange {
                        concurrency: 12,
                        parallelism: 1,
                        pipelining: 1,
                    },
                },
                TraceRecord {
                    t_s: 300.0,
                    agent: None,
                    event: TraceEvent::Environment {
                        action: "link_capacity_factor".to_string(),
                        value: 0.3,
                    },
                },
                TraceRecord {
                    t_s: 310.0,
                    agent: Some(1),
                    event: TraceEvent::Recovery {
                        action: "restart_attempt".to_string(),
                        value: 2.0,
                    },
                },
                TraceRecord {
                    t_s: 42.5,
                    agent: Some(0),
                    event: TraceEvent::Convergence {
                        concurrency: 48,
                        probes: 9,
                    },
                },
                TraceRecord {
                    t_s: 50.0,
                    agent: Some(2),
                    event: TraceEvent::Connection {
                        action: "workers_resized".to_string(),
                        value: 4.0,
                    },
                },
            ],
            counters: vec![("sim.steps".to_string(), 8000)],
            histograms: vec![("sim.loss".to_string(), h)],
        }
    }

    #[test]
    fn jsonl_is_pinned_byte_for_byte() {
        let expected = [
            r#"{"t":5,"agent":0,"kind":"probe","mbps":931.5,"loss":0.0025,"cc":10,"p":1,"pp":1}"#,
            r#"{"t":5,"agent":0,"kind":"decision","optimizer":"gradient-descent","cc":12,"p":1,"pp":1,"terms":[["raw_slope",1.25],["theta",2]],"candidates":[[9,1,430.5],[11,1,480.25]]}"#,
            r#"{"t":5,"agent":0,"kind":"settings","cc":12,"p":1,"pp":1}"#,
            r#"{"t":300,"kind":"environment","action":"link_capacity_factor","value":0.3}"#,
            r#"{"t":310,"agent":1,"kind":"recovery","action":"restart_attempt","value":2}"#,
            r#"{"t":42.5,"agent":0,"kind":"convergence","cc":48,"probes":9}"#,
            r#"{"t":50,"agent":2,"kind":"connection","action":"workers_resized","value":4}"#,
            r#"{"kind":"counter","name":"sim.steps","value":8000}"#,
            r#"{"kind":"histogram","name":"sim.loss","bounds":[0.000001,0.00001,0.0001,0.001,0.01,0.1,1,10,100,1000,10000,100000],"counts":[0,0,0,0,1,0,0,0,0,1,0,0,0],"sum":120.004}"#,
        ];
        let text = sample_log().to_jsonl();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn summary_mentions_agents_counters_and_histograms() {
        let s = sample_log().summary();
        assert!(s.contains("events: 7"), "{s}");
        assert!(s.contains("agent 0: 1 probes, 1 decisions"), "{s}");
        assert!(s.contains("first convergence at 42.5s"), "{s}");
        assert!(s.contains("counter sim.steps = 8000"), "{s}");
        assert!(s.contains("histogram sim.loss: total=2"), "{s}");
    }
}
