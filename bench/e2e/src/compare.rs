//! `bench-e2e compare A.json B.json`: per (workload, end-to-end metric) the
//! relative change of B against A, judged by the bound `BENCHMARK.json`
//! fixes. Comparing two runs of one commit is the A/A check.

use crate::json::{self, Json};

/// One metric's figures out of a results file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figures {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, and B's runs do not
    /// all read better than A's: the bound cannot be resolved.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Below this many seconds a worsening of `setup_s` is never a regression:
/// a set-up of a few milliseconds moves by more than its relative bound
/// when the machine hiccups once.
const SETUP_FLOOR_S: f64 = 0.05;

/// `bound` is a share of `a`'s median; `floor` is an absolute allowance in
/// the metric's unit, and the larger of the two applies.
pub fn verdict(a: Figures, b: Figures, lower_is_better: bool, bound: f64, floor: f64) -> Verdict {
    let bound = bound.max(floor / a.median);
    let spread = |f: Figures| (f.max - f.min) / f.median;
    if spread(a).max(spread(b)) > bound {
        let b_all_better = if lower_is_better {
            b.max < a.min
        } else {
            b.min > a.max
        };
        return if b_all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(a.median, b.median, lower_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn figures(metric: &Json) -> Option<Figures> {
    Some(Figures {
        median: metric.get("median")?.num()?,
        min: metric.get("min")?.num()?,
        max: metric.get("max")?.num()?,
    })
}

/// Prints the table; exit code 1 iff any pair regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec = load("BENCHMARK.json")?;
    if a.get("smoke") != b.get("smoke") {
        return Err("one file is a --smoke run and the other is not; not comparable".into());
    }
    let mut regressed = 0;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    let workloads = a
        .get("workloads")
        .ok_or(format!("{a_path}: no workloads"))?;
    for (w, wa) in workloads.obj() {
        let Some(wb) = b.get("workloads").and_then(|ws| ws.get(w)) else {
            println!("{w:<14} missing from {b_path}");
            continue;
        };
        let (ea, eb) = (wa.get("e2e"), wb.get("e2e"));
        for m in spec.get("end_to_end").map_or(&[][..], Json::arr) {
            let (Some(name), Some(bound)) = (
                m.get("name").and_then(Json::str),
                m.get("bound").and_then(Json::num),
            ) else {
                return Err("BENCHMARK.json: end_to_end entry without name/bound".into());
            };
            let lower = m.get("better").and_then(Json::str) != Some("higher");
            let pick = |e: Option<&Json>| e?.get("metrics")?.get(name).and_then(figures);
            let (Some(fa), Some(fb)) = (pick(ea), pick(eb)) else {
                println!("{w:<14} {name:<12} missing in one file");
                continue;
            };
            let floor = if name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let v = verdict(fa, fb, lower, bound, floor);
            if v == Verdict::Regressed {
                regressed += 1;
            }
            println!(
                "{w:<14} {name:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}",
                fa.median,
                fb.median,
                100.0 * worsening(fa.median, fb.median, lower),
                100.0 * bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let digest = |e: Option<&Json>| e?.get("model_digest")?.str().map(str::to_string);
        match (digest(ea), digest(eb)) {
            (Some(da), Some(db)) if da == db => println!("{w:<14} model_digest equal ({da})"),
            (Some(da), Some(db)) => println!("{w:<14} model_digest CHANGED ({da} -> {db})"),
            _ => {}
        }
    }
    Ok(i32::from(regressed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(median: f64, min: f64, max: f64) -> Figures {
        Figures { median, min, max }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let a = f(10.0, 9.9, 10.1);
        assert_eq!(
            verdict(a, f(10.5, 10.4, 10.6), true, 0.10, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            verdict(a, f(11.5, 11.4, 11.6), true, 0.10, 0.0),
            Verdict::Regressed
        );
        assert_eq!(verdict(a, f(8.0, 7.9, 8.1), true, 0.10, 0.0), Verdict::Ok);
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(a, f(8.0, 7.9, 8.1), false, 0.10, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(a, f(12.0, 11.9, 12.1), false, 0.10, 0.0),
            Verdict::Ok
        );
    }

    #[test]
    fn an_absolute_floor_overrides_a_small_relative_bound() {
        // 5 ms -> 8 ms is +60 %, but 3 ms is inside a 50 ms allowance.
        let (a, b) = (f(0.005, 0.005, 0.006), f(0.008, 0.007, 0.009));
        assert_eq!(verdict(a, b, true, 0.25, 0.0), Verdict::Regressed);
        assert_eq!(verdict(a, b, true, 0.25, 0.05), Verdict::Ok);
        // The floor does nothing for a set-up of seconds.
        let (a, b) = (f(4.0, 3.9, 4.1), f(6.0, 5.9, 6.1));
        assert_eq!(verdict(a, b, true, 0.25, 0.05), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = f(10.0, 8.0, 12.0);
        assert_eq!(
            verdict(noisy, f(10.0, 9.9, 10.1), true, 0.10, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(noisy, f(11.5, 11.4, 11.6), true, 0.10, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(noisy, f(7.0, 6.9, 7.5), true, 0.10, 0.0),
            Verdict::Ok
        );
    }
}
