//! File-to-thread scheduling policies.
//!
//! A transfer with concurrency `n` runs `n` file threads pulling from a
//! shared queue. The *order* of that queue decides the tail of the
//! transfer: with heterogeneous file sizes (the paper's *mixed* dataset), a
//! multi-gigabyte file dispatched last pins one thread long after the
//! others drained the queue — the straggler effect that makes
//! largest-first ordering the standard makespan heuristic (LPT
//! scheduling). This module provides the policies and an analytic makespan
//! evaluator so experiments can quantify the effect.

use crate::dataset::Dataset;

/// Queue-ordering policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Dataset order as given (a directory walk).
    Fifo,
    /// Largest file first (the LPT makespan heuristic).
    LargestFirst,
    /// Smallest file first (drains file *count* quickly; worst stragglers).
    SmallestFirst,
}

impl SchedulePolicy {
    /// All policies, for sweeps.
    pub fn all() -> [SchedulePolicy; 3] {
        [
            SchedulePolicy::Fifo,
            SchedulePolicy::LargestFirst,
            SchedulePolicy::SmallestFirst,
        ]
    }

    /// Name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "fifo",
            SchedulePolicy::LargestFirst => "largest-first",
            SchedulePolicy::SmallestFirst => "smallest-first",
        }
    }

    /// Apply the policy: the order in which files will be dispatched.
    /// One entry per file: this is the one place runs are expanded.
    pub fn order(&self, dataset: &Dataset) -> Vec<u64> {
        let mut sizes: Vec<u64> = dataset
            .files
            .iter()
            .flat_map(|f| {
                let count = usize::try_from(f.count).unwrap_or(usize::MAX);
                std::iter::repeat_n(f.size_bytes, count)
            })
            .collect();
        match self {
            SchedulePolicy::Fifo => {}
            SchedulePolicy::LargestFirst => sizes.sort_unstable_by(|a, b| b.cmp(a)),
            SchedulePolicy::SmallestFirst => sizes.sort_unstable(),
        }
        sizes
    }
}

/// Outcome of a simulated dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleOutcome {
    /// Wall time until the last thread finishes (seconds).
    pub makespan_s: f64,
    /// Wall time until the first thread goes idle (seconds) — the start of
    /// the straggler tail.
    pub first_idle_s: f64,
    /// `makespan / ideal` where ideal = total_bytes / (threads × rate):
    /// 1.0 = perfectly balanced.
    pub imbalance: f64,
}

/// Greedy list-scheduling simulation: `threads` workers each pulling the
/// next file when free, every worker moving `per_thread_mbps`. This is the
/// classic makespan model; it ignores network coupling (workers are
/// I/O-throttled identically), which is exactly the per-process-cap regime
/// of the paper's testbeds.
pub fn simulate(
    dataset: &Dataset,
    policy: SchedulePolicy,
    threads: u32,
    per_thread_mbps: f64,
) -> ScheduleOutcome {
    debug_assert!(threads >= 1 && per_thread_mbps > 0.0);
    let threads = threads.max(1);
    let per_thread_mbps = if per_thread_mbps > 0.0 && per_thread_mbps.is_finite() {
        per_thread_mbps
    } else {
        1e-9
    };
    let order = policy.order(dataset);
    let mut finish = vec![0.0f64; threads as usize];
    for size in &order {
        // Next free worker takes the file.
        let idx = finish
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        finish[idx] += *size as f64 * 8.0 / (per_thread_mbps * 1e6);
    }
    let makespan = finish.iter().cloned().fold(0.0, f64::max);
    let first_idle = finish.iter().cloned().fold(f64::INFINITY, f64::min);
    let ideal = dataset.total_bytes() as f64 * 8.0 / (per_thread_mbps * 1e6 * f64::from(threads));
    ScheduleOutcome {
        makespan_s: makespan,
        first_idle_s: if first_idle.is_finite() {
            first_idle
        } else {
            0.0
        },
        imbalance: if ideal > 0.0 { makespan / ideal } else { 1.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, FileSpec, GIB, MIB};

    fn skewed() -> Dataset {
        // One 2 GiB whale plus many minnows (16 GiB of them): the whale is
        // under the per-thread ideal share, so a good schedule can hide it
        // while a bad one leaves it as a straggler.
        Dataset {
            name: "skewed",
            files: vec![
                FileSpec {
                    size_bytes: 2 * GIB,
                    count: 1,
                },
                FileSpec {
                    size_bytes: 64 * MIB,
                    count: 256,
                },
            ],
        }
    }

    #[test]
    fn uniform_files_are_policy_insensitive() {
        let d = Dataset::uniform_1gb(64);
        let base = simulate(&d, SchedulePolicy::Fifo, 8, 100.0);
        for p in SchedulePolicy::all() {
            let o = simulate(&d, p, 8, 100.0);
            assert!(
                (o.makespan_s - base.makespan_s).abs() < 1e-6,
                "{}",
                p.name()
            );
            assert!((o.imbalance - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn largest_first_beats_smallest_first_on_skew() {
        let d = skewed();
        let lpt = simulate(&d, SchedulePolicy::LargestFirst, 8, 100.0);
        let spt = simulate(&d, SchedulePolicy::SmallestFirst, 8, 100.0);
        assert!(
            lpt.makespan_s < spt.makespan_s,
            "LPT {} vs SPT {}",
            lpt.makespan_s,
            spt.makespan_s
        );
        // SPT leaves the whale for last: one thread moves 2 GiB alone
        // after everything else finished.
        assert!(spt.imbalance > 1.5, "SPT imbalance {}", spt.imbalance);
        assert!(lpt.imbalance < 1.15, "LPT imbalance {}", lpt.imbalance);
    }

    #[test]
    fn makespan_never_below_ideal_or_largest_file() {
        let d = skewed();
        for p in SchedulePolicy::all() {
            for threads in [1u32, 4, 16] {
                let o = simulate(&d, p, threads, 200.0);
                let largest_s = 2.0 * GIB as f64 * 8.0 / (200.0 * 1e6);
                assert!(o.makespan_s >= largest_s - 1e-6, "{} t={threads}", p.name());
                assert!(o.imbalance >= 1.0 - 1e-9);
                assert!(o.first_idle_s <= o.makespan_s);
            }
        }
    }

    #[test]
    fn single_thread_makespan_is_total_time() {
        let d = Dataset::uniform_1gb(10);
        let o = simulate(&d, SchedulePolicy::Fifo, 1, 100.0);
        let expect = d.total_bytes() as f64 * 8.0 / 100e6;
        assert!((o.makespan_s - expect).abs() < 1e-6);
        assert!((o.imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn order_respects_policy() {
        let d = skewed();
        let lpt = SchedulePolicy::LargestFirst.order(&d);
        assert_eq!(lpt[0], 2 * GIB);
        let spt = SchedulePolicy::SmallestFirst.order(&d);
        assert_eq!(*spt.last().unwrap(), 2 * GIB);
        let fifo = SchedulePolicy::Fifo.order(&d);
        assert_eq!(fifo[0], 2 * GIB); // dataset order: whale first
    }

    #[test]
    fn mixed_dataset_benefits_from_lpt() {
        let d = Dataset::mixed(3);
        let lpt = simulate(&d, SchedulePolicy::LargestFirst, 16, 1000.0);
        let spt = simulate(&d, SchedulePolicy::SmallestFirst, 16, 1000.0);
        assert!(lpt.makespan_s <= spt.makespan_s);
    }
}
