//! Deterministic parallel fan-out over scoped threads.
//!
//! The experiment and bench suites sweep seed×scenario grids whose cells
//! are pure functions of their inputs. This crate spreads such grids
//! across cores without giving up reproducibility:
//!
//! - **Ordered results**: [`fan_out`] returns outputs in task order, no
//!   matter which worker finished first — byte-identical to running the
//!   tasks serially.
//! - **Per-task seeds**: [`task_seed`] derives an independent RNG seed for
//!   each task index from one master seed, so a task's randomness depends
//!   only on `(master_seed, index)`, never on scheduling.
//! - **No dependencies**: `std::thread::scope` only; tasks may borrow from
//!   the caller's stack.
//!
//! The determinism contract holds as long as each task is itself a pure
//! function of its input (and its derived seed): parallelism then changes
//! wall-clock time and nothing else.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Derive the RNG seed for task `index` from a master seed.
///
/// SplitMix64 finalizer over `master ⊕ golden·(index+1)`: consecutive
/// indices map to statistically independent seeds, and the mapping is a
/// pure function — the same `(master, index)` pair always yields the same
/// seed regardless of thread count or scheduling.
#[must_use]
pub fn task_seed(master: u64, index: usize) -> u64 {
    let mut z = master ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run `f(index, task)` for every task, spreading work over `threads`
/// workers, and return the results **in task order**.
///
/// `threads` is clamped to `[1, tasks.len()]`; with 1 thread (or 0 or 1
/// tasks) the tasks run serially on the caller's thread with no
/// synchronization at all. Worker threads pull tasks from a shared index,
/// so an expensive task does not straggle behind a fixed pre-partition.
///
/// # Panics
///
/// If a task panics, the panic is propagated to the caller after the
/// scope joins (no result is silently dropped).
pub fn fan_out<T, R, F>(tasks: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Each slot hands one task to whichever worker claims its index and
    // receives that task's result; the claim counter orders the claims,
    // the slot positions order the results.
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let slots = &slots;
            let results = &results;
            let next = &next;
            handles.push(scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Take the task out of its slot *before* running it so no
                // lock is held across the (potentially long) task body.
                let task = match recover(slots[i].lock()).take() {
                    Some(t) => t,
                    None => continue, // claimed by a poisoned predecessor
                };
                let r = f(i, task);
                *recover(results[i].lock()) = Some(r);
            }));
        }
        // Join explicitly so a worker panic surfaces here (propagating the
        // first panic payload) instead of poisoning silently.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| match recover(m.into_inner()) {
            Some(r) => r,
            // Unreachable after a clean join: every index < n was claimed
            // exactly once and its result stored before the worker exited.
            // falcon-lint::allow(panic-safety, reason = "post-join invariant: every slot is filled; a hole means a worker died, which join() already propagated")
            None => unreachable!("fan_out slot {i} left unfilled after join"),
        })
        .collect()
}

/// Fan tasks out over `threads` workers and fold the results **in task
/// order** — the deterministic-merge primitive for sharded state: because
/// the fold visits shard outputs in shard order regardless of which
/// worker finished first, an N-thread run folds to exactly the bytes a
/// 1-thread run does.
pub fn fan_out_fold<T, R, A, F, G>(tasks: Vec<T>, threads: usize, f: F, init: A, fold: G) -> A
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    fan_out(tasks, threads, f).into_iter().fold(init, fold)
}

/// A poisoned mutex only means another worker panicked mid-task; the data
/// under our locks is a plain `Option` move with no invariants to break,
/// so recover the guard instead of unwrapping.
fn recover<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    match r {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_results_in_task_order() {
        let tasks: Vec<u64> = (0..100).collect();
        let out = fan_out(tasks.clone(), 8, |i, t| {
            // Stagger completion times to scramble finish order.
            std::thread::sleep(std::time::Duration::from_micros((100 - t) * 10));
            (i, t * 2)
        });
        for (i, (idx, v)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, tasks[i] * 2);
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let mk = |threads| {
            fan_out((0..50).collect::<Vec<u64>>(), threads, |i, t| {
                task_seed(0xfa1c0, i).wrapping_mul(t + 1)
            })
        };
        let serial = mk(1);
        assert_eq!(serial, mk(4));
        assert_eq!(serial, mk(13));
    }

    #[test]
    fn task_seed_is_pure_and_spread_out() {
        assert_eq!(task_seed(7, 3), task_seed(7, 3));
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| task_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "collisions in the first 1000 seeds");
        assert_ne!(task_seed(1, 0), task_seed(2, 0));
    }

    #[test]
    fn handles_empty_and_single_task() {
        let empty: Vec<i32> = fan_out(Vec::<i32>::new(), 4, |_, t| t);
        assert!(empty.is_empty());
        assert_eq!(fan_out(vec![9], 4, |_, t| t + 1), vec![10]);
    }

    #[test]
    fn thread_count_exceeding_tasks_is_fine() {
        assert_eq!(fan_out(vec![1, 2, 3], 64, |_, t| t * t), vec![1, 4, 9]);
    }

    #[test]
    fn tasks_may_borrow_from_the_caller() {
        let base = [10, 20, 30];
        let out = fan_out(vec![0usize, 1, 2], 2, |_, i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn fold_visits_results_in_task_order_for_any_thread_count() {
        let merged = |threads| {
            fan_out_fold(
                (0..40u64).collect::<Vec<u64>>(),
                threads,
                |i, t| format!("{i}:{t}"),
                String::new(),
                |mut acc, r| {
                    acc.push_str(&r);
                    acc.push(';');
                    acc
                },
            )
        };
        let serial = merged(1);
        assert_eq!(serial, merged(4));
        assert_eq!(serial, merged(9));
        assert!(serial.starts_with("0:0;1:1;"));
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            fan_out((0..16).collect::<Vec<u32>>(), 4, |_, t| {
                assert!(t != 7, "boom");
                t
            })
        });
        assert!(r.is_err(), "panic in a task must reach the caller");
    }
}
