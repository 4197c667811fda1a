//! Deterministic parallel fan-out over scoped threads.
//!
//! The experiment and bench suites sweep seed×scenario grids whose cells
//! are pure functions of their inputs. This crate spreads such grids
//! across cores without giving up reproducibility:
//!
//! - **Ordered results**: [`fan_out`] returns outputs in task order, no
//!   matter which worker finished first — byte-identical to running the
//!   tasks serially. [`fan_out_resumable`] does the same for tasks that
//!   yield part-way and wait on state they share.
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

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

/// Run tasks that may yield part-way over `threads` workers sharing
/// `state`, and return the state and the results **in task order**.
///
/// `resume(index, task, shared)` runs a task until it finishes, `Ok`, or
/// cannot go on, `Err` with the task to resume later. A yielded task stays
/// parked until `ready(state, index)` holds, and then whichever worker is
/// free resumes it: a task waiting on the others never holds a worker.
/// Tasks reach `state` only through [`Shared::with`], under the lock that
/// also guards the parked tasks. Every `with` call, yield and finish wakes
/// the idle workers, so a worker with nothing ready blocks until one of
/// those can have readied a task, and never misses it.
///
/// `threads` is clamped to `[1, tasks.len()]`; with 1 the tasks run on the
/// caller's thread. Which worker resumes which task, and when, depends on
/// scheduling; the results do not, as long as each task's result is a
/// function of what it reads through `state` and that is scheduling-free.
///
/// # Panics
///
/// If a task panics, every idle worker is woken, the others stop at their
/// next yield or finish, and the first panic is propagated to the caller.
/// Panics too when every unfinished task is parked and none is ready.
pub fn fan_out_resumable<S, T, R, P, F>(
    state: S,
    tasks: Vec<T>,
    threads: usize,
    ready: P,
    resume: F,
) -> (S, Vec<R>)
where
    S: Send,
    T: Send,
    R: Send,
    P: Fn(&S, usize) -> bool + Sync,
    F: Fn(usize, T, &Shared<'_, S>) -> Result<R, T> + Sync,
{
    let n = tasks.len();
    let threads = threads.clamp(1, n.max(1));
    let pool = Mutex::new(Pool {
        state,
        parked: (0..n).collect(),
        running: 0,
        unfinished: n,
        abandoned: false,
    });
    let shared = Shared {
        pool: &pool,
        wake: &Condvar::new(),
    };
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || shared.work(&slots, &results, &ready, &resume);
    if threads == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    let results = results
        .into_iter()
        .enumerate()
        .map(|(i, m)| match recover(m.into_inner()) {
            Some(r) => r,
            // falcon-lint::allow(panic-safety, reason = "post-join invariant: every task finished; a hole means a worker died, which join() already propagated")
            None => unreachable!("fan_out_resumable task {i} never finished"),
        })
        .collect();
    (recover(pool.into_inner()).state, results)
}

/// The state of a [`fan_out_resumable`] run, as its tasks reach it.
pub struct Shared<'a, S> {
    pool: &'a Mutex<Pool<S>>,
    wake: &'a Condvar,
}

/// Everything under the one lock of a [`fan_out_resumable`] run.
struct Pool<S> {
    state: S,
    /// Tasks not started or yielded, in the order they parked.
    parked: VecDeque<usize>,
    /// Tasks a worker is running now.
    running: usize,
    unfinished: usize,
    /// A worker panicked: the others stop instead of resuming more tasks.
    abandoned: bool,
}

impl<S> Shared<'_, S> {
    /// Run `f` on the shared state under the run's lock, then wake every
    /// idle worker: what `f` changed may let a parked task proceed.
    pub fn with<X>(&self, f: impl FnOnce(&mut S) -> X) -> X {
        let x = f(&mut recover(self.pool.lock()).state);
        self.wake.notify_all();
        x
    }

    /// One worker: resume ready tasks until none is left unfinished.
    fn work<T, R>(
        &self,
        slots: &[Mutex<Option<T>>],
        results: &[Mutex<Option<R>>],
        ready: &impl Fn(&S, usize) -> bool,
        resume: &impl Fn(usize, T, &Self) -> Result<R, T>,
    ) {
        let _wake_on_panic = WakeOnPanic(self);
        let mut pool = recover(self.pool.lock());
        while !pool.abandoned && pool.unfinished > 0 {
            let Some(at) = pool.parked.iter().position(|&i| ready(&pool.state, i)) else {
                // falcon-lint::allow(panic-safety, reason = "a task set that can never proceed would otherwise block every worker for ever")
                assert!(pool.running > 0, "no parked task can proceed");
                pool = recover(self.wake.wait(pool));
                continue;
            };
            let Some(i) = pool.parked.remove(at) else {
                continue;
            };
            pool.running += 1;
            drop(pool);
            // Parked tasks sit in their slots, and only the worker that
            // unparked index `i` reads slot `i`.
            let task = recover(slots[i].lock()).take();
            let outcome = task.map(|t| resume(i, t, self));
            pool = recover(self.pool.lock());
            pool.running -= 1;
            match outcome {
                Some(Ok(r)) => {
                    *recover(results[i].lock()) = Some(r);
                    pool.unfinished -= 1;
                }
                Some(Err(t)) => {
                    *recover(slots[i].lock()) = Some(t);
                    pool.parked.push_back(i);
                }
                None => {}
            }
            self.wake.notify_all();
        }
    }
}

/// Marks the run abandoned and wakes every idle worker when its worker
/// unwinds, so no worker waits for a task that will never yield.
struct WakeOnPanic<'a, 'b, S>(&'a Shared<'b, S>);

impl<S> Drop for WakeOnPanic<'_, '_, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            recover(self.0.pool.lock()).abandoned = true;
            self.0.wake.notify_all();
        }
    }
}

/// A poisoned mutex only means another worker panicked mid-task; the data
/// under our locks is a plain `Option` move or counter update with no
/// invariants to break, so recover the guard instead of unwrapping.
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

    /// Task `i` of `n` may take its `j`-th step only on turn `j·n + i`: one
    /// task is ready at a time, so every step hands over to another task,
    /// parked or running.
    struct Turns {
        turn: usize,
        log: Vec<usize>,
    }

    /// `n` tasks of `steps` steps each in turn order over `threads`
    /// workers; task `panics_at`, if any, panics on its third step.
    fn take_turns(n: usize, steps: usize, threads: usize, panics_at: Option<usize>) -> Vec<usize> {
        let (turns, results) = fan_out_resumable(
            Turns {
                turn: 0,
                log: Vec::new(),
            },
            vec![0usize; n],
            threads,
            |s, i| s.turn % n == i,
            |i, mut done, shared| loop {
                let mine = shared.with(|s| {
                    let mine = s.turn % n == i;
                    if mine {
                        assert!(panics_at != Some(i) || done < 2, "boom");
                        s.log.push(i);
                        s.turn += 1;
                    }
                    mine
                });
                if !mine {
                    return Err(done);
                }
                done += 1;
                if done == steps {
                    return Ok(10 * i + done);
                }
            },
        );
        let want: Vec<usize> = (0..n).map(|i| 10 * i + steps).collect();
        assert_eq!(results, want);
        turns.log
    }

    #[test]
    fn resumable_tasks_finish_in_order_whoever_resumes_them() {
        let want: Vec<usize> = (0..5).flat_map(|_| 0..7).collect();
        for threads in [1, 2, 4, 9] {
            assert_eq!(take_turns(7, 5, threads, None), want, "{threads} threads");
        }
        let (state, none) = fan_out_resumable(
            3u8,
            Vec::<u8>::new(),
            4,
            |_, _| true,
            |_, t, _| Ok::<u8, u8>(t),
        );
        assert_eq!((state, none), (3, Vec::new()));
    }

    /// The panicking task leaves the others parked for a turn that never
    /// comes: the run must end in its panic, not hang on the idle workers.
    #[test]
    fn a_panicking_resumable_task_propagates_and_wakes_the_idle_workers() {
        for threads in [1, 2, 4] {
            let r = std::panic::catch_unwind(|| take_turns(6, 5, threads, Some(3)));
            assert!(r.is_err(), "{threads} threads");
        }
    }

    #[test]
    fn resumable_tasks_that_can_never_proceed_panic_instead_of_hanging() {
        for threads in [1, 3] {
            let r = std::panic::catch_unwind(|| {
                fan_out_resumable(
                    (),
                    vec![1, 2, 3],
                    threads,
                    |_, _| false,
                    |_, t, _| Err::<u8, u8>(t),
                )
            });
            assert!(r.is_err(), "{threads} threads");
        }
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
