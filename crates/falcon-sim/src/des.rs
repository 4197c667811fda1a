//! Deterministic discrete-event scheduling primitives.
//!
//! A fixed-tick stepper quantizes every state change to a step boundary.
//! The simulator, the experiment runner and the fleet-scale engine instead
//! advance straight from one *state-change time* to the next, so event
//! timing is exact and idle periods cost O(1) instead of O(ticks). This
//! module holds the queues they order those times with:
//!
//! - [`EventQueue`]: a deterministic priority queue of timestamped
//!   entries. Ties are broken by an explicit class code and then by
//!   insertion order, never by heap internals, so a schedule drains in
//!   the same order on every run and on every thread count.
//! - [`KeyedEventQueue`]: the same ordering with at most one entry per
//!   `u32` key, which can be moved or withdrawn — for predictions that
//!   are revised (a transfer's departure time) rather than accumulated.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
struct Entry<T> {
    at_s: f64,
    class: u8,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    /// Min-heap key: earliest time first, then lowest class code, then
    /// insertion order. `total_cmp` gives floats a total order, so two
    /// schedules with identical (time, class, seq) triples drain
    /// identically even with NaN or signed-zero entries.
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.at_s
            .total_cmp(&other.at_s)
            .then(self.class.cmp(&other.class))
            .then(self.seq.cmp(&other.seq))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first popping.
        other.key_cmp(self)
    }
}

/// A deterministic priority queue of timestamped entries.
///
/// Entries pop in ascending `(time, class, insertion order)`. The class
/// code makes same-instant ordering explicit (e.g. the runner processes
/// joins before departures before probes at one instant); the insertion
/// sequence number makes coincident same-class entries FIFO. No ordering
/// ever depends on heap layout, so a schedule is reproducible across runs,
/// platforms, and thread counts.
#[derive(Debug, Default)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `payload` at `at_s` with tie-break class `class` (lower
    /// classes pop first at equal times).
    pub fn push(&mut self, at_s: f64, class: u8, payload: T) {
        debug_assert!(!at_s.is_nan(), "cannot schedule an entry at NaN");
        self.heap.push(Entry {
            at_s,
            class,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Remove and return the earliest entry as `(at_s, class, payload)`.
    pub fn pop(&mut self) -> Option<(f64, u8, T)> {
        self.heap.pop().map(|e| (e.at_s, e.class, e.payload))
    }

    /// The earliest entry's `(at_s, class)` without removing it.
    pub fn peek(&self) -> Option<(f64, u8)> {
        self.heap.peek().map(|e| (e.at_s, e.class))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A deterministic priority queue with at most one entry per `u32` key.
///
/// [`set`](KeyedEventQueue::set) schedules the key's entry, replacing
/// the one it had, so the queue never holds more entries than there are
/// live keys. Entries pop in the same ascending `(time, class, insertion
/// order)` as [`EventQueue`]'s, where every `set` counts as a fresh
/// insertion: for the same sequence of schedule calls this queue pops
/// each key where an `EventQueue` whose reader skips superseded entries
/// would pop that key's latest one.
///
/// Keys index a dense position table, so they should be small integers
/// (arena ids), not hashes.
#[derive(Debug, Default)]
pub struct KeyedEventQueue {
    /// Binary min-heap by [`Entry::key_cmp`]; the payload is the key.
    heap: Vec<Entry<u32>>,
    /// Heap index of each key's entry, [`ABSENT`] when it has none.
    slot: Vec<u32>,
    seq: u64,
}

const ABSENT: u32 = u32::MAX;

impl KeyedEventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        KeyedEventQueue::default()
    }

    /// Schedule `key` at `at_s` with tie-break class `class`, replacing
    /// the entry `key` already had, if any.
    pub fn set(&mut self, key: u32, at_s: f64, class: u8) {
        debug_assert!(!at_s.is_nan(), "cannot schedule an entry at NaN");
        let entry = Entry {
            at_s,
            class,
            seq: self.seq,
            payload: key,
        };
        self.seq += 1;
        let k = key as usize;
        if k >= self.slot.len() {
            self.slot.resize(k + 1, ABSENT);
        }
        let i = match self.slot[k] {
            ABSENT => {
                self.heap.push(entry);
                self.heap.len() - 1
            }
            i => {
                self.heap[i as usize] = entry;
                i as usize
            }
        };
        self.restore(i);
    }

    /// Withdraw `key`'s entry; returns whether it had one.
    pub fn remove(&mut self, key: u32) -> bool {
        match self.slot.get(key as usize) {
            Some(&i) if i != ABSENT => {
                self.take(i as usize);
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest entry as `(at_s, class, key)`.
    pub fn pop(&mut self) -> Option<(f64, u8, u32)> {
        if self.heap.is_empty() {
            return None;
        }
        let e = self.take(0);
        Some((e.at_s, e.class, e.payload))
    }

    /// The earliest entry's `(at_s, class)` without removing it.
    pub fn peek(&self) -> Option<(f64, u8)> {
        self.heap.first().map(|e| (e.at_s, e.class))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Take the entry at heap index `i` out, filling the hole with the
    /// last entry.
    fn take(&mut self, i: usize) -> Entry<u32> {
        let e = self.heap.swap_remove(i);
        self.slot[e.payload as usize] = ABSENT;
        if i < self.heap.len() {
            self.restore(i);
        }
        e
    }

    /// Move the entry at heap index `i` to where the heap order wants it
    /// (it may be out of place in either direction) and record the heap
    /// index of every entry moved.
    fn restore(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key_cmp(&self.heap[parent]).is_ge() {
                break;
            }
            self.heap.swap(i, parent);
            self.slot[self.heap[i].payload as usize] = i as u32;
            i = parent;
        }
        loop {
            let mut least = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && self.heap[child].key_cmp(&self.heap[least]).is_lt() {
                    least = child;
                }
            }
            if least == i {
                break;
            }
            self.heap.swap(i, least);
            self.slot[self.heap[i].payload as usize] = i as u32;
            i = least;
        }
        self.slot[self.heap[i].payload as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 0, "c");
        q.push(1.0, 0, "a");
        q.push(2.0, 0, "b");
        assert_eq!(q.peek(), Some((1.0, 0)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn class_breaks_time_ties() {
        let mut q = EventQueue::new();
        q.push(5.0, 2, "probe");
        q.push(5.0, 0, "join");
        q.push(5.0, 1, "leave");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, ["join", "leave", "probe"]);
    }

    #[test]
    fn insertion_order_breaks_full_ties() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(1.0, 0, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10.0, 0, 'x');
        q.push(4.0, 0, 'a');
        assert_eq!(q.pop().map(|(_, _, p)| p), Some('a'));
        q.push(7.0, 0, 'b');
        q.push(7.0, 1, 'c');
        assert_eq!(q.pop().map(|(_, _, p)| p), Some('b'));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some('c'));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some('x'));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn identical_schedules_drain_identically() {
        let build = || {
            let mut q = EventQueue::new();
            for (t, c) in [(2.0, 1), (2.0, 0), (1.5, 3), (2.0, 1), (0.5, 2)] {
                q.push(t, c, (t, c));
            }
            let mut order = Vec::new();
            while let Some((t, c, p)) = q.pop() {
                order.push((t, c, p));
            }
            order
        };
        assert_eq!(build(), build());
    }

    fn drain(q: &mut KeyedEventQueue) -> Vec<u32> {
        std::iter::from_fn(|| q.pop()).map(|(_, _, k)| k).collect()
    }

    #[test]
    fn keyed_set_moves_an_entry_earlier_or_later() {
        let mut q = KeyedEventQueue::new();
        for k in 0..8 {
            q.set(k, f64::from(k) + 10.0, 0);
        }
        q.set(6, 1.0, 0); // earlier: to the front
        q.set(0, 99.0, 0); // later: to the back
        q.set(3, 13.0, 0); // same time: now ties nothing, stays between 2 and 4
        assert_eq!(q.len(), 8, "re-keying must not add entries");
        assert_eq!(q.peek(), Some((1.0, 0)));
        assert_eq!(drain(&mut q), [6, 1, 2, 3, 4, 5, 7, 0]);
    }

    #[test]
    fn keyed_remove_withdraws_exactly_that_key() {
        let mut q = KeyedEventQueue::new();
        for k in 0..6 {
            q.set(k, f64::from(5 - k), 0);
        }
        assert!(q.remove(5), "the root");
        assert!(q.remove(2), "an inner entry");
        assert!(!q.remove(2), "already gone");
        assert!(!q.remove(40), "never scheduled");
        assert_eq!(drain(&mut q), [4, 3, 1, 0]);
        assert!(q.is_empty());
        // A withdrawn key can be scheduled again.
        q.set(2, 0.5, 0);
        assert_eq!(q.pop(), Some((0.5, 0, 2)));
    }

    /// The schedule calls of a pseudo-random churn, fed to both queues:
    /// an `EventQueue` reader that skips every entry but a key's latest
    /// must see the keys in the order `KeyedEventQueue` pops them,
    /// coincident times and classes included.
    #[test]
    fn keyed_order_equals_event_queue_order_for_the_same_pushes() {
        let mut keyed = KeyedEventQueue::new();
        let mut plain: EventQueue<(u32, u32)> = EventQueue::new();
        let mut version = [0u32; 16];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut popped_keyed = Vec::new();
        let mut popped_plain = Vec::new();
        for step in 0..2000 {
            let key = next(16) as u32;
            // A coarse time grid and two classes force plenty of full ties.
            let (at_s, class) = (next(6) as f64, next(2) as u8);
            version[key as usize] += 1;
            keyed.set(key, at_s, class);
            plain.push(at_s, class, (key, version[key as usize]));
            if step % 3 == 0 {
                popped_keyed.push(keyed.pop());
                popped_plain.push(loop {
                    let (t, c, (k, v)) = plain.pop().expect("keyed had an entry");
                    if v == version[k as usize] {
                        break Some((t, c, k));
                    }
                });
            }
        }
        assert!(popped_keyed.len() > 600);
        assert_eq!(popped_keyed, popped_plain);
    }
}
