//! [`ShardEvents`] against its oracle: one `falcon_sim::EventQueue` fed
//! the same schedule must pop the same `(time, class, payload)` sequence,
//! however the arrivals are handed over.

use std::collections::VecDeque;

use falcon_sim::EventQueue;
use proptest::collection::vec;
use proptest::prelude::*;

use super::{
    Arrival, Event, Feed, Refill, ShardEvents, TransferSoa, EV_ARRIVE, EV_CAP, EV_DEPART, EV_PROBE,
    PROBE_INTERVAL_S,
};

/// Stream ids the schedules draw from.
const IDS: u32 = 6;
/// Every time is a multiple of half a probe interval, so probes armed at
/// `now + PROBE_INTERVAL_S` land on arrivals, capacity events, departures
/// and each other.
const TICK_S: f64 = PROBE_INTERVAL_S / 2.0;

/// Arrivals at `ticks` (sorted), each carrying its position as its index.
fn arrivals_at(ticks: &[u32]) -> Vec<Arrival> {
    (0u32..)
        .zip(ticks)
        .map(|(index, &k)| Arrival {
            t_s: f64::from(k) * TICK_S,
            size_mbits: 0.0,
            route: 0,
            index,
        })
        .collect()
}

/// The feeder's contract at any block size: refill a drained buffer with
/// the next `sizes` arrivals (cycled, each >= 1; all at once when `sizes`
/// is empty), and say the stream ended once they are all handed over.
fn batched<'a>(
    arrivals: &'a [Arrival],
    sizes: &'a [usize],
) -> impl FnMut(&mut VecDeque<Arrival>) -> Feed + 'a {
    let (mut next, mut sizes) = (0, sizes.iter().cycle());
    move |buffered| {
        debug_assert!(
            buffered.is_empty(),
            "refilled a buffer that still had arrivals"
        );
        let n = sizes.next().copied().unwrap_or(arrivals.len());
        let end = (next + n).min(arrivals.len());
        buffered.extend(&arrivals[next..end]);
        next = end;
        if buffered.is_empty() {
            Feed::Ended
        } else {
            Feed::Handed
        }
    }
}

/// The shard loop's start: capacity events, and the first arrival in hand.
fn merge_of<'a>(cap_events: &'a [(f64, u32, f64)], refill: Refill<'_>) -> ShardEvents<'a> {
    let mut events = ShardEvents {
        cap_events,
        ..ShardEvents::default()
    };
    let fed = events.take_arrivals(refill);
    debug_assert!(fed, "the feeder never says wait");
    events
}

/// One turn of the shard loop: the next arrival in hand, then the pop.
fn pop(events: &mut ShardEvents<'_>, refill: Refill<'_>) -> Option<(f64, Event)> {
    let fed = events.take_arrivals(refill);
    debug_assert!(fed, "the feeder never says wait");
    events.pop()
}

/// A popped event as the oracle spells it: `(time, class, key, tag)`.
fn flat((t, event): (f64, Event)) -> (f64, u8, u32, u32) {
    match event {
        Event::Cap(link, _) => (t, EV_CAP, link, 0),
        Event::Arrive(a) => (t, EV_ARRIVE, a.index, 0),
        Event::Depart(id) => (t, EV_DEPART, id, 0),
        Event::Probe(id, gen) => (t, EV_PROBE, id, gen),
    }
}

/// The oracle: everything in one heap, as the shard loop once kept it.
/// Payloads are `(key, tag)`: the arrival index, the capacity event's
/// position in the *unsorted* list, `(id, version)` for departures — a
/// re-keyed or withdrawn departure leaves its superseded entries behind
/// and the reader skips them — and `(id, generation)` for probes.
struct Oracle {
    queue: EventQueue<(u32, u32)>,
    depart_version: [u32; IDS as usize],
}

impl Oracle {
    fn pop(&mut self) -> Option<(f64, u8, u32, u32)> {
        loop {
            let (t, class, (key, tag)) = self.queue.pop()?;
            if class != EV_DEPART {
                return Some((t, class, key, tag));
            }
            if tag == self.depart_version[key as usize] {
                // Popped: the key holds no entry until it is set again.
                self.depart_version[key as usize] += 1;
                return Some((t, class, key, 0));
            }
        }
    }
}

/// Feed one schedule to both and compare every pop; `ShardEvents` gets
/// its arrivals in batches of `batches`. After each pop, the next `ops`
/// entry acts at the popped time, like the shard loop does:
/// `(0..=1, id, _)` arms a probe, `(2..=3, id, ticks)` sets or moves a
/// departure `ticks` ahead, `(4, id, _)` withdraws one, `5` does nothing.
fn check(
    arrival_ticks: &[u32],
    batches: &[usize],
    cap_ticks: &[u32],
    ops: &[(u32, u32, u32)],
) -> TestCaseResult {
    let mut arrival_ticks = arrival_ticks.to_vec();
    arrival_ticks.sort_unstable();
    let arrivals = arrivals_at(&arrival_ticks);
    // The link field carries the event's position in the unsorted list.
    let mut cap_events: Vec<(f64, u32, f64)> = (0u32..)
        .zip(cap_ticks)
        .map(|(i, &k)| (f64::from(k) * TICK_S, i, 0.0))
        .collect();

    let mut oracle = Oracle {
        queue: EventQueue::new(),
        depart_version: [0; IDS as usize],
    };
    for a in &arrivals {
        oracle.queue.push(a.t_s, EV_ARRIVE, (a.index, 0));
    }
    for c in &cap_events {
        oracle.queue.push(c.0, EV_CAP, (c.1, 0));
    }

    // What shard build does to the capacity events.
    cap_events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut refill = batched(&arrivals, batches);
    let mut events = merge_of(&cap_events, &mut refill);
    let mut soa = TransferSoa::default();
    for id in 0..IDS as usize {
        soa.ensure(id, true);
    }

    // Probes can be re-armed for ever; a few rounds past the fixed events
    // is enough.
    let rounds = 4 * (arrivals.len() + cap_events.len()) + 64;
    for (n, &(op, id, ticks)) in ops.iter().cycle().take(rounds).enumerate() {
        let want = oracle.pop();
        let got = pop(&mut events, &mut refill).map(flat);
        prop_assert_eq!(got, want, "event #{} differs", n);
        let Some((now, ..)) = got else { break };
        match op {
            0 | 1 => {
                events.arm_probe(&mut soa, id, now);
                let gen = soa.probe_gen[id as usize];
                oracle
                    .queue
                    .push(now + PROBE_INTERVAL_S, EV_PROBE, (id, gen));
            }
            2 | 3 => {
                let at = now + f64::from(ticks) * TICK_S;
                events.departures.set(id, at, EV_DEPART);
                oracle.depart_version[id as usize] += 1;
                let version = oracle.depart_version[id as usize];
                oracle.queue.push(at, EV_DEPART, (id, version));
            }
            4 => {
                events.departures.remove(id);
                oracle.depart_version[id as usize] += 1;
            }
            _ => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shard_events_drain_in_event_queue_order(
        arrival_ticks in vec(0u32..24, 0..40),
        batches in vec(1usize..6, 0..8),
        cap_ticks in vec(0u32..24, 0..12),
        ops in vec((0u32..6, 0u32..IDS, 0u32..4), 1..48),
    ) {
        check(&arrival_ticks, &batches, &cap_ticks, &ops)?;
    }
}

/// Two of every class due at t = 5 s: capacity events (in list order),
/// then arrivals, then departures, then probes (in arming order). The
/// arrivals come one per refill, so the second is not yet handed over
/// when the first is counted.
#[test]
fn all_four_classes_at_one_instant_fire_by_class_then_insertion() {
    let arrivals = arrivals_at(&[0, 2, 2]);
    let cap_events = [(5.0, 7, 0.0), (5.0, 3, 0.0)];
    let mut refill = batched(&arrivals, &[1]);
    let mut events = merge_of(&cap_events, &mut refill);
    let mut soa = TransferSoa::default();
    (0..4).for_each(|id| soa.ensure(id, true));
    assert_eq!(
        pop(&mut events, &mut refill).map(flat),
        Some((0.0, EV_ARRIVE, 0, 0))
    );
    assert!(events.take_arrivals(&mut refill));
    events.arm_probe(&mut soa, 2, 0.0);
    events.arm_probe(&mut soa, 1, 0.0);
    events.departures.set(3, 5.0, EV_DEPART);
    events.departures.set(0, 5.0, EV_DEPART);
    // Two capacity events, the arrival in hand, two departures, two probes.
    assert_eq!(events.len(), 7);
    let order: Vec<_> = std::iter::from_fn(|| pop(&mut events, &mut refill).map(flat)).collect();
    let at_five = |class, key, gen| (5.0, class, key, gen);
    assert_eq!(
        order,
        [
            at_five(EV_CAP, 7, 0),
            at_five(EV_CAP, 3, 0),
            at_five(EV_ARRIVE, 1, 0),
            at_five(EV_ARRIVE, 2, 0),
            at_five(EV_DEPART, 3, 0),
            at_five(EV_DEPART, 0, 0),
            at_five(EV_PROBE, 2, 1),
            at_five(EV_PROBE, 1, 1),
        ]
    );
}
