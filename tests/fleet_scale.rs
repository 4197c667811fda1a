//! The fleet-scale test wall.
//!
//! Four gates for the scale engine:
//!
//! 1. **Property**: the incremental max-min allocator agrees with a
//!    from-scratch solve (and, for ≤64 links, with the mask-based
//!    `weighted_max_min_allocate_into`) to 1e-9 relative tolerance, across
//!    random topologies, memberships, and dirty-set sequences —
//!    including empty links and single-member components, and joins,
//!    leaves and re-rates applied in place — and a solve touches exactly
//!    the connected components of the dirty links.
//! 2. **Differential**: a sharded 10⁵-transfer fat-tree campaign
//!    produces byte-identical summaries at 1, 4, and 8 threads.
//! 3. **Live-state bounds**: allocator work and memory stay flat over
//!    10⁵ churn steps, and a shard's pending events stay bounded by its
//!    live transfers on a trunk-saturating campaign — and under random
//!    zero-capacity flaps while probes are armed, which strand nothing.
//! 4. **Conformance**: the topology generators produce valid fabrics
//!    (fat-tree path validity and 1:1 subscription, dumbbell RTT
//!    classes, DTN hub degree).

use proptest::prelude::*;

use falcon_repro::fleet::{
    correlated_failure_waves, run_scale_campaign, LinkFailure, RlKind, ScaleCampaignSpec,
    ScaleReport, ScaleTopology, ScaleTuner, ScaleWorkload,
};
use falcon_repro::sim::alloc::{
    weighted_max_min_allocate_into, IncrementalMaxMin, WeightedStreamDemand,
};

// ---------------------------------------------------------------------------
// 1. Property: incremental ≡ from-scratch.
// ---------------------------------------------------------------------------

/// One mutation of the allocator state.
#[derive(Debug, Clone)]
enum Op {
    /// Add a stream: (rate cap, weight, route selector bits).
    Add { cap: f64, weight: f64, route: u64 },
    /// Remove the i-th oldest live stream (modulo live count).
    Remove { pick: usize },
    /// Rescale one link's capacity.
    SetCap { link: usize, cap: f64 },
    /// Change one live stream's cap/weight.
    Update { pick: usize, cap: f64, weight: f64 },
}

/// Raw tuple the vendored proptest can draw: `(kind, a, b, bits)`.
type RawOp = (u32, f64, f64, u64);

/// Map a raw draw onto an op. Kinds 0..4 add (so the state trends
/// toward populated), 4..6 remove, 6 rescales a link, 7 updates.
fn decode_op((kind, a, b, bits): RawOp) -> Op {
    match kind {
        0..=3 => Op::Add {
            cap: 50.0 + 4950.0 * a,
            weight: 0.1 + 7.9 * b,
            route: bits,
        },
        4 | 5 => Op::Remove {
            pick: bits as usize,
        },
        6 => Op::SetCap {
            link: bits as usize,
            cap: 10.0 + 2990.0 * a,
        },
        _ => Op::Update {
            pick: bits as usize,
            cap: 50.0 + 4950.0 * a,
            weight: 0.1 + 7.9 * b,
        },
    }
}

/// Map a raw draw onto an op whose caps mostly sit far under a link's
/// capacity (5–100 Mbps) and one draw in five near or over it
/// (400–2500 Mbps), so re-rates land on both sides of saturation. Kinds
/// 0..3 add, 3 removes, 4 rescales a link (50–2000 Mbps), 5..8 update.
fn decode_slack_op((kind, a, b, bits): RawOp) -> Op {
    let cap = if a < 0.8 {
        5.0 + 118.75 * a
    } else {
        400.0 + 10_500.0 * (a - 0.8)
    };
    let weight = 0.1 + 7.9 * b;
    match kind {
        0..=2 => Op::Add {
            cap,
            weight,
            route: bits,
        },
        3 => Op::Remove {
            pick: bits as usize,
        },
        4 => Op::SetCap {
            link: bits as usize,
            cap: 50.0 + 1950.0 * a,
        },
        _ => Op::Update {
            pick: bits as usize,
            cap,
            weight,
        },
    }
}

fn raw_ops(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((0u32..8, 0.0f64..1.0, 0.0f64..1.0, 0u64..u64::MAX), n)
}

/// Route from selector bits: each set bit (mod n_links) is a hop; an
/// all-zero selection yields the empty route edge case.
fn route_from_bits(bits: u64, n_links: usize) -> Vec<u32> {
    let mut route: Vec<u32> = (0..n_links.min(64))
        .filter(|&l| bits & (1u64 << l) != 0)
        .map(|l| l as u32)
        .collect();
    route.truncate(6); // realistic hop counts
    route
}

/// A live stream in a property's shadow state: (id, cap, weight, route).
type Shadow = (u32, f64, f64, Vec<u32>);

/// Apply `op` to the allocator and to the shadow state. An added stream's
/// route is cut to `hops(selector bits)` links. Returns whether the op was
/// a re-rate the allocator applied in place, which leaves the stream at
/// exactly its new cap.
fn apply_op(
    inc: &mut IncrementalMaxMin,
    live: &mut Vec<Shadow>,
    link_caps: &mut [f64],
    op: &Op,
    hops: fn(u64) -> usize,
) -> bool {
    match op {
        Op::Add {
            cap,
            weight,
            route: bits,
        } => {
            let mut route = route_from_bits(*bits, link_caps.len());
            route.truncate(hops(*bits));
            let id = inc.add_stream(*cap, *weight, &route);
            live.push((id, *cap, *weight, route));
        }
        Op::Remove { pick } => {
            if !live.is_empty() {
                let (id, ..) = live.remove(pick % live.len());
                inc.remove_stream(id);
            }
        }
        Op::SetCap { link, cap } => {
            let l = link % link_caps.len();
            link_caps[l] = *cap;
            inc.set_capacity(l as u32, *cap);
        }
        Op::Update { pick, cap, weight } => {
            if !live.is_empty() {
                let i = pick % live.len();
                live[i].1 = *cap;
                live[i].2 = *weight;
                if inc.update_stream(live[i].0, *cap, *weight) {
                    assert_eq!(inc.rate(live[i].0), *cap, "in place, off its cap");
                    return true;
                }
            }
        }
    }
    false
}

/// Every live stream's rate from a fresh allocator solving from scratch.
fn from_scratch(live: &[Shadow], link_caps: &[f64]) -> Vec<f64> {
    let mut fresh = IncrementalMaxMin::with_links(link_caps);
    let ids: Vec<u32> = live
        .iter()
        .map(|(_, cap, weight, route)| fresh.add_stream(*cap, *weight, route))
        .collect();
    fresh.solve_all();
    ids.iter().map(|&id| fresh.rate(id)).collect()
}

/// Union-find root with path halving.
fn find(root: &mut [usize], mut x: usize) -> usize {
    while root[x] != x {
        root[x] = root[root[x]];
        x = root[x];
    }
    x
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every solve, each live stream's incremental rate matches
    /// (a) a fresh allocator re-solving everything from scratch and
    /// (b) the mask-based dense oracle.
    #[test]
    fn incremental_matches_from_scratch_under_churn(
        caps in proptest::collection::vec(100.0f64..2000.0, 1..12),
        raw in raw_ops(1..60),
        solve_every in 1usize..5,
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode_op).collect();
        let mut inc = IncrementalMaxMin::with_links(&caps);
        let mut live: Vec<Shadow> = Vec::new();
        let mut link_caps = caps.clone();

        for (step, op) in ops.iter().enumerate() {
            apply_op(&mut inc, &mut live, &mut link_caps, op, |_| 6);
            // Solve on a drawn cadence so dirty sets batch up in
            // different patterns (every op, every 2nd, ...).
            if (step + 1) % solve_every != 0 && step + 1 != ops.len() {
                continue;
            }
            inc.solve();

            // Oracle (a): a fresh incremental allocator, from scratch.
            let fresh = from_scratch(&live, &link_caps);
            // Oracle (b): the mask-based dense allocator.
            let demands: Vec<WeightedStreamDemand> = live
                .iter()
                .map(|(_, cap, weight, route)| WeightedStreamDemand {
                    cap_mbps: *cap,
                    resource_mask: route.iter().fold(0u64, |m, &l| m | (1u64 << l)),
                    weight: *weight,
                    count: 1,
                })
                .collect();
            let mut dense = Vec::new();
            weighted_max_min_allocate_into(&demands, &link_caps, &mut dense, &mut Default::default());

            for (k, (id, ..)) in live.iter().enumerate() {
                let got = inc.rate(*id);
                let scratch = fresh[k];
                prop_assert!(
                    rel_close(got, scratch),
                    "step {step}: stream {k} incremental {got} vs from-scratch {scratch}"
                );
                prop_assert!(
                    rel_close(got, dense[k]),
                    "step {step}: stream {k} incremental {got} vs dense {}", dense[k]
                );
            }
        }
    }

    /// Locality: a solve re-solves exactly the live streams in the
    /// connected components of the dirty links — checked against a
    /// union-find over the shadow state — and the member lists hold
    /// exactly the live crossings, although the free list keeps handing
    /// departed ids to streams on other routes.
    #[test]
    fn solve_closes_over_exactly_the_dirty_components(
        caps in proptest::collection::vec(100.0f64..2000.0, 2..12),
        raw in raw_ops(20..120),
        solve_every in 1usize..4,
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode_op).collect();
        let mut inc = IncrementalMaxMin::with_links(&caps);
        let mut live: Vec<Shadow> = Vec::new();
        let mut link_caps = caps.clone();

        for (step, op) in ops.iter().enumerate() {
            // One or two hops, so the fabric stays a set of small
            // components instead of fusing into one.
            apply_op(&mut inc, &mut live, &mut link_caps, op, |bits| 1 + (bits >> 63) as usize);
            let crossings: usize = live.iter().map(|s| s.3.len()).sum();
            let members: usize = (0..caps.len()).map(|l| inc.members(l as u32).len()).sum();
            prop_assert!(
                members == crossings,
                "step {step}: {members} member entries for {crossings} live crossings"
            );
            if (step + 1) % solve_every != 0 && step + 1 != ops.len() {
                continue;
            }

            // Reference: union the links of every live route, then keep
            // the streams whose component holds a dirty link.
            let mut root: Vec<usize> = (0..caps.len()).collect();
            for (.., route) in &live {
                for hop in route.windows(2) {
                    let a = find(&mut root, hop[0] as usize);
                    root[a] = find(&mut root, hop[1] as usize);
                }
            }
            let dirty: Vec<usize> = inc
                .dirty_links()
                .iter()
                .map(|&l| find(&mut root, l as usize))
                .collect();
            let mut expected: Vec<u32> = Vec::new();
            for (id, .., route) in &live {
                if let Some(&l) = route.first() {
                    if dirty.contains(&find(&mut root, l as usize)) {
                        expected.push(*id);
                    }
                }
            }
            expected.sort_unstable();
            let mut got = inc.solve().to_vec();
            got.sort_unstable();
            prop_assert!(got == expected, "step {step}: re-solved {got:?}, expected {expected:?}");
        }
    }

    /// A re-rate applied in place gives the rates a from-scratch solve
    /// gives. With a solve after every op, each `update_stream` that
    /// reports `true` has left nothing dirty and nothing to solve, and
    /// every case takes that path at least once.
    #[test]
    fn in_place_rerates_match_from_scratch(
        caps in proptest::collection::vec(300.0f64..2000.0, 1..8),
        raw in raw_ops(30..90),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(decode_slack_op).collect();
        let mut inc = IncrementalMaxMin::with_links(&caps);
        let mut live: Vec<Shadow> = Vec::new();
        let mut link_caps = caps.clone();
        let mut in_place = 0u64;

        for (step, op) in ops.iter().enumerate() {
            let one_to_three_hops = |bits: u64| 1 + (bits >> 62) as usize % 3;
            if apply_op(&mut inc, &mut live, &mut link_caps, op, one_to_three_hops) {
                in_place += 1;
                prop_assert!(inc.dirty_links().is_empty(), "step {step}: {op:?} left links dirty");
                prop_assert!(inc.solve().is_empty(), "step {step}: {op:?} left streams to solve");
            }
            inc.solve();
            let fresh = from_scratch(&live, &link_caps);
            for (k, (id, ..)) in live.iter().enumerate() {
                let got = inc.rate(*id);
                prop_assert!(
                    rel_close(got, fresh[k]),
                    "step {step} after {op:?}: stream {k} incremental {got} vs from-scratch {}",
                    fresh[k]
                );
            }
        }
        prop_assert!(in_place > 0, "no re-rate was applied in place");
        prop_assert_eq!(inc.in_place, in_place);
    }

    /// A join or leave applied in place gives the rates a from-scratch
    /// solve gives. With a solve after every op, each join or leave that
    /// leaves the worklist empty has nothing left to solve, a stream that
    /// joined so runs at exactly its cap, and every case takes at least
    /// one such join and one such leave on a non-empty route.
    #[test]
    fn in_place_joins_and_leaves_match_from_scratch(
        caps in proptest::collection::vec(300.0f64..2000.0, 2..8),
        raw in raw_ops(40..120),
    ) {
        // Kinds 0..3 join, 3..6 leave, 6 rescales a link, 7 re-rates: as
        // many leaves as joins, and two links or more, so a saturated link
        // rarely holds the whole fabric for a case.
        const KIND: [u32; 8] = [0, 0, 0, 3, 3, 3, 4, 5];
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(kind, a, b, bits)| decode_slack_op((KIND[kind as usize], a, b, bits)))
            .collect();
        let mut inc = IncrementalMaxMin::with_links(&caps);
        let mut live: Vec<Shadow> = Vec::new();
        let mut link_caps = caps.clone();
        let (mut joins, mut leaves) = (0u32, 0u32);

        for (step, op) in ops.iter().enumerate() {
            let one_to_three_hops = |bits: u64| 1 + (bits >> 62) as usize % 3;
            // Whether a leave takes out a stream with a non-empty route.
            let leave_routed = match op {
                Op::Remove { pick } if !live.is_empty() => {
                    Some(!live[pick % live.len()].3.is_empty())
                }
                _ => None,
            };
            apply_op(&mut inc, &mut live, &mut link_caps, op, one_to_three_hops);
            if inc.dirty_links().is_empty() {
                match (op, leave_routed) {
                    (Op::Add { cap, .. }, _) => {
                        let (id, .., route) = live.last().expect("just joined");
                        prop_assert!(
                            inc.rate(*id) == *cap,
                            "step {step}: joined in place, off its cap"
                        );
                        joins += u32::from(!route.is_empty());
                    }
                    (_, Some(routed)) => leaves += u32::from(routed),
                    _ => {}
                }
                prop_assert!(inc.solve().is_empty(), "step {step}: {op:?} left streams to solve");
            }
            inc.solve();
            let fresh = from_scratch(&live, &link_caps);
            for (k, (id, ..)) in live.iter().enumerate() {
                let got = inc.rate(*id);
                prop_assert!(
                    rel_close(got, fresh[k]),
                    "step {step} after {op:?}: stream {k} incremental {got} vs from-scratch {}",
                    fresh[k]
                );
            }
        }
        prop_assert!(joins > 0 && leaves > 0, "{joins} joins and {leaves} leaves in place");
    }

    /// Per-link conservation: summed allocations never exceed capacity.
    #[test]
    fn incremental_never_oversubscribes_a_link(
        caps in proptest::collection::vec(100.0f64..2000.0, 1..10),
        streams in proptest::collection::vec(
            (50.0f64..5000.0, 0.1f64..8.0, 0u64..u64::MAX), 1..40),
    ) {
        let mut inc = IncrementalMaxMin::with_links(&caps);
        let mut routes = Vec::new();
        for (cap, weight, bits) in &streams {
            let route = route_from_bits(*bits, caps.len());
            let id = inc.add_stream(*cap, *weight, &route);
            routes.push((id, route));
        }
        inc.solve();
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = routes
                .iter()
                .filter(|(_, r)| r.contains(&(l as u32)))
                .map(|&(id, _)| inc.rate(id))
                .sum();
            prop_assert!(
                used <= cap * (1.0 + 1e-9) + 1e-6,
                "link {l}: {used} > {cap}"
            );
        }
    }
}

#[test]
fn incremental_edge_cases_empty_link_and_single_member() {
    // A link no stream crosses stays solvable and harmless.
    let mut inc = IncrementalMaxMin::with_links(&[100.0, 200.0]);
    let a = inc.add_stream(1000.0, 1.0, &[0]);
    assert!(inc.solve_all().contains(&a));
    assert!((inc.rate(a) - 100.0).abs() < 1e-9);
    // Dirtying the empty link re-solves nothing.
    inc.set_capacity(1, 500.0);
    assert!(inc.solve().is_empty());
    // Single-member link: the lone stream takes min(link, cap).
    let b = inc.add_stream(150.0, 2.5, &[1]);
    inc.solve();
    assert!((inc.rate(b) - 150.0).abs() < 1e-9);
    // Empty route: capped streams run at their cap off-fabric.
    let c = inc.add_stream(42.0, 1.0, &[]);
    inc.solve();
    assert!((inc.rate(c) - 42.0).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// 2. Differential: thread count never changes the bytes.
// ---------------------------------------------------------------------------

/// The acceptance gate: a 10⁵-transfer pod-local fat-tree campaign,
/// sharded one-per-pod, merges to byte-identical summaries at 1, 4, and
/// 8 threads.
#[test]
fn hundred_thousand_transfer_fat_tree_is_thread_invariant() {
    let spec = ScaleCampaignSpec::fat_tree_local(8, 100_000, 0xfa1c0);
    let one = run_scale_campaign(&spec, 1);
    assert_eq!(one.transfers, 100_000, "workload must admit all arrivals");
    assert!(
        one.completions + one.stranded == 100_000,
        "every transfer ends either completed or stranded"
    );
    assert!(one.completions > 90_000, "the fabric should drain the load");
    let summary = one.summary();
    for threads in [4usize, 8] {
        let other = run_scale_campaign(&spec, threads);
        assert_eq!(
            summary,
            other.summary(),
            "summary bytes diverged at {threads} threads"
        );
        assert_eq!(one, other, "full report diverged at {threads} threads");
    }
}

/// The same differential gate with per-transfer learning tuners in the
/// loop: a 10⁴-transfer pod-local fat-tree campaign under `rl:bandit`,
/// with files large and connections slow enough that every transfer
/// lives through probe intervals. Tuner decisions are seeded off each
/// arrival's global index, so shard assignment — and therefore thread
/// count — must not change a single byte of the report.
#[test]
fn ten_thousand_transfer_rl_campaign_is_thread_invariant() {
    let mut spec = ScaleCampaignSpec::fat_tree_local(8, 10_000, 0x51eed);
    spec.workload.tuner = ScaleTuner::Rl(RlKind::Bandit);
    spec.workload.concurrency = 8;
    spec.workload.per_conn_cap_mbps = 100.0;
    spec.workload.mean_file_mb = 400.0;
    // Thin the fat-tree default's 1000/s arrival burst: learning transfers
    // live tens of seconds (the bandit sweeps up from one connection), so
    // the default rate would pool tens of thousands of concurrent streams.
    spec.workload.arrivals_per_min = 6_000.0;
    let one = run_scale_campaign(&spec, 1);
    assert_eq!(one.transfers, 10_000, "workload must admit all arrivals");
    assert_eq!(
        one.completions + one.stranded,
        10_000,
        "every transfer ends either completed or stranded"
    );
    assert!(one.completions > 9_000, "the fabric should drain the load");
    assert!(
        one.probes > 10_000,
        "long-lived transfers must take multiple tuner decisions, got {}",
        one.probes
    );
    let summary = one.summary();
    for threads in [4usize, 8] {
        let other = run_scale_campaign(&spec, threads);
        assert_eq!(
            summary,
            other.summary(),
            "summary bytes diverged at {threads} threads"
        );
        assert_eq!(one, other, "full report diverged at {threads} threads");
    }
}

// ---------------------------------------------------------------------------
// 3. Live-state bounds: cost follows live transfers, not churn history.
// ---------------------------------------------------------------------------

/// Five live streams, 10⁵ departures each followed by an arrival that
/// takes the departed id onto a *different* route, and the allocator
/// stops growing after warm-up. At 600 Mbps the two streams sharing each
/// 1000-Mbps link contend for it, so every join and leave re-solves and a
/// solve never sees more than the five; at 400 Mbps no link saturates, so
/// every join and leave is applied in place and nothing is solved.
#[test]
fn churn_history_costs_neither_solve_work_nor_memory() {
    const LINKS: u32 = 8;
    const WARM: u32 = 1_000;
    const STEPS: u32 = 100_000;
    // Stream n crosses links n and n+1 (mod 8).
    let route = |n: u32| [n % LINKS, (n + 1) % LINKS];
    for cap in [600.0, 400.0] {
        let mut inc = IncrementalMaxMin::with_links(&[1000.0; LINKS as usize]);
        let mut live: std::collections::VecDeque<u32> = (0..5)
            .map(|n| inc.add_stream(cap, 1.0, &route(n)))
            .collect();
        inc.solve();
        let mut warm = (0, 0, 0);
        for step in 0..STEPS {
            inc.remove_stream(live.pop_front().expect("five live"));
            inc.solve();
            live.push_back(inc.add_stream(cap, 1.0, &route(step + 5)));
            inc.solve();
            if step == WARM {
                warm = (inc.memory_bytes(), inc.solves, inc.streams_resolved);
            }
        }
        assert_eq!(inc.live_streams(), 5);
        assert_eq!(
            inc.memory_bytes(),
            warm.0,
            "allocator grew with churn at {cap} Mbps"
        );
        let solves = inc.solves - warm.1;
        if cap == 400.0 {
            assert_eq!(solves, 0, "unsaturated churn solved");
            continue;
        }
        assert_eq!(
            solves,
            2 * u64::from(STEPS - WARM - 1),
            "a contended join or leave skipped its solve"
        );
        let per_solve = (inc.streams_resolved - warm.2) as f64 / solves as f64;
        assert!(
            per_solve <= 5.0,
            "{per_solve} streams per solve with 5 live"
        );
    }
}

/// The shape `bench/README.md` records as OOM-killed at the parent of
/// this test: the `campaign-rl` dumbbell with arrivals raised to ~0.7 of
/// trunk capacity (diurnal peaks and failure waves push it past 1), cut
/// to tier-1 length. Every re-rating of a crowded trunk used to queue a
/// fresh departure per stream; with one departure per transfer, and
/// arrivals streamed in, the pending events are bounded by the capacity
/// events, one arrival per shard and a departure and a probe per live
/// transfer.
#[test]
fn saturated_dumbbell_keeps_the_event_queue_bounded() {
    let topology = ScaleTopology::from_spec("dumbbell:8x3").expect("shipped spec syntax");
    let duration_s = 9_000.0;
    let failures = correlated_failure_waves(&topology, 6, duration_s);
    // Pinned connections queue departures only; learning ones add probes.
    for tuner in [ScaleTuner::Fixed, ScaleTuner::Rl(RlKind::Bandit)] {
        let spec = ScaleCampaignSpec {
            topology: topology.clone(),
            workload: ScaleWorkload {
                transfers: 5_000,
                // 0.66/s × 128 Gbit ≈ 84 of the trunks' 120 Gbps.
                arrivals_per_min: 39.4,
                mean_file_mb: 16_000.0,
                diurnal: 0.4,
                tenants: 3,
                tuner,
                ..ScaleWorkload::default()
            },
            failures: failures.clone(),
            duration_s,
            seed: 0x5a7,
            shards: 8,
        };
        let r = run_scale_campaign(&spec, 2);
        assert_eq!(r.completions + r.stranded, r.transfers);
        assert!(r.completions > r.transfers * 9 / 10, "{}", r.summary());
        assert_eq!(r.probes > 0, tuner != ScaleTuner::Fixed);
        assert_pending_events_bounded(&spec, &r);
    }
}

/// Capacity events, the one arrival each shard holds in hand, and a
/// departure and a probe per live transfer: arrivals not yet due stay out
/// of the count, so the bound does not grow with the campaign's length.
fn assert_pending_events_bounded(spec: &ScaleCampaignSpec, r: &ScaleReport) {
    let cap_events: u64 = spec.failures.iter().map(|f| 2 * f.links.len() as u64).sum();
    let bound = cap_events + u64::from(r.shards) + 2 * u64::from(r.peak_active);
    assert!(
        r.peak_queue <= bound,
        "peak pending events {} above {bound} (peak active {})",
        r.peak_queue,
        r.peak_active
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trunks flapping to zero under learning transfers — outages that
    /// overlap, that start the instant another ends, that hit one trunk or
    /// both — while probes are armed: a stranded transfer's probe chain
    /// stops, recovery restarts it once, and since every outage ends every
    /// transfer completes, the same at any thread count.
    #[test]
    fn zero_capacity_flaps_under_armed_probes_strand_nothing(
        raw in proptest::collection::vec((0u32..3, 0.0f64..150.0, 0.5f64..40.0, 1u32..4), 1..7),
        seed in 0u64..1_000,
    ) {
        let topology = ScaleTopology::dumbbell_wan(4, &[10.0, 80.0], 10.0, 20.0);
        let trunks: Vec<u32> = (0u32..)
            .zip(&topology.links)
            .filter(|(_, l)| l.name.starts_with("wan"))
            .map(|(i, _)| i)
            .collect();
        let mut failures: Vec<LinkFailure> = Vec::new();
        for (kind, at_s, duration_s, mask) in raw {
            // One draw in three starts where the previous outage ends.
            let at_s = match failures.last() {
                Some(prev) if kind == 0 => prev.at_s + prev.duration_s,
                _ => at_s,
            };
            let hit = trunks.iter().enumerate().filter(|(bit, _)| mask & (1 << bit) != 0);
            let links = hit.map(|(_, &l)| l).collect();
            failures.push(LinkFailure { at_s, duration_s, factor: 0.0, links });
        }
        let spec = ScaleCampaignSpec {
            topology,
            workload: ScaleWorkload {
                transfers: 120,
                arrivals_per_min: 240.0,
                // Slow connections, big files: transfers live through
                // several probe intervals and most outages.
                mean_file_mb: 500.0,
                per_conn_cap_mbps: 100.0,
                concurrency: 8,
                tuner: ScaleTuner::Rl(RlKind::Bandit),
                ..ScaleWorkload::default()
            },
            failures,
            duration_s: 400.0,
            seed,
            shards: 2,
        };
        let one = run_scale_campaign(&spec, 1);
        prop_assert_eq!(one.transfers, 120);
        prop_assert_eq!((one.completions, one.stranded), (120, 0), "{:?}", spec.failures);
        prop_assert!(one.probes > 0);
        assert_pending_events_bounded(&spec, &one);
        prop_assert_eq!(&one, &run_scale_campaign(&spec, 4), "report diverged at 4 threads");
    }
}

// ---------------------------------------------------------------------------
// 4. Topology-generator conformance.
// ---------------------------------------------------------------------------

#[test]
fn fat_tree_routes_are_valid_paths() {
    for k in [4usize, 8] {
        let t = ScaleTopology::fat_tree(k, 10.0);
        let half = k / 2;
        // Every ordered pair of distinct edge switches gets one route.
        let edges = k * half;
        assert_eq!(t.routes.len(), edges * (edges - 1), "k={k} route count");
        for r in &t.routes {
            // Path validity: hop indices exist, no repeats, and hop count
            // matches the intra/inter-pod shape.
            assert!(r.links.iter().all(|&l| (l as usize) < t.links.len()));
            let mut dedup = r.links.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), r.links.len(), "repeated hop in {}", r.name);
            if r.name.starts_with("pod") {
                assert_eq!(r.links.len(), 2, "intra-pod {} must be 2 hops", r.name);
            } else {
                assert_eq!(r.links.len(), 4, "inter-pod {} must be 4 hops", r.name);
                // Hops 2 and 3 are the core stage.
                let core_base = (k * half * half) as u32;
                assert!(r.links[1] >= core_base && r.links[2] >= core_base);
            }
        }
        // 1:1 design: no pod is over-subscribed.
        for p in 0..k {
            let ratio = t.pod_oversubscription(p);
            assert!(
                (ratio - 1.0).abs() < 1e-9,
                "k={k} pod {p} subscription {ratio}"
            );
        }
    }
}

#[test]
fn dumbbell_rtt_classes_are_disjoint_and_honored() {
    let rtts = [5.0f64, 40.0, 120.0];
    let t = ScaleTopology::dumbbell_wan(6, &rtts, 10.0, 40.0);
    assert_eq!(t.routes.len(), 6 * rtts.len());
    // Every route's RTT matches its class, and classes share no links.
    let comps = t.route_components();
    for (ri, r) in t.routes.iter().enumerate() {
        let class = r
            .name
            .strip_prefix("cl")
            .and_then(|s| s.split('-').next())
            .and_then(|s| s.parse::<usize>().ok())
            .expect("route name encodes its class");
        assert!((r.rtt_s - rtts[class] / 1000.0).abs() < 1e-12, "{}", r.name);
        assert_eq!(
            comps[ri], class as u32,
            "classes must be link-disjoint components"
        );
    }
}

#[test]
fn dtn_mesh_hub_degree_counts_spokes_and_trunks() {
    let (hubs, spokes) = (5usize, 7usize);
    let t = ScaleTopology::dtn_mesh(hubs, spokes, 1.0, 100.0);
    for h in 0..hubs {
        assert_eq!(
            t.hub_degree(h),
            spokes + hubs - 1,
            "hub {h} degree must be its spokes plus one trunk per peer hub"
        );
    }
    // Each spoke reaches every remote hub over exactly 2 links.
    assert_eq!(t.routes.len(), hubs * spokes * (hubs - 1));
    assert!(t.routes.iter().all(|r| r.links.len() == 2));
}
