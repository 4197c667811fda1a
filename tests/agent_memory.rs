//! `FalconAgent::memory_bytes()` against the allocator's own count, and
//! the learning tuners' decisions against its count of allocations.
//!
//! A counting global allocator tracks the live heap and the allocation
//! calls, so this file holds a single test: a second one running
//! concurrently would allocate into the same counters. Run with
//! `--nocapture` for the per-tuner table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use falcon_repro::core::{
    BayesianMpOptimizer, BoMpParams, FalconAgent, ProbeMetrics, TransferSettings, UtilityFunction,
};
use falcon_repro::fleet::FleetTuner;
use falcon_repro::trace::{TraceEvent, Tracer};

/// The system allocator, counting live bytes, live blocks and allocation
/// calls (`alloc` and `realloc`).
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static ALLOCS: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap `(bytes, blocks)`.
fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

/// Probes each agent is driven for: four windows of the BO's 20.
const PROBES: usize = 80;

/// One probe of `s` on a noise-free link of `link_mbps` with 100 Mbps per
/// process, the shape of the paper's Emulab setting.
fn observe(agent: &mut FalconAgent, s: TransferSettings, link_mbps: f64) -> TransferSettings {
    let n = f64::from(s.total_connections().max(1));
    let mbps = n * 100.0f64.min(link_mbps / n);
    agent.observe(ProbeMetrics::from_aggregate(s, mbps, 0.0, 5.0))
}

/// Feed `agent` a 1 Gbps link for [`PROBES`] probes.
fn drive(agent: &mut FalconAgent) {
    let mut s = agent.initial_settings();
    for _ in 0..PROBES {
        s = observe(agent, s, 1000.0);
    }
}

/// Feed `agent` a 1 Gbps link that drops to 300 Mbps for probes 60..120
/// and comes back for 60 more; returns the most allocation calls any one
/// `observe` made.
fn drive_flapping(agent: &mut FalconAgent) -> isize {
    let mut s = agent.initial_settings();
    let mut most = 0;
    for i in 0..180 {
        let link = if (60..120).contains(&i) {
            300.0
        } else {
            1000.0
        };
        let before = ALLOCS.load(Ordering::Relaxed);
        s = observe(agent, s, link);
        most = most.max(ALLOCS.load(Ordering::Relaxed) - before);
    }
    most
}

#[test]
fn memory_bytes_matches_the_live_heap_of_every_agent() {
    let mut cases: Vec<(String, Box<dyn Fn() -> FalconAgent>)> = Vec::new();
    for spelling in FleetTuner::names() {
        let name = spelling.replace("<cc>", "8").replace("<gbps>", "20");
        let tuner = FleetTuner::parse(&name).unwrap();
        if tuner.agent(32, 7).is_some() {
            cases.push((name, Box::new(move || tuner.agent(32, 7).unwrap())));
        }
    }
    cases.push((
        "bo-mp (32×8 grid)".to_string(),
        Box::new(|| {
            FalconAgent::new(
                UtilityFunction::falcon_multi_param(),
                Box::new(BayesianMpOptimizer::new(BoMpParams::new(32, 8))),
            )
        }),
    ));
    let names: Vec<&str> = cases.iter().map(|(n, _)| n.as_str()).collect();
    for want in [
        "falcon-gd",
        "falcon-hc",
        "falcon-bo",
        "falcon-mp",
        "rl:bandit",
        "rl:q",
    ] {
        assert!(names.contains(&want), "{want} missing from {names:?}");
    }

    let mut rows = Vec::new();
    for (name, build) in &cases {
        let (bytes0, blocks0) = live();
        let mut agent = build();
        let (built, built_blocks) = live();
        drive(&mut agent);
        let (bytes1, blocks1) = live();
        let heap = (bytes1 - bytes0) as f64;
        let claimed = agent.memory_bytes();
        rows.push(format!(
            "{name:<18} built {:>6} B in {:>3} blocks, after {PROBES} probes {:>6} B in {:>3} blocks, memory_bytes {claimed:>6}",
            built - bytes0,
            built_blocks - blocks0,
            bytes1 - bytes0,
            blocks1 - blocks0,
        ));
        assert!(
            (claimed as f64 - heap).abs() <= 0.1 * heap,
            "{name}: memory_bytes {claimed} vs live heap {heap}"
        );
        if name.starts_with("bo-mp") {
            assert!(
                built - bytes0 <= 12 * 1024,
                "BO-MP on a 32×8 grid is built in {} B",
                built - bytes0
            );
        }
        if name == "falcon-bo" {
            assert!(
                claimed <= 6 * 1024,
                "BO on a 32-candidate line holds {claimed} B"
            );
        }
        drop(agent);
    }
    println!("{}", rows.join("\n"));

    // A learning tuner's decision allocates nothing once it is built. A
    // traced pass shows which bandit modes the flapping drive reaches
    // (decision term `mode`: 0 sweep, 1 steer, 2 climb, 3 drift re-sweep);
    // untraced passes with the same seed then count the allocations.
    let mut traced = FleetTuner::parse("rl:bandit")
        .unwrap()
        .agent(32, 7)
        .unwrap();
    let tracer = Tracer::recording();
    traced.set_tracer(tracer.clone());
    drive_flapping(&mut traced);
    let mut modes: Vec<f64> = tracer
        .take_log()
        .records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Decision { terms, .. } => {
                terms.iter().find(|(k, _)| k == "mode").map(|&(_, v)| v)
            }
            _ => None,
        })
        .collect();
    modes.sort_by(f64::total_cmp);
    modes.dedup();
    assert_eq!(modes, [0.0, 1.0, 2.0, 3.0], "bandit modes reached");
    for name in ["rl:bandit", "rl:q"] {
        let mut agent = FleetTuner::parse(name).unwrap().agent(32, 7).unwrap();
        let most = drive_flapping(&mut agent);
        assert_eq!(most, 0, "{name}: an observe made {most} allocations");
    }
}
