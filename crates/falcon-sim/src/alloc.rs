//! Weighted max-min fair allocation by progressive filling.
//!
//! All connections in the paper's environments share one end-to-end path, so
//! each resource constrains the *sum* of the rates of the streams crossing
//! it. TCP flows with equal RTT converge to equal shares of a saturated link
//! (paper footnote 1); progressive filling computes exactly that fixed point
//! for the fluid model, while honouring each stream's own rate cap (from
//! per-process I/O throttles or the congestion-control response function).
//!
//! There are two progressive-filling loops, kept apart on purpose:
//!
//! - [`weighted_max_min_allocate_into`] iterates resource bitmasks and
//!   adds each of an entry's `count` members once, so it is bit-identical
//!   to listed copies. The classic simulator calls it.
//! - [`IncrementalMaxMin::solve`] iterates indexed route sets and
//!   re-solves only the components a change touches. The scale engine
//!   calls it.
//!
//! The dense loop is the incremental one's oracle in
//! `tests/fleet_scale.rs`.

/// A stream for [`weighted_max_min_allocate_into`]: at a saturated
/// resource a stream receives bandwidth proportional to its weight. Equal
/// weights reduce to plain max-min; TCP's RTT bias can be modelled with
/// weights ∝ 1/RTT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedStreamDemand {
    /// Maximum rate this stream can use (Mbps); `f64::INFINITY` if unbounded.
    pub cap_mbps: f64,
    /// Bitmask of resource indices this stream crosses (at most 64
    /// resources, far more than any path in this suite needs).
    pub resource_mask: u64,
    /// Fair-share weight (> 0).
    pub weight: f64,
    /// Number of identical streams this entry stands for (≥ 1), each
    /// receiving its rate. Sums add each member's term once, in list
    /// order, so it allocates bit-identically to `count` listed copies.
    pub count: u32,
}

/// Reusable working memory for [`weighted_max_min_allocate_into`]. Holding
/// one of these across calls makes steady-state allocation allocation-free:
/// the buffers are cleared and refilled, never shrunk.
#[derive(Debug, Default)]
pub struct AllocScratch {
    frozen: Vec<bool>,
    active_weight: Vec<f64>,
    remaining: Vec<f64>,
}

/// Weighted max-min fair allocation by progressive filling: every active
/// stream's rate grows in proportion to its weight until it hits its own
/// cap or saturates a resource. `capacities[i]` is the capacity of
/// resource `i`. Writes one rate per entry (each of its `count` members
/// gets it) into `rate` (cleared and refilled) using `scratch` for working
/// memory. Runs in `O(rounds * (entries + resources))` plus one add per
/// member and crossed resource, where rounds is bounded by the number of
/// distinct freezing events (≤ entries + resources).
///
/// Panics in debug builds if `capacities.len() > 64`, any weight is
/// non-positive or any count is zero; release builds treat such input as
/// degenerate.
pub fn weighted_max_min_allocate_into(
    streams: &[WeightedStreamDemand],
    capacities: &[f64],
    rate: &mut Vec<f64>,
    scratch: &mut AllocScratch,
) {
    debug_assert!(capacities.len() <= 64, "at most 64 resources supported");
    let n = streams.len();
    rate.clear();
    rate.resize(n, 0.0);
    if n == 0 {
        return;
    }
    for s in streams {
        debug_assert!(s.weight > 0.0, "weights must be positive");
        debug_assert!(s.count >= 1, "counts must be at least 1");
    }
    scratch.frozen.clear();
    scratch.frozen.resize(n, false);
    scratch.remaining.clear();
    scratch.remaining.extend_from_slice(capacities);
    let AllocScratch {
        frozen,
        active_weight,
        remaining,
    } = scratch;

    loop {
        // Total active weight per resource.
        active_weight.clear();
        active_weight.resize(capacities.len(), 0.0);
        let mut n_active = 0u32;
        for (s, f) in streams.iter().zip(frozen.iter()) {
            if !*f {
                n_active += 1;
                let mut mask = s.resource_mask;
                while mask != 0 {
                    let i = mask.trailing_zeros() as usize;
                    // One add per member, as listed copies would; the first
                    // is unconditional (`count` ≥ 1) to keep one member cheap.
                    let w = &mut active_weight[i];
                    *w += s.weight;
                    for _ in 1..s.count {
                        *w += s.weight;
                    }
                    mask &= mask - 1;
                }
            }
        }
        if n_active == 0 {
            break;
        }

        // The uniform *per-weight* increment bounded by the tightest
        // resource and by each stream's headroom.
        let mut inc = f64::INFINITY;
        for (i, &w) in active_weight.iter().enumerate() {
            if w > 0.0 {
                inc = inc.min(remaining[i].max(0.0) / w);
            }
        }
        for (idx, s) in streams.iter().enumerate() {
            if !frozen[idx] {
                inc = inc.min((s.cap_mbps - rate[idx]) / s.weight);
            }
        }
        if !inc.is_finite() {
            // No stream crosses any resource and all caps are infinite:
            // degenerate input; nothing more to allocate meaningfully.
            break;
        }
        let inc = inc.max(0.0);

        for (idx, s) in streams.iter().enumerate() {
            if frozen[idx] {
                continue;
            }
            let step = inc * s.weight;
            rate[idx] += step;
            let mut mask = s.resource_mask;
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                let r = &mut remaining[i];
                *r -= step;
                for _ in 1..s.count {
                    *r -= step;
                }
                mask &= mask - 1;
            }
        }
        let mut any_frozen = false;
        for (idx, s) in streams.iter().enumerate() {
            if frozen[idx] {
                continue;
            }
            let cap_hit = rate[idx] >= s.cap_mbps - 1e-9;
            let mut res_hit = false;
            let mut mask = s.resource_mask;
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                if remaining[i] <= 1e-9 {
                    res_hit = true;
                    break;
                }
                mask &= mask - 1;
            }
            if cap_hit || res_hit {
                frozen[idx] = true;
                any_frozen = true;
            }
        }
        if !any_frozen && inc <= 1e-12 {
            // inc was limited only by numerical slack; terminate to be safe.
            break;
        }
    }
}

/// Incremental weighted max-min allocator over *indexed* per-link route
/// sets — the fleet-scale replacement for the bitmask demands above.
///
/// Streams name the links they cross by index (`&[u32]`), so topologies
/// are no longer capped at 64 resources, and stream state lives in an
/// arena with stable `u32` ids and free-list reuse on departure (no
/// per-transfer boxing). Mutations (`add_stream`, `remove_stream`,
/// `set_capacity`, `update_stream`) mark the touched links dirty; a
/// [`solve`](IncrementalMaxMin::solve) call expands the dirty worklist to
/// the closure of links reachable through shared streams and re-runs
/// progressive filling over that *affected component only*, leaving every
/// other stream's cached rate untouched. A join, leave or re-rate whose
/// answer is already known — a cap-bound stream on links that keep
/// slack — is applied in place and marks nothing, so what is left to
/// solve is contention alone.
///
/// A route names each link at most once. Invariant: a link's member list
/// holds exactly the live streams whose route crosses it —
/// `remove_stream` takes the entries out before the id returns to the
/// free list. So a reused id carries nothing of its previous route, the
/// closure is the true connected component, and allocator state is
/// proportional to live streams however much churn came before.
///
/// This is exact, not approximate: weighted max-min with caps has a
/// unique fixed point, and the fixed point decomposes over connected
/// components of the stream–link bipartite graph, so re-solving only the
/// components containing dirty links reproduces the from-scratch
/// allocation (the invariant `tests/fleet_scale.rs` property-checks
/// against both an independent reference and the bitmask allocator).
#[derive(Debug, Default)]
pub struct IncrementalMaxMin {
    // Links.
    capacity: Vec<f64>,
    /// Per-link member stream ids: exactly the live streams crossing the
    /// link (unordered; removal is a scan and a swap-remove).
    members: Vec<Vec<u32>>,
    // Streams: SoA arena with free-list id reuse.
    cap: Vec<f64>,
    weight: Vec<f64>,
    links_of: Vec<Vec<u32>>,
    alive: Vec<bool>,
    rate: Vec<f64>,
    free: Vec<u32>,
    live: usize,
    // Dirty-link worklist.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
    // Solve scratch, persistent so steady-state solving is allocation-free.
    aff_links: Vec<u32>,
    aff_streams: Vec<u32>,
    link_in: Vec<bool>,
    stream_in: Vec<bool>,
    link_slot: Vec<u32>,
    remaining: Vec<f64>,
    active_w: Vec<f64>,
    frozen: Vec<bool>,
    /// Number of [`solve`](IncrementalMaxMin::solve) calls that did work:
    /// full solves only, not mutations applied in place.
    pub solves: u64,
    /// Total streams re-solved across all full solves (the incremental
    /// cost metric: dense re-solves would count `live × solves`).
    pub streams_resolved: u64,
    /// Number of [`update_stream`](IncrementalMaxMin::update_stream) calls
    /// applied in place, with no solve.
    pub in_place: u64,
}

/// Slack (Mbps) that every link of a stream's route must keep, before and
/// after a join, leave or re-rate, for [`IncrementalMaxMin`] to apply it
/// in place. Far above the solver's 1e-9 freeze tolerance, so a link this
/// calls unsaturated is one the solver never froze a stream at.
const IN_PLACE_SLACK_MBPS: f64 = 1e-6;

impl IncrementalMaxMin {
    /// An allocator over `capacities.len()` links with no streams.
    #[must_use]
    pub fn with_links(capacities: &[f64]) -> Self {
        let mut a = IncrementalMaxMin::default();
        for &c in capacities {
            a.add_link(c);
        }
        a
    }

    /// Append a link; returns its index.
    pub fn add_link(&mut self, capacity_mbps: f64) -> u32 {
        let id = self.capacity.len() as u32;
        self.capacity.push(capacity_mbps.max(0.0));
        self.members.push(Vec::new());
        self.dirty_flag.push(false);
        self.link_in.push(false);
        self.link_slot.push(0);
        id
    }

    /// Number of links.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.capacity.len()
    }

    /// Number of live streams.
    #[must_use]
    pub fn live_streams(&self) -> usize {
        self.live
    }

    /// A link's current capacity.
    #[must_use]
    pub fn capacity(&self, link: u32) -> f64 {
        self.capacity[link as usize]
    }

    /// The live streams crossing `link`, in no particular order.
    #[must_use]
    pub fn members(&self, link: u32) -> &[u32] {
        &self.members[link as usize]
    }

    /// Change a link's capacity (marks it dirty if the value moved).
    pub fn set_capacity(&mut self, link: u32, capacity_mbps: f64) {
        let c = capacity_mbps.max(0.0);
        if self.capacity[link as usize] != c {
            self.capacity[link as usize] = c;
            self.mark_dirty(link);
        }
    }

    /// Admit a stream crossing `route` (link indices): returns a stable
    /// id, reused from the free list when available. The join is applied
    /// in place — the stream runs at its cap, no other rate moves and no
    /// link goes dirty — when nothing is dirty, the cap is finite and
    /// every route link keeps more than `IN_PLACE_SLACK_MBPS` of slack
    /// before and after taking the cap: a cap-bound stream on unsaturated
    /// links constrains no other stream. A caller learns this from an
    /// empty [`dirty_links`](IncrementalMaxMin::dirty_links) after the
    /// call. Otherwise the route's links go dirty and the stream reads
    /// rate 0 until the next [`solve`](IncrementalMaxMin::solve). A stream
    /// with an empty route is only bounded by its own cap.
    pub fn add_stream(&mut self, cap_mbps: f64, weight: f64, route: &[u32]) -> u32 {
        debug_assert!(weight > 0.0, "weights must be positive");
        debug_assert!(
            route.iter().all(|&l| (l as usize) < self.capacity.len()),
            "route names an unknown link"
        );
        debug_assert!(
            route
                .iter()
                .enumerate()
                .all(|(k, l)| !route[..k].contains(l)),
            "route names a link twice"
        );
        // An infinite cap keeps no link's slack, so it is never in place.
        let in_place =
            route.is_empty() || (self.dirty.is_empty() && self.route_keeps_slack(route, cap_mbps));
        let id = if let Some(id) = self.free.pop() {
            let i = id as usize;
            self.cap[i] = cap_mbps;
            self.weight[i] = weight;
            self.links_of[i].clear();
            self.links_of[i].extend_from_slice(route);
            self.alive[i] = true;
            id
        } else {
            let id = self.cap.len() as u32;
            self.cap.push(cap_mbps);
            self.weight.push(weight);
            self.links_of.push(route.to_vec());
            self.alive.push(true);
            self.rate.push(0.0);
            self.stream_in.push(false);
            self.frozen.push(false);
            id
        };
        self.live += 1;
        self.rate[id as usize] = if in_place && cap_mbps.is_finite() {
            cap_mbps
        } else {
            0.0
        };
        for &l in route {
            self.members[l as usize].push(id);
            if !in_place {
                self.mark_dirty(l);
            }
        }
        id
    }

    /// Change a live stream's cap/weight. Returns `true` when the change is
    /// applied in place: the stream now runs at its new cap, no other rate
    /// moved and nothing is dirty, so the caller applies this one stream's
    /// rate delta instead of a [`solve`](IncrementalMaxMin::solve). That
    /// holds for an empty route, and for a stream held by its own cap,
    /// nothing dirty, whose every link keeps more than
    /// `IN_PLACE_SLACK_MBPS` of slack before and after the change — the
    /// rule [`add_stream`](IncrementalMaxMin::add_stream) applies to a
    /// join. Otherwise marks the route's links dirty and returns `false`.
    pub fn update_stream(&mut self, id: u32, cap_mbps: f64, weight: f64) -> bool {
        debug_assert!(weight > 0.0, "weights must be positive");
        let i = id as usize;
        debug_assert!(self.alive[i], "update of a departed stream");
        if self.cap[i] == cap_mbps && self.weight[i] == weight {
            return false;
        }
        let (old_cap, rate) = (self.cap[i], self.rate[i]);
        self.cap[i] = cap_mbps;
        self.weight[i] = weight;
        // The solver's own freeze tests: held at the old cap, and every
        // link unsaturated with the new cap's extra demand taken too.
        let route = &self.links_of[i];
        let in_place = route.is_empty()
            || (self.dirty.is_empty()
                && rate >= old_cap - 1e-9
                && self.route_keeps_slack(route, cap_mbps - rate));
        if in_place {
            self.rate[i] = if cap_mbps.is_finite() { cap_mbps } else { 0.0 };
            self.in_place += 1;
        } else {
            for k in 0..self.links_of[i].len() {
                self.mark_dirty(self.links_of[i][k]);
            }
        }
        in_place
    }

    /// Retire a stream: its membership entries are removed and its id
    /// returns to the free list. The leave is applied in place — no link
    /// goes dirty — when nothing is dirty and every route link had more
    /// than `IN_PLACE_SLACK_MBPS` of slack before the removal: no stream
    /// is held by an unsaturated link, so no other rate moves. A caller
    /// learns this from an empty
    /// [`dirty_links`](IncrementalMaxMin::dirty_links) after the call.
    /// Otherwise the route's links go dirty.
    pub fn remove_stream(&mut self, id: u32) {
        let i = id as usize;
        debug_assert!(self.alive[i], "double remove");
        let in_place = self.dirty.is_empty() && self.route_keeps_slack(&self.links_of[i], 0.0);
        self.alive[i] = false;
        self.rate[i] = 0.0;
        self.live -= 1;
        for k in 0..self.links_of[i].len() {
            let l = self.links_of[i][k];
            let members = &mut self.members[l as usize];
            let at = members.iter().position(|&m| m == id);
            debug_assert!(at.is_some(), "live stream missing from a link it crosses");
            if let Some(at) = at {
                members.swap_remove(at);
            }
            if !in_place {
                self.mark_dirty(l);
            }
        }
        self.free.push(id);
    }

    /// A link's capacity less its members' cached rates.
    fn slack(&self, link: u32) -> f64 {
        let l = link as usize;
        let used: f64 = self.members[l].iter().map(|&m| self.rate[m as usize]).sum();
        self.capacity[l] - used
    }

    /// Whether every link of `route` keeps more than
    /// `IN_PLACE_SLACK_MBPS` of slack, both now and after `extra_mbps`
    /// more demand: the one in-place test of a join, a leave and a
    /// re-rate.
    fn route_keeps_slack(&self, route: &[u32], extra_mbps: f64) -> bool {
        route.iter().all(|&l| {
            let slack = self.slack(l);
            slack > IN_PLACE_SLACK_MBPS && slack - extra_mbps > IN_PLACE_SLACK_MBPS
        })
    }

    /// The cached allocation for a stream (0 for departed streams).
    #[must_use]
    pub fn rate(&self, id: u32) -> f64 {
        self.rate[id as usize]
    }

    /// Links currently on the dirty worklist (mutations since last solve).
    #[must_use]
    pub fn dirty_links(&self) -> &[u32] {
        &self.dirty
    }

    fn mark_dirty(&mut self, link: u32) {
        if !self.dirty_flag[link as usize] {
            self.dirty_flag[link as usize] = true;
            self.dirty.push(link);
        }
    }

    /// Re-solve every link from scratch (the dense path; also the oracle
    /// the property suite compares the incremental path against).
    pub fn solve_all(&mut self) -> &[u32] {
        for l in 0..self.capacity.len() as u32 {
            self.mark_dirty(l);
        }
        self.solve()
    }

    /// Process the dirty worklist: expand it to the affected component(s)
    /// and re-run progressive filling there. Returns the affected stream
    /// ids — exactly the streams whose rate may have moved; everything
    /// else kept its cached rate. No-op (empty slice) when nothing is
    /// dirty.
    pub fn solve(&mut self) -> &[u32] {
        if self.dirty.is_empty() {
            return &[];
        }
        // 1. Closure: affected links = dirty links plus every link
        //    reachable through a shared stream (members are live-only).
        self.aff_links.clear();
        self.aff_streams.clear();
        for di in 0..self.dirty.len() {
            let l = self.dirty[di];
            if !self.link_in[l as usize] {
                self.link_in[l as usize] = true;
                self.aff_links.push(l);
            }
        }
        let mut head = 0;
        while head < self.aff_links.len() {
            let l = self.aff_links[head] as usize;
            head += 1;
            for mi in 0..self.members[l].len() {
                let sid = self.members[l][mi] as usize;
                if self.stream_in[sid] {
                    continue;
                }
                self.stream_in[sid] = true;
                self.aff_streams.push(sid as u32);
                for li in 0..self.links_of[sid].len() {
                    let l2 = self.links_of[sid][li];
                    if !self.link_in[l2 as usize] {
                        self.link_in[l2 as usize] = true;
                        self.aff_links.push(l2);
                    }
                }
            }
        }
        // 2. Progressive filling restricted to the affected component:
        //    the same loop as `weighted_max_min_allocate_into`, with the
        //    bitmask iteration replaced by the indexed route sets.
        self.remaining.clear();
        self.active_w.clear();
        for (slot, &l) in self.aff_links.iter().enumerate() {
            self.link_slot[l as usize] = slot as u32;
            self.remaining.push(self.capacity[l as usize]);
            self.active_w.push(0.0);
        }
        for &sid in &self.aff_streams {
            self.rate[sid as usize] = 0.0;
            self.frozen[sid as usize] = false;
        }
        loop {
            for w in self.active_w.iter_mut() {
                *w = 0.0;
            }
            let mut n_active = 0u32;
            for &sid in &self.aff_streams {
                let s = sid as usize;
                if !self.frozen[s] {
                    n_active += 1;
                    for &l in &self.links_of[s] {
                        self.active_w[self.link_slot[l as usize] as usize] += self.weight[s];
                    }
                }
            }
            if n_active == 0 {
                break;
            }
            let mut inc = f64::INFINITY;
            for (slot, &w) in self.active_w.iter().enumerate() {
                if w > 0.0 {
                    inc = inc.min(self.remaining[slot].max(0.0) / w);
                }
            }
            for &sid in &self.aff_streams {
                let s = sid as usize;
                if !self.frozen[s] {
                    inc = inc.min((self.cap[s] - self.rate[s]) / self.weight[s]);
                }
            }
            if !inc.is_finite() {
                break;
            }
            let inc = inc.max(0.0);
            for &sid in &self.aff_streams {
                let s = sid as usize;
                if self.frozen[s] {
                    continue;
                }
                self.rate[s] += inc * self.weight[s];
                for &l in &self.links_of[s] {
                    self.remaining[self.link_slot[l as usize] as usize] -= inc * self.weight[s];
                }
            }
            let mut any_frozen = false;
            for &sid in &self.aff_streams {
                let s = sid as usize;
                if self.frozen[s] {
                    continue;
                }
                let cap_hit = self.rate[s] >= self.cap[s] - 1e-9;
                let res_hit = self.links_of[s]
                    .iter()
                    .any(|&l| self.remaining[self.link_slot[l as usize] as usize] <= 1e-9);
                if cap_hit || res_hit {
                    self.frozen[s] = true;
                    any_frozen = true;
                }
            }
            if !any_frozen && inc <= 1e-12 {
                break;
            }
        }
        // 3. Reset the per-call flags (O(affected), not O(total)).
        for &l in &self.aff_links {
            self.link_in[l as usize] = false;
        }
        for &sid in &self.aff_streams {
            self.stream_in[sid as usize] = false;
        }
        for &l in &self.dirty {
            self.dirty_flag[l as usize] = false;
        }
        self.dirty.clear();
        self.solves += 1;
        self.streams_resolved += self.aff_streams.len() as u64;
        &self.aff_streams
    }

    /// Approximate resident bytes of the arena and scratch — the
    /// `fleet_scale` bench divides this by live streams for the
    /// bytes/transfer gauge.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let member_entries: usize = self.members.iter().map(Vec::capacity).sum();
        let route_entries: usize = self.links_of.iter().map(Vec::capacity).sum();
        self.capacity.capacity() * size_of::<f64>()
            + (member_entries + route_entries) * size_of::<u32>()
            + self.cap.capacity() * size_of::<f64>() * 3 // cap, weight, rate
            + self.alive.capacity()
            + self.free.capacity() * size_of::<u32>()
            + (self.dirty.capacity() + self.aff_links.capacity() + self.aff_streams.capacity())
                * size_of::<u32>()
            + self.dirty_flag.capacity()
            + self.link_in.capacity()
            + self.stream_in.capacity()
            + self.frozen.capacity()
            + self.link_slot.capacity() * size_of::<u32>()
            + (self.remaining.capacity() + self.active_w.capacity()) * size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(cap_mbps: f64, resource_mask: u64, weight: f64) -> WeightedStreamDemand {
        WeightedStreamDemand {
            cap_mbps,
            resource_mask,
            weight,
            count: 1,
        }
    }

    /// One solve into fresh buffers.
    fn allocate(streams: &[WeightedStreamDemand], capacities: &[f64]) -> Vec<f64> {
        let (mut rate, mut scratch) = (Vec::new(), AllocScratch::default());
        weighted_max_min_allocate_into(streams, capacities, &mut rate, &mut scratch);
        rate
    }

    #[test]
    fn single_stream_gets_min_of_cap_and_capacity() {
        let r = allocate(&[stream(50.0, 0b1, 1.0)], &[100.0]);
        assert!((r[0] - 50.0).abs() < 1e-9);
        let r = allocate(&[stream(500.0, 0b1, 1.0)], &[100.0]);
        assert!((r[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn equal_streams_share_equally() {
        let r = allocate(&[stream(f64::INFINITY, 0b1, 1.0); 4], &[100.0]);
        for v in &r {
            assert!((v - 25.0).abs() < 1e-9, "got {v}");
        }
    }

    #[test]
    fn capped_stream_leaves_surplus_to_others() {
        let s = [stream(10.0, 0b1, 1.0), stream(f64::INFINITY, 0b1, 1.0)];
        let r = allocate(&s, &[100.0]);
        assert!((r[0] - 10.0).abs() < 1e-9);
        assert!((r[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn multi_resource_bottleneck_is_tightest() {
        // Two resources; stream crosses both; second is tighter.
        let r = allocate(&[stream(f64::INFINITY, 0b11, 1.0)], &[100.0, 40.0]);
        assert!((r[0] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_streams_do_not_interfere() {
        let s = [
            stream(f64::INFINITY, 0b01, 1.0),
            stream(f64::INFINITY, 0b10, 1.0),
        ];
        let r = allocate(&s, &[30.0, 70.0]);
        assert!((r[0] - 30.0).abs() < 1e-9);
        assert!((r[1] - 70.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_no_resource_oversubscribed() {
        let s: Vec<_> = (0..10)
            .map(|i| stream(5.0 + f64::from(i), 0b111, 1.0))
            .collect();
        let caps = [60.0, 80.0, 55.0];
        let r = allocate(&s, &caps);
        for (i, &c) in caps.iter().enumerate() {
            let used: f64 = s
                .iter()
                .zip(r.iter())
                .filter(|(st, _)| st.resource_mask & (1 << i) != 0)
                .map(|(_, rr)| rr)
                .sum();
            assert!(
                used <= c + 1e-6,
                "resource {i} oversubscribed: {used} > {c}"
            );
        }
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(allocate(&[], &[100.0]).is_empty());
    }

    #[test]
    fn weighted_allocation_honours_weights() {
        let s = [
            stream(f64::INFINITY, 0b1, 1.0),
            stream(f64::INFINITY, 0b1, 3.0),
        ];
        let r = allocate(&s, &[100.0]);
        assert!((r[0] - 25.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 75.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn equal_weights_match_unweighted() {
        // Any common weight is plain max-min: the same rates as weight 1.
        let caps = [60.0, 80.0];
        let at = |w| -> Vec<_> {
            (0..5)
                .map(|i| stream(10.0 + f64::from(i), 0b11, w))
                .collect()
        };
        let (a, b) = (allocate(&at(1.0), &caps), allocate(&at(2.5), &caps));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn weighted_capped_stream_releases_surplus() {
        // Heavyweight stream capped low: its weight advantage is moot and
        // the lightweight stream takes the rest.
        let s = [stream(10.0, 0b1, 10.0), stream(f64::INFINITY, 0b1, 1.0)];
        let r = allocate(&s, &[100.0]);
        assert!((r[0] - 10.0).abs() < 1e-9);
        assert!((r[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_rejected() {
        allocate(&[stream(1.0, 0b1, 0.0)], &[100.0]);
    }

    #[test]
    fn into_variant_reuses_buffers_and_matches() {
        let caps = [60.0, 80.0];
        let streams: Vec<_> = (0..6)
            .map(|i| stream(8.0 + f64::from(i), 0b11, 1.0 + f64::from(i % 3)))
            .collect();
        let expect = allocate(&streams, &caps);

        let mut rate = Vec::new();
        let mut scratch = AllocScratch::default();
        for _ in 0..3 {
            weighted_max_min_allocate_into(&streams, &caps, &mut rate, &mut scratch);
            assert_eq!(rate, expect);
        }
    }

    #[test]
    fn agent_share_proportional_to_connection_count() {
        // The congestion-game mechanism: at a saturated link, an agent with
        // twice the connections gets twice the throughput.
        let r = allocate(&[stream(f64::INFINITY, 0b1, 1.0); 30], &[300.0]);
        let a: f64 = r[..10].iter().sum();
        let b: f64 = r[10..].iter().sum();
        assert!((a - 100.0).abs() < 1e-6, "agent A got {a}");
        assert!((b - 200.0).abs() < 1e-6, "agent B got {b}");
    }

    #[test]
    fn incremental_matches_bitmask_on_shared_link() {
        let mut inc = IncrementalMaxMin::with_links(&[100.0]);
        let a = inc.add_stream(f64::INFINITY, 1.0, &[0]);
        let b = inc.add_stream(f64::INFINITY, 3.0, &[0]);
        inc.solve();
        assert!((inc.rate(a) - 25.0).abs() < 1e-9);
        assert!((inc.rate(b) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_departure_releases_share_to_component_only() {
        // Two disjoint links; removing a stream on link 0 must not
        // re-solve (or perturb) link 1's stream.
        let mut inc = IncrementalMaxMin::with_links(&[100.0, 60.0]);
        let a = inc.add_stream(f64::INFINITY, 1.0, &[0]);
        let b = inc.add_stream(f64::INFINITY, 1.0, &[0]);
        let c = inc.add_stream(f64::INFINITY, 1.0, &[1]);
        inc.solve();
        assert!((inc.rate(a) - 50.0).abs() < 1e-9);
        inc.remove_stream(b);
        let affected = inc.solve().to_vec();
        assert_eq!(affected, vec![a], "only link 0's survivor re-solved");
        assert!((inc.rate(a) - 100.0).abs() < 1e-9);
        assert!((inc.rate(c) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_ids_are_reused_from_free_list() {
        let mut inc = IncrementalMaxMin::with_links(&[100.0]);
        let a = inc.add_stream(10.0, 1.0, &[0]);
        inc.remove_stream(a);
        let b = inc.add_stream(20.0, 1.0, &[0]);
        assert_eq!(a, b, "departed id not reused");
        inc.solve();
        assert!((inc.rate(b) - 20.0).abs() < 1e-9);
        assert_eq!(inc.live_streams(), 1);
    }

    #[test]
    fn incremental_capacity_change_marks_dirty_and_resolves() {
        let mut inc = IncrementalMaxMin::with_links(&[100.0]);
        let a = inc.add_stream(f64::INFINITY, 1.0, &[0]);
        inc.solve();
        assert!(inc.dirty_links().is_empty());
        inc.set_capacity(0, 40.0);
        assert_eq!(inc.dirty_links(), &[0]);
        inc.solve();
        assert!((inc.rate(a) - 40.0).abs() < 1e-9);
        // Setting the same capacity again is not a mutation.
        inc.set_capacity(0, 40.0);
        assert!(inc.dirty_links().is_empty());
    }

    #[test]
    fn incremental_empty_route_and_empty_link_edge_cases() {
        let mut inc = IncrementalMaxMin::with_links(&[100.0]);
        let free = inc.add_stream(33.0, 1.0, &[]);
        assert!((inc.rate(free) - 33.0).abs() < 1e-9);
        // A dirty link with no members solves trivially.
        inc.set_capacity(0, 50.0);
        assert!(inc.solve().is_empty());
        assert_eq!(inc.solves, 1);
    }

    #[test]
    fn empty_route_rerate_is_reported_in_place() {
        // Nothing goes dirty, so `solve()` reports nothing: the `true`
        // return is how a caller learns the rate moved.
        let mut inc = IncrementalMaxMin::with_links(&[100.0]);
        let free = inc.add_stream(33.0, 1.0, &[]);
        assert!(inc.update_stream(free, 12.0, 2.0));
        assert_eq!(inc.rate(free), 12.0);
        assert!(inc.dirty_links().is_empty());
        assert!(inc.solve().is_empty());
        assert_eq!((inc.solves, inc.in_place), (0, 1));
    }

    #[test]
    fn rerate_applies_in_place_only_while_the_route_keeps_slack() {
        let mut inc = IncrementalMaxMin::with_links(&[100.0, 60.0]);
        let a = inc.add_stream(20.0, 1.0, &[0, 1]);
        let b = inc.add_stream(30.0, 1.0, &[1]);
        inc.solve();
        // Link 1 carries 50 of 60: `a` grows by less than the 10 in place,
        // and its new weight is stored for later solves.
        assert!(inc.update_stream(a, 25.0, 3.0));
        assert_eq!(inc.rate(a), 25.0);
        assert!(inc.solve().is_empty());
        // Growing past the slack saturates link 1: a full solve, at the
        // stored weights (3:1 until `a` caps at 40, then `b` takes 20).
        assert!(!inc.update_stream(a, 40.0, 3.0));
        assert_eq!(inc.dirty_links(), &[0, 1]);
        inc.solve();
        assert!((inc.rate(a) - 40.0).abs() < 1e-9 && (inc.rate(b) - 20.0).abs() < 1e-9);
        // `b` is held by the saturated link, not by its cap.
        assert!(!inc.update_stream(b, 25.0, 1.0));
        // Both joins had slack, so the one solve is the re-rate's.
        assert_eq!((inc.solves, inc.in_place), (1, 1));
    }

    #[test]
    fn join_applies_in_place_only_while_the_route_keeps_slack() {
        let mut inc = IncrementalMaxMin::with_links(&[100.0, 60.0]);
        // Link 1 ends with 50 of 60 taken: both joins run at their caps.
        let a = inc.add_stream(30.0, 1.0, &[0, 1]);
        let b = inc.add_stream(20.0, 1.0, &[1]);
        assert!(inc.dirty_links().is_empty());
        assert_eq!((inc.rate(a), inc.rate(b)), (30.0, 20.0));
        // 20 more overruns link 1's slack: a solve shares it 20/20/20.
        let c = inc.add_stream(20.0, 1.0, &[1]);
        assert_eq!(inc.dirty_links(), &[1]);
        assert_eq!(inc.rate(c), 0.0);
        inc.solve();
        assert!([a, b, c].iter().all(|&s| (inc.rate(s) - 20.0).abs() < 1e-9));
        // A join onto the saturated link, however small, is not in place.
        let d = inc.add_stream(1.0, 1.0, &[0, 1]);
        assert_eq!(inc.dirty_links(), &[0, 1]);
        inc.remove_stream(d);
        inc.solve();
        // Nor is a join with no cap of its own, even onto links with slack.
        inc.add_stream(f64::INFINITY, 1.0, &[0]);
        assert_eq!(inc.dirty_links(), &[0]);
        assert_eq!((inc.solves, inc.in_place), (2, 0));
    }

    #[test]
    fn leave_applies_in_place_only_from_links_with_slack() {
        let mut inc = IncrementalMaxMin::with_links(&[100.0, 60.0]);
        let a = inc.add_stream(40.0, 1.0, &[0, 1]);
        let b = inc.add_stream(40.0, 1.0, &[1]);
        let c = inc.add_stream(10.0, 1.0, &[0]);
        inc.solve();
        assert!((inc.rate(a) - 30.0).abs() < 1e-9 && (inc.rate(b) - 30.0).abs() < 1e-9);
        // `c` crosses link 0 alone, which carries 40 of 100: in place.
        inc.remove_stream(c);
        assert!(inc.dirty_links().is_empty());
        // `b` leaves the saturated link 1, freeing share for `a`: a solve.
        inc.remove_stream(b);
        assert_eq!(inc.dirty_links(), &[1]);
        assert_eq!(inc.solve(), &[a]);
        assert_eq!(inc.rate(a), 40.0);
        // With link 1 unsaturated again, `a` leaves in place.
        inc.remove_stream(a);
        assert!(inc.dirty_links().is_empty());
        assert_eq!((inc.solves, inc.in_place), (2, 0));
    }

    #[test]
    fn incremental_matches_dense_after_churn() {
        // Interleave arrivals/departures over 3 links, then check the
        // incremental fixed point equals a from-scratch dense solve.
        let mut inc = IncrementalMaxMin::with_links(&[90.0, 120.0, 60.0]);
        let routes: [&[u32]; 4] = [&[0], &[1], &[2], &[0, 1, 2]];
        let mut ids = Vec::new();
        for i in 0..12u32 {
            let id = inc.add_stream(
                10.0 + f64::from(i % 5) * 7.0,
                1.0 + f64::from(i % 3),
                routes[i as usize % 4],
            );
            ids.push(id);
            inc.solve();
        }
        for &id in ids.iter().step_by(3) {
            inc.remove_stream(id);
            inc.solve();
        }
        let incremental: Vec<f64> = ids.iter().map(|&id| inc.rate(id)).collect();
        inc.solve_all();
        let dense: Vec<f64> = ids.iter().map(|&id| inc.rate(id)).collect();
        for (i, (a, b)) in incremental.iter().zip(&dense).enumerate() {
            assert!((a - b).abs() < 1e-9, "stream {i}: {a} vs {b}");
        }
    }
}
