//! Fleet topologies: a multi-bottleneck backbone plus the routes
//! transfers take across it.

use falcon_sim::{Environment, ResourceKind};

/// One route over the backbone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpec {
    /// Route label for reports ("via-link0", "cross").
    pub name: String,
    /// Bit `i` set means the route crosses resource `i` of the
    /// environment.
    pub mask: u64,
}

/// A routed fleet substrate: the backbone environment and the routes the
/// workload generator places transfers on.
#[derive(Debug, Clone)]
pub struct FleetTopology {
    /// The backbone ([`Environment::fleet`]-shaped: links only).
    pub env: Environment,
    /// The routes transfers may take.
    pub paths: Vec<PathSpec>,
}

impl FleetTopology {
    /// The standard campaign shape: one single-link route per backbone
    /// link, plus one *cross* route traversing every link — so multi-hop
    /// loss accumulation and min-capacity constraints are always
    /// exercised. `link_mbps` gives each link's capacity.
    pub fn multi_bottleneck(link_mbps: &[f64]) -> Self {
        let env = Environment::fleet(link_mbps);
        let mut paths: Vec<PathSpec> = (0..link_mbps.len())
            .map(|i| PathSpec {
                name: format!("via-{}", env.resources[i].name),
                mask: 1u64 << i,
            })
            .collect();
        if link_mbps.len() > 1 {
            paths.push(PathSpec {
                name: "cross".to_string(),
                mask: env.full_path_mask(),
            });
        }
        FleetTopology { env, paths }
    }

    /// Indices of the backbone's network links.
    pub fn link_indices(&self) -> Vec<usize> {
        self.env
            .resources
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == ResourceKind::NetworkLink)
            .map(|(i, _)| i)
            .collect()
    }

    /// The link a route is *bound* by: the minimum-capacity link on the
    /// route (ties broken toward the lowest index). Transfers sharing a
    /// binding link are the population the paper's fairness claim is
    /// about, so per-bottleneck Jain is computed over them.
    pub fn binding_link(&self, mask: u64) -> usize {
        let mut best = 0usize;
        let mut best_cap = f64::INFINITY;
        for (i, r) in self.env.resources.iter().enumerate() {
            if mask & (1u64 << i) != 0 && r.capacity_mbps < best_cap {
                best_cap = r.capacity_mbps;
                best = i;
            }
        }
        best
    }
}

/// One link of a scale topology. Unlike [`Environment`] resources, names
/// are owned strings, so generated fabrics are not capped by a static
/// name table (or by the 64-bit routing mask).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleLink {
    /// Structured name ("p3-e1-a0", "wan2", "hub0-hub3"…).
    pub name: String,
    /// Capacity in Mbps.
    pub capacity_mbps: f64,
}

/// One route of a scale topology: an *indexed per-link route set* (link
/// indices in traversal order) plus the route's RTT class.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteSpec {
    /// Route label for reports.
    pub name: String,
    /// Indices into [`ScaleTopology::links`], in traversal order. No
    /// width cap: fat-tree fabrics routinely exceed 64 links.
    pub links: Vec<u32>,
    /// Round-trip time of the route (seconds); scale campaigns weight
    /// TCP shares ∝ 1/RTT with this.
    pub rtt_s: f64,
}

/// A generated datacenter/WAN fabric for fleet-scale campaigns: links and
/// indexed routes, no `Environment` (and therefore no bitmask ceiling).
/// Built by the [`fat_tree`](ScaleTopology::fat_tree),
/// [`dumbbell_wan`](ScaleTopology::dumbbell_wan), and
/// [`dtn_mesh`](ScaleTopology::dtn_mesh) generators.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleTopology {
    /// Generator label ("fat-tree:8", "dumbbell:4x3", "dtn:3x8").
    pub name: String,
    /// The fabric's links.
    pub links: Vec<ScaleLink>,
    /// The routes transfers may take.
    pub routes: Vec<RouteSpec>,
}

impl ScaleTopology {
    /// A k-ary fat-tree (k even): k pods of k/2 edge and k/2 aggregation
    /// switches, (k/2)² core switches. Modeled links are the contended
    /// fabric stages — every edge↔agg link and every core↔pod link, all
    /// at `link_gbps` (a rearrangeably non-blocking 1:1 design). Routes
    /// cover every ordered pair of distinct edge switches: intra-pod
    /// routes take 2 links (edge→agg→edge), inter-pod routes take 4
    /// (edge→agg→core→agg→edge), with the agg/core choice made by a
    /// deterministic hash of the endpoints (one ECMP representative).
    #[must_use]
    pub fn fat_tree(k: usize, link_gbps: f64) -> Self {
        // falcon-lint::allow(panic-safety, reason = "construction-time validation of a programmer-supplied topology")
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree k must be even and >= 2"
        );
        let half = k / 2;
        let cap = link_gbps * 1000.0;
        let mut links = Vec::with_capacity(k * half * half + half * half * k);
        // Edge↔agg links: index(p, e, a) = p·half² + e·half + a.
        for p in 0..k {
            for e in 0..half {
                for a in 0..half {
                    links.push(ScaleLink {
                        name: format!("p{p}-e{e}-a{a}"),
                        capacity_mbps: cap,
                    });
                }
            }
        }
        // Core↔pod links: index(c, p) = k·half² + c·k + p, where core c
        // homes in agg group c / half.
        let core_base = k * half * half;
        for c in 0..half * half {
            for p in 0..k {
                links.push(ScaleLink {
                    name: format!("c{c}-p{p}"),
                    capacity_mbps: cap,
                });
            }
        }
        let ea = |p: usize, e: usize, a: usize| (p * half * half + e * half + a) as u32;
        let co = |c: usize, p: usize| (core_base + c * k + p) as u32;
        let mut routes = Vec::new();
        for p1 in 0..k {
            for e1 in 0..half {
                for p2 in 0..k {
                    for e2 in 0..half {
                        if p1 == p2 && e1 == e2 {
                            continue;
                        }
                        let a = (e1 + e2) % half;
                        let (name, hops) = if p1 == p2 {
                            (
                                format!("pod{p1}:e{e1}->e{e2}"),
                                vec![ea(p1, e1, a), ea(p1, e2, a)],
                            )
                        } else {
                            let c = a * half + (p1 + p2) % half;
                            (
                                format!("p{p1}e{e1}->p{p2}e{e2}"),
                                vec![ea(p1, e1, a), co(c, p1), co(c, p2), ea(p2, e2, a)],
                            )
                        };
                        routes.push(RouteSpec {
                            name,
                            links: hops,
                            rtt_s: if p1 == p2 { 0.0005 } else { 0.001 },
                        });
                    }
                }
            }
        }
        ScaleTopology {
            name: format!("fat-tree:{k}"),
            links,
            routes,
        }
    }

    /// A dumbbell WAN with heterogeneous RTT classes: one shared trunk
    /// per class in `rtt_ms`, with `pairs_per_class` site pairs behind
    /// it, each pair reaching the trunk through its own source and
    /// destination access links. Classes are link-disjoint, so each class
    /// is an independent component (the sharding seam).
    #[must_use]
    pub fn dumbbell_wan(
        pairs_per_class: usize,
        rtt_ms: &[f64],
        access_gbps: f64,
        trunk_gbps: f64,
    ) -> Self {
        // falcon-lint::allow(panic-safety, reason = "construction-time validation of a programmer-supplied topology")
        assert!(
            pairs_per_class > 0 && !rtt_ms.is_empty(),
            "dumbbell needs at least one pair and one RTT class"
        );
        let mut links = Vec::new();
        let mut routes = Vec::new();
        for (c, &ms) in rtt_ms.iter().enumerate() {
            let trunk = links.len() as u32;
            links.push(ScaleLink {
                name: format!("wan{c}"),
                capacity_mbps: trunk_gbps * 1000.0,
            });
            for i in 0..pairs_per_class {
                let src = links.len() as u32;
                links.push(ScaleLink {
                    name: format!("cl{c}-p{i}-src"),
                    capacity_mbps: access_gbps * 1000.0,
                });
                let dst = links.len() as u32;
                links.push(ScaleLink {
                    name: format!("cl{c}-p{i}-dst"),
                    capacity_mbps: access_gbps * 1000.0,
                });
                routes.push(RouteSpec {
                    name: format!("cl{c}-pair{i}"),
                    links: vec![src, trunk, dst],
                    rtt_s: ms / 1000.0,
                });
            }
        }
        ScaleTopology {
            name: format!("dumbbell:{}x{}", pairs_per_class, rtt_ms.len()),
            links,
            routes,
        }
    }

    /// A hub-and-spoke science-DTN mesh: `hubs` data-transfer-node hubs
    /// in a full trunk mesh, each serving `spokes_per_hub` instrument
    /// spokes over access links. Routes carry spoke data to every remote
    /// hub: access link + the (unordered) inter-hub trunk.
    #[must_use]
    #[allow(clippy::needless_range_loop)] // symmetric trunk-matrix fill is clearest indexed
    pub fn dtn_mesh(hubs: usize, spokes_per_hub: usize, spoke_gbps: f64, trunk_gbps: f64) -> Self {
        // falcon-lint::allow(panic-safety, reason = "construction-time validation of a programmer-supplied topology")
        assert!(
            hubs >= 2 && spokes_per_hub > 0,
            "DTN mesh needs >= 2 hubs and >= 1 spoke per hub"
        );
        let mut links = Vec::new();
        // Access links first: index(h, s) = h·spokes_per_hub + s.
        for h in 0..hubs {
            for s in 0..spokes_per_hub {
                links.push(ScaleLink {
                    name: format!("hub{h}-spoke{s}"),
                    capacity_mbps: spoke_gbps * 1000.0,
                });
            }
        }
        // Trunks: full mesh over hub pairs a < b, row-major.
        let trunk_base = hubs * spokes_per_hub;
        let mut trunk_idx = vec![vec![0u32; hubs]; hubs];
        let mut next = trunk_base as u32;
        for a in 0..hubs {
            for b in a + 1..hubs {
                links.push(ScaleLink {
                    name: format!("hub{a}-hub{b}"),
                    capacity_mbps: trunk_gbps * 1000.0,
                });
                trunk_idx[a][b] = next;
                trunk_idx[b][a] = next;
                next += 1;
            }
        }
        let mut routes = Vec::new();
        for a in 0..hubs {
            for s in 0..spokes_per_hub {
                for b in 0..hubs {
                    if a == b {
                        continue;
                    }
                    routes.push(RouteSpec {
                        name: format!("h{a}s{s}->h{b}"),
                        links: vec![(a * spokes_per_hub + s) as u32, trunk_idx[a][b]],
                        rtt_s: 0.04,
                    });
                }
            }
        }
        ScaleTopology {
            name: format!("dtn:{hubs}x{spokes_per_hub}"),
            links,
            routes,
        }
    }

    /// Restrict to 2-link (pod-local / east-west) routes — the shape of a
    /// shardable locality-heavy workload. Links are kept as-is so indices
    /// stay valid.
    #[must_use]
    pub fn pod_local(mut self) -> Self {
        self.routes.retain(|r| r.links.len() <= 2);
        self.name.push_str(":local");
        self
    }

    /// Per-route connected-component id over the link-sharing graph,
    /// numbered by first appearance in route order. Routes in different
    /// components never contend, so a campaign may shard them
    /// independently without perturbing the max-min fixed point.
    #[must_use]
    pub fn route_components(&self) -> Vec<u32> {
        // Union-find over links.
        let mut parent: Vec<u32> = (0..self.links.len() as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut r = x;
            while parent[r as usize] != r {
                parent[r as usize] = parent[parent[r as usize] as usize];
                r = parent[r as usize];
            }
            r
        }
        for route in &self.routes {
            if let Some((&first, rest)) = route.links.split_first() {
                let fr = find(&mut parent, first);
                for &l in rest {
                    let rl = find(&mut parent, l);
                    parent[rl as usize] = fr;
                }
            }
        }
        let mut label: Vec<Option<u32>> = vec![None; self.links.len() + 1];
        let mut next = 0u32;
        self.routes
            .iter()
            .map(|route| {
                let key = match route.links.first() {
                    Some(&l) => find(&mut parent, l) as usize,
                    None => self.links.len(),
                };
                *label[key].get_or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect()
    }

    /// The minimum-capacity link on a route (ties toward the lowest
    /// index) — the indexed analogue of [`FleetTopology::binding_link`].
    #[must_use]
    pub fn binding_link(&self, route: usize) -> Option<u32> {
        self.routes[route].links.iter().copied().min_by(|&a, &b| {
            self.links[a as usize]
                .capacity_mbps
                .total_cmp(&self.links[b as usize].capacity_mbps)
                .then(a.cmp(&b))
        })
    }

    /// Fat-tree over-subscription of pod `p`: edge-stage bandwidth
    /// divided by core-uplink bandwidth. 1.0 for the non-blocking
    /// [`fat_tree`](ScaleTopology::fat_tree) design.
    #[must_use]
    pub fn pod_oversubscription(&self, p: usize) -> f64 {
        let edge: f64 = self
            .links
            .iter()
            .filter(|l| l.name.starts_with(&format!("p{p}-")))
            .map(|l| l.capacity_mbps)
            .sum();
        let core: f64 = self
            .links
            .iter()
            .filter(|l| l.name.starts_with('c') && l.name.ends_with(&format!("-p{p}")))
            .map(|l| l.capacity_mbps)
            .sum();
        if core > 0.0 {
            edge / core
        } else {
            f64::INFINITY
        }
    }

    /// Degree of DTN hub `h`: incident trunks plus its access links.
    #[must_use]
    pub fn hub_degree(&self, h: usize) -> usize {
        let hub = format!("hub{h}");
        self.links
            .iter()
            .filter(|l| l.name.split('-').any(|part| part == hub))
            .count()
    }

    /// Build a topology from the scenario-file spec syntax:
    ///
    /// - `fat-tree:<k>` — k-ary fat-tree at 10 Gbps per link; append
    ///   `:local` to keep only pod-local routes (the shardable shape).
    /// - `dumbbell:<pairs>x<classes>` — dumbbell WAN, `classes` RTT
    ///   classes at 10·4ⁱ ms, 10 Gbps access, 40 Gbps trunks.
    /// - `dtn:<hubs>x<spokes>` — DTN mesh, 1 Gbps spokes, 100 Gbps
    ///   trunks.
    ///
    /// Returns `None` for anything else (including parameter values the
    /// generators would reject), so callers can surface a parse error
    /// instead of a panic.
    #[must_use]
    pub fn from_spec(spec: &str) -> Option<Self> {
        if let Some(rest) = spec.strip_prefix("fat-tree:") {
            let (k_str, local) = match rest.strip_suffix(":local") {
                Some(k) => (k, true),
                None => (rest, false),
            };
            let k: usize = k_str.parse().ok()?;
            if k < 2 || !k.is_multiple_of(2) || k > 32 {
                return None;
            }
            let t = ScaleTopology::fat_tree(k, 10.0);
            return Some(if local { t.pod_local() } else { t });
        }
        if let Some(rest) = spec.strip_prefix("dumbbell:") {
            let (pairs, classes) = rest.split_once('x')?;
            let pairs: usize = pairs.parse().ok()?;
            let classes: usize = classes.parse().ok()?;
            if pairs == 0 || classes == 0 || pairs > 1024 || classes > 64 {
                return None;
            }
            let rtt_ms: Vec<f64> = (0..classes).map(|i| 10.0 * 4f64.powi(i as i32)).collect();
            return Some(ScaleTopology::dumbbell_wan(pairs, &rtt_ms, 10.0, 40.0));
        }
        if let Some(rest) = spec.strip_prefix("dtn:") {
            let (hubs, spokes) = rest.split_once('x')?;
            let hubs: usize = hubs.parse().ok()?;
            let spokes: usize = spokes.parse().ok()?;
            if hubs < 2 || spokes == 0 || hubs > 64 || spokes > 256 {
                return None;
            }
            return Some(ScaleTopology::dtn_mesh(hubs, spokes, 1.0, 100.0));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_bottleneck_has_per_link_and_cross_routes() {
        let t = FleetTopology::multi_bottleneck(&[1000.0, 1600.0, 2500.0]);
        assert_eq!(t.paths.len(), 4);
        assert_eq!(t.paths[0].mask, 0b001);
        assert_eq!(t.paths[2].mask, 0b100);
        assert_eq!(t.paths[3].mask, 0b111);
        assert_eq!(t.link_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn binding_link_is_the_tightest_on_the_route() {
        let t = FleetTopology::multi_bottleneck(&[1000.0, 1600.0, 2500.0]);
        assert_eq!(t.binding_link(0b111), 0);
        assert_eq!(t.binding_link(0b110), 1);
        assert_eq!(t.binding_link(0b100), 2);
    }

    #[test]
    fn single_link_topology_has_no_cross_route() {
        let t = FleetTopology::multi_bottleneck(&[1000.0]);
        assert_eq!(t.paths.len(), 1);
    }

    #[test]
    fn fat_tree_counts_and_route_lengths() {
        let t = ScaleTopology::fat_tree(4, 10.0);
        // 4 pods × 2×2 edge-agg links + 4 cores × 4 pods core links.
        assert_eq!(t.links.len(), 16 + 16);
        // Ordered pairs of the 8 edge switches.
        assert_eq!(t.routes.len(), 8 * 7);
        for r in &t.routes {
            assert!(
                r.links.len() == 2 || r.links.len() == 4,
                "{} has {} hops",
                r.name,
                r.links.len()
            );
        }
    }

    #[test]
    fn fat_tree_pod_local_components_are_pods() {
        let t = ScaleTopology::fat_tree(4, 10.0).pod_local();
        let comps = t.route_components();
        let n = comps.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        assert_eq!(n, 4, "one component per pod, got {n}");
    }

    #[test]
    fn dumbbell_classes_are_disjoint_components() {
        let t = ScaleTopology::dumbbell_wan(3, &[10.0, 50.0, 120.0], 10.0, 40.0);
        assert_eq!(t.links.len(), 3 * (1 + 2 * 3));
        assert_eq!(t.routes.len(), 9);
        let comps = t.route_components();
        for (i, r) in t.routes.iter().enumerate() {
            let class: u32 = r.name[2..3].parse().unwrap();
            assert_eq!(comps[i], class, "{}", r.name);
        }
    }

    #[test]
    fn dtn_mesh_hub_degree() {
        let t = ScaleTopology::dtn_mesh(3, 4, 10.0, 100.0);
        for h in 0..3 {
            assert_eq!(t.hub_degree(h), 4 + 2);
        }
    }

    #[test]
    fn binding_link_is_tightest_on_scale_route() {
        let t = ScaleTopology::dumbbell_wan(1, &[10.0], 10.0, 4.0);
        // Trunk (4 Gbps) is tighter than access (10 Gbps).
        let b = t.binding_link(0).unwrap();
        assert_eq!(t.links[b as usize].name, "wan0");
    }
}
