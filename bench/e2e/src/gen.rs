//! Workload inputs, generated from `--seed`.
//!
//! The seed varies the scenario `seed` (except `fleet-bo`'s, see
//! [`FLEET_BO_SEEDS`]), join/flap times by ±10 % and link capacities by
//! ±10 % — never the shape (agent cast, topology, transfer count,
//! duration), so host cost stays comparable across seeds while the program
//! cannot special-case one literal input.

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] = [
    "scenario-long",
    "fleet-bo",
    "campaign-100k",
    "campaign-rl",
    "loopback",
];

/// SplitMix64 (Steele, Lea & Flood 2014): the whole generator state is the
/// seed, so the same `--seed` always yields the same inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `base` scaled by a factor uniform in [0.9, 1.1).
    fn jitter(&mut self, base: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        base * (0.9 + 0.2 * unit)
    }

    /// A scenario `seed =` value (kept below 2^32 so the INI's f64 parse is
    /// exact).
    fn scenario_seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }
}

/// What a correct child of this workload must print.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// One table row per agent plus a Jain index.
    AgentTable { agents: usize },
    /// A classic fleet report (`N/M completed`).
    FleetReport,
    /// A scale-campaign summary with every transfer completed.
    Campaign { transfers: u64 },
    /// A loopback probe table of this many rows.
    Loopback { probes: usize },
}

/// One workload's generated inputs: the files to write and, per child, the
/// `falcon` arguments (file names are relative to the input directory and
/// marked by a leading `@`).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub files: Vec<(String, String)>,
    pub children: Vec<Vec<String>>,
    pub expect: Expect,
    /// Whether every rep must print byte-identical stdout (the simulated
    /// workloads; real sockets are not repeatable).
    pub deterministic: bool,
}

fn scenario_long(rng: &mut SplitMix64, smoke: bool) -> Plan {
    // Smoke divides every time by 100; the cast stays.
    let k = if smoke { 0.01 } else { 1.0 };
    let seed = rng.scenario_seed();
    let join_rl = rng.jitter(100.0) * k;
    let join_harp = rng.jitter(200.0) * k;
    let flap = rng.jitter(4000.0) * k;
    let restore = rng.jitter(8000.0) * k;
    let duration = 12000.0 * k;
    let ini = format!(
        "env = emulab10\nduration = {duration}\nseed = {seed}\n\
         \n[agent]\ntuner = falcon-hc\nstart = 0\n\
         \n[agent]\ntuner = falcon-gd\nstart = 0\n\
         \n[agent]\ntuner = falcon-bo\nstart = 0\n\
         \n[agent]\ntuner = rl:bandit\nstart = {join_rl:.2}\n\
         \n[agent]\ntuner = harp-rt\nstart = {join_harp:.2}\n\
         \n[event]\nat = {flap:.2}\naction = link_capacity\nfactor = 0.3\n\
         \n[event]\nat = {restore:.2}\naction = link_capacity\nfactor = 1.0\n"
    );
    Plan {
        files: vec![("scenario-long.ini".into(), ini)],
        children: vec![vec!["scenario".into(), "@scenario-long.ini".into()]],
        expect: Expect::AgentTable { agents: 5 },
        deterministic: true,
    }
}

/// Scenario seeds of the `fleet-bo` batch. One classic campaign's host cost
/// swings ±14 % with its scenario seed (the arrival pattern decides how many
/// BO agents overlap) but only ∓8 % per ±10 % of link capacity, so a batch
/// of eight random seeds spread `wall_s` by 9–12 % between `--seed`s — as
/// wide as the regression bound. The panel is therefore fixed and `--seed`
/// moves the capacities only.
const FLEET_BO_SEEDS: [u64; 8] = [11, 222, 3333, 44444, 555555, 6666666, 77, 888];

fn fleet_bo(rng: &mut SplitMix64, smoke: bool) -> Plan {
    // The classic engine is superlinear in duration and needs minutes of
    // simulated time before anything completes, so smoke shrinks the batch
    // and the fleet instead of dividing the duration by 100.
    let (batch, transfers, duration, anchor_gb, file_mb) = if smoke {
        (1, 12, 150, 8, 300)
    } else {
        (8, 200, 600, 40, 500)
    };
    let mut files = Vec::new();
    let mut children = Vec::new();
    for (i, seed) in FLEET_BO_SEEDS.iter().take(batch).enumerate() {
        let links: Vec<String> = [1000.0, 1600.0, 2500.0]
            .iter()
            .map(|&c| format!("{:.0}", rng.jitter(c)))
            .collect();
        let name = format!("fleet-bo-{i}.ini");
        files.push((
            name.clone(),
            format!(
                "duration = {duration}\nseed = {seed}\n\n[fleet]\nlinks = {}\n\
                 transfers = {transfers}\narrivals_per_min = 24\nmean_file_mb = {file_mb}\n\
                 anchor_gb = {anchor_gb}\ntuner = falcon-bo\n",
                links.join(", ")
            ),
        ));
        children.push(vec!["scenario".into(), format!("@{name}")]);
    }
    Plan {
        files,
        children,
        expect: Expect::FleetReport,
        deterministic: true,
    }
}

fn campaign(name: &str, body: &str, transfers: u64, duration: u64, seed: u64) -> Plan {
    let file = format!("{name}.ini");
    let ini =
        format!("duration = {duration}\nseed = {seed}\n\n[fleet]\n{body}transfers = {transfers}\n");
    Plan {
        files: vec![(file.clone(), ini)],
        children: vec![vec!["scenario".into(), format!("@{file}")]],
        expect: Expect::Campaign { transfers },
        deterministic: true,
    }
}

fn loopback(smoke: bool) -> Plan {
    // No seeded input: the flags are the workload. Connections = nproc, no
    // more — sender and receiver threads already share the cores.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (probes, interval) = if smoke { (4, "0.1") } else { (16, "0.25") };
    let args = [
        "loopback",
        "--optimizer",
        "gd",
        "--per-worker-mbps",
        "1000000",
        "--max-workers",
        &nproc.to_string(),
        "--interval",
        interval,
        "--probes",
        &probes.to_string(),
    ];
    Plan {
        files: Vec::new(),
        children: vec![args.iter().map(|s| s.to_string()).collect()],
        expect: Expect::Loopback { probes },
        deterministic: false,
    }
}

/// The inputs of `workload` for `seed`, or `None` for an unknown name.
/// `smoke` shrinks durations and transfer counts ~100× (results are then
/// not comparable with full-size runs).
pub fn plan(workload: &str, seed: u64, smoke: bool) -> Option<Plan> {
    // Mix the workload name in so two workloads never share a stream.
    let tag = workload
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
    let mut rng = SplitMix64::new(seed ^ tag.rotate_left(32));
    let div = if smoke { 100 } else { 1 };
    Some(match workload {
        "scenario-long" => scenario_long(&mut rng, smoke),
        "fleet-bo" => fleet_bo(&mut rng, smoke),
        "campaign-100k" => campaign(
            workload,
            "topology = fat-tree:8:local\narrivals_per_min = 60000\nmean_file_mb = 50\n\
             shards = 8\ntuner = fixed:2\n",
            100_000 / div,
            100_000 / div,
            rng.scenario_seed(),
        ),
        // Offered load stays ≤ 0.25 of trunk capacity: near saturation the
        // shard event queue of this spec grows without bound.
        "campaign-rl" => campaign(
            workload,
            "topology = dumbbell:8x3\narrivals_per_min = 12\nmean_file_mb = 16000\n\
             diurnal = 0.4\nfailures = 6\ntenants = 3\nshards = 8\ntuner = rl:bandit\n",
            200_000 / div,
            1_500_000 / div,
            rng.scenario_seed(),
        ),
        "loopback" => loopback(smoke),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different() {
        for w in WORKLOADS {
            for smoke in [false, true] {
                let a = plan(w, 7, smoke).unwrap();
                assert_eq!(a, plan(w, 7, smoke).unwrap(), "{w} not repeatable");
                if w != "loopback" {
                    assert_ne!(
                        a.files,
                        plan(w, 8, smoke).unwrap().files,
                        "{w} ignores seed"
                    );
                }
            }
        }
        assert!(plan("nope", 1, false).is_none());
    }

    #[test]
    fn seed_never_changes_the_shape() {
        let strip = |p: &Plan| -> Vec<Vec<String>> {
            p.files
                .iter()
                .map(|(_, text)| {
                    text.lines()
                        .map(|l| l.split('=').next().unwrap_or("").trim().to_string())
                        .collect()
                })
                .collect()
        };
        for w in WORKLOADS {
            let (a, b) = (plan(w, 1, false).unwrap(), plan(w, 99, false).unwrap());
            assert_eq!(
                strip(&a),
                strip(&b),
                "{w}: keys/sections moved with the seed"
            );
            assert_eq!(a.children, b.children);
            assert_eq!(a.expect, b.expect);
        }
    }

    #[test]
    fn jitter_stays_within_ten_percent() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = rng.jitter(100.0);
            assert!((90.0..110.0).contains(&v), "{v}");
        }
    }
}
