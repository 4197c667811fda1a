//! Environment presets calibrated to the paper's testbeds (Table 1).
//!
//! | Testbed        | Storage    | Bandwidth | RTT   | Bottleneck |
//! |----------------|------------|-----------|-------|------------|
//! | Emulab         | RAID-0 SSD | 1G        | 30ms  | Network    |
//! | XSEDE          | Lustre     | 10G       | 40ms  | Disk read  |
//! | HPCLab         | NVMe SSD   | 40G       | 0.1ms | Disk write |
//! | Campus Cluster | GPFS       | 10G       | 0.1ms | NIC        |
//!
//! plus the Stampede2–Comet pair (40G, 60 ms) used in §4.3–§4.5, and the
//! small Emulab topology of Figure 3/4 (100 Mbps link, 10 Mbps per-process
//! read throttle).
//!
//! Capacities are calibration constants chosen so the *shape* of the paper's
//! results holds (who wins, where optima sit); absolute Gbps values are
//! documented per preset.

use falcon_tcp::{BottleneckLossModel, CongestionControl};

use crate::resource::{Resource, ResourceKind};

/// Identifier for the built-in presets, used by experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvironmentKind {
    /// Figure 3/4 topology: 100 Mbps bottleneck, 10 Mbps per-process read.
    EmulabFig4,
    /// Emulab with per-process I/O throttled so ~10 concurrency saturates
    /// the 1 Gbps link (§4.1, Figures 9a/10a).
    Emulab10,
    /// Emulab throttled to ~21 Mbps/process so ~48 concurrency is optimal
    /// (Figures 6, 7, 8, 13).
    Emulab48,
    /// XSEDE (OSG–Comet): 10G network, 40 ms RTT, Lustre read-limited.
    Xsede,
    /// HPCLab: 40G LAN, 0.1 ms RTT, NVMe write-limited (~25-28 Gbps).
    HpcLab,
    /// Campus Cluster: GPFS, 10G NIC-limited, 0.1 ms RTT.
    CampusCluster,
    /// Stampede2–Comet: 40G path, 60 ms RTT (§4.3, §4.4, §4.5).
    Stampede2Comet,
}

impl EnvironmentKind {
    /// All presets, for sweeps.
    pub fn all() -> [EnvironmentKind; 7] {
        [
            EnvironmentKind::EmulabFig4,
            EnvironmentKind::Emulab10,
            EnvironmentKind::Emulab48,
            EnvironmentKind::Xsede,
            EnvironmentKind::HpcLab,
            EnvironmentKind::CampusCluster,
            EnvironmentKind::Stampede2Comet,
        ]
    }

    /// Accepted spellings: the canonical one (what `falcon envs` lists)
    /// first, then its aliases.
    pub fn spellings(&self) -> &'static [&'static str] {
        match self {
            EnvironmentKind::EmulabFig4 => &["emulab-fig4", "fig4"],
            EnvironmentKind::Emulab10 => &["emulab10", "emulab"],
            EnvironmentKind::Emulab48 => &["emulab48"],
            EnvironmentKind::Xsede => &["xsede"],
            EnvironmentKind::HpcLab => &["hpclab"],
            EnvironmentKind::CampusCluster => &["campus-cluster", "campus"],
            EnvironmentKind::Stampede2Comet => &["stampede2-comet", "stampede2"],
        }
    }

    /// The preset a spelling names, if any.
    pub fn from_name(name: &str) -> Option<EnvironmentKind> {
        Self::all()
            .into_iter()
            .find(|k| k.spellings().contains(&name))
    }

    /// Table-1 style row name.
    pub fn name(&self) -> &'static str {
        match self {
            EnvironmentKind::EmulabFig4 => "Emulab (fig3/4 topology)",
            EnvironmentKind::Emulab10 => "Emulab (100 Mbps/proc)",
            EnvironmentKind::Emulab48 => "Emulab (21 Mbps/proc)",
            EnvironmentKind::Xsede => "XSEDE",
            EnvironmentKind::HpcLab => "HPCLab",
            EnvironmentKind::CampusCluster => "Campus Cluster",
            EnvironmentKind::Stampede2Comet => "Stampede2-Comet",
        }
    }

    /// Build the preset.
    pub fn build(&self) -> Environment {
        match self {
            EnvironmentKind::EmulabFig4 => Environment::emulab_fig4(),
            EnvironmentKind::Emulab10 => Environment::emulab(100.0),
            EnvironmentKind::Emulab48 => Environment::emulab(21.0),
            EnvironmentKind::Xsede => Environment::xsede(),
            EnvironmentKind::HpcLab => Environment::hpclab(),
            EnvironmentKind::CampusCluster => Environment::campus_cluster(),
            EnvironmentKind::Stampede2Comet => Environment::stampede2_comet(),
        }
    }
}

/// A complete simulated end-to-end environment.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Preset name for logs.
    pub name: &'static str,
    /// Path resources in order from source disk to destination disk.
    pub resources: Vec<Resource>,
    /// Index into `resources` of the network link that carries the loss model.
    pub bottleneck_link: usize,
    /// Round-trip time in seconds.
    pub rtt_s: f64,
    /// Maximum segment size in bytes.
    pub mss_bytes: f64,
    /// Congestion-control algorithm of all transfer connections.
    pub cca: CongestionControl,
    /// Loss model of the bottleneck link.
    pub loss_model: BottleneckLossModel,
    /// Standard deviation of multiplicative throughput measurement noise
    /// (production systems are noisier than isolated testbeds).
    pub noise_std_frac: f64,
    /// Probe interval the paper uses in this network (3 s LAN, 5 s WAN).
    pub sample_interval_s: f64,
    /// Upper bound of the concurrency search space.
    pub max_concurrency: u32,
}

impl Environment {
    /// Figure 3/4 topology: 1 Gbps hardware disks throttled to 10 Mbps per
    /// process, 100 Mbps bottleneck link, 30 ms RTT. 10 connections saturate
    /// the link; beyond that loss climbs to ~10% at 32.
    pub fn emulab_fig4() -> Self {
        Environment {
            name: "emulab-fig4",
            resources: vec![
                Resource::new("disk-read", ResourceKind::DiskRead, 1000.0, Some(10.0)),
                Resource::new("src-nic", ResourceKind::SourceNic, 1000.0, None),
                Resource::new("link-100M", ResourceKind::NetworkLink, 100.0, None),
                Resource::new("dst-nic", ResourceKind::DestNic, 1000.0, None),
                Resource::new("disk-write", ResourceKind::DiskWrite, 1000.0, None),
            ],
            bottleneck_link: 2,
            rtt_s: 0.030,
            mss_bytes: falcon_tcp::DEFAULT_MSS_BYTES,
            cca: CongestionControl::Cubic,
            loss_model: BottleneckLossModel::default(),
            noise_std_frac: 0.005,
            sample_interval_s: 5.0,
            max_concurrency: 64,
        }
    }

    /// Emulab with a configurable per-process read throttle on a 1 Gbps
    /// link. `per_proc_mbps = 100` needs ~10 concurrent transfers
    /// (§4.1); `per_proc_mbps = 21` needs ~48 (Figures 6–8, 13).
    pub fn emulab(per_proc_mbps: f64) -> Self {
        Environment {
            name: "emulab",
            resources: vec![
                Resource::new(
                    "disk-read",
                    ResourceKind::DiskRead,
                    4000.0,
                    Some(per_proc_mbps),
                ),
                Resource::new("src-nic", ResourceKind::SourceNic, 10_000.0, None),
                Resource::new("link-1G", ResourceKind::NetworkLink, 1000.0, None),
                Resource::new("dst-nic", ResourceKind::DestNic, 10_000.0, None),
                Resource::new("disk-write", ResourceKind::DiskWrite, 4000.0, None),
            ],
            bottleneck_link: 2,
            rtt_s: 0.030,
            mss_bytes: falcon_tcp::DEFAULT_MSS_BYTES,
            cca: CongestionControl::Cubic,
            loss_model: BottleneckLossModel::default(),
            // Emulab is an isolated testbed: measurements are quiet.
            noise_std_frac: 0.005,
            sample_interval_s: 5.0,
            max_concurrency: 100,
        }
    }

    /// XSEDE (OSG–Comet): Lustre read-limited. Calibration: aggregate read
    /// ~5.6 Gbps (Falcon measures ~5.4), per-process read ~620 Mbps so ~9
    /// concurrent reads saturate the file system; 10G network is never the
    /// bottleneck, so loss stays ~0 (sender-limited, paper §3.1).
    pub fn xsede() -> Self {
        Environment {
            name: "xsede",
            resources: vec![
                Resource::new("lustre-read", ResourceKind::DiskRead, 5600.0, Some(620.0))
                    .with_contention(12, 0.02),
                Resource::new("src-nic", ResourceKind::SourceNic, 10_000.0, None),
                Resource::new("link-10G", ResourceKind::NetworkLink, 10_000.0, None),
                Resource::new("dst-nic", ResourceKind::DestNic, 10_000.0, None),
                Resource::new("gpfs-write", ResourceKind::DiskWrite, 9000.0, Some(1200.0)),
            ],
            bottleneck_link: 2,
            rtt_s: 0.040,
            mss_bytes: falcon_tcp::DEFAULT_MSS_BYTES,
            cca: CongestionControl::Cubic,
            loss_model: BottleneckLossModel::default(),
            noise_std_frac: 0.06,
            sample_interval_s: 5.0,
            max_concurrency: 64,
        }
    }

    /// HPCLab: isolated 40G LAN, NVMe RAID write-limited. Calibration:
    /// aggregate write ~27 Gbps (Falcon measures >25), per-process write
    /// ~3.1 Gbps so ~9 writers saturate; reads slightly faster.
    pub fn hpclab() -> Self {
        Environment {
            name: "hpclab",
            resources: vec![
                Resource::new("nvme-read", ResourceKind::DiskRead, 34_000.0, Some(4200.0)),
                Resource::new("src-nic", ResourceKind::SourceNic, 40_000.0, None),
                Resource::new("lan-40G", ResourceKind::NetworkLink, 40_000.0, None),
                Resource::new("dst-nic", ResourceKind::DestNic, 40_000.0, None),
                Resource::new(
                    "nvme-write",
                    ResourceKind::DiskWrite,
                    27_000.0,
                    Some(3100.0),
                ),
            ],
            bottleneck_link: 2,
            rtt_s: 0.0001,
            mss_bytes: falcon_tcp::DEFAULT_MSS_BYTES,
            cca: CongestionControl::Cubic,
            loss_model: BottleneckLossModel::default(),
            noise_std_frac: 0.03,
            sample_interval_s: 3.0,
            max_concurrency: 64,
        }
    }

    /// Campus Cluster: GPFS both ends with ample aggregate bandwidth, 10G
    /// NIC is the bottleneck (Table 1). Per-process GPFS streams ~1.5 Gbps so
    /// ~7 streams saturate the NIC; Falcon measures ~9.2 Gbps.
    pub fn campus_cluster() -> Self {
        Environment {
            name: "campus-cluster",
            resources: vec![
                Resource::new("gpfs-read", ResourceKind::DiskRead, 20_000.0, Some(1500.0)),
                Resource::new("src-nic", ResourceKind::SourceNic, 9600.0, None),
                Resource::new("lan-10G", ResourceKind::NetworkLink, 10_000.0, None),
                Resource::new("dst-nic", ResourceKind::DestNic, 9600.0, None),
                Resource::new(
                    "gpfs-write",
                    ResourceKind::DiskWrite,
                    20_000.0,
                    Some(1500.0),
                ),
            ],
            bottleneck_link: 2,
            rtt_s: 0.0001,
            mss_bytes: falcon_tcp::DEFAULT_MSS_BYTES,
            cca: CongestionControl::Cubic,
            loss_model: BottleneckLossModel::default(),
            noise_std_frac: 0.04,
            sample_interval_s: 3.0,
            max_concurrency: 64,
        }
    }

    /// A two-hop wide-area path: a 5 Gbps regional access link feeding a
    /// 2.5 Gbps shared backbone segment (the tighter hop). Loss can arise
    /// at either link; the end-to-end survival is their product. Used by
    /// multi-hop tests — not one of the paper's testbeds.
    pub fn multi_hop() -> Self {
        Environment {
            name: "multi-hop",
            resources: vec![
                Resource::new("disk-read", ResourceKind::DiskRead, 8000.0, Some(400.0)),
                Resource::new("src-nic", ResourceKind::SourceNic, 10_000.0, None),
                Resource::new("regional-5G", ResourceKind::NetworkLink, 5000.0, None),
                Resource::new("backbone-2.5G", ResourceKind::NetworkLink, 2500.0, None),
                Resource::new("dst-nic", ResourceKind::DestNic, 10_000.0, None),
                Resource::new("disk-write", ResourceKind::DiskWrite, 8000.0, None),
            ],
            bottleneck_link: 3,
            rtt_s: 0.050,
            mss_bytes: falcon_tcp::DEFAULT_MSS_BYTES,
            cca: CongestionControl::Cubic,
            loss_model: BottleneckLossModel::default(),
            noise_std_frac: 0.02,
            sample_interval_s: 5.0,
            max_concurrency: 64,
        }
    }

    /// Stampede2–Comet: 40G wide-area path, 60 ms RTT. Calibration: end-to-end
    /// capacity ~29 Gbps (Falcon alone measures 26–28 Gbps), per-process
    /// ~1.9 Gbps so ~15-16 streams saturate.
    pub fn stampede2_comet() -> Self {
        Environment {
            name: "stampede2-comet",
            resources: vec![
                Resource::new(
                    "lustre-read",
                    ResourceKind::DiskRead,
                    30_000.0,
                    Some(1900.0),
                ),
                Resource::new("src-nic", ResourceKind::SourceNic, 40_000.0, None),
                Resource::new("wan-40G", ResourceKind::NetworkLink, 29_000.0, None),
                Resource::new("dst-nic", ResourceKind::DestNic, 40_000.0, None),
                Resource::new(
                    "lustre-write",
                    ResourceKind::DiskWrite,
                    32_000.0,
                    Some(2100.0),
                ),
            ],
            bottleneck_link: 2,
            rtt_s: 0.060,
            mss_bytes: falcon_tcp::DEFAULT_MSS_BYTES,
            cca: CongestionControl::Cubic,
            loss_model: BottleneckLossModel::default(),
            noise_std_frac: 0.05,
            sample_interval_s: 5.0,
            max_concurrency: 64,
        }
    }

    /// A fleet backbone: `link_mbps.len()` independent bottleneck links
    /// (up to 64, the width of the routing bitmask), each with its own
    /// capacity and loss model. Transfers are routed over subsets of the
    /// links via [`crate::Simulation::add_agent_on_path`]; end hosts are
    /// not modeled (no per-process disk caps), so the links are the only
    /// contended resources and a transfer is constrained by the
    /// minimum-capacity link on its route. `bottleneck_link` points at the
    /// tightest link. Not one of the paper's testbeds — the substrate for
    /// `falcon-fleet` campaigns. Topologies beyond 64 links run on the
    /// indexed route sets of `falcon_fleet`'s scale engine instead of an
    /// `Environment`.
    pub fn fleet(link_mbps: &[f64]) -> Self {
        const LINK_NAMES: [&str; 64] = [
            "link0", "link1", "link2", "link3", "link4", "link5", "link6", "link7", "link8",
            "link9", "link10", "link11", "link12", "link13", "link14", "link15", "link16",
            "link17", "link18", "link19", "link20", "link21", "link22", "link23", "link24",
            "link25", "link26", "link27", "link28", "link29", "link30", "link31", "link32",
            "link33", "link34", "link35", "link36", "link37", "link38", "link39", "link40",
            "link41", "link42", "link43", "link44", "link45", "link46", "link47", "link48",
            "link49", "link50", "link51", "link52", "link53", "link54", "link55", "link56",
            "link57", "link58", "link59", "link60", "link61", "link62", "link63",
        ];
        // falcon-lint::allow(panic-safety, reason = "construction-time validation of a programmer-supplied topology")
        assert!(
            !link_mbps.is_empty() && link_mbps.len() <= LINK_NAMES.len(),
            "fleet environments support 1..=64 links (the routing-mask width), got {}",
            link_mbps.len()
        );
        let resources: Vec<Resource> = link_mbps
            .iter()
            .zip(LINK_NAMES)
            .map(|(&cap, name)| {
                // falcon-lint::allow(panic-safety, reason = "construction-time validation of a programmer-supplied topology")
                assert!(cap > 0.0, "link capacity must be positive, got {cap}");
                Resource::new(name, ResourceKind::NetworkLink, cap, None)
            })
            .collect();
        let bottleneck_link = link_mbps
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Environment {
            name: "fleet",
            resources,
            bottleneck_link,
            rtt_s: 0.020,
            mss_bytes: falcon_tcp::DEFAULT_MSS_BYTES,
            cca: CongestionControl::Cubic,
            loss_model: BottleneckLossModel::default(),
            noise_std_frac: 0.02,
            sample_interval_s: 3.0,
            max_concurrency: 32,
        }
    }

    /// Replace the congestion-control algorithm (used by the BBR ablation).
    pub fn with_cca(mut self, cca: CongestionControl) -> Self {
        self.cca = cca;
        self
    }

    /// Disable measurement noise (used by deterministic tests).
    pub fn without_noise(mut self) -> Self {
        self.noise_std_frac = 0.0;
        self
    }

    /// The routing mask that crosses every resource: bit `i` set for each
    /// resource `i` (all 64 bits for a 64-link fleet).
    pub fn full_path_mask(&self) -> u64 {
        let n = self.resources.len().min(64) as u32;
        u64::MAX.checked_shr(64 - n).unwrap_or(0)
    }

    /// The capacity of the end-to-end path for a single agent allowed
    /// unlimited concurrency: the minimum aggregate capacity along the path.
    pub fn path_capacity_mbps(&self) -> f64 {
        self.resources
            .iter()
            .map(|r| r.capacity_mbps)
            .fold(f64::INFINITY, f64::min)
    }

    /// The smallest concurrency that can saturate the path, given per-process
    /// disk caps (ignoring loss): `ceil(path_capacity / per_proc_cap)` where
    /// the per-process cap is the tightest per-stream disk constraint.
    pub fn saturating_concurrency(&self) -> u32 {
        let cap = self.path_capacity_mbps();
        let per_proc = self
            .resources
            .iter()
            .filter(|r| r.kind.is_disk())
            .filter_map(|r| r.per_stream_cap_mbps)
            .fold(f64::INFINITY, f64::min);
        if per_proc.is_infinite() {
            1
        } else {
            (cap / per_proc).ceil() as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_and_have_valid_bottleneck_index() {
        for kind in EnvironmentKind::all() {
            let env = kind.build();
            assert!(env.bottleneck_link < env.resources.len(), "{}", env.name);
            assert_eq!(
                env.resources[env.bottleneck_link].kind,
                ResourceKind::NetworkLink,
                "{}",
                env.name
            );
        }
    }

    #[test]
    fn fig4_needs_ten_streams() {
        assert_eq!(Environment::emulab_fig4().saturating_concurrency(), 10);
    }

    #[test]
    fn emulab_48_preset_needs_about_48_streams() {
        let n = Environment::emulab(21.0).saturating_concurrency();
        assert!((46..=50).contains(&n), "got {n}");
    }

    #[test]
    fn emulab_10_preset_needs_ten_streams() {
        assert_eq!(Environment::emulab(100.0).saturating_concurrency(), 10);
    }

    #[test]
    fn xsede_is_disk_read_limited() {
        let env = Environment::xsede();
        assert!((env.path_capacity_mbps() - 5600.0).abs() < 1.0);
        let n = env.saturating_concurrency();
        assert!((8..=11).contains(&n), "got {n}");
    }

    #[test]
    fn hpclab_is_write_limited_around_9() {
        let env = Environment::hpclab();
        assert!((env.path_capacity_mbps() - 27_000.0).abs() < 1.0);
        let n = env.saturating_concurrency();
        assert!((8..=10).contains(&n), "got {n}");
    }

    #[test]
    fn campus_is_nic_limited() {
        let env = Environment::campus_cluster();
        assert!((env.path_capacity_mbps() - 9600.0).abs() < 1.0);
    }

    #[test]
    fn multi_hop_bottleneck_is_the_tighter_link() {
        let env = Environment::multi_hop();
        assert!((env.path_capacity_mbps() - 2500.0).abs() < 1.0);
        assert_eq!(env.saturating_concurrency(), 7); // 2500 / 400
                                                     // Two network links in the path.
        let links = env
            .resources
            .iter()
            .filter(|r| r.kind == ResourceKind::NetworkLink)
            .count();
        assert_eq!(links, 2);
    }

    #[test]
    fn fleet_builds_links_only_and_finds_tightest() {
        let env = Environment::fleet(&[1000.0, 1600.0, 2500.0]);
        assert_eq!(env.resources.len(), 3);
        assert!(env
            .resources
            .iter()
            .all(|r| r.kind == ResourceKind::NetworkLink));
        assert_eq!(env.bottleneck_link, 0);
        assert!((env.path_capacity_mbps() - 1000.0).abs() < 1e-9);
        assert_eq!(env.saturating_concurrency(), 1); // no disk caps
    }

    #[test]
    fn full_path_mask_covers_every_resource_up_to_64() {
        assert_eq!(Environment::fleet(&[1000.0]).full_path_mask(), 0b1);
        assert_eq!(Environment::emulab(100.0).full_path_mask(), 0b11111);
        assert_eq!(Environment::fleet(&[1000.0; 64]).full_path_mask(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "1..=64 links")]
    fn fleet_rejects_empty_topology() {
        let _ = Environment::fleet(&[]);
    }

    #[test]
    fn table1_rtts_match_paper() {
        assert_eq!(Environment::emulab(100.0).rtt_s, 0.030);
        assert_eq!(Environment::xsede().rtt_s, 0.040);
        assert_eq!(Environment::hpclab().rtt_s, 0.0001);
        assert_eq!(Environment::campus_cluster().rtt_s, 0.0001);
        assert_eq!(Environment::stampede2_comet().rtt_s, 0.060);
    }

    #[test]
    fn sample_intervals_follow_paper_rule() {
        // 3 s for LAN, 5 s for WAN (§4).
        assert_eq!(Environment::hpclab().sample_interval_s, 3.0);
        assert_eq!(Environment::campus_cluster().sample_interval_s, 3.0);
        assert_eq!(Environment::xsede().sample_interval_s, 5.0);
        assert_eq!(Environment::stampede2_comet().sample_interval_s, 5.0);
    }
}
