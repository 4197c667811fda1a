//! Fleet-scale campaign engine.
//!
//! The paper evaluates Falcon with a handful of transfers on one shared
//! bottleneck; production networks run *fleets* — hundreds of transfers
//! arriving, tuning, and departing across many bottleneck links. This
//! crate drives that regime against the routed simulator:
//!
//! - [`FleetTopology`]: a multi-bottleneck backbone
//!   ([`falcon_sim::Environment::fleet`]) plus the routes transfers take
//!   over it (per-link routes and multi-hop routes whose loss compounds
//!   per congested hop).
//! - [`Workload`] / [`generate`]: a deterministic workload generator —
//!   seeded Poisson-like arrivals, file-size and route distributions,
//!   long-lived anchor transfers per route, departures on completion.
//! - [`run_campaign`]: drives every arrival through a
//!   [`falcon_core::FalconAgent`] optimizer via the shared
//!   [`falcon_transfer::runner::Runner`], emitting `falcon-trace` events.
//! - [`FleetReport`]: per-link utilization and Jain's fairness index per
//!   bottleneck (over the transfers *bound* by that bottleneck), plus
//!   convergence counts and the 99th-percentile settle time.
//!
//! Everything is deterministic under a seed: same spec, same bytes.
//!
//! Two engines share this crate. The *classic* engine above tops out
//! around the runner's comfort zone (hundreds of transfers, ≤64 links).
//! The *scale* engine ([`run_scale_campaign`]) targets 10⁵–10⁶
//! transfers on generated fabrics ([`ScaleTopology::fat_tree`],
//! [`ScaleTopology::dumbbell_wan`], [`ScaleTopology::dtn_mesh`]):
//! structure-of-arrays transfer state over
//! [`falcon_sim::alloc::IncrementalMaxMin`]'s stable stream ids, a
//! fluid-model DES, and component-sharded execution whose merge is
//! byte-identical at any thread count.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

mod campaign;
mod report;
mod scale;
mod topology;
mod tuner;
mod workload;

pub use campaign::{run_campaign, CampaignOutcome, CampaignSpec};
pub use falcon_rl::RlKind;
pub use report::{FleetReport, LinkReport};
pub use scale::{
    correlated_failure_waves, run_scale_campaign, run_scale_campaign_traced, LinkFailure,
    ScaleCampaignSpec, ScaleReport, ScaleTuner, ScaleWorkload, PROBE_INTERVAL_S,
};
pub use topology::{FleetTopology, PathSpec, RouteSpec, ScaleLink, ScaleTopology};
pub use tuner::FleetTuner;
pub use workload::{generate, TransferSpec, Workload};
