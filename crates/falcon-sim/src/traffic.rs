//! Background cross-traffic generator.
//!
//! The paper's core motivation for *online* optimization is that "the
//! optimal solution can be different for identical transfers … over time
//! due to change in background traffic" (§1). [`periodic_bursts`] scripts
//! [`crate::BackgroundFlow`]s onto the shared bottleneck so experiments can
//! exercise exactly that.

use crate::sim::BackgroundFlow;

/// A square-wave load: bursts of `demand_mbps` lasting `on_s`, every
/// `period_s`, starting at `start_s`.
pub fn periodic_bursts(
    start_s: f64,
    period_s: f64,
    on_s: f64,
    demand_mbps: f64,
    connections: u32,
    until_s: f64,
) -> Vec<BackgroundFlow> {
    debug_assert!(period_s > 0.0 && on_s > 0.0 && on_s <= period_s);
    if period_s <= 0.0 || on_s <= 0.0 {
        return Vec::new();
    }
    let on_s = on_s.min(period_s);
    let mut flows = Vec::new();
    for i in 0u32.. {
        let t = start_s + f64::from(i) * period_s;
        if t >= until_s {
            break;
        }
        flows.push(BackgroundFlow {
            start_s: t,
            end_s: (t + on_s).min(until_s),
            demand_mbps,
            connections,
        });
    }
    flows
}

/// Total background demand active at time `t` (for assertions and plots).
pub fn demand_at(flows: &[BackgroundFlow], t: f64) -> f64 {
    flows
        .iter()
        .filter(|f| t >= f.start_s && t < f.end_s)
        .map(|f| f.demand_mbps)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_bursts_have_correct_duty_cycle() {
        let flows = periodic_bursts(0.0, 100.0, 30.0, 500.0, 5, 1000.0);
        assert_eq!(flows.len(), 10);
        assert_eq!(demand_at(&flows, 10.0), 500.0);
        assert_eq!(demand_at(&flows, 50.0), 0.0);
        assert_eq!(demand_at(&flows, 110.0), 500.0);
    }

    #[test]
    fn periodic_bursts_respect_horizon() {
        let flows = periodic_bursts(0.0, 100.0, 90.0, 100.0, 1, 250.0);
        assert!(flows.iter().all(|f| f.end_s <= 250.0));
    }

    #[test]
    fn demand_at_handles_overlaps() {
        let flows = vec![
            BackgroundFlow {
                start_s: 0.0,
                end_s: 100.0,
                demand_mbps: 100.0,
                connections: 1,
            },
            BackgroundFlow {
                start_s: 50.0,
                end_s: 150.0,
                demand_mbps: 200.0,
                connections: 2,
            },
        ];
        assert_eq!(demand_at(&flows, 75.0), 300.0);
        assert_eq!(demand_at(&flows, 125.0), 200.0);
        assert_eq!(demand_at(&flows, 200.0), 0.0);
    }
}
